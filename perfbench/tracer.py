"""Outside-in tracer for the traced benchmark run.

The tracer wraps the public functions of the package's modules and rebinds
each wrapper at every ``unchained.*`` module attribute that held the original,
so calls made from inside the package (``continuation.gravity`` in the flow,
``ngon.potential`` inside ``ngon.action``) are seen as well as calls made by
the benchmark.  Nothing in the package is edited; ``uninstall`` puts every
original back.  Spans are read off ``clock``: the benchmark passes the probe
clock of ``speed.py``, which stands still while a host-speed probe runs.

Per wrapped name it keeps an exact call count, the calls from each calling
span, and the self time: the span of the call minus the spans of wrapped
calls made inside it.  ``integrate`` is split by kind of integration
(variational closing, plain line-search trial, sampled on ``t_eval``), and
scipy's ``solve_ivp`` as bound in ``continuation`` is hooked to add each
solution's ``nfev`` to the innermost open integration.  The wrappers' own
cost lands in the self time of the calling span.
"""

import functools
import sys
import time
import types
from collections import defaultdict

MODULES = ("cli", "continuation", "ngon", "symmetry", "torsion", "minimize",
           "spectrum")
KINDS = ("variational", "plain", "sampled")
RHS_BODIES = (3, 4, 6)

_TIMED = (
    [f"continuation.{f}" for f in ("continue_family", "shoot_symmetric",
                                   "monodromy", "onset_state")]
    + [f"ngon.{f}" for f in ("gravity", "force_jacobian", "potential",
                             "action", "angular_momentum_z",
                             "newton_residual")]
    + [f"symmetry.{f}" for f in ("enumerate_elements", "structure_report",
                                 "find_isomorphism", "make_element",
                                 "compose", "element_order",
                                 "invariance_defect", "apply_element")]
    + [f"torsion.{f}" for f in ("torsion_gamma", "build_equations",
                                "reconstruct_loop")]
    + [f"minimize.{f}" for f in ("absolute_interval", "lambda_G_bruteforce")]
    + [f"spectrum.{f}" for f in ("vertical_spectrum", "horizontal_spectrum")]
    + ["cli.main"]
)

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"continuation.integrate.{k}.{m}", u, "lower") for k in KINDS
     for m, u in (("calls", "count"), ("self_s", "s"), ("nfev", "count"))]
    + [(f"continuation.rhs_us.n{n}", "us", "lower") for n in RHS_BODIES]
    + [(f"{name}.{m}", u, "lower") for name in _TIMED
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("continuation.records_per_newton", "ratio", "higher"),
       ("continuation.trials_per_newton", "ratio", "lower"),
       ("symmetry.elements_built", "count", "lower"),
       ("trace.overhead_s", "s", "lower")]
)

# per-layer metrics that are exact counts and must repeat run to run
COUNTS = [name for name, unit, _ in PER_LAYER if unit == "count"]


def public_functions(module):
    """Functions a module defines and exports (``__all__`` when present)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {n: getattr(module, n) for n in names
            if isinstance(getattr(module, n), types.FunctionType)
            and getattr(module, n).__module__ == module.__name__}


class Tracer:
    """Call counts and self times of the package's public functions."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.nfev = defaultdict(int)
        self.rhs_time = defaultdict(float)
        self.rhs_nfev = defaultdict(int)
        self.callers = defaultdict(lambda: defaultdict(int))
        self.records = 0
        self.elements_built = 0
        self._open = []          # [name, child-span time] of each open span
        self._integrations = []  # (kind, n_bodies) of open integrations
        self._saved = []         # (module, attribute, original)

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        self._open.append([name, 0.0])
        return self._clock()

    def _leave(self, start):
        span = self._clock() - start
        name, child = self._open.pop()
        self.calls[name] += 1
        self.self_s[name] += span - child
        if self._open:
            self._open[-1][1] += span
        self.callers[name][self._open[-1][0] if self._open else None] += 1
        return span

    def _wrap(self, name, fn):
        tracer = self
        if name == "continuation.integrate":
            @functools.wraps(fn)
            def wrapper(state, *args, **kwargs):
                if kwargs.get("variational"):
                    kind = "variational"
                elif kwargs.get("t_eval") is not None:
                    kind = "sampled"
                else:
                    kind = "plain"
                n = len(state[0])
                tracer._integrations.append((kind, n))
                start = tracer._enter(f"{name}.{kind}")
                try:
                    return fn(state, *args, **kwargs)
                finally:
                    tracer._integrations.pop()
                    tracer.rhs_time[n] += tracer._leave(start)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(start)
            if name == "continuation.continue_family":
                tracer.records += len(result.records)
            elif name == "symmetry.enumerate_elements":
                tracer.elements_built += len(result)
            return result
        return wrapper

    def _count_nfev(self, solve_ivp):
        tracer = self

        @functools.wraps(solve_ivp)
        def wrapper(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            kind, n = tracer._integrations[-1]
            tracer.nfev[kind] += sol.nfev
            tracer.rhs_nfev[n] += sol.nfev
            return sol
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Rebind every traced function at each module attribute holding it."""
        package = [m for name, m in sorted(sys.modules.items())
                   if name == "unchained" or name.startswith("unchained.")]
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"unchained.{short}"]
            for fname, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{fname}", fn))
        continuation = sys.modules["unchained.continuation"]
        solve_ivp = continuation.solve_ivp
        wrappers[id(solve_ivp)] = (solve_ivp, self._count_nfev(solve_ivp))
        for module in package:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- report -------------------------------------------------------------

    def snapshot(self):
        """Per-layer values accumulated so far (without trace.overhead_s)."""
        out = {}
        for kind in KINDS:
            key = f"continuation.integrate.{kind}"
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]
            out[f"{key}.nfev"] = self.nfev[kind]
        for n in RHS_BODIES:
            nfev = self.rhs_nfev[n]
            out[f"continuation.rhs_us.n{n}"] = (
                1e6 * self.rhs_time[n] / nfev if nfev else 0.0)
        for name in _TIMED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        newton = self.calls["continuation.integrate.variational"]
        trials = self.calls["continuation.integrate.plain"]
        out["continuation.records_per_newton"] = (
            self.records / newton if newton else 0.0)
        out["continuation.trials_per_newton"] = (
            trials / newton if newton else 0.0)
        out["symmetry.elements_built"] = self.elements_built
        return out

    def all_spans(self):
        """Calls, self time and calling spans of every traced name."""
        return {name: {"calls": self.calls[name],
                       "self_s": self.self_s[name],
                       "callers": {str(c): k for c, k
                                   in self.callers[name].items()}}
                for name in sorted(self.calls)}
