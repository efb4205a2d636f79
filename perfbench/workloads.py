"""The benchmark's three workloads and their correctness gates.

Each workload turns a seed into inputs (``inputs``), prepares them
(``setup``, timed as set-up), and runs one timed pass (``run_pass``) that
returns the (start, end) of every query and one entry per attempted
operation.
``check`` then fills in each operation's failures from the outputs the pass
left behind, using only the references in ``oracles``.
"""

import contextlib
import io
import json
import random
import time
from collections import defaultdict
from math import gcd
from pathlib import Path

import numpy as np

import oracles
from unchained import cli, continuation, ngon, symmetry, torsion

P12 = (3, 1, -1, 2, 1)
HH4 = (4, 2, 1, 1, 1)
HEXAGON = (6, 1, -1, 5, 1)

SEED_TABLE = Path(__file__).with_name("seed_table.json")
# family tables may drift by integrator error when the flow kernel or the
# record quadrature changes; a real defect moves them far more than this
TABLE_RTOL = 1e-7


def _spec_args(spec):
    return [str(v) for v in spec]


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(b))


def _invoke(argv):
    """Run one CLI command in-process; returns ((start, end), error or None)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the op fails; the run goes on
        return (start, time.perf_counter()), f"raised {exc!r}"
    span = (start, time.perf_counter())
    if code != 0:
        return span, f"exit {code}: {sink.getvalue().strip()[-300:]}"
    return span, None


class Families:
    """The ROADMAP's headline command: P12 and the 4-body Hip-Hop, serial.

    The seed picks the onset direction (the two directions are mirror
    images under the vertical flip, so they do the same work) and the first
    arclength step, from choices that all reach max-steps; seed 0 is the
    command exactly as the ROADMAP gives it.
    """

    name = "families"
    setup_repeats = 5
    specs = (P12, HH4)
    steps = 20
    first_steps = (0.04, 0.035, 0.045)
    predicted = (
        "continuation.integrate.variational.calls",
        "continuation.integrate.plain.calls",
        "continuation.integrate.sampled.calls",
        "continuation.rhs_us.n3", "continuation.rhs_us.n4",
        "continuation.continue_family.calls",
        "continuation.onset_state.calls",
        "ngon.gravity.calls", "ngon.force_jacobian.calls",
        "ngon.potential.calls", "ngon.action.calls",
        "ngon.angular_momentum_z.calls",
        "torsion.torsion_gamma.calls", "torsion.reconstruct_loop.calls",
        "cli.main.calls",
    )

    def inputs(self, seed):
        return {"specs": [list(s) for s in self.specs], "steps": self.steps,
                "direction": (1, -1)[seed % 2],
                "step": self.first_steps[(seed // 2) % len(self.first_steps)]}

    def setup(self, inputs, workdir):
        paths = [workdir / f"family-{i}.csv" for i in range(len(self.specs))]
        argv = ["continue"]
        for spec in inputs["specs"]:
            argv += _spec_args(spec)
        argv += ["--steps", str(inputs["steps"]),
                 "--direction", str(inputs["direction"]),
                 "--step", repr(inputs["step"])]
        for path in paths:
            argv += ["--out", str(path)]
        return {"inputs": inputs, "argv": argv, "paths": paths}

    def run_pass(self, state):
        for path in state["paths"]:
            path.unlink(missing_ok=True)
        span, error = _invoke(state["argv"])
        ops = [{"op": f"continue {spec}", "error": error, "failures": []}
               for spec in state["inputs"]["specs"]]
        return [span], ops

    def check(self, state, ops):
        inputs = state["inputs"]
        table = json.loads(SEED_TABLE.read_text())
        for op, spec, path in zip(ops, inputs["specs"], state["paths"]):
            if op["error"] is not None:
                continue
            try:
                op["failures"] += self._check_family(
                    tuple(spec), path, inputs, table)
            except (ValueError, KeyError, IndexError) as exc:
                op["failures"].append(f"unreadable output: {exc!r}")

    def _check_family(self, spec, path, inputs, table):
        if not path.is_file():
            return [f"{path.name} was not written"]
        lines = path.read_text().splitlines()
        end = lines[-1].partition("=")[2]
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in lines[2:-1]])
        out = []
        if end != "max-steps" or len(rows) != inputs["steps"] + 1:
            return [f"{len(rows)} records, end={end}"]
        varpi, amp, action, period, lz = rows.T
        w0, a0, l0 = oracles.relative_equilibrium(spec)
        if abs(amp[0]) > 1e-12 or not (_close(varpi[0], w0, 1e-10)
                                       and _close(action[0], a0, 1e-9)
                                       and _close(lz[0], l0, 1e-9)):
            out.append(f"record 0 {rows[0].tolist()} is not the relative "
                       f"equilibrium ({w0}, {a0}, {l0})")
        gamma = (oracles.GAMMA_P12 if spec == P12
                 else torsion.torsion_gamma(symmetry.GroupSpec(*spec)).gamma)
        slope = np.mean((varpi[1:4] - varpi[0]) / amp[1:4] ** 2)
        if abs(slope - gamma) > 0.05 * abs(gamma):
            out.append(f"torsion slope {slope} vs gamma {gamma}")
        if np.any(period != spec[4]):
            out.append("period column is not s")
        key = f"{','.join(map(str, spec))}@{inputs['step']}"
        ref = np.array(table[key])
        ref[:, 1] *= inputs["direction"]
        got = np.column_stack([varpi, amp, action, lz])
        gap = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        if gap.max() > TABLE_RTOL:
            out.append(f"family table off the stored seed table by "
                       f"{gap.max():.2e} (bound {TABLE_RTOL:.0e})")
        return out


class Orbits:
    """On-demand analysis of shot orbits: dense sampling, no Newton.

    Set-up shoots one orbit per spec at a seed-chosen amplitude of the
    onset expansion; every amplitude converges in the same number of Newton
    steps.  The timed pass samples and analyses each orbit.
    """

    name = "orbits"
    setup_repeats = 3
    specs = (P12, HH4, HEXAGON)
    amplitudes = (0.03, 0.04, 0.05, 0.06, 0.07)
    # newton_residual(resample(64)) and ptp L_z per spec.  The hexagon's
    # residual is spectral-derivative noise (2e-8 to 4e-8 at the seed,
    # growing with resolution) against a closing residual near 5e-14, so
    # its seed value is the bound, not criterion 8's 1e-8.
    bounds = {P12: (1e-8, 1e-9), HH4: (1e-8, 1e-9), HEXAGON: (5e-8, 2e-9)}
    predicted = (
        "continuation.integrate.sampled.calls", "continuation.rhs_us.n3",
        "continuation.rhs_us.n4", "continuation.rhs_us.n6",
        "continuation.monodromy.calls",
        "ngon.gravity.calls", "ngon.potential.calls", "ngon.action.calls",
        "ngon.angular_momentum_z.calls", "ngon.newton_residual.calls",
        "symmetry.invariance_defect.calls", "symmetry.apply_element.calls",
        "symmetry.enumerate_elements.calls",
    )

    def inputs(self, seed):
        rng = random.Random(seed)
        return {"orbits": [{"spec": list(s),
                            "epsilon": rng.choice(self.amplitudes)}
                           for s in self.specs]}

    def setup(self, inputs, workdir):
        orbits = []
        for item in inputs["orbits"]:
            spec = symmetry.GroupSpec(*item["spec"])
            state, varpi = continuation.onset_state(spec, item["epsilon"])
            orbits.append((tuple(item["spec"]), spec,
                           continuation.shoot_symmetric(spec, varpi, state)))
        return orbits

    def run_pass(self, state):
        latencies, ops = [], []
        for key, spec, orbit in state:
            op = {"op": f"orbit {key}", "error": None, "failures": []}
            start = time.perf_counter()
            try:
                loop = orbit.sample(512)
                op["loop"] = loop
                op["defect"] = symmetry.invariance_defect(loop, spec)
                op["residual64"] = ngon.newton_residual(loop.resample(64),
                                                        orbit.varpi)
                op["lz"] = ngon.angular_momentum_z(loop, orbit.varpi)
                op["action"] = ngon.action(loop, orbit.varpi)
                op["mu"] = continuation.monodromy(orbit)
                record = continuation.FamilyRecord(
                    orbit.varpi, orbit.amplitude, op["action"], orbit.period,
                    float(np.mean(op["lz"])), orbit)
                op["diagram"] = continuation.action_diagram([record])
            except Exception as exc:  # the op fails; the run goes on
                op["error"] = f"raised {exc!r}"
            latencies.append((start, time.perf_counter()))
            ops.append(op)
        return latencies, ops

    def check(self, state, ops):
        for (key, spec, orbit), op in zip(state, ops):
            if op["error"] is None:
                op["failures"] += self._check_orbit(key, orbit, op)
            for field in ("loop", "lz", "diagram"):
                op.pop(field, None)

    def _check_orbit(self, key, orbit, op):
        out = []
        res_bound, lz_bound = self.bounds[key]
        if not op["defect"] <= 1e-6:
            out.append(f"invariance defect {op['defect']:.2e} > 1e-6")
        if not op["residual64"] <= res_bound:
            out.append(f"newton residual {op['residual64']:.2e} > "
                       f"{res_bound:.0e}")
        loop = op["loop"]
        action, lz = oracles.loop_invariants(loop.positions, loop.period,
                                             orbit.varpi)
        if np.ptp(lz) > lz_bound:
            out.append(f"L_z varies by {np.ptp(lz):.2e} > {lz_bound:.0e}")
        if not (_close(op["action"], action, 1e-10)
                and _close(float(np.mean(op["lz"])), float(np.mean(lz)),
                           1e-10)):
            out.append(f"action/L_z ({op['action']}, {np.mean(op['lz'])}) "
                       f"vs independent ({action}, {np.mean(lz)})")
        if not 0.0 <= op["mu"] < 1.0:
            out.append(f"rotation number {op['mu']} outside [0, 1)")
        diagram = op["diagram"]
        branch = oracles.branch_action(key, diagram.re_branch[:, 0])
        if not np.allclose(diagram.re_branch[:, 2], branch, rtol=1e-12,
                           atol=0.0):
            out.append("action diagram branch off the closed form")
        if diagram.family[0, 2] != op["action"]:
            out.append("action diagram family row is not the record")
        return out


def catalog_specs():
    """All G_{r/s}(N, k, eta) with N 3-12, s 1-6, |r| <= 2s: 3185 specs."""
    specs = []
    for n in range(3, 13):
        for k in range(1, n // 2 + 1):
            for eta in ((1,) if 2 * k == n else (-1, 1)):
                for s in range(1, 7):
                    for r in range(-2 * s, 2 * s + 1):
                        if gcd(r, s) == 1:
                            specs.append((n, k, eta, r, s))
    return specs


class Catalog:
    """The exact, integration-free commands over a sample of the catalog.

    The sample is stratified so that a pass does the same work whatever
    the seed: one s = 1 spec (random r) per (N, k, eta), because the group
    structure search of s = 1 dominates the slow tail of the queries, and
    one spec (random k, eta, r) per (N, s) for s = 2-6.  s = 1 specs also
    search for a relabelling onto a seed-chosen s = 1 spec of the same N.
    """

    name = "catalog"
    setup_repeats = 5
    commands = ("group", "bounds", "torsion", "spectrum")
    predicted = (
        "cli.main.calls",
        "symmetry.enumerate_elements.calls",
        "symmetry.structure_report.calls",
        "symmetry.find_isomorphism.calls", "symmetry.make_element.calls",
        "symmetry.compose.calls", "symmetry.element_order.calls",
        "torsion.torsion_gamma.calls", "torsion.build_equations.calls",
        "minimize.absolute_interval.calls",
        "minimize.lambda_G_bruteforce.calls",
        "spectrum.vertical_spectrum.calls",
        "spectrum.horizontal_spectrum.calls",
    )

    def inputs(self, seed):
        rng = random.Random(seed)
        cells = defaultdict(list)
        for spec in catalog_specs():
            n, k, eta, _, s = spec
            cells[(n, k, eta, 1) if s == 1 else (n, 0, 0, s)].append(spec)
        picked = []
        for cell in sorted(cells):
            spec = rng.choice(cells[cell])
            iso = None
            if spec[4] == 1:
                partners = [p for c, specs in cells.items()
                            if c[0] == spec[0] and c[3] == 1 for p in specs]
                n, k, eta, r, _ = rng.choice(sorted(partners))
                iso = f"{n},{k},{eta},{r}"
            picked.append({"spec": list(spec), "find_iso": iso})
        return {"specs": picked}

    def setup(self, inputs, workdir):
        jobs = []
        for i, item in enumerate(inputs["specs"]):
            spec = _spec_args(item["spec"])
            for command in self.commands:
                path = workdir / f"{i}-{command}.txt"
                argv = [command] + (spec[:1] if command == "spectrum"
                                    else spec)
                if command == "group":
                    argv.append("--check-choreo")
                    if item["find_iso"]:
                        argv += ["--find-iso", item["find_iso"]]
                jobs.append((item, command, path, argv + ["--out", str(path)]))
        return jobs

    def run_pass(self, state):
        latencies, ops = [], []
        for item, command, path, argv in state:
            path.unlink(missing_ok=True)
            span, error = _invoke(argv)
            latencies.append(span)
            ops.append({"op": " ".join(argv[:-2]), "error": error,
                        "failures": []})
        return latencies, ops

    def check(self, state, ops):
        gammas = defaultdict(list)
        spectra = {}
        for (item, command, path, _), op in zip(state, ops):
            if op["error"] is not None:
                continue
            if not path.is_file():
                op["failures"].append(f"{path.name} was not written")
                continue
            spec = tuple(item["spec"])
            text = path.read_text()
            try:
                if command == "group":
                    op["failures"] += self._check_group(spec, item, text)
                elif command == "bounds":
                    if "bruteforce: consistent" not in text:
                        op["failures"].append("bounds not consistent")
                elif command == "torsion":
                    gamma = json.loads(text)["gamma"]
                    gammas[spec[:3]].append((gamma, op))
                else:
                    n = spec[0]
                    if n not in spectra:
                        spectra[n] = oracles.wintner_frequencies(n)
                    op["failures"] += self._check_spectrum(spectra[n], text)
            except (ValueError, KeyError, IndexError, StopIteration) as exc:
                op["failures"].append(f"unreadable output: {exc!r}")
        for key, found in gammas.items():
            ref = found[0][0]
            if any(not _close(g, ref, 1e-12) for g, _ in found):
                for _, op in found:
                    op["failures"].append(
                        f"gamma differs across specs sharing {key}")

    @staticmethod
    def _check_group(spec, item, text):
        n, _, _, _, s = spec
        fields = dict(line.split(" = ", 1) for line in text.splitlines()
                      if " = " in line)
        out = []
        if fields.get("order") != str(4 * n * s):
            out.append(f"order {fields.get('order')} != 4Ns = {4 * n * s}")
        choreo = "yes" if oracles.is_choreography_bruteforce(spec) else "no"
        if f"simple choreography: {choreo}" not in text:
            out.append(f"choreography should read {choreo}")
        if item["find_iso"]:
            perm = fields.get("permutation")
            if perm is None:
                if not text.rstrip().endswith(": none"):
                    out.append("no isomorphism line")
            elif sorted(int(p) for p in perm.split()) != list(range(n)):
                out.append(f"relabelling {perm} is not a permutation")
        return out

    @staticmethod
    def _check_spectrum(freqs, text):
        lines = text.splitlines()
        n = int(lines[0].split()[-1])
        ratios = [float(line.split()[1]) for line in lines
                  if line.startswith("  k=")]
        head = next(i for i, line in enumerate(lines)
                    if line.startswith("horizontal spectrum"))
        out = []
        if len(ratios) != len(freqs) or not np.allclose(
                ratios, freqs / freqs[0], rtol=0.0, atol=1e-9):
            out.append(f"vertical ratios {ratios} vs eigensolver "
                       f"{(freqs / freqs[0]).tolist()}")
        if len(lines) - head - 1 != 4 * n - 6:
            out.append(f"{len(lines) - head - 1} horizontal eigenvalues, "
                       f"not 4N - 6")
        return out


WORKLOADS = {w.name: w for w in (Families(), Orbits(), Catalog())}
