# The package's DOP853 stepper against scipy's, which it follows operation
# for operation: the tableau bit for bit, and every flow of the package
# (plain, stacked and tangent, forward and backward, at 1e-8, 1e-12 and the
# rtol floor) to the same final state, t_eval trajectory and right-hand-side
# count.  scipy is only a test oracle here; the package does not import it.
import contextlib

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients

import unchained.continuation as continuation
from unchained import dop853
from unchained.continuation import _reduction, integrate, onset_state
from unchained.dop853 import _BudgetExhausted, solve_ivp
from unchained.errors import IntegrationFailure
from unchained.symmetry import GroupSpec

P12 = GroupSpec(3, 1, -1, 2, 1)
FLOOR = "At least one element of `rtol`"


def test_tableau_matches_scipy_bit_for_bit():
    for name in ("C", "A", "B", "E3", "E5", "D"):
        ours = getattr(dop853, name)
        theirs = getattr(dop853_coefficients, name)
        assert ours.tobytes() == theirs.tobytes(), name


def _flow(kind, span):
    # the arguments integrate hands the stepper for one of the package's
    # flows of the P12 onset orbit: plain, a stack of two members at +-varpi
    # as `sample` runs, or a tangent pair seeded as a closing flow
    state, varpi = onset_state(P12, 0.05)
    pos, vel = state
    if kind == "plain":
        args = (state, varpi)
        kwargs = {}
    else:
        args = (np.stack([state, [pos, -vel]]), [varpi, -varpi])
        kwargs = ({} if kind == "stacked"
                  else dict(tangents=_reduction(P12).seeds))
    seen = []

    def captured(fun, t_span, y0, **options):
        seen.append((fun, t_span, y0))
        return solve_ivp(fun, t_span, y0, **options)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuation, "solve_ivp", captured)
        integrate(*args, span, tol=1e-8, **kwargs)
    return seen[0]


@pytest.mark.parametrize("span", [(0.0, 0.3), (0.3, -0.05)],
                         ids=["forward", "backward"])
@pytest.mark.parametrize("tol", [1e-8, 1e-12, 1e-16])
@pytest.mark.parametrize("kind", ["plain", "stacked", "tangent"])
def test_stepper_reproduces_scipy_bit_for_bit(kind, tol, span):
    fun, t_span, y0 = _flow(kind, span)
    t_eval = np.linspace(*span, 7)[1:]
    scipy = dict(method="DOP853", rtol=tol, atol=tol, max_step=0.04)
    # below 100 eps both raise rtol to it, with the same warning
    floor = (pytest.warns(UserWarning, match=FLOOR) if tol < 1e-14
             else contextlib.nullcontext())
    with floor:
        ours = solve_ivp(fun, t_span, y0, tol=tol, max_step=0.04)
    with floor:
        sampled = solve_ivp(fun, t_span, y0, tol=tol, t_eval=t_eval,
                            max_step=0.04)
    with floor:
        theirs = scipy_solve_ivp(fun, t_span, y0, **scipy)
    with floor:
        theirs_sampled = scipy_solve_ivp(fun, t_span, y0, t_eval=t_eval,
                                         **scipy)
    assert theirs.status == 0 and theirs_sampled.status == 0
    assert ours.state.tobytes() == theirs.y[:, -1].tobytes()
    assert ours.nfev == theirs.nfev
    assert sampled.trajectory.tobytes() == theirs_sampled.y.T.tobytes()
    assert sampled.nfev == theirs_sampled.nfev
    # 257 times, both ends included, put several in every step: a dense
    # output that mixed up rows between steps fails here
    grid = np.linspace(*span, 257)
    with floor:
        dense = solve_ivp(fun, t_span, y0, tol=tol, t_eval=grid,
                          max_step=0.04)
    with floor:
        theirs_dense = scipy_solve_ivp(fun, t_span, y0, t_eval=grid,
                                       **scipy)
    assert dense.trajectory.tobytes() == theirs_dense.y.T.tobytes()
    assert dense.nfev == theirs_dense.nfev
    # every attempted step takes 12 right-hand sides, and 2 start the flow
    assert ours.nfev == 12 * (ours.accepted + ours.rejected) + 2
    assert (sampled.accepted, sampled.rejected) \
        == (ours.accepted, ours.rejected)


def _decay(t, y):
    return -y


def test_zero_span_takes_no_step():
    sol = solve_ivp(_decay, (0.7, 0.7), np.ones(3), tol=1e-10,
                    t_eval=[0.7])
    assert (sol.nfev, sol.accepted, sol.rejected) == (1, 0, 0)
    assert np.array_equal(sol.state, np.ones(3))
    assert np.array_equal(sol.trajectory, np.ones((1, 3)))


def test_step_size_underflow_names_the_time_reached():
    # y' = y^2 from y(0) = 1 blows up at t = 1: the steps shrink to 10 ulps
    # of t there, where scipy stops too
    def blow_up(t, y):
        return y * y

    with pytest.raises(IntegrationFailure,
                       match=r"stopped at t = 1 of \[0, 2\]"):
        solve_ivp(blow_up, (0.0, 2.0), [1.0], tol=1e-10)


@pytest.mark.parametrize("t_nan", [0.0, 0.5])
def test_nan_right_hand_side_ends_in_failure(t_nan):
    # a NaN from the first call made the first step size NaN, and scipy's
    # step loop never left it; a NaN later rejects steps down to 10 ulps
    calls = []

    def turns_nan(t, y):
        calls.append(t)
        return -y if t < t_nan else np.full_like(y, np.nan)

    with pytest.raises(IntegrationFailure,
                       match=f"stopped at t = {t_nan:g} "):
        solve_ivp(turns_nan, (0.0, 1.0), [1.0, 2.0], tol=1e-10)
    assert len(calls) < 1000


@pytest.mark.parametrize("max_nfev", [0, 1, 2, 20, 25])
def test_budget_raises_on_the_call_after_it(max_nfev):
    # the flow needs 26 calls: 2 to start and 2 steps of 12
    calls = []

    def counted(t, y):
        calls.append(t)
        return -y

    sol = solve_ivp(counted, (0.0, 0.5), np.ones(2), tol=1e-6, max_nfev=26)
    assert sol.nfev == len(calls) == 26
    calls.clear()
    with pytest.raises(_BudgetExhausted,
                       match=f"after {max_nfev} right-hand-side"):
        solve_ivp(counted, (0.0, 0.5), np.ones(2), tol=1e-6,
                  max_nfev=max_nfev)
    assert len(calls) == max_nfev


@pytest.mark.parametrize("kwargs, match", [
    (dict(y0=np.array([1.0, np.nan])), "y0 must be"),
    (dict(y0=np.ones((2, 2))), "y0 must be"),
    (dict(max_step=0.0), "max_step must be positive"),
    (dict(t_eval=[0.5, 1.5]), "outside t_span"),
    (dict(t_eval=[0.5, 0.2]), "not sorted"),
    # the step loop never reaches a NaN or infinite end time, so the
    # first two hung; a NaN start failed only after the first calls, and
    # a NaN time in t_eval was passed over: its row held the end state
    (dict(t_span=(0.0, np.nan)), "t_span must be finite"),
    (dict(t_span=(0.0, np.inf)), "t_span must be finite"),
    (dict(t_span=(np.nan, 1.0)), "t_span must be finite"),
    (dict(t_eval=[0.5, np.nan]), "t_eval must be a finite"),
])
def test_arguments_checked_before_any_call(kwargs, match):
    def never(t, y):
        raise AssertionError("called before the arguments were checked")

    kwargs = dict(dict(y0=np.ones(2), t_span=(0.0, 1.0)), **kwargs)
    with pytest.raises(ValueError, match=match):
        solve_ivp(never, tol=1e-8, **kwargs)
