# Oracles for the continuation machinery, frozen before implementation:
#  - two-body circular orbit at separation 1: omega = sqrt(2), so one
#    period is 2 pi / sqrt(2) = 4.442882938158366.
#  - vertical family onset frames: the n-gon that makes r turns per
#    vertical period s rotates at w_hat = 2 pi omega_1 / omega_k, so
#    varpi* = w_hat - 2 pi r / s.  For (3, 1, -1) in the r/s = 2 frame
#    w_hat = 2 pi and varpi* = -2 pi exactly; for (4, 2, 1) in r/s = 1,
#    varpi* = 2 pi (omega_1(4) / omega_2(4) - 1) with the frozen
#    frequencies below.
#  - branch action: the rotating n-gon closing at rate X = varpi + 2 pi
#    r / s has action (3/2) s n omega_1^(4/3) X^(2/3); at the onset this
#    equals (3/2) U T for the n-gon scaled to vertical frequency 2 pi.
#  - torsion constants gamma are frozen in test_torsion.py and cross
#    checked there against a direct collocation solve.
import dataclasses
import io
import json
import math
import sys
import types
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from unchained.continuation import (INTEGRATOR_TOL, ActionDiagram,
                                    ContinuationResult, FamilyRecord,
                                    PeriodicOrbit,
                                    action_diagram, continue_family,
                                    integrate, monodromy, onset_state,
                                    re_branch_action, shoot_symmetric,
                                    write_family_csv, _CORRECTOR_ITER,
                                    _START_TOL, _FLOOR, _TRIAL_NFEV,
                                    _BudgetExhausted,
                                    _closing_residual, _damped_newton,
                                    _onset_point, _reduction)
from unchained.errors import (CollisionError, IntegrationFailure,
                              NoConvergence, SingularReduction)
from unchained.ngon import (COLLISION_TOL, NGonSystem, action,
                            angular_momentum_z, jay, kinetic_energy,
                            newton_residual, potential, rescale)
from unchained.spectrum import lyapunov_cylinder, vertical_spectrum
from unchained.symmetry import (GroupSpec, _action, compose,
                                enumerate_elements, invariance_defect)
from unchained.torsion import reconstruct_loop, torsion_gamma

OMEGA1_3 = 3.0 ** -0.25
OMEGA1_4 = 0.97831834347851587
OMEGA2_4 = 1.189207115002721
GAMMA_P12 = 16.589288688205574
GAMMA_HH4 = 19.104492602095

P12 = GroupSpec(3, 1, -1, 2, 1)
HH4 = GroupSpec(4, 2, 1, 1, 1)
TILT3 = GroupSpec(3, 1, 1, 2, 1)
HEXAGON = GroupSpec(6, 1, -1, 5, 1)

KEPLER_PERIOD = 2.0 * np.pi / np.sqrt(2.0)


def two_body_circular():
    pos = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    v = 0.5 * np.sqrt(2.0)
    vel = np.array([[0.0, v, 0.0], [0.0, -v, 0.0]])
    return np.stack([pos, vel])


@pytest.fixture(scope="module")
def p12_family():
    return continue_family(P12, n_steps=8, step=0.035, max_step=0.06)


@pytest.fixture(scope="module")
def hh4_family():
    return continue_family(HH4, n_steps=6, step=0.035, max_step=0.06)


@pytest.fixture(scope="module")
def tilt_family():
    return continue_family(TILT3, n_steps=5)


# ---------------------------------------------------------------------------
# integrate


def test_integrate_two_body_circular_period():
    state = two_body_circular()
    final = integrate(state, 0.0, KEPLER_PERIOD).state
    assert np.max(np.abs(final - state)) < 1e-10


def test_integrate_relative_equilibrium_round_trip():
    sys5 = NGonSystem(5)
    loop = sys5.rigid_loop()
    state = np.stack([loop.positions[0], loop.velocities()[0]])
    final = integrate(state, 0.0, loop.period).state
    assert np.max(np.abs(final - state)) < 1e-10


def test_integrate_energy_drift():
    # eccentric two-body motion; energy to the integrator tolerance
    state = two_body_circular()
    state[1] *= 0.8

    def energy(st):
        kin = 0.5 * np.sum(st[1] ** 2)
        return kin - potential(st[0])

    res = integrate(state, 0.0, (0.0, 3.0), tol=1e-12,
                    t_eval=np.linspace(0.0, 3.0, 7))
    energies = [energy(s) for s in res.trajectory]
    assert np.ptp(energies) < 1e-10


def test_integrate_rotating_frame_consistency():
    # the rotating-frame flow, mapped to inertial coordinates, matches the
    # inertial flow of the inertially mapped initial condition
    state, varpi = onset_state(P12, 0.07)
    t1 = 0.4
    rot = integrate(state, varpi, t1).state

    inertial0 = np.stack([state[0], state[1] + varpi * jay(state[0])])
    direct = integrate(inertial0, 0.0, t1).state

    ang = varpi * t1
    c, s = np.cos(ang), np.sin(ang)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    pos_in = rot[0] @ R.T
    vel_in = (rot[1] + varpi * jay(rot[0])) @ R.T
    assert np.max(np.abs(pos_in - direct[0])) < 1e-9
    assert np.max(np.abs(vel_in - direct[1])) < 1e-9


def test_integrate_variational_matches_finite_difference():
    state, varpi = onset_state(P12, 0.05)
    t1 = 0.3
    rng = np.random.default_rng(7)
    dirs = [d / np.linalg.norm(d)
            for d in rng.standard_normal((3,) + state.shape)]
    seed = np.vstack([np.column_stack([d.ravel() for d in dirs]),
                      np.zeros(3)])
    res = integrate(state, varpi, t1, tangents=seed)
    h = 1e-4
    for j, d in enumerate(dirs):
        plus = integrate(state + h * d, varpi, t1).state
        minus = integrate(state - h * d, varpi, t1).state
        fd = (plus - minus).ravel() / (2.0 * h)
        assert np.max(np.abs(res.tangents[:, j] - fd)) < 1e-6


def test_integrate_varpi_gradient_matches_finite_difference():
    state, varpi = onset_state(P12, 0.05)
    t1 = 0.3
    res = integrate(state, varpi, t1, tangents=np.eye(state.size + 1)[:, -1:])
    h = 1e-5
    plus = integrate(state, varpi + h, t1).state
    minus = integrate(state, varpi - h, t1).state
    fd = (plus - minus).ravel() / (2.0 * h)
    assert np.max(np.abs(res.tangents[:, 0] - fd)) < 1e-5


def test_integrate_collision_raises():
    pos = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    state = np.stack([pos, np.zeros_like(pos)])
    with pytest.raises(CollisionError) as err:
        integrate(state, 0.0, 3.0)
    assert err.value.pair == (0, 1)
    assert err.value.distance < 1e-5


def test_integrate_four_body_collision_inside_the_flow():
    # bodies 1 and 3 fall head-on along the y axis (the pulls of bodies 0
    # and 2 cancel across it); the flow's own check must name
    # them, not the initial check, which they pass at distance 1
    pos = np.array([[5.0, 0.0, 0.0], [0.0, 0.5, 0.0], [-5.0, 0.0, 0.0],
                    [0.0, -0.5, 0.0]])
    state = np.stack([pos, np.zeros_like(pos)])
    with pytest.raises(CollisionError) as err:
        integrate(state, 0.0, 3.0)
    assert err.value.pair == (1, 3)
    assert err.value.distance < COLLISION_TOL


@pytest.mark.parametrize("n", [3, 4])
def test_integrate_matches_pair_loop_tangent_flow(n):
    # the flow against an independent oracle: a perturbed polygon flowed
    # by the test-local pair loop, with its tangent columns (two state
    # directions and varpi) and height quadratures, each pair block written
    # out.  A scatter with swapped signs flips the force and fails here
    rng = np.random.default_rng(n)
    pos = (1.5 * NGonSystem(n).positions
           + 0.2 * rng.standard_normal((n, 3)))
    state = np.stack([pos, 0.3 * rng.standard_normal((n, 3))])
    varpi, t1 = 0.4, 0.6
    seed = np.zeros((6 * n + 1, 3))
    seed[:-1, :2] = rng.standard_normal((6 * n, 2))
    seed[-1, 2] = 1.0
    res = integrate(state, varpi, t1, tangents=seed)

    y0 = np.concatenate([state.ravel(), seed[:-1].ravel(), np.zeros(2 * n)])
    sol = solve_ivp(_pair_loop_tangent_rhs(varpi, n, seed[-1]),
                    (0.0, t1), y0, method="DOP853", rtol=1e-13, atol=1e-13)
    assert sol.status == 0
    yf = sol.y[:, -1]
    assert np.max(np.abs(res.state.ravel() - yf[:6 * n])) < 1e-10
    tangents = yf[6 * n:-2 * n].reshape(6 * n, 3)
    assert np.max(np.abs(res.tangents - tangents)) \
        < 1e-10 * np.max(np.abs(tangents))
    harmonic = yf[-2 * n:-n] + 1j * yf[-n:]
    assert np.max(np.abs(res.harmonic - harmonic)) < 1e-10


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 4, 6, 12])
@pytest.mark.parametrize("kind", ["plain", "tangent"])
def test_flow_rhs_matches_pair_loop_field(monkeypatch, kind, n, m):
    # one right-hand side of the flow integrate hands the stepper, against
    # the test-local pair loops member by member: a stack of m perturbed
    # polygons at distinct rates, for a tangent flow each with its own seed
    # of two state directions and a varpi row, at a time where both phases
    # of the height quadratures are nonzero
    import unchained.continuation as continuation
    from unchained import dop853

    states = np.stack([_perturbed_ngon_state(n, 10 * n + i)
                       for i in range(m)])
    varpis = np.linspace(0.4, -0.9, m)
    rng = np.random.default_rng(n + m)
    seeds = np.zeros((m, 6 * n + 1, 3))
    seeds[:, :-1, :2] = rng.standard_normal((m, 6 * n, 2))
    seeds[:, -1] = rng.standard_normal((m, 3))
    seen = []

    def captured(fun, t_span, y0, **options):
        seen.append((fun, y0))
        return dop853.solve_ivp(fun, t_span, y0, **options)

    monkeypatch.setattr(continuation, "solve_ivp", captured)
    kwargs = {} if kind == "plain" else dict(tangents=seeds)
    integrate(states, varpis, 0.01, **kwargs)
    fun, y0 = seen[0]
    t = 0.3
    got = fun(t, y0.copy())
    width = 1 if kind == "plain" else 4
    n_flow = m * 6 * n * width
    flows = got[:n_flow].reshape(m, 6 * n, width)
    quads = got[n_flow:].reshape(m, -1)
    for i in range(m):
        if kind == "plain":
            want = _pair_loop_rhs(varpis[i])(t, states[i].ravel())
            mine = flows[i, :, 0]
        else:
            y_i = np.concatenate([states[i].ravel(), seeds[i, :-1].ravel(),
                                  np.zeros(2 * n)])
            want = _pair_loop_tangent_rhs(varpis[i], n, seeds[i, -1])(t, y_i)
            mine = np.concatenate([flows[i, :, 0], flows[i, :, 1:].ravel(),
                                   quads[i]])
        assert np.max(np.abs(mine - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_flow_pair_terms_are_the_ngon_kernels_bit_for_bit(monkeypatch, n):
    # at varpi = 0, with a zero varpi row in the seed, the linear field
    # adds exact zeros to the velocity rows, which then hold the pair term
    # alone.  Taking the pair differences with the `_pairs` difference
    # matrix, as ngon does, gives ngon's bits: the plain flow's force rows
    # are `_force` of the positions, and the tangent flow's velocity rows
    # `_force_jacobian_apply` of the position columns, for every member
    import unchained.continuation as continuation
    from unchained import dop853
    from unchained.ngon import _force, _force_jacobian_apply, _pairs

    m = 2
    states = np.stack([_perturbed_ngon_state(n, 20 * n + i)
                       for i in range(m)])
    seeds = np.zeros((m, 6 * n + 1, 3))
    seeds[:, :-1] = np.random.default_rng(n).standard_normal((m, 6 * n, 3))
    seen = []

    def captured(fun, t_span, y0, **options):
        seen.append((fun, y0))
        return dop853.solve_ivp(fun, t_span, y0, **options)

    monkeypatch.setattr(continuation, "solve_ivp", captured)
    integrate(states, 0.0, 0.01)
    integrate(states, 0.0, 0.01, tangents=seeds)
    (plain, y_plain), (tangent, y_tangent) = seen
    force = plain(0.3, y_plain.copy()).reshape(m, 2, n, 3)[:, 1]
    assert np.array_equal(force, _force(states[:, 0]))
    n_flow = m * 6 * n * 4
    cols = y_tangent[:n_flow].reshape(m, 2, n, 3, 4)[:, 0]
    flows = tangent(0.3, y_tangent.copy())[:n_flow].reshape(m, 2, n, 3, 4)
    assert np.array_equal(flows[:, 1],
                          _force_jacobian_apply(cols, _pairs(n)[3]))


@pytest.mark.parametrize("shape", [(25,), (25, 2, 1), (24, 2), (26, 2)],
                         ids=["1-D", "3-D", "24-rows", "26-rows"])
def test_integrate_refuses_malformed_seed(monkeypatch, shape):
    # the seed of four bodies is a (25, m) matrix: a 1-D, 3-D or wrong-row
    # seed is named before any solve
    import unchained.continuation as continuation

    def never(*args, **kw):
        raise AssertionError("solved before the seed was checked")

    monkeypatch.setattr(continuation, "solve_ivp", never)
    state = np.stack([NGonSystem(4).positions,
                      np.zeros((4, 3))])
    with pytest.raises(ValueError, match=r"\(25, m\) matrix"):
        integrate(state, 0.0, 1.0, tangents=np.zeros(shape))


def test_integrate_rejects_initial_collision():
    # two bodies inside the collision threshold and moving apart: the
    # first right-hand side, on the initial positions, names them before
    # the solver takes a step
    pos = np.array([[0.0, 0.0, 0.0], [5e-8, 0.0, 0.0]])
    vel = np.array([[-0.5e5, 0.0, 0.0], [0.5e5, 0.0, 0.0]])
    with pytest.raises(CollisionError) as err:
        integrate(np.stack([pos, vel]), 0.0, 1e-6)
    assert err.value.pair == (0, 1)
    assert err.value.distance == pytest.approx(5e-8)


@pytest.mark.parametrize("kind", ["plain", "tangent"])
def test_initial_collision_raises_on_the_first_rhs(monkeypatch, kind):
    # integrate checks no positions itself: the stepper's first right-hand
    # side, at t0 on the initial positions, names the pair of the one
    # colliding member of a stack before any step is attempted
    import unchained.continuation as continuation
    from unchained import dop853
    times = []

    def counted(fun, t_span, y0, **options):
        def rhs(t, y):
            times.append(t)
            return fun(t, y)
        return dop853.solve_ivp(rhs, t_span, y0, **options)

    monkeypatch.setattr(continuation, "solve_ivp", counted)
    apart = 3.0 * NGonSystem(3).positions
    close = apart.copy()
    close[2] = close[1] + [0.0, 0.0, 5e-8]
    states = np.stack([np.stack([p, np.zeros_like(p)])
                       for p in (apart, close)])
    kwargs = ({} if kind == "plain" else
              dict(tangents=np.stack([np.eye(19)[:, :2]] * 2)))
    with pytest.raises(CollisionError) as err:
        integrate(states, 0.3, (0.25, 1.0), **kwargs)
    assert err.value.pair == (1, 2)
    assert err.value.distance == pytest.approx(5e-8)
    assert times == [0.25]


@pytest.mark.parametrize("t_span", [0.0, (0.7, 0.7)])
@pytest.mark.parametrize("with_tangents", [False, True])
def test_integrate_zero_span_returns_initial_state(t_span, with_tangents):
    # a zero span goes through the solver, which returns the initial
    # values: the state, the seed columns, and zero height quadratures
    state = two_body_circular()
    seed = np.vstack([np.eye(12)[:, :3], [0.0, 0.0, 1.0]])
    res = integrate(state, 0.3, t_span,
                    tangents=seed if with_tangents else None)
    assert np.array_equal(res.state, state)
    if with_tangents:
        assert np.array_equal(res.tangents, seed[:-1])
        assert np.array_equal(res.harmonic, np.zeros(2))
    else:
        assert res.tangents is None and res.harmonic is None


def test_integrate_zero_span_samples_the_initial_state():
    # a zero span with t_eval = [t0] gave no sample and failed on reading
    # the last one; its one row is the initial state
    state = two_body_circular()
    res = integrate(state, 0.3, (0.7, 0.7), t_eval=[0.7])
    assert res.trajectory.shape == (1,) + state.shape
    assert np.array_equal(res.trajectory[0], state)
    assert (res.nfev, res.accepted, res.rejected) == (1, 0, 0)


def test_integrate_trajectory_shapes():
    state = two_body_circular()
    t_eval = np.linspace(0.0, 1.0, 11)
    res = integrate(state, 0.0, (0.0, 1.0), t_eval=t_eval)
    assert res.trajectory.shape == (11, 2, 2, 3)
    assert np.max(np.abs(res.trajectory[0] - state)) < 1e-13
    assert np.max(np.abs(res.trajectory[-1] - res.state)) < 1e-13


def _perturbed_ngon_state(n, seed):
    rng = np.random.default_rng(seed)
    pos = (1.5 * NGonSystem(n).positions
           + 0.2 * rng.standard_normal((n, 3)))
    return np.stack([pos, 0.3 * rng.standard_normal((n, 3))])


@pytest.mark.parametrize("m", [2, 8])
def test_integrate_stack_matches_single_flows(m):
    # m members at m frame rates in one call: each must follow its own
    # flow, though they share the steps and the error norm
    states = np.stack([_perturbed_ngon_state(3, 1 + i) for i in range(m)])
    varpis = np.linspace(0.4, -1.1, m)
    t_eval = np.linspace(0.0, 0.6, 7)
    res = integrate(states, varpis, 0.6, t_eval=t_eval)
    assert res.state.shape == (m, 2, 3, 3)
    assert res.trajectory.shape == (7, m, 2, 3, 3)
    for member, (state, varpi) in enumerate(zip(states, varpis)):
        single = integrate(state, varpi, 0.6, t_eval=t_eval)
        assert np.max(np.abs(res.state[member] - single.state)) < 1e-10
        assert np.max(np.abs(res.trajectory[:, member]
                             - single.trajectory)) < 1e-10


@pytest.mark.parametrize("m", [2, 8])
@pytest.mark.parametrize("n", [3, 4])
def test_integrate_stack_tangent_members_match_single_flows(n, m):
    # m members with their own seeds and frame rates, their varpi rows
    # alternating +1 and -1 (m = 2 is a closing flow's pair, at varpi and
    # -varpi): each member's state, tangent columns and height
    # quadratures must be those of its flow alone, though they share the
    # steps and error norm
    rng = np.random.default_rng(10 + n)
    states = np.stack([_perturbed_ngon_state(n, 20 + n + 10 * i)
                       for i in range(m)])
    varpis = np.linspace(0.4, -0.4, m)
    seeds = np.zeros((m, 6 * n + 1, 3))
    seeds[:, :-1, :2] = rng.standard_normal((m, 6 * n, 2))
    seeds[:, -1, 2] = (-1.0) ** np.arange(m)
    res = integrate(states, varpis, 0.6, tangents=seeds)
    assert res.state.shape == (m, 2, n, 3)
    assert res.tangents.shape == (m, 6 * n, 3)
    assert res.harmonic.shape == (m, n)
    for member in range(m):
        single = integrate(states[member], varpis[member], 0.6,
                           tangents=seeds[member])
        assert np.max(np.abs(res.state[member] - single.state)) < 1e-10
        assert np.max(np.abs(res.tangents[member] - single.tangents)) \
            < 1e-10 * np.max(np.abs(single.tangents))
        assert np.max(np.abs(res.harmonic[member] - single.harmonic)) \
            < 1e-10


def test_integrate_time_reversal_flips_frame_and_velocities():
    # x(-s) is the forward flow of (p, -v) at -varpi, its velocity
    # negated: the identity `PeriodicOrbit.sample` reads the second half
    # of the period with
    state = _perturbed_ngon_state(4, 3)
    varpi, s = 0.7, 0.5
    back = integrate(state, varpi, (0.0, -s)).state
    pos, vel = integrate(np.stack([state[0], -state[1]]), -varpi, s).state
    assert np.max(np.abs(pos - back[0])) < 1e-10
    assert np.max(np.abs(vel + back[1])) < 1e-10


@pytest.mark.parametrize("kind", ["plain", "tangent"])
def test_integrate_stack_collision_names_the_member_pair(kind):
    # member 2, the last of three, is the head-on fall of bodies 1 and 3
    # from test_integrate_four_body_collision_inside_the_flow; members 0 and
    # 1, wide squares at rest, stay far from any collision meanwhile.  The
    # tangent flow's pair pass reads r^2 per member and pair, as the plain
    # one does, so both name the pair within its member
    falling = np.array([[5.0, 0.0, 0.0], [0.0, 0.5, 0.0],
                        [-5.0, 0.0, 0.0], [0.0, -0.5, 0.0]])
    wide = 10.0 * NGonSystem(4).positions
    states = np.stack([np.stack([p, np.zeros_like(p)])
                       for p in (wide, 1.5 * wide, falling)])
    kwargs = ({} if kind == "plain" else
              dict(tangents=np.stack([np.eye(25)[:, :2]] * 3)))
    with pytest.raises(CollisionError) as err:
        integrate(states, 0.0, 3.0, **kwargs)
    assert err.value.pair == (1, 3)
    assert err.value.distance < COLLISION_TOL


@pytest.mark.parametrize("kwargs", [
    dict(tangents=np.vstack([np.eye(12)[:, :1], [0.0]])),
    dict(varpi=[0.1, 0.2, 0.3]),
    dict(varpi=[[0.1, 0.2]]),
    dict(tangents=np.zeros((3, 13, 1))),
])
def test_integrate_stack_arguments_checked_before_any_solve(monkeypatch,
                                                            kwargs):
    # a stack carries one seed per member, not one for all, and a frame
    # rate per member must line up with the stack's leading axes
    import unchained.continuation as continuation

    def never(*args, **kw):
        raise AssertionError("solved before the stack was checked")

    monkeypatch.setattr(continuation, "solve_ivp", never)
    states = np.stack([two_body_circular()] * 2)
    kwargs = dict(dict(varpi=0.0), **kwargs)
    varpi = kwargs.pop("varpi")
    with pytest.raises(ValueError, match="stack"):
        integrate(states, varpi, 1.0, **kwargs)


@pytest.mark.parametrize("call, name", [
    (lambda state: integrate(state, np.nan, 1.0), "varpi"),
    (lambda state: integrate(state, np.inf, 1.0), "varpi"),
    (lambda state: integrate(np.stack([state] * 2), [0.0, np.nan], 1.0),
     "varpi"),
    (lambda state: integrate(state, 0.0, np.nan), "t_span"),
    (lambda state: integrate(state, 0.0, (0.0, np.nan)), "t_span"),
    (lambda state: integrate(state, 0.0, (-np.inf, 0.0)), "t_span"),
    (lambda state: integrate(state, 0.0, 1.0, max_step=np.nan), "max_step"),
    (lambda state: shoot_symmetric(P12, np.nan, onset_state(P12, 0.05)[0]),
     "varpi"),
    (lambda state: integrate(state, 0.0, 1.0, t_eval=[0.5, np.nan]),
     "t_eval"),
    (lambda state: integrate(state, 0.0, 1.0, t_eval=[np.inf]), "t_eval"),
], ids=["varpi-nan", "varpi-inf", "stack-member-nan", "span-nan",
        "end-nan", "start-inf", "max_step-nan", "shoot-varpi-nan",
        "t_eval-nan", "t_eval-inf"])
def test_integrate_refuses_non_finite_arguments(monkeypatch, call, name):
    # DOP853's step loop never exits once its first step size is NaN, so
    # each of these hung; max_step = nan was read as no cap, and a NaN in
    # t_eval was dropped, leaving one trajectory row fewer than the times.
    # The stepper holds the time checks, so the probe is the flow's force
    # kernels: no right-hand side runs before the refusal
    import unchained.continuation as continuation

    def never(*args, **kw):
        raise AssertionError("flowed before the arguments were checked")

    monkeypatch.setattr(continuation, "_pair_force", never)
    monkeypatch.setattr(continuation, "_pair_jacobian_apply", never)
    with pytest.raises(ValueError, match=f"{name} must be"):
        call(two_body_circular())


# ---------------------------------------------------------------------------
# symmetry reduction


@pytest.mark.parametrize("spec", [
    P12, HH4, TILT3,
    GroupSpec(5, 2, -1, 1, 1),
    GroupSpec(6, 1, -1, 1, 1),
    GroupSpec(4, 1, -1, 1, 2),
])
def test_reduction_minimal_time_shift(spec):
    red = _reduction(spec)
    n = spec.n_bodies
    assert red.shift.theta == Fraction(gcd(n, 2 * spec.k), 2 * n)
    assert red.shift.xi == 1


@pytest.mark.parametrize("spec", [P12, HH4])
def test_reduction_fixed_subspace(spec):
    red = _reduction(spec)
    # orthonormal basis, pointwise fixed by every zero-shift element
    assert np.allclose(red.basis.T @ red.basis,
                       np.eye(red.dim), atol=1e-12)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(red.dim)
    x = red.basis @ u
    for g in (g for g in enumerate_elements(spec) if g.theta == 0):
        state_matrix = np.kron(np.diag([1.0, g.xi]), _action(g))
        assert np.max(np.abs(state_matrix @ x - x)) < 1e-12


def _small_specs():
    # every G_{r/s}(N, k, eta) with N <= 6, |r| <= N and s <= 2; GroupSpec
    # folds eta = -1 into +1 for the mode k = N / 2
    specs = {GroupSpec(n, k, eta, r, s)
             for n in range(3, 7)
             for k, eta, s in product(range(1, n // 2 + 1), (1, -1), (1, 2))
             for r in range(-n, n + 1) if gcd(r, s) == 1}
    return sorted(specs, key=lambda g: (g.n_bodies, g.k, g.eta, g.r, g.s))


def test_midpoint_stabilizer_is_a_group_with_a_reversor():
    # the xi = +1 elements at t = 0 and the reversors at the minimal shift
    # fix the state at tau / 2 together only if they form a group: then the
    # mean of their state matrices is an orthogonal projector, and
    # mid_basis must be an orthonormal basis of its range
    specs = _small_specs()
    assert len(specs) == 224
    for spec in specs:
        red = _reduction(spec)
        mid = [g for g in enumerate_elements(spec)
               if (g.xi, g.t) in ((1, 0), (-1, red.shift.t))]
        assert any(g.xi == -1 for g in mid), spec
        assert all(compose(a, b) in mid for a in mid for b in mid), spec
        proj = sum(np.kron(np.diag([1.0, g.xi]), _action(g))
                   for g in mid) / len(mid)
        assert np.max(np.abs(proj - proj.T)) < 1e-12, spec
        assert np.max(np.abs(proj @ proj - proj)) < 1e-12, spec
        mid_basis = red.mid_basis
        assert np.max(np.abs(mid_basis.T @ mid_basis
                             - np.eye(red.dim))) < 1e-12, spec
        assert np.max(np.abs(mid_basis @ mid_basis.T - proj)) < 1e-12, spec


def test_both_ends_fix_subspaces_of_one_dimension():
    # the xi = +1 elements at t = 0 are a normal subgroup H_0 of both the
    # time-zero and the midpoint stabilizer, the rest of each a coset of
    # reversors, and a reversor acts on the states H_0 fixes as
    # diag(A, -A), A an involution: both ends fix subspaces of the
    # dimension of H_0's fixed positions, so the two members' seeds share
    # one width with no zero column.  Every small group, and catalog
    # groups at N = 12 and s = 6
    for spec in _small_specs() + [
            GroupSpec(12, 1, -1, 11, 1), GroupSpec(12, 6, 1, 1, 1),
            GroupSpec(12, 5, -1, 7, 6), GroupSpec(12, 4, 1, -1, 6),
            GroupSpec(7, 3, 1, 5, 6), GroupSpec(5, 2, -1, -11, 6)]:
        red = _reduction(spec)
        n = spec.n_bodies
        assert red.mid_basis.shape == red.basis.shape == (6 * n, red.dim), \
            spec
        assert red.seeds.shape == (2, 6 * n + 1, red.dim + 1), spec
        assert np.all(np.any(red.seeds != 0.0, axis=1)), spec


@pytest.mark.parametrize("spec, shape", [
    (P12, (18, 19)), (HH4, (24, 7)), (GroupSpec(6, 1, -1, 5, 1), (36, 19)),
])
def test_midpoint_system_size(spec, shape):
    # equations by unknowns (u, v, varpi) of the closing block: the 6n
    # components of the quarter-point match, against the coordinates of
    # the states at t = 0 and at tau / 2 and the frame rate
    red = _reduction(spec)
    assert (6 * spec.n_bodies, 2 * red.dim + 1) == shape
    residual, jac, _, _ = _closing_residual(
        red, _onset_point(red, 0.05)[0], _START_TOL)
    assert (len(residual),) + jac.shape[1:] == shape


@pytest.mark.parametrize("spec", [P12, HH4, GroupSpec(6, 1, -1, 5, 1)])
def test_closing_jacobian_matches_finite_difference(spec):
    # the block in (u, v, varpi), read off the two members' tangent flows,
    # against central differences of the residual in every unknown; the
    # expansion's states at t = 0 and tau / 2 start both members near the
    # orbit
    red = _reduction(spec)
    x = _onset_point(red, 0.05)[0]
    _, jac, _, _ = _closing_residual(red, x, INTEGRATOR_TOL)
    assert jac.shape == (6 * spec.n_bodies, len(x))
    h = 1e-5
    for j, e in enumerate(h * np.eye(len(x))):
        plus, minus = (_closing_residual(red, y, INTEGRATOR_TOL)[0]
                       for y in (x + e, x - e))
        fd = (plus - minus) / (2.0 * h)
        scale = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(jac[:, j] - fd)) <= 1e-6 * scale


@pytest.mark.parametrize("spec", [
    P12, HH4, HEXAGON, GroupSpec(4, 1, -1, 1, 2), GroupSpec(5, 2, -1, 1, 2),
    TILT3, GroupSpec(5, 1, -1, 4, 1),
])
def test_relative_equilibrium_midpoint_matches_a_plain_flow(spec):
    # the expansion at amplitude 0 is the n-gon, which turns rigidly at
    # 2 pi r / s in this frame: its state at tau / 2, read back from the
    # midpoint coordinates v, is the n-gon turned by pi r tau / s about
    # the vertical axis, and the n-gon's own flow over tau / 2
    red = _reduction(spec)
    x, state = _onset_point(red, 0.0)
    mid = (red.mid_basis @ x[red.dim:-1]).reshape(state.shape)
    angle = math.pi * spec.r * red.tau / spec.s
    c, s = math.cos(angle), math.sin(angle)
    turned = state @ np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    assert np.max(np.abs(mid - turned)) <= 1e-13
    flow = integrate(state, x[-1], 0.5 * red.tau).state
    assert np.max(np.abs(mid - flow)) <= 2.5e-11


def test_onset_state_zero_amplitude_is_ngon():
    state, varpi = onset_state(P12)
    assert varpi == pytest.approx(-2.0 * np.pi, abs=1e-12)
    radius = np.linalg.norm(state[0, :, :2], axis=1)
    a0 = (OMEGA1_3 / (2.0 * np.pi)) ** (2.0 / 3.0)
    assert np.max(np.abs(radius - a0)) < 1e-14
    assert np.max(np.abs(state[0, :, 2])) == 0.0
    # rigid rotation at 2 pi r / s in this frame
    expect = 4.0 * np.pi * jay(state[0])
    assert np.max(np.abs(state[1] - expect)) < 1e-12


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf])
def test_onset_amplitude_must_be_finite(monkeypatch, epsilon):
    # NaN gave an all-NaN state and varpi = nan with no error, and inf NaN
    # positions after three RuntimeWarnings.  reconstruct_loop checks the
    # amplitude before it builds the loop's harmonics
    import unchained.torsion as torsion
    with pytest.raises(ValueError, match="epsilon must be finite"):
        onset_state(P12, epsilon)
    result = torsion_gamma(P12)

    def never(*args, **kw):
        raise AssertionError("built the loop before the amplitude was checked")

    monkeypatch.setattr(torsion, "FourierConstraints", never)
    with pytest.raises(ValueError, match="epsilon must be finite"):
        reconstruct_loop(result, epsilon, n_samples=8)


# ---------------------------------------------------------------------------
# shooting


def test_shoot_symmetric_zero_amplitude_relative_equilibrium():
    state, varpi = onset_state(P12)
    orbit = shoot_symmetric(P12, varpi, state)
    assert orbit.residual < 1e-10
    assert abs(orbit.amplitude) < 1e-9
    a0 = (OMEGA1_3 / (2.0 * np.pi)) ** (2.0 / 3.0)
    loop = orbit.sample(128)
    assert abs(potential(loop.positions[0])
               - potential(NGonSystem(3, a0).positions)) < 1e-10


def test_shoot_symmetric_converges_from_expansion():
    state, varpi = onset_state(P12, 0.05)
    orbit = shoot_symmetric(P12, varpi, state)
    assert orbit.residual < 1e-10
    assert orbit.amplitude == pytest.approx(0.05, abs=2e-3)
    assert orbit.period == 1.0
    assert orbit.varpi == varpi


def test_shoot_symmetric_cylinder_guess():
    # first-order cylinder, rescaled from vertical frequency omega_k to
    # 2 pi, converges and matches the orbit profile to higher order
    eps = 0.06
    wk = vertical_spectrum(3).omega(1)
    lam = 2.0 * np.pi / wk
    cyl = rescale(lyapunov_cylinder(3, 1, -1, 2, 1,
                                    eps * lam ** (2.0 / 3.0)), lam)
    assert cyl.period == pytest.approx(1.0, abs=1e-13)
    state = np.stack([cyl.positions[0], cyl.velocities()[0]])
    varpi = -2.0 * np.pi + GAMMA_P12 * eps ** 2
    orbit = shoot_symmetric(P12, varpi, state)
    assert orbit.residual < 1e-10
    loop = orbit.sample(256)
    t = np.arange(256) / 256.0
    z0 = loop.positions[:, 0, 2]
    dev = np.max(np.abs(z0 - orbit.amplitude * np.cos(2.0 * np.pi * t)))
    assert dev < 20.0 * eps ** 3


def test_shoot_symmetric_no_convergence(monkeypatch):
    # the shot is the corrector pinned at varpi, with its iteration budget
    import unchained.continuation as continuation
    monkeypatch.setattr(continuation, "_CORRECTOR_ITER", 1)
    state, varpi = onset_state(P12, 0.3)
    with pytest.raises(NoConvergence, match="no convergence in 1"):
        shoot_symmetric(P12, varpi, state)


def test_shoot_symmetric_stalls_far_from_the_family():
    # the expansion at amplitude 0.3 is too far from the Hip-Hop family:
    # the start's closing flow crawls towards a collision and runs out of
    # its budget, a multiple of the guess's own flow over tau / 2
    state, varpi = onset_state(HH4, 0.3)
    with pytest.raises(NoConvergence, match="Newton stalled"):
        shoot_symmetric(HH4, varpi, state)


def _shot_start_cap(spec, state, varpi):
    # the right-hand sides a shot's start may take: _TRIAL_NFEV times
    # those of the projected guess's flow over tau / 2 at _START_TOL
    red = _reduction(spec)
    guess = (red.basis @ (red.basis.T @ state.ravel())).reshape(state.shape)
    mid = integrate(guess, varpi, 0.5 * red.tau, tol=_START_TOL)
    return math.ceil(_TRIAL_NFEV * mid.nfev)


def test_shot_far_from_the_family_stops_at_the_start_budget(monkeypatch):
    # (6, 3, 1, 1, 1) at amplitude 0.3: the guess's flow over tau / 2
    # finishes, but the start's closing flow from it crawls towards a
    # collision for minutes uncapped.  It stops at _TRIAL_NFEV times the
    # guess's flow, and the shot ends there, before any line-search trial
    import unchained.continuation as continuation
    spec = GroupSpec(6, 3, 1, 1, 1)
    seen = []

    def logged(red, x, tol, max_nfev=None, real=_closing_residual):
        seen.append((tol, max_nfev))
        assert max_nfev is not None, "an uncapped flow runs for minutes"
        return real(red, x, tol, max_nfev)

    monkeypatch.setattr(continuation, "_closing_residual", logged)
    state, varpi = onset_state(spec, 0.3)
    with pytest.raises(NoConvergence, match="Newton stalled at the start"):
        shoot_symmetric(spec, varpi, state)
    assert seen == [(_START_TOL, _shot_start_cap(spec, state, varpi))]


@pytest.mark.parametrize("eps", [0.03, 0.07])
@pytest.mark.parametrize("spec", [P12, HH4, HEXAGON])
def test_shot_takes_four_closing_evaluations(monkeypatch, spec, eps):
    # a shot stops polishing at the same floor as a continuation step: the
    # coarse start and three full steps, the last of which lands below
    # 0.05 integrator_tol, and no fifth flow polishes further
    import unchained.continuation as continuation
    calls = []

    def counted(*args, real=_closing_residual):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(continuation, "_closing_residual", counted)
    state, varpi = onset_state(spec, eps)
    shoot_symmetric(spec, varpi, state)
    assert len(calls) == 4


@pytest.mark.parametrize("spec", [GroupSpec(4, 1, -1, 1, 2),
                                  GroupSpec(5, 2, -1, 1, 2),
                                  P12, HH4, HEXAGON, TILT3])
def test_shot_amplitude_is_fft_bin_s(spec):
    # over the period s the first vertical harmonic is FFT bin s, the
    # frequency exp(-2 pi i t); the segment quadrature must use the same.
    # The s = 1 groups have reversors that permute and flip the heights,
    # so both the reflected and the conjugated terms of the amplitude's
    # weights count
    state, varpi = onset_state(spec, 0.05)
    orbit = shoot_symmetric(spec, varpi, state)
    loop = orbit.sample(512)
    z0 = loop.positions[:, 0, 2]
    fft = 2.0 * (np.fft.fft(z0)[spec.s] / loop.n_samples).real
    assert abs(orbit.amplitude - fft) <= 1e-10
    assert abs(orbit.amplitude) > 0.04


def test_damped_newton_drops_numerically_null_direction():
    # linear residual A x - b whose smallest singular value 1e-14 is
    # numerically null, with b off the range of A along that direction by
    # less than tol: the solve stops there and steps nowhere along it
    rng = np.random.default_rng(11)
    u_mat = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    v_mat = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    a_mat = u_mat @ np.diag([1.0, 0.5, 1e-14]) @ v_mat.T
    kernel = v_mat[:, 2]
    x_true = v_mat[:, :2] @ [0.7, -1.3]
    b = a_mat @ x_true + 5e-12 * u_mat[:, 2]
    seen = []

    def fun(x, tol, max_nfev):
        seen.append(x.copy())
        return a_mat @ x - b, a_mat, x.copy(), 0

    x, residual, extra = _damped_newton(fun, np.zeros(3), INTEGRATOR_TOL)
    assert 0.25 * INTEGRATOR_TOL < np.max(np.abs(residual)) \
        <= 100 * INTEGRATOR_TOL
    assert abs(kernel @ x) < 1e-9
    assert np.max(np.abs(x - x_true)) < 1e-9
    # the returned extra is that of the returned point's own evaluation,
    # and no point is evaluated twice
    assert np.array_equal(extra, x)
    assert len({p.tobytes() for p in seen}) == len(seen)


@pytest.mark.filterwarnings("ignore:At least one element of `rtol`")
def test_trial_flows_are_capped_at_a_multiple_of_the_start(monkeypatch):
    # a shot's start runs with _TRIAL_NFEV times the right-hand sides of
    # the guess's flow over tau / 2, and every line-search trial with
    # _TRIAL_NFEV times the start's, scaled as tol^(-1/10) from
    # _START_TOL to the trial's tolerance
    import unchained.continuation as continuation
    seen = []

    def logged(red, x, tol, max_nfev=None, real=_closing_residual):
        out = real(red, x, tol, max_nfev)
        seen.append((tol, max_nfev, out[3]))
        return out

    monkeypatch.setattr(continuation, "_closing_residual", logged)
    state, varpi = onset_state(P12, 0.05)
    start_cap = _shot_start_cap(P12, state, varpi)
    for integrator_tol in (INTEGRATOR_TOL, 1e-14):
        seen.clear()
        shoot_symmetric(P12, varpi, state, integrator_tol=integrator_tol)
        (tol, cap, start), trials = seen[0], seen[1:]
        assert (tol, cap) == (_START_TOL, start_cap)
        assert start <= cap and trials
        budget = math.ceil(_TRIAL_NFEV * start
                           * (_START_TOL / integrator_tol) ** 0.1)
        assert all(cap == budget for _, cap, _ in trials)
        assert all(nfev <= cap for _, cap, nfev in trials)


@pytest.mark.filterwarnings("ignore:At least one element of `rtol`")
@pytest.mark.parametrize("integrator_tol", [1e-14, 1e-16])
@pytest.mark.parametrize("spec", [P12, HH4])
def test_continuation_at_a_tight_tolerance_reaches_max_steps(spec,
                                                             integrator_tol):
    # a trial's budget grows with the tightness of its tolerance: at 1e-16
    # the trials take up to 6.7 times the right-hand sides of their start
    # at _START_TOL, and under a fixed cap of 4 times the start both
    # families stalled at the onset.  They must continue as far as at the
    # default tolerance
    fam = continue_family(spec, n_steps=4, integrator_tol=integrator_tol)
    assert fam.end_reason == "max-steps" and len(fam.records) == 5


def test_damped_newton_exhausted_trial_ends_the_line_search():
    # a trial whose flow runs out of its budget counts as no decrease, and
    # the halvings after it are not tried: the coarse start is evaluated
    # again, uncapped, at integrator_tol, the next trial runs out too, and
    # the solve stalls at the start after two trials, not twelve
    x0 = np.array([1.0, 2.0])
    calls = []

    def fun(x, tol, max_nfev):
        calls.append((x.copy(), tol, max_nfev))
        if max_nfev is not None:
            raise _BudgetExhausted("over budget")
        return x - 3.0, np.eye(2), None, 100

    with pytest.raises(NoConvergence, match="Newton stalled at residual 2"):
        _damped_newton(fun, x0, INTEGRATOR_TOL)
    budget = math.ceil(_TRIAL_NFEV * 100
                       * (_START_TOL / INTEGRATOR_TOL) ** 0.1)
    assert [(tol, cap) for x, tol, cap in calls
            if not np.array_equal(x, x0)] == [(INTEGRATOR_TOL, budget)] * 2
    assert [(tol, cap) for x, tol, cap in calls if np.array_equal(x, x0)] \
        == [(_START_TOL, None), (INTEGRATOR_TOL, None)]


def _recorded(residual):
    # a stub fun(x, tol, max_nfev) with a fixed Jacobian that logs every
    # call and returns its own (x, tol) as extra
    calls = []

    def fun(x, tol, max_nfev):
        calls.append((x.copy(), tol))
        return residual(x, tol), np.eye(len(x)), (x.copy(), tol), 0

    return fun, calls


def test_damped_newton_never_ends_on_the_coarse_start():
    # a start already below the Newton test at 1e-8 is evaluated once
    # more at integrator_tol, and that evaluation is the one returned
    fun, calls = _recorded(lambda x, tol: np.full(2, 1e-14))
    x0 = np.array([0.3, -0.2])
    x, residual, (x_extra, tol) = _damped_newton(fun, x0, INTEGRATOR_TOL)
    assert [t for _, t in calls] == [_START_TOL, INTEGRATOR_TOL]
    assert all(np.array_equal(p, x0) for p, _ in calls)
    assert np.array_equal(x, x0) and np.array_equal(x_extra, x0)
    assert tol == INTEGRATOR_TOL


def test_damped_newton_stall_is_reported_at_integrator_tol():
    # every step leaves the start worse, so no trial decreases the
    # residual: the stall is reported from the start's evaluation at
    # integrator_tol (2e-3 here), not from the coarse one (1e-3)
    x0 = np.array([1.0, 2.0])

    def residual(x, tol):
        base = 1e-3 if tol == _START_TOL else 2e-3
        return np.full(2, base + np.sum((x - x0) ** 2))

    fun, calls = _recorded(residual)
    with pytest.raises(NoConvergence, match="stalled at residual 2.000e-03"):
        _damped_newton(fun, x0, INTEGRATOR_TOL)
    starts = [t for p, t in calls if np.array_equal(p, x0)]
    assert starts == [_START_TOL, INTEGRATOR_TOL]
    assert all(t == INTEGRATOR_TOL for _, t in calls[1:])


def test_damped_newton_polish_ends_at_round_off():
    # past the Newton test a solve polishes with the full step alone: a
    # residual stuck at 1e-13, between the floor, 0.05 integrator_tol,
    # and the Newton test, ends a solve at its first polish trial, not
    # after five halvings more, and one stuck at 1e-14, below the floor,
    # ends it before that
    x0 = np.array([1.0, 2.0])
    for stuck, evaluations in ((1e-13, 3), (1e-14, 2)):
        fun, calls = _recorded(lambda x, tol: (x - x0 if tol == _START_TOL
                                               else np.full(2, stuck)))
        x, residual, _ = _damped_newton(fun, x0 + 1e-3, INTEGRATOR_TOL)
        assert len(calls) == evaluations
        assert np.array_equal(x, x0) and np.max(residual) == stuck


def test_damped_newton_step_that_rounds_away_is_not_evaluated():
    # a residual of 1e-11 against a Jacobian of 1e6 asks x = 1 to move by
    # -1e-17, below half an ulp: the trial equals x, so it is skipped, and
    # the solve returns x from its start and that start's re-evaluation
    calls = []

    def fun(x, tol, max_nfev):
        calls.append((x.copy(), tol))
        return np.full(1, 1e-11), np.full((1, 1), 1e6), None, 0

    x0 = np.array([1.0])
    x, residual, _ = _damped_newton(fun, x0, INTEGRATOR_TOL)
    assert np.array_equal(x, x0) and residual[0] == 1e-11
    assert [t for _, t in calls] == [_START_TOL, INTEGRATOR_TOL]
    assert all(np.array_equal(p, x0) for p, _ in calls)


def test_damped_newton_returns_after_every_pass_stepped():
    # residual x with a Jacobian of 25/24: each full step leaves x / 25,
    # a decrease rapid enough to polish on, so from 1e3 all
    # _CORRECTOR_ITER passes take a step and the solve returns past the
    # loop, below the Newton test
    calls = []

    def fun(x, tol, max_nfev):
        calls.append((x.copy(), tol))
        return x.copy(), np.full((1, 1), 25.0 / 24.0), None, 0

    x, residual, _ = _damped_newton(fun, np.array([1e3]), INTEGRATOR_TOL)
    assert len(calls) == 1 + _CORRECTOR_ITER
    assert np.array_equal(x, calls[-1][0]) and np.array_equal(residual, x)
    assert abs(x[0]) <= 100 * INTEGRATOR_TOL
    assert x[0] == pytest.approx(1e3 / 25.0 ** _CORRECTOR_ITER, rel=1e-9)


@pytest.mark.parametrize("integrator_tol", [1e-8, 1e-6])
@pytest.mark.parametrize("offset", [0.1, 1e6])
def test_damped_newton_at_coarse_tolerance_evaluates_once(integrator_tol,
                                                          offset):
    # from integrator_tol = _START_TOL on, the start is no coarser than the
    # rest: every call gets integrator_tol and no point is evaluated twice,
    # for a start that passes the test below the polish floor (offset 0.1
    # of it) and for one that needs a step
    target = np.array([0.7, -1.3])
    fun, calls = _recorded(lambda x, tol: x - target)
    x, _, (_, tol) = _damped_newton(
        fun, target + offset * _FLOOR * integrator_tol, integrator_tol)
    assert len(calls) == (1 if offset < 1 else 2)
    assert tol == integrator_tol
    assert all(t == integrator_tol for _, t in calls)
    assert len({p.tobytes() for p, _ in calls}) == len(calls)


# ---------------------------------------------------------------------------
# continuation


def test_family_record_layout(p12_family):
    fam = p12_family
    assert isinstance(fam, ContinuationResult)
    assert fam.end_reason == "max-steps"
    assert len(fam.records) == 9
    first = fam.records[0]
    assert isinstance(first, FamilyRecord)
    assert first.amplitude == 0.0
    assert first.varpi == pytest.approx(-2.0 * np.pi, abs=1e-12)
    amps = [r.amplitude for r in fam.records]
    assert np.all(np.diff(amps) > 0)
    assert all(r.period == 1.0 for r in fam.records)
    assert all(r.action > 0 for r in fam.records)
    assert all(isinstance(r.orbit, PeriodicOrbit) for r in fam.records)


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("spec", [P12, HH4, GroupSpec(6, 1, -1, 5, 1)])
def test_branch_point_record_is_exactly_planar(spec, direction):
    # the relative equilibrium keeps the onset state itself: no round-off
    # of the symmetry basis reaches its heights, vertical velocities or
    # amplitude
    fam = continue_family(spec, direction=direction, n_steps=1)
    first = fam.records[0]
    state, varpi = onset_state(spec, 0.0)
    assert first.amplitude == 0.0
    assert np.all(first.orbit.initial_state[:, :, 2] == 0.0)
    np.testing.assert_array_equal(first.orbit.initial_state, state)
    assert first.varpi == varpi
    # the pinned record still leaves in the chosen direction
    assert np.sign(fam.records[1].amplitude) == direction


def test_family_onset_action_closed_form(p12_family):
    rec0 = p12_family.records[0]
    closed = re_branch_action(P12, rec0.varpi)
    assert rec0.action == pytest.approx(closed, rel=1e-12)
    # (3/2) U T for the n-gon scaled so the vertical frequency is 2 pi
    a0 = (OMEGA1_3 / (2.0 * np.pi)) ** (2.0 / 3.0)
    u_bar = potential(NGonSystem(3, a0).positions)
    assert rec0.action == pytest.approx(1.5 * u_bar, rel=1e-12)


def test_family_torsion_slope(p12_family):
    rec = p12_family.records[1:4]
    eps = np.array([r.amplitude for r in rec])
    varpi = np.array([r.varpi for r in rec])
    slope = ((varpi - p12_family.records[0].varpi) / eps ** 2).mean()
    assert abs(slope - GAMMA_P12) / GAMMA_P12 < 0.05


def test_family_orbit_quality(p12_family):
    for rec in (p12_family.records[1], p12_family.records[4],
                p12_family.records[-1]):
        loop = rec.orbit.sample(512)
        assert invariance_defect(loop, P12) <= 1e-6
        assert newton_residual(loop.resample(64), rec.varpi) < 1e-8
        lz = angular_momentum_z(loop, rec.varpi)
        assert np.ptp(lz) < 1e-9
        assert abs(lz.mean() - rec.angular_momentum_z) < 1e-12


def test_family_action_continuity_halved_steps(p12_family):
    base = np.diff([r.action for r in p12_family.records[1:]])
    half = continue_family(P12, n_steps=6, step=0.0175, max_step=0.03)
    small = np.diff([r.action for r in half.records[1:]])
    assert np.max(np.abs(small)) < 0.75 * np.max(np.abs(base))


@pytest.mark.parametrize("fail_at, exc, reason, kept", [
    (4, IntegrationFailure("forced"), "integration-failure: forced", 3),
    (2, CollisionError(0, 1, 1e-8), "onset-failure: bodies 0 and 1", 1),
    (4, CollisionError(0, 1, 1e-8), "collision: bodies 0 and 1", 3),
])
def test_record_failure_ends_family(monkeypatch, fail_at, exc, reason, kept):
    # a step counts only with its record: a failure while finishing the
    # record ends the run with a typed reason and the records before it.
    # The branch point's record is built first, outside the steps, so the
    # second record built is that of the pinned onset step
    import unchained.continuation as continuation
    calls = []

    def record(*args, real=continuation._record):
        calls.append(args)
        if len(calls) == fail_at:
            raise exc
        return real(*args)

    monkeypatch.setattr(continuation, "_record", record)
    fam = continue_family(P12, n_steps=4)
    assert fam.end_reason.startswith(reason)
    assert len(fam.records) == kept


def test_varpi_window_ends_family():
    # the window applies to every emitted record, including the pinned
    # first step and the branch point itself
    tight = continue_family(P12, n_steps=6, step=0.035,
                            varpi_range=(-6.2832, -6.2831))
    assert tight.end_reason == "varpi-range"
    assert len(tight.records) == 2
    assert tight.records[-1].varpi > -6.2831
    # an edge between the first two secant steps' records, at -6.2732 and
    # -6.2680: the second is emitted, and ends the run
    secant = continue_family(P12, n_steps=6, step=0.035,
                             varpi_range=(-6.2832, -6.270))
    assert secant.end_reason == "varpi-range"
    assert len(secant.records) == 4
    assert secant.records[-2].varpi <= -6.270 < secant.records[-1].varpi
    off = continue_family(P12, n_steps=2, varpi_range=(0.0, 1.0))
    assert off.end_reason == "varpi-range"
    assert len(off.records) == 1


def test_failed_steps_halve_down_to_the_budget(monkeypatch):
    # a failing step is retried at half the length down to step * 2**-12,
    # whatever the first step; an absolute floor of 1e-6 used to end a run
    # with step = 1e-3 after 10 attempts instead of 13
    import unchained.continuation as continuation
    onset, steps = [], []

    def fail_after_onset(red, start, row, point, *args,
                         real=continuation._corrector):
        if not onset:
            onset.append(real(red, start, row, point, *args))
            return onset[0]
        # point = here + h * tangent, with here the onset record
        steps.append(np.linalg.norm(point - onset[0][0]))
        raise NoConvergence("forced")

    monkeypatch.setattr(continuation, "_corrector", fail_after_onset)
    fam = continue_family(P12, n_steps=4, step=1e-3)
    assert fam.end_reason == "newton-failure"
    assert len(fam.records) == 2
    # h is a difference of points of size O(1), exact to about 1e-16
    np.testing.assert_allclose(steps, 1e-3 * 0.5 ** np.arange(13),
                               rtol=1e-6)


def test_hiphop_family_onset_and_slope(hh4_family):
    fam = hh4_family
    varpi_expect = 2.0 * np.pi * (OMEGA1_4 / OMEGA2_4 - 1.0)
    assert fam.records[0].varpi == pytest.approx(varpi_expect, abs=1e-9)
    assert len(fam.records) == 7
    rec = fam.records[1:4]
    eps = np.array([r.amplitude for r in rec])
    varpi = np.array([r.varpi for r in rec])
    slope = ((varpi - fam.records[0].varpi) / eps ** 2).mean()
    assert abs(slope - GAMMA_HH4) / GAMMA_HH4 < 0.05


def test_hiphop_family_orbit_quality(hh4_family):
    rec = hh4_family.records[-1]
    loop = rec.orbit.sample(512)
    assert invariance_defect(loop, HH4) <= 1e-6
    assert newton_residual(loop.resample(64), rec.varpi) < 1e-8
    assert np.ptp(angular_momentum_z(loop, rec.varpi)) < 1e-9


def test_tilted_ngon_family_constant_action(tilt_family):
    # the k = 1, eta = +1 family rigidly tilts the orbit plane: the frame
    # rate and the action stay at their branch-point values
    fam = tilt_family
    actions = np.array([r.action for r in fam.records])
    assert np.max(np.abs(actions - actions[0])) < 1e-8 * actions[0]
    varpi = np.array([r.varpi for r in fam.records])
    assert np.max(np.abs(varpi - fam.records[0].varpi)) < 1e-7
    assert fam.records[-1].amplitude > 0.05


@pytest.mark.parametrize("name", ["p12_family", "hh4_family"])
def test_records_match_sampled_period(name, request):
    # records come from the initial state and one symmetry segment; the
    # full-period loop of `sample` checks them without the symmetry
    fam = request.getfixturevalue(name)
    for rec in fam.records:
        loop = rec.orbit.sample(512)
        z0 = loop.positions[:, 0, 2]
        amplitude = 2.0 * (np.fft.fft(z0)[fam.spec.s] / loop.n_samples).real
        sampled = (action(loop, rec.varpi),
                   angular_momentum_z(loop, rec.varpi).mean(), amplitude)
        got = (rec.action, rec.angular_momentum_z, rec.amplitude)
        for value, ref in zip(got, sampled):
            assert abs(value - ref) <= 1e-10 * max(1.0, abs(ref))


def _pair_loop_rhs(varpi):
    # rotating-frame equations, one pair at a time
    def rhs(t, y):
        half = y.size // 2
        pos, vel = y[:half].reshape(-1, 3), y[half:].reshape(-1, 3)
        acc = np.zeros_like(pos)
        for i in range(len(pos)):
            for j in range(len(pos)):
                if j != i:
                    d = pos[j] - pos[i]
                    acc[i] += d / np.dot(d, d) ** 1.5
            x, y_, _ = pos[i]
            vx, vy, _ = vel[i]
            acc[i] += [varpi ** 2 * x + 2.0 * varpi * vy,
                       varpi ** 2 * y_ - 2.0 * varpi * vx, 0.0]
        return np.concatenate([vel.ravel(), acc.ravel()])
    return rhs


def _pair_loop_tangent_rhs(varpi, n, w):
    # the pair-loop flow of n bodies, its (6n, m) tangent columns seeded
    # with w along varpi, and the quadratures of z_b(t) exp(-2 pi i t), one
    # pair block (I / r^3 - 3 d d^T / r^5) at a time
    state_rhs = _pair_loop_rhs(varpi)
    m = len(w)

    def rhs(t, y):
        core = y[:6 * n]
        pos, vel = core[:3 * n].reshape(n, 3), core[3 * n:].reshape(n, 3)
        cols = y[6 * n:-2 * n].reshape(2, n, 3, m)
        acc = np.zeros((n, 3, m))
        for i in range(n):
            for j in range(n):
                if j != i:
                    d = pos[j] - pos[i]
                    r2 = np.dot(d, d)
                    block = (np.eye(3) - 3.0 * np.outer(d, d) / r2) \
                        / r2 ** 1.5
                    acc[i] += block @ (cols[0, j] - cols[0, i])
            x, y_, _ = pos[i]
            vx, vy, _ = vel[i]
            acc[i, 0] += varpi ** 2 * cols[0, i, 0] + 2.0 * varpi \
                * cols[1, i, 1] + (2.0 * varpi * x + 2.0 * vy) * w
            acc[i, 1] += varpi ** 2 * cols[0, i, 1] - 2.0 * varpi \
                * cols[1, i, 0] + (2.0 * varpi * y_ - 2.0 * vx) * w
        heights = pos[:, 2]
        return np.concatenate([state_rhs(t, core), cols[1].ravel(),
                               acc.ravel(),
                               heights * np.cos(2.0 * np.pi * t),
                               -heights * np.sin(2.0 * np.pi * t)])
    return rhs


def test_records_close_under_independent_flow(p12_family, hh4_twenty):
    # a second integrator and right-hand side, sharing no code with the
    # package, flows every P12 record and every 4th Hip-Hop record of a
    # 20-step run over its full period: closing over half the symmetry
    # segment must close the whole orbit.  So must the fixed-rate shots
    # of P12, the Hip-Hop and the hexagon, which keep the rate they were
    # given exactly.  The oracle flows near scipy's rtol floor (2.22e-14),
    # since at 1e-13 its own error read the hexagon shots at up to 2e-11
    orbits = [rec.orbit
              for rec in p12_family.records + hh4_twenty[0].records[::4]]
    for spec in (P12, HH4, GroupSpec(6, 1, -1, 5, 1)):
        for eps in (0.03, 0.07):
            state, varpi = onset_state(spec, eps)
            orbits.append(shoot_symmetric(spec, varpi, state))
            assert orbits[-1].varpi == varpi
    for orbit in orbits:
        y0 = orbit.initial_state.ravel()
        sol = solve_ivp(_pair_loop_rhs(orbit.varpi), (0.0, orbit.period), y0,
                        method="DOP853", rtol=3e-14, atol=1e-14)
        assert sol.status == 0
        assert np.max(np.abs(sol.y[:, -1] - y0)) <= 2.5e-11


def test_continue_family_integrates_only_closing_flows(monkeypatch):
    # every integration is a closing flow with tangents: line-search
    # trials carry their Jacobian and records read their amplitude off
    # the converged one, so nothing is integrated plain or sampled
    import unchained.continuation as continuation
    calls = []

    def counted(*args, real=continuation.integrate, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(continuation, "integrate", counted)
    fam = continue_family(P12, n_steps=4)
    assert fam.end_reason == "max-steps"
    assert calls
    assert all(k.get("tangents") is not None for k in calls)
    assert all(k.get("t_eval") is None for k in calls)


@pytest.mark.parametrize("spec", [P12, HH4])
def test_continue_family_expands_twice(monkeypatch, spec):
    # one expansion at amplitude 0 gives the branch point, one at
    # +-_ONSET_EPS the pinned first step; no later step expands
    import unchained.continuation as continuation
    amplitudes = []

    def counted(spec, epsilon, real=continuation._expansion):
        amplitudes.append(epsilon)
        return real(spec, epsilon)

    monkeypatch.setattr(continuation, "_expansion", counted)
    fam = continue_family(spec, n_steps=3)
    assert fam.end_reason == "max-steps"
    assert amplitudes == [0.0, continuation._ONSET_EPS]


@pytest.mark.parametrize("kwargs", [dict(step=0), dict(max_step=0),
                                    dict(step=-0.04), dict(n_steps=0),
                                    dict(varpi_range=(1.0, 0.0)),
                                    dict(varpi_range=(np.nan, 1.0)),
                                    dict(n_steps=1.5), dict(n_steps=True),
                                    dict(step=np.inf), dict(step=np.nan),
                                    dict(max_step=np.inf),
                                    dict(max_step=np.nan)])
def test_continue_family_rejects_degenerate_steps(monkeypatch, kwargs):
    # a zero cap repeats the first record and a negative step walks back
    # through the onset; both used to end "max-steps" with no integration
    # spared, so the check must come before the first one.  n_steps = 1.5
    # ran 2 steps and True ran 1, both ending as a clean "max-steps".
    # step = inf failed inside scipy on a non-finite start after two
    # solves
    import unchained.continuation as continuation

    def never(*args, **kw):
        raise AssertionError("integrated before the arguments were checked")

    monkeypatch.setattr(continuation, "integrate", never)
    monkeypatch.setattr(continuation, "solve_ivp", never)
    with pytest.raises(ValueError):
        continue_family(P12, **kwargs)


@pytest.mark.parametrize("direction", [0, 2, -2, 0.5, True])
def test_continue_family_rejects_bad_direction(monkeypatch, direction):
    # 0 failed inside scipy on a non-finite state, 2 pinned twice the onset
    # amplitude without a word, and True passed as 1
    import unchained.continuation as continuation

    def never(*args, **kw):
        raise AssertionError("integrated before the direction was checked")

    monkeypatch.setattr(continuation, "integrate", never)
    with pytest.raises(ValueError, match="direction must be 1 or -1"):
        continue_family(P12, direction=direction)


@pytest.mark.parametrize("kwargs", [
    dict(integrator_tol=0.0), dict(integrator_tol=1.0),
    dict(integrator_tol=0.5), dict(integrator_tol=0.02),
    dict(integrator_tol=float("nan")),
])
@pytest.mark.parametrize("solver", ["continue_family", "shoot_symmetric"])
def test_tolerances_checked_before_any_integration(monkeypatch, solver,
                                                    kwargs):
    # a zero integrator tolerance never returns, and one of 0.01 or more
    # makes the Newton tolerance, 100 times it, one or more: any orbit
    # passes as closed under a clean-looking end reason
    import unchained.continuation as continuation

    def never(*args, **kw):
        raise AssertionError("integrated before the tolerances were checked")

    monkeypatch.setattr(continuation, "integrate", never)
    with pytest.raises(ValueError, match=r"out of range \(0, 1\)"):
        if solver == "continue_family":
            continue_family(P12, n_steps=1, **kwargs)
        else:
            state, varpi = onset_state(P12, 0.05)
            shoot_symmetric(P12, varpi, state, **kwargs)


@pytest.mark.parametrize("call", ["integrate", "sample"])
def test_flow_tolerance_checked_before_any_solve(monkeypatch, p12_family,
                                                 call):
    # tolerances of one or more gave a final state 3.99 away from the one
    # at 1e-12 without a word
    import unchained.continuation as continuation

    def never(*args, **kw):
        raise AssertionError("solved before the tolerance was checked")

    orbit = p12_family.records[1].orbit
    monkeypatch.setattr(continuation, "solve_ivp", never)
    with pytest.raises(ValueError, match=r"tol out of range \(0, 1\)"):
        if call == "integrate":
            integrate(orbit.initial_state, orbit.varpi, 1.0, tol=2.0)
        else:
            orbit.sample(64, tol=3.0)


@pytest.mark.parametrize("n_samples", [0, -3, 2.5])
def test_sample_count_checked_before_any_integration(monkeypatch, p12_family,
                                                     n_samples):
    # 0 divided by zero, -3 failed in numpy and 2.5 sampled past the
    # period, which scipy refused
    import unchained.continuation as continuation

    def never(*args, **kw):
        raise AssertionError("integrated before the count was checked")

    monkeypatch.setattr(continuation, "integrate", never)
    with pytest.raises(ValueError, match="n_samples must be a positive"):
        p12_family.records[1].orbit.sample(n_samples)



@pytest.fixture(scope="module")
def shot_orbits():
    # P12, the Hip-Hop and the hexagon shot at onset amplitude 0.05
    orbits = {}
    for spec in (P12, HH4, HEXAGON):
        state, varpi = onset_state(spec, 0.05)
        orbits[spec] = shoot_symmetric(spec, varpi, state)
    return orbits


def _gravity_rhs(varpi, n):
    # rotating-frame equations with the force summed here over all ordered
    # body pairs, d[i, j] = x_j - x_i, sharing no code with `ngon._force`,
    # which serves both `gravity` and the flow
    def rhs(t, y):
        pos, vel = y[:3 * n].reshape(n, 3), y[3 * n:].reshape(n, 3)
        d = pos[None, :, :] - pos[:, None, :]
        r2 = np.einsum("ijc,ijc->ij", d, d)
        np.fill_diagonal(r2, np.inf)  # inf ** -1.5 = 0: no self-force
        acc = np.einsum("ij,ijc->ic", r2 ** -1.5, d) \
            + varpi ** 2 * pos * [1.0, 1.0, 0.0]
        acc[:, 0] += 2.0 * varpi * vel[:, 1]
        acc[:, 1] -= 2.0 * varpi * vel[:, 0]
        return np.concatenate([vel.ravel(), acc.ravel()])
    return rhs


# max |sample(512) - reference| of the single forward flow over the whole
# period, with the closing defect ramped over it, that `sample` used
# before it flowed the period from both ends: 3.0e-13 (P12), 4.7e-13
# (Hip-Hop) and 1.6e-11 (hexagon).  The bound is max(2 gap, 1e-12)
@pytest.mark.parametrize("spec, bound", [(P12, 1e-12), (HH4, 1e-12),
                                         (HEXAGON, 3.2e-11)])
def test_sample_matches_a_finer_full_period_flow(shot_orbits, spec, bound):
    # the reference flows forward over the whole period at tol 1e-13 with
    # the step capped at period / 1024
    orbit = shot_orbits[spec]
    n, period = spec.n_bodies, orbit.period
    loop = orbit.sample(512)
    sol = solve_ivp(_gravity_rhs(orbit.varpi, n), (0.0, period),
                    orbit.initial_state.ravel(), method="DOP853",
                    rtol=1e-13, atol=1e-13, max_step=period / 1024.0,
                    t_eval=loop.times)
    assert sol.status == 0
    reference = sol.y[:3 * n].T.reshape(-1, n, 3)
    assert np.max(np.abs(loop.positions - reference)) <= bound


@pytest.fixture(scope="module")
def amplitude_shots(shot_orbits):
    # P12, the Hip-Hop and the hexagon shot at onset amplitudes 0.03, 0.05
    # and 0.07
    shots = {(spec, 0.05): shot_orbits[spec] for spec in (P12, HH4, HEXAGON)}
    for spec, eps in product((P12, HH4, HEXAGON), (0.03, 0.07)):
        state, varpi = onset_state(spec, eps)
        shots[spec, eps] = shoot_symmetric(spec, varpi, state)
    return shots


def _two_ended_reference(orbit, n_samples=512):
    # the loop `sample` stands for, n_samples even, from two flows of
    # `_gravity_rhs` at tol 1e-13 with the step capped at T / 512: x(t) on
    # t <= T / 2 from (p, v) at varpi, x(T - s) from (p, -v) at -varpi, and
    # their gap at T / 2 spread as the hat, +(t / T) gap on the first half
    # and -(s / T) gap on the second
    n, period = orbit.spec.n_bodies, orbit.period
    pos0, vel0 = orbit.initial_state
    grid = np.arange(n_samples // 2 + 1) * (period / n_samples)
    halves = []
    for varpi, state in ((orbit.varpi, orbit.initial_state),
                         (-orbit.varpi, np.stack([pos0, -vel0]))):
        sol = solve_ivp(_gravity_rhs(varpi, n), (0.0, 0.5 * period),
                        state.ravel(), method="DOP853", rtol=1e-13,
                        atol=1e-13, max_step=period / 512.0, t_eval=grid)
        assert sol.status == 0
        halves.append(sol.y[:3 * n].T.reshape(-1, n, 3))
    forward, backward = halves
    gap = backward[-1] - forward[-1]
    ramp = (grid / period)[:, None, None] * gap
    return np.concatenate([forward + ramp, (backward - ramp)[-2:0:-1]])


@pytest.mark.parametrize("source, key", [
    *[pytest.param("shot", (spec, eps), id=f"{name}-shot-{eps}")
      for name, spec in (("p12", P12), ("hh4", HH4), ("hexagon", HEXAGON))
      for eps in (0.03, 0.05, 0.07)],
    *[pytest.param(f"{name}_twenty", k, id=f"{name}-record-{k}")
      for name in ("p12", "hh4") for k in (1, 10, 20)],
])
def test_sample_meets_its_stated_accuracy(request, amplitude_shots, source,
                                          key):
    # the stated accuracy of sample(512) on P12, the Hip-Hop and the
    # hexagon: within 1e-12 of a reference that shares no code with the
    # flow.  Its step cap of T / 96 was chosen for 1.4e-13 at worst over
    # the P12 and Hip-Hop shots and the 20-step records; the hexagon shots
    # read 2.8e-13, set by tol.  Flowed in the frame varpi, as the
    # reference is, the hexagon read 4.7e-12
    if source == "shot":
        orbit = amplitude_shots[key]
    else:
        orbit = request.getfixturevalue(source)[0].records[key].orbit
    loop = orbit.sample(512)
    assert np.max(np.abs(loop.positions - _two_ended_reference(orbit))) \
        <= 1e-12


@pytest.mark.parametrize("spec", [P12, HH4, HEXAGON])
def test_sample_fits_its_work_budget(monkeypatch, shot_orbits, spec):
    # sample(512) took 962 right-hand-side evaluations at a step cap of
    # T / 128 and takes 722 at T / 96; the hexagon took 1232 in the frame
    # varpi, where tol set its steps, and takes 722 in the polygon's frame
    import unchained.continuation as continuation
    nfev = []

    def solved(*args, real=continuation.solve_ivp, **kwargs):
        sol = real(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(continuation, "solve_ivp", solved)
    shot_orbits[spec].sample(512)
    assert len(nfev) == 1 and nfev[0] <= 750


@pytest.mark.parametrize("coarse", [7, 513])
def test_sample_odd_counts_match_the_doubled_grid(shot_orbits, coarse):
    # an odd count has no sample at T / 2; its samples are the even ones
    # of twice the count
    orbit = shot_orbits[HEXAGON]
    fine = orbit.sample(2 * coarse).positions[::2]
    assert np.max(np.abs(orbit.sample(coarse).positions - fine)) < 1e-11


def _fourth_differences(loop):
    # largest periodic fourth difference of the positions: about
    # (T / m)^4 |x''''| on a smooth loop of m samples, and up to 3 times
    # the size of any jump
    pos = loop.positions
    wrapped = np.concatenate([pos, pos[:4]])
    return float(np.max(np.abs(np.diff(wrapped, n=4, axis=0))))


@pytest.mark.parametrize("n_samples", [512, 513])
def test_sample_hat_joins_members_that_miss(shot_orbits, n_samples):
    # velocities off by 1e-6 open the orbit, and the two members then miss
    # each other at T / 2 by about 1e-6: left as a jump it would raise the
    # fourth differences 30-fold, while the hat keeps them at the closed
    # loop's level (8.9e-8 there, 1.1e-7 with the hat)
    orbit = shot_orbits[P12]
    state = orbit.initial_state.copy()
    state[1] += 1e-6
    opened = dataclasses.replace(orbit, initial_state=state)
    assert _fourth_differences(opened.sample(n_samples)) \
        <= 2.0 * _fourth_differences(orbit.sample(n_samples))


@pytest.mark.parametrize("n_samples", [1, 2, 7, 512])
def test_sample_starts_exactly_at_the_initial_positions(shot_orbits,
                                                        n_samples):
    for orbit in shot_orbits.values():
        loop = orbit.sample(n_samples)
        assert loop.n_samples == n_samples
        assert np.array_equal(loop.positions[0], orbit.initial_state[0])


@pytest.mark.parametrize("spec", [P12, HH4, HEXAGON,
                                  GroupSpec(5, 2, -1, 1, 2)])
def test_onset_sample_is_the_turning_polygon(spec):
    # the onset record is the relative equilibrium: the n-gon turning r
    # times per period s about the vertical axis, R(2 pi r t / s) p0.  In
    # the frame varpi the hexagon's loop read 4.7e-12 off it
    orbit = continue_family(spec, n_steps=1).records[0].orbit
    loop = orbit.sample(512)
    angle = 2.0 * np.pi * spec.r * loop.times / spec.s
    turn = np.zeros((len(angle), 3, 3))
    turn[:, 0, 0] = turn[:, 1, 1] = np.cos(angle)
    turn[:, 1, 0] = np.sin(angle)
    turn[:, 0, 1] = -turn[:, 1, 0]
    turn[:, 2, 2] = 1.0
    polygon = np.einsum("tij,bj->tbi", turn, orbit.initial_state[0])
    assert np.max(np.abs(loop.positions - polygon)) <= 1e-13


@pytest.mark.parametrize("scale", [0.25, 4.0])
@pytest.mark.parametrize("spec", [P12, HH4, HEXAGON])
def test_sample_of_a_rescaled_orbit_is_the_rescaled_loop(shot_orbits, spec,
                                                         scale):
    # lambda x(t / lambda^(3/2)) is an orbit at frame rate varpi /
    # lambda^(3/2), with period lambda^(3/2) s, not s.  Its loop is the
    # shot's loop scaled by lambda; a polygon's frame taken from s rather
    # than the period missed by 0.26-0.91 at lambda = 1 / 4
    orbit = shot_orbits[spec]
    stretch = scale ** 1.5
    pos, vel = orbit.initial_state
    scaled = PeriodicOrbit(spec, orbit.varpi / stretch,
                           orbit.period * stretch,
                           np.stack([scale * pos, vel / np.sqrt(scale)]),
                           orbit.amplitude, orbit.residual)
    loop = orbit.sample(512)
    assert np.max(np.abs(scaled.sample(512).positions
                         - scale * loop.positions)) <= scale * 1e-14


def test_sample_uses_no_symmetry(monkeypatch, shot_orbits):
    # the loop checks the values built from the symmetry-reduced closing
    # flow, so it must not be built from the group itself
    import unchained.continuation as continuation
    orbit = shot_orbits[HH4]
    expected = orbit.sample(64).positions

    def never(*args, **kw):
        raise AssertionError("sample used the symmetry group")

    monkeypatch.setattr(continuation, "enumerate_elements", never)
    monkeypatch.setattr(continuation, "_reduction", never)
    assert np.array_equal(orbit.sample(64).positions, expected)


def _counted_twenty(spec):
    # the default run at 20 steps, with each integration's tolerance
    # logged (None for one without tangents), their right-hand-side
    # evaluations counted and each converged corrector's family tangent
    # kept
    import unchained.continuation as continuation
    calls, nulls, nfev = [], [], []

    def counted(*args, real=continuation.integrate, **kwargs):
        calls.append(kwargs["tol"] if kwargs.get("tangents") is not None
                     else None)
        return real(*args, **kwargs)

    def solved(*args, real=continuation.solve_ivp, **kwargs):
        sol = real(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    def kept(*args, real=continuation._corrector):
        out = real(*args)
        nulls.append(out[-1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuation, "integrate", counted)
        mp.setattr(continuation, "solve_ivp", solved)
        mp.setattr(continuation, "_corrector", kept)
        fam = continue_family(spec, n_steps=20)
    return fam, calls, nulls, sum(nfev)


@pytest.fixture(scope="module")
def p12_twenty():
    return _counted_twenty(P12)


@pytest.fixture(scope="module")
def hh4_twenty():
    return _counted_twenty(HH4)


def _family_points(fam):
    red = _reduction(fam.spec)
    return np.array([np.append(red.basis.T @ r.orbit.initial_state.ravel(),
                               r.varpi) for r in fam.records])


def test_hermite_start_saves_closing_integrations(p12_twenty):
    # a start at the secant predictor pred = here + h tangent made 80
    # tangent integrations; the Hermite start reaches the 3 evaluations
    # per solve the Newton test allows
    fam, calls, _, _ = p12_twenty
    assert fam.end_reason == "max-steps" and len(fam.records) == 21
    assert None not in calls
    assert len(calls) <= 61


def test_each_corrector_starts_with_one_coarse_flow(p12_twenty):
    # the start of each of the 20 correctors is flowed at _START_TOL; the
    # branch point's residual and every later evaluation at INTEGRATOR_TOL
    _, calls, nulls, _ = p12_twenty
    assert len(nulls) == 20
    assert calls.count(_START_TOL) == 20
    assert calls.count(INTEGRATOR_TOL) == 41
    assert len(calls) == 61


def test_twenty_steps_fit_the_nfev_budget(p12_twenty, hh4_twenty):
    # P12 and the Hip-Hop at 20 steps took 42348 right-hand-side
    # evaluations when every closing flow ran over the whole symmetry
    # segment, 21442 over half of it, and 17566 with each corrector's
    # start flowed at _START_TOL; closing from both ends over a quarter
    # of the segment each, they take 9490
    assert p12_twenty[0].end_reason == "max-steps"
    assert hh4_twenty[0].end_reason == "max-steps"
    assert p12_twenty[3] + hh4_twenty[3] <= 11000


def test_twenty_steps_take_their_pinned_steps(monkeypatch):
    # the 131 closing flows of the 20-step P12 and Hip-Hop runs take 761
    # accepted and 8 rejected steps: 12 right-hand sides per attempted step
    # and 2 to start each flow give their 9490
    import unchained.continuation as continuation
    flows = []

    def counted(*args, real=continuation.integrate, **kwargs):
        res = real(*args, **kwargs)
        flows.append((res.nfev, res.accepted, res.rejected))
        return res

    monkeypatch.setattr(continuation, "integrate", counted)
    for spec in (P12, HH4):
        continue_family(spec, n_steps=20)
    nfev, accepted, rejected = map(sum, zip(*flows))
    assert (len(flows), accepted, rejected) == (131, 761, 8)
    assert nfev == 12 * (accepted + rejected) + 2 * len(flows) == 9490


@pytest.mark.parametrize("spec", [P12, HH4, HEXAGON])
def test_sample_takes_its_pinned_steps(monkeypatch, shot_orbits, spec):
    # sample(512) takes 48 steps, each holding samples: 12 right-hand
    # sides for the step and 3 for its dense output, and 2 to start.  The
    # hexagon took 82 in the frame varpi
    import unchained.continuation as continuation
    flows = []

    def counted(*args, real=continuation.integrate, **kwargs):
        flows.append(real(*args, **kwargs))
        return flows[-1]

    monkeypatch.setattr(continuation, "integrate", counted)
    shot_orbits[spec].sample(512)
    assert [(res.accepted, res.rejected, res.nfev) for res in flows] \
        == [(48, 0, 2 + 15 * 48)]


def test_twenty_step_tables_match_the_snapshot(p12_twenty, hh4_twenty):
    # the table gate: every record of the 20-step P12 and Hip-Hop runs
    # (varpi, amplitude, action, L_z) within 1e-12 relative of the snapshot
    # in tests/data, taken before the flow carried the state beside its
    # tangents; the onset amplitudes are exactly 0 on both sides
    snap = json.loads((Path(__file__).parent / "data"
                       / "twenty_step_tables.json").read_text())
    for key, (fam, *_) in (("p12", p12_twenty), ("hh4", hh4_twenty)):
        got = np.array([[getattr(rec, c) for c in snap["columns"]]
                        for rec in fam.records])
        want = np.array(snap[key])
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_hermite_start_finds_the_same_records(p12_twenty, monkeypatch):
    # the start moves only the first iterate: the arclength hyperplane and
    # the steps are those of a start at pred, so are the records
    import unchained.continuation as continuation

    def at_pred(pred, *args):
        return pred

    monkeypatch.setattr(continuation, "_hermite_start", at_pred)
    ref = continue_family(P12, n_steps=20)
    fam = p12_twenty[0]
    assert ref.end_reason == fam.end_reason
    assert len(ref.records) == len(fam.records)
    for rec, want in zip(fam.records, ref.records):
        for name in ("varpi", "amplitude", "action", "angular_momentum_z"):
            got, exp = getattr(rec, name), getattr(want, name)
            assert abs(got - exp) <= 1e-12 * max(1.0, abs(exp))


def test_corrector_tangent_follows_the_records(p12_twenty):
    # the null vector of the converged closing Jacobian against the
    # central difference of the neighbouring records, which uses no
    # Jacobian; nulls[i] belongs to record i + 1.  Record 1 is left out:
    # its lower neighbour is the branch point, at an uneven spacing that
    # puts the difference itself 2e-3 off.  The null vector lies in
    # (u, v, varpi) and has unit length in the arclength metric (u, varpi)
    # of the records' points
    fam, _, nulls, _ = p12_twenty
    red = _reduction(fam.spec)
    points = _family_points(fam)
    assert len(nulls) == len(points) - 1
    for i in range(2, len(points) - 1):
        chord = points[i + 1] - points[i - 1]
        null = np.append(nulls[i - 1][:red.dim], nulls[i - 1][-1])
        cos = null @ chord / np.linalg.norm(chord)
        assert abs(np.linalg.norm(null) - 1.0) < 1e-12
        assert abs(cos) >= 1.0 - 1e-3


def test_action_is_minus_three_energy_period_hexagon():
    # Lagrange-Jacobi on a closed orbit: int K = int U / 2, so A = -3 E T
    spec = GroupSpec(6, 1, -1, 5, 1)
    state, varpi = onset_state(spec, 0.05)
    orbit = shoot_symmetric(spec, varpi, state)
    pos, vel = orbit.initial_state
    vel = vel + orbit.varpi * jay(pos)
    energy = 0.5 * np.sum(vel ** 2) - potential(pos)
    loop = orbit.sample(512)
    assert -3.0 * energy * orbit.period == pytest.approx(
        action(loop, orbit.varpi), rel=1e-10)


# ---------------------------------------------------------------------------
# monodromy


def test_monodromy_defining_relation(p12_family):
    rec = p12_family.records[3]
    mu = monodromy(rec.orbit)
    expect = (rec.varpi * rec.period / (2.0 * np.pi)) % 1.0
    assert min(abs(mu - expect), 1.0 - abs(mu - expect)) < 1e-8


def test_monodromy_relative_equilibrium_resonant(p12_family):
    # at the onset frame the n-gon advances r full turns per period:
    # mu = varpi* T / 2 pi = r - w_hat s / 2 pi = 0 mod 1 here
    mu = monodromy(p12_family.records[0].orbit)
    assert min(mu, 1.0 - mu) < 1e-8


def test_monodromy_time_origin_invariance(p12_family):
    rec = p12_family.records[2]
    mu0 = monodromy(rec.orbit)
    shifted = integrate(rec.orbit.initial_state, rec.varpi, 0.23).state
    orbit2 = PeriodicOrbit(P12, rec.varpi, rec.period, shifted,
                           rec.amplitude, rec.orbit.residual)
    mu1 = monodromy(orbit2)
    assert min(abs(mu1 - mu0), 1.0 - abs(mu1 - mu0)) < 1e-8


def test_monodromy_singular_for_vertical_configuration():
    pos = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    state = np.stack([pos, np.zeros_like(pos)])
    orbit = PeriodicOrbit(P12, 0.0, 0.01, state, 0.0, 0.0)
    with pytest.raises(SingularReduction):
        monodromy(orbit)


def test_monodromy_makes_no_integration(monkeypatch, p12_family):
    import unchained.continuation as continuation

    def never(*args, **kw):
        raise AssertionError("monodromy integrated")

    monkeypatch.setattr(continuation, "integrate", never)
    monkeypatch.setattr(continuation, "solve_ivp", never)
    for rec in p12_family.records:
        expect = (rec.varpi * rec.period / (2.0 * np.pi)) % 1.0
        assert monodromy(rec.orbit) == expect


def test_monodromy_stays_below_one_for_a_tiny_negative_rate(p12_family):
    # in floating point, -1e-17 % 1.0 is 1.0, outside [0, 1)
    orbit = p12_family.records[1].orbit
    tiny = PeriodicOrbit(P12, -1e-17, orbit.period, orbit.initial_state,
                         orbit.amplitude, orbit.residual)
    assert monodromy(tiny) == 0.0


def _rotation_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _inertial(y, varpi, t):
    # a rotating-frame state at time t in the inertial frame: positions
    # turned by varpi t, velocities v + varpi e_z x q turned with them
    pos, vel = y.reshape(2, -1, 3)
    vel = vel + varpi * np.cross([0.0, 0.0, 1.0], pos)
    return np.stack([pos, vel]) @ _rotation_z(varpi * t).T


def _rotation_defect(orbit, mu):
    # sup |x_in(T) - R(2 pi mu) x_in(0)| along the package-free flow of
    # `_pair_loop_rhs` over one period
    y0 = orbit.initial_state.ravel()
    sol = solve_ivp(_pair_loop_rhs(orbit.varpi), (0.0, orbit.period), y0,
                    method="DOP853", rtol=1e-13, atol=1e-13)
    assert sol.status == 0
    start = _inertial(y0, orbit.varpi, 0.0)
    end = _inertial(sol.y[:, -1], orbit.varpi, orbit.period)
    return np.max(np.abs(end - start @ _rotation_z(2.0 * np.pi * mu).T))


def test_monodromy_rotates_the_inertial_orbit(p12_family, hh4_twenty):
    # the rotation number against an independent flow: the inertial image
    # of the full period is the initial state turned by 2 pi mu, and a
    # rotation number off by 1 / 2n misses by the size of the orbit
    hexagon = GroupSpec(6, 1, -1, 5, 1)
    state, varpi = onset_state(hexagon, 0.05)
    orbits = [p12_family.records[4].orbit, hh4_twenty[0].records[10].orbit,
              shoot_symmetric(hexagon, varpi, state)]
    for orbit in orbits:
        mu = monodromy(orbit)
        assert _rotation_defect(orbit, mu) <= 1e-9
        assert _rotation_defect(orbit, mu + 0.5 / orbit.spec.n_bodies) > 0.1


def test_monodromy_needs_only_horizontal_extent():
    """A state with no horizontal extent, all bodies on the vertical axis
    with vertical velocities only, is fixed by every rotation about the
    axis and stays on it, so its rotation number is undefined and
    SingularReduction is raised.  The triangle labelled against its sense,
    h_j = zeta^{-j}, has horizontal extent but a vanishing leading mode
    sum_j h_j zeta^{-j}; at rest in the frame of its own rate it closes
    after any period, and monodromy returns its mu, which the independent
    flow confirms.  Earlier versions measured mu as the phase advance of
    that mode along a flow, and raised SingularReduction on this state.
    """
    pos = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    vel = np.array([[0.0, 0.0, 0.3], [0.0, 0.0, 0.0], [0.0, 0.0, -0.3]])
    axis = PeriodicOrbit(P12, 0.7, 1.0, np.stack([pos, vel]), 0.0, 0.0)
    with pytest.raises(SingularReduction):
        monodromy(axis)

    ang = -2.0 * np.pi * np.arange(3) / 3
    pos = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(3)])
    assert abs(np.sum((pos[:, 0] + 1j * pos[:, 1]) * np.exp(1j * ang))) < 1e-15
    counter = PeriodicOrbit(P12, OMEGA1_3, 1.0,
                            np.stack([pos, np.zeros_like(pos)]), 0.0, 0.0)
    mu = monodromy(counter)
    assert mu == pytest.approx(OMEGA1_3 / (2.0 * np.pi), abs=1e-15)
    assert _rotation_defect(counter, mu) <= 1e-9


# ---------------------------------------------------------------------------
# action diagram and CSV output


def test_action_diagram_tables(p12_family):
    diagram = action_diagram(p12_family)
    assert isinstance(diagram, ActionDiagram)
    assert diagram.family.shape == (9, 5)
    assert diagram.re_branch.shape[1] == 5
    assert diagram.columns[2] == "action"
    rec = p12_family.records[4]
    assert diagram.family[4, 0] == rec.varpi
    assert diagram.family[4, 2] == rec.action
    grid = diagram.re_branch[:, 0]
    assert grid[0] < p12_family.records[0].varpi < grid[-1]
    assert np.allclose(diagram.re_branch[:, 2],
                       re_branch_action(P12, grid), rtol=1e-14)
    assert np.all(diagram.re_branch[:, 1] == 0.0)


def test_re_branch_action_domain():
    with pytest.raises(ValueError):
        re_branch_action(P12, -4.0 * np.pi)


def _triangle_orbit(varpi, period):
    # a PeriodicOrbit of the rotating triangle, built with no integration
    pos = NGonSystem(3).positions
    return PeriodicOrbit(P12, varpi, period, np.stack([pos, jay(pos)]),
                         0.0, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", [
    lambda bad: monodromy(_triangle_orbit(bad, 1.0)),
    lambda bad: monodromy(_triangle_orbit(0.5, bad)),
    lambda bad: action(NGonSystem(3).rigid_loop(n_samples=8), bad),
    lambda bad: kinetic_energy(NGonSystem(3).rigid_loop(n_samples=8), bad),
    lambda bad: angular_momentum_z(NGonSystem(3).rigid_loop(n_samples=8),
                                   bad),
    lambda bad: newton_residual(NGonSystem(3).rigid_loop(n_samples=8), bad),
    lambda bad: re_branch_action(P12, bad),
    lambda bad: NGonSystem(3).rigid_loop(n_samples=8).on_grid(bad, 8),
], ids=["monodromy-varpi", "monodromy-period", "action", "kinetic",
        "lz", "residual", "re-branch", "on-grid"])
def test_non_finite_frame_rates_raise(call, bad):
    # each of these returned a clean-looking number, or NaN, without a word:
    # monodromy gave 0.0, and NaN passed the check X <= 0 of the branch
    with pytest.raises(ValueError, match="must be finite"):
        call(bad)


def test_flow_calls_no_public_ngon_function(monkeypatch):
    # the flow's right-hand side runs private kernels only, so that no
    # public function of ngon, `gravity` included, is called, or wrapped by
    # a tracer, once per evaluation.  Every attribute of the package bound
    # to a public ngon function is replaced by a counting wrapper
    import unchained.ngon as ngon

    public = {name: fn for name, fn in vars(ngon).items()
              if not name.startswith("_")
              and isinstance(fn, types.FunctionType)
              and fn.__module__ == ngon.__name__}
    calls = dict.fromkeys(public, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    state, varpi = onset_state(P12, 0.05)
    by_id = {id(fn): name for name, fn in public.items()}
    for modname, module in list(sys.modules.items()):
        if modname == "unchained" or modname.startswith("unchained."):
            for attr, value in list(vars(module).items()):
                name = by_id.get(id(value))
                if name is not None and public[name] is value:
                    monkeypatch.setattr(module, attr, counting(name, value))
    assert {"gravity", "potential", "force_jacobian"} <= set(public)
    integrate(np.stack([state, state]), [varpi, -varpi], 0.3)
    integrate(state, varpi, 0.3, tangents=np.eye(19)[:, -3:])
    assert calls == dict.fromkeys(public, 0)
    ngon.gravity(state[0])  # the wrappers count
    assert calls["gravity"] == 1


def test_write_family_csv_round_trip(p12_family):
    buf = io.StringIO()
    write_family_csv(p12_family, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "# spec=3,1,-1,2,1"
    assert lines[1] == "varpi,amplitude,action,period,angular_momentum_z"
    assert lines[-1] == "# end=max-steps"
    assert len(lines) == 3 + len(p12_family.records)
    row = [float(v) for v in lines[2].split(",")]
    rec = p12_family.records[0]
    assert row == [rec.varpi, rec.amplitude, rec.action, rec.period,
                   rec.angular_momentum_z]
