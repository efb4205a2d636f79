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
import io
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from unchained.continuation import (ActionDiagram, ContinuationResult,
                                    FamilyRecord, PeriodicOrbit,
                                    action_diagram, continue_family,
                                    integrate, monodromy, onset_state,
                                    re_branch_action, shoot_symmetric,
                                    write_family_csv, _reduction,
                                    _state_matrix)
from unchained.errors import (CollisionError, NoConvergence,
                              SingularReduction)
from unchained.ngon import (Configuration, RotatingFrame, build_ngon, jay,
                            angular_momentum_z, newton_residual, potential,
                            rescale)
from unchained.spectrum import lyapunov_cylinder, vertical_spectrum
from unchained.symmetry import GroupSpec, enumerate_elements, is_invariant
from unchained.torsion import verify_against_continuation

OMEGA1_3 = 3.0 ** -0.25
OMEGA1_4 = 0.97831834347851587
OMEGA2_4 = 1.189207115002721
GAMMA_P12 = 16.589288688205574
GAMMA_HH4 = 19.104492602095

P12 = GroupSpec(3, 1, -1, 2, 1)
HH4 = GroupSpec(4, 2, 1, 1, 1)
TILT3 = GroupSpec(3, 1, 1, 2, 1)

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
    final = integrate(state, [1.0, 1.0], 0.0, KEPLER_PERIOD)
    assert np.max(np.abs(final - state)) < 1e-10


def test_integrate_relative_equilibrium_round_trip():
    sys5 = build_ngon(5)
    loop = sys5.rigid_loop()
    state = np.stack([loop.positions[0], loop.velocities()[0]])
    final = integrate(state, np.ones(5), RotatingFrame(0.0), loop.period)
    assert np.max(np.abs(final - state)) < 1e-10


def test_integrate_energy_drift():
    # eccentric two-body motion; energy to the integrator tolerance
    state = two_body_circular()
    state[1] *= 0.8

    def energy(st):
        kin = 0.5 * np.sum(st[1] ** 2)
        return kin - potential(Configuration(st[0], np.ones(2)))

    res = integrate(state, [1.0, 1.0], 0.0, (0.0, 3.0), 1e-12,
                    t_eval=np.linspace(0.0, 3.0, 7))
    energies = [energy(s) for s in res.trajectory]
    assert np.ptp(energies) < 1e-10


def test_integrate_rotating_frame_consistency():
    # the rotating-frame flow, mapped to inertial coordinates, matches the
    # inertial flow of the inertially mapped initial condition
    state, varpi = onset_state(P12, 0.07)
    t1 = 0.4
    rot = integrate(state, np.ones(3), varpi, t1)

    inertial0 = np.stack([state[0], state[1] + varpi * jay(state[0])])
    direct = integrate(inertial0, np.ones(3), 0.0, t1)

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
    res = integrate(state, np.ones(3), varpi, t1, variational=True)
    rng = np.random.default_rng(7)
    h = 1e-4
    for _ in range(3):
        d = rng.standard_normal(state.shape)
        d /= np.linalg.norm(d)
        plus = integrate(state + h * d, np.ones(3), varpi, t1)
        minus = integrate(state - h * d, np.ones(3), varpi, t1)
        fd = (plus - minus).ravel() / (2.0 * h)
        assert np.max(np.abs(res.variational @ d.ravel() - fd)) < 1e-6


def test_integrate_varpi_gradient_matches_finite_difference():
    state, varpi = onset_state(P12, 0.05)
    t1 = 0.3
    res = integrate(state, np.ones(3), varpi, t1, varpi_gradient=True)
    h = 1e-5
    plus = integrate(state, np.ones(3), varpi + h, t1)
    minus = integrate(state, np.ones(3), varpi - h, t1)
    fd = (plus - minus).ravel() / (2.0 * h)
    assert np.max(np.abs(res.varpi_gradient - fd)) < 1e-5


def test_integrate_collision_raises():
    pos = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    state = np.stack([pos, np.zeros_like(pos)])
    with pytest.raises(CollisionError) as err:
        integrate(state, [1.0, 1.0], 0.0, 3.0)
    assert err.value.pair == (0, 1)
    assert err.value.distance < 1e-5


def test_integrate_rejects_initial_collision():
    # two bodies inside the collision threshold and moving apart: the
    # terminal event fires only on a downward crossing, so only the check
    # of the initial positions can catch them
    pos = np.array([[0.0, 0.0, 0.0], [5e-8, 0.0, 0.0]])
    vel = np.array([[-0.5e5, 0.0, 0.0], [0.5e5, 0.0, 0.0]])
    with pytest.raises(CollisionError) as err:
        integrate(np.stack([pos, vel]), [1.0, 1.0], 0.0, 1e-6)
    assert err.value.pair == (0, 1)
    assert err.value.distance == pytest.approx(5e-8)


def test_integrate_trajectory_shapes():
    state = two_body_circular()
    t_eval = np.linspace(0.0, 1.0, 11)
    res = integrate(state, [1.0, 1.0], 0.0, (0.0, 1.0), t_eval=t_eval)
    assert res.trajectory.shape == (11, 2, 2, 3)
    assert np.max(np.abs(res.trajectory[0] - state)) < 1e-13
    assert np.max(np.abs(res.times - t_eval)) == 0.0
    assert np.max(np.abs(res.trajectory[-1] - res.state)) < 1e-13


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
    assert red.theta0 == Fraction(gcd(n, 2 * spec.k), 2 * n)
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
        assert np.max(np.abs(_state_matrix(spec, g) @ x - x)) < 1e-12


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


# ---------------------------------------------------------------------------
# shooting


def test_shoot_symmetric_zero_amplitude_relative_equilibrium():
    state, varpi = onset_state(P12)
    orbit = shoot_symmetric(P12, varpi, state)
    assert orbit.residual < 1e-10
    assert abs(orbit.amplitude) < 1e-9
    a0 = (OMEGA1_3 / (2.0 * np.pi)) ** (2.0 / 3.0)
    ngon = build_ngon(3, a0)
    loop = orbit.sample(128)
    assert abs(potential(Configuration(loop.positions[0]))
               - ngon.u) < 1e-10


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


def test_shoot_symmetric_no_convergence():
    state, varpi = onset_state(P12, 0.3)
    with pytest.raises(NoConvergence):
        shoot_symmetric(P12, varpi, state, max_iter=1)


# ---------------------------------------------------------------------------
# continuation


def test_family_record_layout(p12_family):
    fam = p12_family
    assert isinstance(fam, ContinuationResult)
    assert fam.end_reason == "max-steps"
    assert len(fam.records) == 9
    assert fam.varpi_onset == pytest.approx(-2.0 * np.pi, abs=1e-12)
    first = fam.records[0]
    assert isinstance(first, FamilyRecord)
    assert first.amplitude == 0.0
    assert first.varpi == pytest.approx(-2.0 * np.pi, abs=1e-12)
    amps = [r.amplitude for r in fam.records]
    assert np.all(np.diff(amps) > 0)
    assert all(r.period == 1.0 for r in fam.records)
    assert all(r.action > 0 for r in fam.records)
    assert all(isinstance(r.orbit, PeriodicOrbit) for r in fam.records)


def test_family_onset_action_closed_form(p12_family):
    rec0 = p12_family.records[0]
    closed = re_branch_action(P12, p12_family.varpi_onset)
    assert rec0.action == pytest.approx(closed, rel=1e-12)
    # (3/2) U T for the n-gon scaled so the vertical frequency is 2 pi
    a0 = (OMEGA1_3 / (2.0 * np.pi)) ** (2.0 / 3.0)
    u_bar = potential(Configuration(build_ngon(3, a0).configuration.positions))
    assert rec0.action == pytest.approx(1.5 * u_bar, rel=1e-12)


def test_family_torsion_slope(p12_family):
    rec = p12_family.records[1:4]
    eps = np.array([r.amplitude for r in rec])
    varpi = np.array([r.varpi for r in rec])
    slope = ((varpi - p12_family.varpi_onset) / eps ** 2).mean()
    assert abs(slope - GAMMA_P12) / GAMMA_P12 < 0.05


def test_family_orbit_quality(p12_family):
    for rec in (p12_family.records[1], p12_family.records[4],
                p12_family.records[-1]):
        loop = rec.orbit.sample(512)
        assert is_invariant(loop, P12, 1e-6)
        assert newton_residual(loop.resample(64), rec.varpi) < 1e-8
        lz = angular_momentum_z(loop, rec.varpi)
        assert np.ptp(lz) < 1e-9
        assert abs(lz.mean() - rec.angular_momentum_z) < 1e-12


def test_family_action_continuity_halved_steps(p12_family):
    base = np.diff([r.action for r in p12_family.records[1:]])
    half = continue_family(P12, n_steps=6, step=0.0175, max_step=0.03)
    small = np.diff([r.action for r in half.records[1:]])
    assert np.max(np.abs(small)) < 0.75 * np.max(np.abs(base))


def test_varpi_window_ends_family():
    # the window applies to every emitted record, including the pinned
    # first step and the branch point itself
    tight = continue_family(P12, n_steps=6, step=0.035,
                            varpi_range=(-6.2832, -6.2831))
    assert tight.end_reason == "varpi-range"
    assert len(tight.records) == 2
    assert tight.records[-1].varpi > -6.2831
    off = continue_family(P12, n_steps=2, varpi_range=(0.0, 1.0))
    assert off.end_reason == "varpi-range"
    assert len(off.records) == 1


def test_hiphop_family_onset_and_slope(hh4_family):
    fam = hh4_family
    varpi_expect = 2.0 * np.pi * (OMEGA1_4 / OMEGA2_4 - 1.0)
    assert fam.varpi_onset == pytest.approx(varpi_expect, abs=1e-9)
    assert len(fam.records) == 7
    rec = fam.records[1:4]
    eps = np.array([r.amplitude for r in rec])
    varpi = np.array([r.varpi for r in rec])
    slope = ((varpi - fam.varpi_onset) / eps ** 2).mean()
    assert abs(slope - GAMMA_HH4) / GAMMA_HH4 < 0.05


def test_hiphop_family_orbit_quality(hh4_family):
    rec = hh4_family.records[-1]
    loop = rec.orbit.sample(512)
    assert is_invariant(loop, HH4, 1e-6)
    assert newton_residual(loop.resample(64), rec.varpi) < 1e-8
    assert np.ptp(angular_momentum_z(loop, rec.varpi)) < 1e-9


def test_tilted_ngon_family_constant_action(tilt_family):
    # the k = 1, eta = +1 family rigidly tilts the orbit plane: the frame
    # rate and the action stay at their branch-point values
    fam = tilt_family
    actions = np.array([r.action for r in fam.records])
    assert np.max(np.abs(actions - actions[0])) < 1e-8 * actions[0]
    varpi = np.array([r.varpi for r in fam.records])
    assert np.max(np.abs(varpi - fam.varpi_onset)) < 1e-7
    assert fam.records[-1].amplitude > 0.05


def test_verify_against_continuation_matches_gamma():
    assert verify_against_continuation(P12, GAMMA_P12, n_steps=5) < 0.05


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
    shifted = integrate(rec.orbit.initial_state, np.ones(3), rec.varpi,
                        0.23)
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
    assert grid[0] < p12_family.varpi_onset < grid[-1]
    assert np.allclose(diagram.re_branch[:, 2],
                       re_branch_action(P12, grid), rtol=1e-14)
    assert np.all(diagram.re_branch[:, 1] == 0.0)


def test_re_branch_action_domain():
    with pytest.raises(ValueError):
        re_branch_action(P12, -4.0 * np.pi)


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
