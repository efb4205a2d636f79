"""Torsion coefficients of the vertical Lyapunov families.

Expected gamma values: four cases have exact closed forms which the
solver must reproduce; the remaining ones are frozen from the matching
system and were independently cross-checked against a direct
collocation solve of the full equations of motion (the three-body case
of that cross-check runs in-suite, see test_matches_direct_collocation).
"""

import dataclasses
import math

import numpy as np
import pytest

from unchained import torsion
from unchained.errors import DegenerateSystem
from unchained.ngon import gravity, force_jacobian, jay, newton_residual
from unchained.spectrum import vertical_spectrum
from unchained.symmetry import GroupSpec, invariance_defect
from unchained.torsion import (ExpansionResult, build_equations,
                               excluded_harmonics, reconstruct_loop,
                               torsion_gamma)

PI = np.pi

GAMMA_P12 = (12.0 / 19.0) * (6.0 * PI ** 7) ** (1.0 / 3.0)
GAMMA_CHAIN5 = (6.0 * 2 ** (1 / 3) * (17995 - 7823 * math.sqrt(5))
                * PI ** (7 / 3) / (5981 * 5 ** (1 / 3)))
GAMMA_HIPHOP4 = (4692 * PI ** (7 / 3) * (440 * math.sqrt(2) + 981)
                 / (2446096 * 2 ** 0.25 * math.sqrt(2 * math.sqrt(2) + 1)))
GAMMA_CHAIN6 = (48 * PI ** (7 / 3) * (32634 * math.sqrt(3) - 39889)
                * (15 - 4 * math.sqrt(3)) ** (2 / 3)
                / (781199 * 6962 ** (1 / 3)))

# frozen from the solver, confirmed by collocation continuation
GAMMA_CHAIN4 = 9.483623661582
GAMMA_EIGHT5 = 19.300751173867
GAMMA_CHAIN53 = 12.937720287536
GAMMA_HIPHOP6 = 14.038800735729


def test_p12_exact():
    res = torsion_gamma(GroupSpec(3, 1, -1, 2, 1))
    assert res.gamma == pytest.approx(GAMMA_P12, rel=1e-9)
    assert res.A2 is None and res.C3 is None
    assert res.Am2 is not None


def test_rotated_lagrange_zero():
    res = torsion_gamma(GroupSpec(3, 1, 1, 1, 1))
    assert abs(res.gamma) < 1e-10
    assert res.Am2 is None and res.C3 is None


@pytest.mark.parametrize("spec, expected, rel", [
    (GroupSpec(4, 1, -1, 2, 1), GAMMA_CHAIN4, 1e-9),
    (GroupSpec(4, 2, 1, 1, 1), GAMMA_HIPHOP4, 1e-9),
    (GroupSpec(5, 1, -1, 4, 1), GAMMA_CHAIN5, 1e-9),
    (GroupSpec(5, 2, -1, 2, 1), GAMMA_EIGHT5, 1e-9),
    (GroupSpec(5, 2, 1, 3, 1), GAMMA_CHAIN53, 1e-9),
    (GroupSpec(6, 1, -1, 5, 1), GAMMA_CHAIN6, 1e-9),
    (GroupSpec(6, 2, -1, 1, 1), GAMMA_HIPHOP6, 1e-9),
])
def test_known_families(spec, expected, rel):
    assert torsion_gamma(spec).gamma == pytest.approx(expected, rel=rel)


def test_inequalities():
    bounds = [
        (GroupSpec(4, 1, -1, 2, 1), 9.0),
        (GroupSpec(4, 2, 1, 1, 1), 19.0),
        (GroupSpec(5, 1, -1, 4, 1), 5.0),
        (GroupSpec(5, 2, -1, 2, 1), 19.0),
        (GroupSpec(5, 2, 1, 3, 1), 12.0),
        (GroupSpec(6, 1, -1, 5, 1), 3.0),
        (GroupSpec(6, 2, -1, 1, 1), 14.0),
    ]
    for spec, lower in bounds:
        assert torsion_gamma(spec).gamma > lower


def test_gamma_independent_of_frame():
    for frames in [((2, 1), (1, 2), (5, 3)), ((1, 1), (3, 2), (2, 3))]:
        values = [torsion_gamma(GroupSpec(3, 1, -1, r, s)).gamma
                  for r, s in frames]
        assert np.ptp(values) < 1e-12 * max(abs(v) for v in values)
    a = torsion_gamma(GroupSpec(4, 2, 1, 1, 1)).gamma
    b = torsion_gamma(GroupSpec(4, 2, 1, 3, 2)).gamma
    assert a == pytest.approx(b, rel=1e-13)


@pytest.mark.parametrize("n, k, eta", [
    (3, 1, -1), (3, 1, 1), (4, 1, -1), (4, 2, 1), (5, 1, -1),
    (5, 2, -1), (5, 2, 1), (6, 1, -1), (6, 2, -1), (7, 3, 1),
])
def test_excluded_harmonics_match_result(n, k, eta):
    spec = GroupSpec(n, k, eta, 1, 1)
    excl = excluded_harmonics(spec)
    ke = spec.k * spec.eta
    assert excl["A2"] == ((2 * ke - 1) % n == 0)
    assert excl["Am2"] == ((-2 * ke - 1) % n == 0)
    assert excl["C3"] == ((3 * ke) % n == 0)
    res = torsion_gamma(spec)
    assert (res.A2 is None) == excl["A2"]
    assert (res.Am2 is None) == excl["Am2"]
    assert (res.C3 is None) == excl["C3"]


@pytest.mark.parametrize("n, k, eta", [
    (3, 1, -1), (4, 2, 1), (5, 2, -1), (6, 1, -1),
])
def test_equation_rows_are_real(n, k, eta):
    system = build_equations(GroupSpec(n, k, eta, 1, 1))
    scale = max(np.abs(system.matrix).max(), np.abs(system.rhs).max())
    for label, row, rhs in zip(system.row_labels, system.matrix,
                               system.rhs):
        if label.endswith(".im"):
            assert np.abs(row).max() < 1e-10 * scale
            assert abs(rhs) < 1e-10 * scale


@pytest.mark.parametrize("n, k, eta", [
    (3, 1, -1), (4, 1, -1), (4, 2, 1), (5, 2, -1), (6, 2, -1), (7, 2, 1),
])
def test_vertical_variational_identity(n, k, eta):
    # the eps^0 vertical balance ties the n-gon scale to the mode
    # frequency: sum_l A_l^-3 u_l sin 2pi(t + phi_l) = -4 pi^2 cos 2pi t
    spm = vertical_spectrum(n)
    w_hat = 2.0 * PI * spm.omega1 / spm.omega(k)
    a0 = (spm.omega1 / w_hat) ** (2.0 / 3.0)
    ls = np.arange(1, n)
    rho = np.abs(1.0 - np.exp(2j * np.pi * ls / n))
    ke = k * eta
    u = -2.0 * np.sin(np.pi * ke * ls / n)
    phase = np.exp(1j * np.pi * ke * ls / n)
    c1 = np.sum((a0 * rho) ** -3.0 * u * phase / 2j)
    assert c1 == pytest.approx(-2.0 * PI ** 2, rel=1e-12)


@pytest.mark.parametrize("spec", [
    GroupSpec(3, 1, -1, 2, 1),
    GroupSpec(4, 2, 1, 1, 1),
    GroupSpec(5, 2, -1, 2, 1),
    GroupSpec(6, 1, -1, 5, 1),
], ids=str)
def test_reconstruction_residual_scaling(spec):
    res = torsion_gamma(spec)
    eps_grid = np.array([1e-1, 1e-2, 1e-3])
    resid = []
    for eps in eps_grid:
        loop, varpi = reconstruct_loop(res, eps)
        resid.append(newton_residual(loop, varpi))
    slope = np.polyfit(np.log(eps_grid), np.log(resid), 1)[0]
    assert slope >= 3.9


def test_reconstruction_is_group_invariant():
    spec = GroupSpec(3, 1, -1, 2, 1)
    loop, _ = reconstruct_loop(torsion_gamma(spec), 0.2)
    assert invariance_defect(loop, spec) < 1e-9


def test_reconstruction_frame_rate():
    spec = GroupSpec(4, 2, 1, 1, 1)
    res = torsion_gamma(spec)
    eps = 0.05
    _, varpi = reconstruct_loop(res, eps)
    assert varpi == pytest.approx(
        res.w_hat - 2.0 * PI * spec.r / spec.s + res.gamma * eps ** 2)


def _collocation_frequency(spec, eps, m=64, iters=25):
    """Relaxed collocation solve of the full rotating-frame equations,
    pinned to vertical first-harmonic eps; returns the frame rate."""
    res = torsion_gamma(spec)
    loop, varpi = reconstruct_loop(res, eps, n_samples=m)
    n = spec.n_bodies
    fmat = np.fft.fft(np.eye(m), axis=0)
    fr = np.fft.fftfreq(m, d=loop.period / m) * 2j * np.pi
    D = np.real(np.fft.ifft(fr[:, None] * fmat, axis=0))
    D2 = D @ D
    y = loop.positions.reshape(m, -1).copy()
    w = varpi
    t = np.arange(m) * (loop.period / m)
    nv = 3 * n
    e1 = np.exp(-2j * np.pi * t)
    ecr = np.exp(-2j * np.pi * (spec.r / spec.s) * t)
    jmat = np.zeros((nv, nv))
    ph = np.eye(nv)
    for b in range(n):
        jmat[3 * b, 3 * b + 1] = -1.0
        jmat[3 * b + 1, 3 * b] = 1.0
        ph[3 * b + 2, 3 * b + 2] = 0.0
    kd2 = np.kron(D2, np.eye(nv))
    kd = np.kron(D, jmat)

    def residual(y, w):
        pos = y.reshape(m, n, 3)
        frc = gravity(pos)
        hor = pos.copy()
        hor[:, :, 2] = 0.0
        vel = (D @ y).reshape(m, n, 3)
        acc = (D2 @ y).reshape(m, n, 3)
        r = acc - frc - w ** 2 * hor + 2.0 * w * jay(vel)
        c1 = (pos[:, 0, 2] @ e1) / m
        cr = ((pos[:, 0, 0] + 1j * pos[:, 0, 1]) @ ecr) / m
        return np.concatenate(
            [r.reshape(-1), [c1.real - eps / 2, c1.imag, cr.imag]])

    for _ in range(iters):
        r = residual(y, w)
        if np.abs(r).max() < 1e-11:
            break
        pos = y.reshape(m, n, 3)
        vel = (D @ y).reshape(m, n, 3)
        K = kd2 + 2.0 * w * kd
        for i in range(m):
            sl = slice(i * nv, (i + 1) * nv)
            K[sl, sl] = K[sl, sl] - force_jacobian(pos[i]) - w ** 2 * ph
        J = np.zeros((m * nv + 3, m * nv + 1))
        J[:m * nv, :m * nv] = K
        hor = pos.copy()
        hor[:, :, 2] = 0.0
        J[:m * nv, -1] = (-2.0 * w * hor + 2.0 * jay(vel)).reshape(-1)
        for i in range(m):
            J[m * nv + 0, i * nv + 2] = e1[i].real / m
            J[m * nv + 1, i * nv + 2] = e1[i].imag / m
            J[m * nv + 2, i * nv + 0] = ecr[i].imag / m
            J[m * nv + 2, i * nv + 1] = ecr[i].real / m
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        y = y + step[:-1].reshape(m, -1)
        w = w + step[-1]
    assert np.abs(residual(y, w)).max() < 1e-9
    return w


def test_matches_direct_collocation():
    # independent route: solve the genuine equations of motion and
    # finite-difference the frame rate against eps^2
    spec = GroupSpec(3, 1, -1, 2, 1)
    res = torsion_gamma(spec)
    w_onset = res.w_hat - 2.0 * PI * spec.r / spec.s
    eps = 0.05
    w = _collocation_frequency(spec, eps)
    gamma_fd = (w - w_onset) / eps ** 2
    assert gamma_fd == pytest.approx(res.gamma, rel=0.05)


def test_result_fields():
    res = torsion_gamma(GroupSpec(5, 1, -1, 1, 1))
    assert isinstance(res, ExpansionResult)
    assert res.A0 > 0 and res.w_hat > 0
    assert np.isfinite(res.gamma) and np.isfinite(res.alpha)
    assert all(v is None or np.isfinite(v)
               for v in (res.A2, res.Am2, res.C3))


# every (N, k, eta) with N <= 12; eta = +1 alone when 2k = N
ALL_MODES = [(n, k, eta) for n in range(3, 13) for k in range(1, n // 2 + 1)
             for eta in ((1,) if 2 * k == n else (-1, 1))]


@pytest.mark.parametrize("n, k, eta", ALL_MODES)
def test_gamma_matches_lstsq(n, k, eta):
    spec = GroupSpec(n, k, eta, 1, 1)
    system = build_equations(spec)
    w, *_ = np.linalg.lstsq(system.matrix, system.rhs, rcond=None)
    gamma = torsion_gamma(spec).gamma
    assert abs(gamma - w[-1]) <= 1e-14 * abs(w[-1])


def _altered_system(monkeypatch, alter):
    real = torsion.build_equations
    monkeypatch.setattr(torsion, "build_equations",
                        lambda spec: alter(real(spec)))


def test_rank_deficient_system_raises(monkeypatch):
    # the gamma column repeats the alpha column: rank 4 of 5 unknowns
    def tied(system):
        m = system.matrix.copy()
        m[:, -1] = m[:, 0]
        return dataclasses.replace(system, matrix=m)

    _altered_system(monkeypatch, tied)
    with pytest.raises(DegenerateSystem, match="singular"):
        torsion_gamma(GroupSpec(4, 2, 1, 1, 1))


def test_inconsistent_system_raises(monkeypatch):
    # a right-hand side on an imaginary row, whose matrix row is zero, is
    # out of the column space: no w meets it
    def offset(system):
        b = system.rhs.copy()
        b[system.row_labels.index("U.im")] += (
            np.abs(system.matrix).max() + np.abs(system.rhs).max())
        return dataclasses.replace(system, rhs=b)

    _altered_system(monkeypatch, offset)
    with pytest.raises(DegenerateSystem, match="inconsistent"):
        torsion_gamma(GroupSpec(4, 2, 1, 1, 1))
