"""Spectra of the n-gon: frozen values, invariants, and cross-checks."""

import numpy as np
import pytest

from unchained.errors import DegenerateSystem
from unchained.ngon import build_ngon, newton_residual, wintner_matrix
from unchained.spectrum import (_horizontal_spectrum, _vertical_spectrum,
                                check_monotone, convexity_report, fold_mode,
                                horizontal_spectrum, lyapunov_cylinder,
                                pacella_moeckel, vertical_spectrum)

# Frozen vertical frequencies (unit circumradius).  Closed forms follow
# from the chord-length sums; decimals were frozen from an independent
# high-precision evaluation of the circulant eigenvalue formula.
OMEGA1_3 = 3.0 ** -0.25                               # 0.7598356856515925
OMEGA1_4 = np.sqrt(2.0 * np.sqrt(2.0) + 1.0) / 2.0    # 0.9783183434785159
# lambda_2(4) = -(2/rho_1^3 + 2/rho_3^3) = -sqrt(2) exactly, so omega_2 is
# the absolute value 2^(1/4); the ratio to omega_1 is 1.2155625241
OMEGA2_4 = 2.0 ** 0.25                                # 1.1892071150027210
OMEGA1_6 = np.sqrt(1.25 + np.sqrt(3.0) / 3.0)         # 1.3517952023844537
OMEGA3_6 = np.sqrt(17.0) / 2.0                        # 2.0615528128088307

RATIOS = {
    4: [1.0, 1.215562524131],
    5: [1.0, 1.328131026104],
    6: [1.0, 1.399167896711, 1.525048179763],
}

# Frozen horizontal spectra in units of omega_1 (one representative per
# sign quadruple).  Frozen from an independent eigensolve of the
# rotating-frame linearization; the N=3 quartet is the classical
# equal-mass triangle value, root of l^4 + l^2 + 9/4 = 0, and was
# cross-checked against inertial-frame Floquet multipliers e^(2 pi/sqrt 2)
# of the rigidly rotating triangle.
SQ2 = np.sqrt(0.5)
HORIZONTAL = {
    3: [1j, SQ2 + 1j],
    4: [1j, 0.8595325038 + 1j, 0.6394812009 + 0.9533814590j],
    5: [1j, 0.9391304549 + 1j, 0.8281366700 + 0.8822431635j,
        0.5028535236 + 0.8822431635j],
    6: [1j, 0.9893611078 + 1j, 0.9499800584 + 0.8151022048j,
        0.2986755303 + 0.8151022048j, 0.4687282051j, 0.4211614102 + 0j],
}


def quadruple(z):
    """Sign orbit {+-Re +- Im} of a representative eigenvalue."""
    out = {complex(z)}
    out |= {-z for z in out}
    out |= {z.conjugate() for z in out}
    return out


def test_vertical_rejects_small_n():
    with pytest.raises(ValueError):
        vertical_spectrum(2)


@pytest.mark.parametrize("spectrum", [vertical_spectrum, horizontal_spectrum])
@pytest.mark.parametrize("n", [3.0, 4.5, True, 2])
def test_spectra_refuse_a_count_that_is_not_an_integer_from_3(spectrum, n):
    # refused before the cache is consulted: 3.0 == 3 hash alike, so a
    # cached float count would reach every later caller with n = 3
    with pytest.raises(ValueError):
        spectrum(n)


@pytest.mark.parametrize("spectrum", [vertical_spectrum, horizontal_spectrum])
def test_spectra_accept_numpy_integers_as_the_same_count(spectrum):
    shared = spectrum(np.int64(4))
    assert shared is spectrum(4)
    assert type(shared.n_bodies) is int


def _bits(spectrum):
    # every field of a spectrum, floats and arrays by their bytes
    return {name: (np.asarray(value).dtype.str, np.asarray(value).tobytes())
            for name, value in vars(spectrum).items()}


@pytest.mark.parametrize("spectrum,core,arrays", [
    (vertical_spectrum, _vertical_spectrum, ("lambdas", "omegas")),
    (horizontal_spectrum, _horizontal_spectrum, ("eigenvalues",)),
])
def test_spectra_are_computed_once_per_n_and_shared_read_only(spectrum, core,
                                                              arrays):
    for n in range(3, 13):
        shared = spectrum(n)
        assert spectrum(n) is shared
        # the cache returns what a fresh computation gives, bit for bit
        fresh = core.__wrapped__(n)
        assert fresh is not shared
        assert _bits(shared) == _bits(fresh)
        for name in arrays:
            with pytest.raises(ValueError):
                getattr(shared, name)[0] = 0.0
            with pytest.raises(ValueError):
                getattr(shared, name)[...] *= 2.0
        assert _bits(spectrum(n)) == _bits(fresh)


def test_vertical_frozen_closed_forms():
    assert vertical_spectrum(3).omega1 == pytest.approx(OMEGA1_3, abs=1e-12)
    vs4 = vertical_spectrum(4)
    assert vs4.omega1 == pytest.approx(OMEGA1_4, abs=1e-12)
    assert vs4.omegas[1] == pytest.approx(OMEGA2_4, abs=1e-12)
    vs6 = vertical_spectrum(6)
    assert vs6.omega1 == pytest.approx(OMEGA1_6, abs=1e-12)
    assert vs6.omegas[2] == pytest.approx(OMEGA3_6, abs=1e-12)


def test_vertical_frozen_ratios():
    for n, expected in RATIOS.items():
        np.testing.assert_allclose(vertical_spectrum(n).ratios, expected,
                                   rtol=0, atol=1e-9)


def test_lambda_signs_and_bookkeeping():
    for n in (3, 4, 5, 6, 17):
        vs = vertical_spectrum(n)
        assert vs.lambdas[0] == 0.0
        assert np.all(vs.lambdas[1:] < 0.0)
        assert len(vs.lambdas) == n // 2 + 1
        assert len(vs.omegas) == n // 2
        np.testing.assert_allclose(vs.omegas, np.sqrt(-vs.lambdas[1:]))


def test_circulant_eigenvector_property():
    # W x_k = lambda_k x_k with x_k the discrete Fourier vector
    for n in range(3, 65):
        w = wintner_matrix(build_ngon(n).configuration)
        vs = vertical_spectrum(n)
        j = np.arange(n)
        # 1e-12 in units of the matrix norm (entries grow like n^3)
        tol = 1e-12 * max(1.0, np.abs(w).sum(axis=1).max())
        for k in range(n // 2 + 1):
            x = np.exp(2j * np.pi * k * j / n)
            assert np.abs(w @ x - vs.lambdas[k] * x).max() < tol


def test_omega1_matches_rigid_rotation_frequency():
    for n in (3, 5, 11, 40):
        assert vertical_spectrum(n).omega1 == pytest.approx(
            build_ngon(n).omega1, abs=1e-12)


def test_monotone_through_200():
    assert all(check_monotone(n) for n in range(3, 201))


def test_fold_mode():
    assert [fold_mode(5, m) for m in (-3, 7, 5, 2, 0)] == [2, 2, 0, 2, 0]
    assert [fold_mode(6, m) for m in (3, 4, 9, -1)] == [3, 2, 3, 1]


def test_omega_folded_accessor():
    vs = vertical_spectrum(5)
    assert vs.omega(-3) == vs.omegas[1]
    assert vs.omega(7) == vs.omegas[1]
    with pytest.raises(DegenerateSystem):
        vs.omega(10)


def test_pacella_moeckel():
    assert not pacella_moeckel(3)
    assert all(pacella_moeckel(n) for n in range(4, 51))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_horizontal_frozen_values(n):
    hs = horizontal_spectrum(n)
    assert len(hs.eigenvalues) == 4 * n - 6
    expected = sorted(
        {z for rep in HORIZONTAL[n] for z in quadruple(rep)},
        key=lambda z: (z.real, z.imag))
    assert len(expected) == 4 * n - 6
    for z in expected:
        assert np.abs(hs.eigenvalues - z).min() < 1e-9
    for z in hs.eigenvalues:
        assert min(abs(z - w) for w in expected) < 1e-9


def test_horizontal_n4_closed_forms():
    # the two nontrivial quadruples have surd expressions
    hs = horizontal_spectrum(4)
    re1 = np.sqrt(56.0 - 14.0 * np.sqrt(2.0)) / 7.0
    inner = 42.0 * np.sqrt(-16.0 + 18.0 * np.sqrt(2.0))
    z2 = (np.sqrt(inner - 49.0) + 1j * np.sqrt(inner + 49.0)) / 14.0
    assert np.abs(hs.eigenvalues - (re1 + 1j)).min() < 1e-12
    assert np.abs(hs.eigenvalues - z2).min() < 1e-12


def test_horizontal_symmetry_closure():
    for n in (3, 5, 8, 12):
        ev = horizontal_spectrum(n).eigenvalues
        for transform in (np.conj, np.negative):
            for z in transform(ev):
                assert np.abs(ev - z).min() < 1e-9


def test_horizontal_raw_units():
    hs = horizontal_spectrum(5)
    np.testing.assert_allclose(hs.raw_eigenvalues, hs.eigenvalues * hs.omega1)
    # Kepler pair sits at +-i omega_1 in raw units
    assert np.abs(hs.raw_eigenvalues - 1j * hs.omega1).min() < 1e-9


def test_purely_imaginary_classification():
    hs = horizontal_spectrum(6)
    imag = hs.purely_imaginary()
    # +-i, +-0.4687...i and nothing else (the real pair is excluded)
    assert len(imag) == 4
    assert all(abs(z.real) < 1e-10 for z in imag)


def test_purely_imaginary_below_omega_max():
    for n in (7, 12, 30):
        hs = horizontal_spectrum(n)
        bound = vertical_spectrum(n).omega_max / hs.omega1
        imag = hs.purely_imaginary()
        assert len(imag) > 0
        assert np.abs(imag).max() < bound


def test_cylinder_vertical_variational_equation():
    loop = lyapunov_cylinder(5, 2, -1, 2, 1, 0.3)
    z = loop.positions[:, :, 2]
    zdd = loop.derivative(2)[:, :, 2]
    w = wintner_matrix(build_ngon(5).configuration)
    assert np.abs(zdd - z @ w).max() < 1e-10


def test_cylinder_zero_amplitude_solves_newton():
    # amplitude 0 leaves the rigid n-gon, exact in the frame where it
    # advances (r/s) w_k per unit time
    vs = vertical_spectrum(5)
    loop = lyapunov_cylinder(5, 2, -1, 2, 1, 0.0)
    varpi = vs.omega1 - 2.0 * vs.omegas[1]
    assert newton_residual(loop, varpi=varpi) < 1e-8


def test_cylinder_sampling_grid():
    loop = lyapunov_cylinder(4, 1, -1, 3, 2, 0.1)
    assert loop.n_samples % (2 * 4 * 2) == 0
    vs = vertical_spectrum(4)
    assert loop.period == pytest.approx(2.0 * np.pi * 2 / vs.omegas[0])


def test_cylinder_mirror_symmetry_at_zero_phase():
    loop = lyapunov_cylinder(5, 2, -1, 2, 1, 0.2)
    pos = loop.positions
    m = loop.n_samples
    idx = np.arange(5)
    for i in (1, 7, m // 3):
        mirrored = pos[(-i) % m][(-idx) % 5]
        # reflect the horizontal plane (conjugation), keep z
        np.testing.assert_allclose(pos[i][:, 0], mirrored[:, 0], atol=1e-12)
        np.testing.assert_allclose(pos[i][:, 1], -mirrored[:, 1], atol=1e-12)
        np.testing.assert_allclose(pos[i][:, 2], mirrored[:, 2], atol=1e-12)


def test_cylinder_vertical_choreography_shift():
    # with s = 1 the vertical profiles are one shared curve, body j
    # shifted by eta k j / N of the period
    loop = lyapunov_cylinder(5, 2, -1, 2, 1, 0.4)
    z = loop.positions[:, :, 2]
    m = loop.n_samples
    for j in range(5):
        shift = (-2 * j * m // 5) % m
        np.testing.assert_allclose(z[:, j], np.roll(z[:, 0], -shift), atol=1e-12)


def test_cylinder_argument_validation():
    with pytest.raises(ValueError):
        lyapunov_cylinder(5, 3, -1, 1, 1, 0.1)
    with pytest.raises(ValueError):
        lyapunov_cylinder(5, 2, 2, 1, 1, 0.1)
    with pytest.raises(ValueError):
        lyapunov_cylinder(5, 2, -1, 2, 4, 0.1)
    with pytest.raises(ValueError):
        lyapunov_cylinder(5, 2, -1, 1, 1, -0.1)


@pytest.mark.parametrize("n,ell", [(5, 2), (6, 2), (7, 3), (9, 4), (4, 1)])
def test_convexity_closed_form_below_half(n, ell):
    rep = convexity_report(n, ell)
    w2 = vertical_spectrum(n).omegas[ell - 1] ** 2
    target = 0.5 * n * w2 * np.eye(2)
    np.testing.assert_allclose(rep.potential_form, target, atol=1e-11)
    np.testing.assert_allclose(rep.kinetic_form, target, atol=1e-11)
    assert rep.definite


@pytest.mark.parametrize("n", [4, 6, 8])
def test_convexity_half_mode_degenerate(n):
    ell = n // 2
    rep = convexity_report(n, ell)
    w2 = vertical_spectrum(n).omegas[ell - 1] ** 2
    # sine profile vanishes: b and c are null directions, a and d carry
    # the full weight n w^2
    np.testing.assert_allclose(rep.potential_form,
                               np.diag([n * w2, 0.0]), atol=1e-11)
    np.testing.assert_allclose(rep.kinetic_form,
                               np.diag([0.0, n * w2]), atol=1e-11)
    assert not rep.definite


def test_convexity_kinetic_positive_definite_below_half():
    for n, ell in [(5, 1), (5, 2), (6, 2), (11, 5)]:
        rep = convexity_report(n, ell)
        assert np.all(np.linalg.eigvalsh(rep.kinetic_form) > 0)


def test_convexity_potential_matches_finite_differences():
    from unchained.ngon import Configuration, potential as u_value

    def pot_energy(n, ell, a, b):
        j = np.arange(n)
        th = 2.0 * np.pi / n
        z = a * np.cos(j * ell * th) + b * np.sin(j * ell * th)
        pos = np.stack([np.cos(th * j), np.sin(th * j), z], axis=1)
        return -u_value(Configuration(pos))

    h = 1e-4
    for n, ell in [(5, 2), (6, 2), (6, 3)]:
        hess = np.zeros((2, 2))
        f0 = pot_energy(n, ell, 0.0, 0.0)
        hess[0, 0] = (pot_energy(n, ell, h, 0) - 2 * f0
                      + pot_energy(n, ell, -h, 0)) / h**2
        hess[1, 1] = (pot_energy(n, ell, 0, h) - 2 * f0
                      + pot_energy(n, ell, 0, -h)) / h**2
        hess[0, 1] = hess[1, 0] = (
            pot_energy(n, ell, h, h) - pot_energy(n, ell, h, -h)
            - pot_energy(n, ell, -h, h) + pot_energy(n, ell, -h, -h)
        ) / (4 * h**2)
        rep = convexity_report(n, ell)
        np.testing.assert_allclose(hess, rep.potential_form, atol=1e-4)


def test_convexity_rejects_bad_mode():
    with pytest.raises(ValueError):
        convexity_report(6, 4)
    with pytest.raises(ValueError):
        convexity_report(6, 0)
