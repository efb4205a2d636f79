"""Acceptance battery: one test per numbered criterion.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion.  Reference decimals and closed forms are the same
independently derived oracles frozen in the per-module test files; the
tolerances and batteries here are the acceptance ones (module tests are
often tighter).  Stated runtime budgets are asserted where they are
concrete; the wall-clock checks are generous enough not to flake on a
loaded host while still catching complexity regressions.
"""

import time
from math import gcd, pi

import numpy as np
import pytest

from unchained.ngon import (
    LoopPath,
    NGonSystem,
    angular_momentum_z,
    newton_residual,
    potential,
)
from unchained.spectrum import (
    horizontal_spectrum,
    lyapunov_cylinder,
    vertical_spectrum,
)
from unchained.symmetry import (
    FourierConstraints,
    GroupSpec,
    enumerate_elements,
    find_isomorphism,
    invariance_defect,
    is_simple_choreography,
    structure_report,
)
from unchained.minimize import absolute_interval, lambda_G_bruteforce
from unchained.torsion import reconstruct_loop, torsion_gamma
from unchained.continuation import continue_family, re_branch_action

TWO_PI = 2.0 * pi

P12 = GroupSpec(3, 1, -1, 2, 1)
HH4 = GroupSpec(4, 2, 1, 1, 1)

# frozen vertical frequency ratios omega_k / omega_1 (10 decimals)
RATIO_DECIMALS = {
    4: [1.2155625241],
    5: [1.3281310261],
    6: [1.3991678967, 1.5250481798],
}

# frozen horizontal spectra in omega_1 units, one representative per
# sign quadruple {+-Re +- Im}; see test_spectrum for their derivation
HORIZONTAL = {
    3: [1j, np.sqrt(0.5) + 1j],
    4: [1j, 0.8595325038 + 1j, 0.6394812009 + 0.9533814590j],
    5: [1j, 0.9391304549 + 1j, 0.8281366700 + 0.8822431635j,
        0.5028535236 + 0.8822431635j],
    6: [1j, 0.9893611078 + 1j, 0.9499800584 + 0.8151022048j,
        0.2986755303 + 0.8151022048j, 0.4687282051j, 0.4211614102 + 0j],
}

# torsion coefficients: P12 has a closed form, the rest obey strict
# lower bounds (values themselves are frozen in test_torsion)
GAMMA_P12 = (12.0 / 19.0) * (6.0 * pi ** 7) ** (1.0 / 3.0)
GAMMA_LOWER_BOUNDS = [
    (GroupSpec(4, 1, -1, 2, 1), 9.0),
    (GroupSpec(4, 2, 1, 1, 1), 19.0),
    (GroupSpec(5, 1, -1, 4, 1), 5.0),
    (GroupSpec(5, 2, -1, 2, 1), 19.0),
    (GroupSpec(5, 2, 1, 3, 1), 12.0),
    (GroupSpec(6, 1, -1, 5, 1), 3.0),
    (GroupSpec(6, 2, -1, 1, 1), 14.0),
]


def quadruple(z):
    out = {complex(z)}
    out |= {-w for w in out}
    out |= {w.conjugate() for w in out}
    return out


def cycle_bruteforce(spec):
    """Choreography oracle: an element with trivial isometry part cycles
    all bodies."""
    n = spec.n_bodies
    return any(
        g.xi == 1 and g.beta == 0 and g.alpha == 0 and gcd(g.delta, n) == 1
        for g in enumerate_elements(spec))


def test_criterion_1_vertical_spectra():
    start = time.perf_counter()
    assert vertical_spectrum(3).ratios.tolist() == [1.0]
    for n, decimals in RATIO_DECIMALS.items():
        ratios = vertical_spectrum(n).ratios
        for expected, got in zip(decimals, ratios[1:]):
            assert got == pytest.approx(expected, abs=1e-9)
    assert vertical_spectrum(4).omega1 == pytest.approx(
        np.sqrt(2.0 * np.sqrt(2.0) + 1.0) / 2.0, abs=1e-12)
    assert vertical_spectrum(6).omega(3) == pytest.approx(
        np.sqrt(17.0) / 2.0, abs=1e-12)
    assert time.perf_counter() - start < 1.0


def test_criterion_2_monotonicity():
    start = time.perf_counter()
    # lambda_k < 0 and strictly decreasing for k = 1..floor(n/2)
    for n in range(3, 201):
        lam = vertical_spectrum(n).lambdas[1:]
        assert np.all(lam < 0.0) and np.all(np.diff(lam) < 0.0), n
    assert time.perf_counter() - start < 1.0


def test_criterion_3_horizontal_spectra():
    start = time.perf_counter()
    for n, reps in HORIZONTAL.items():
        eigs = horizontal_spectrum(n).eigenvalues
        expected = {z for rep in reps for z in quadruple(rep)}
        assert len(expected) == len(eigs) == 4 * n - 6
        for z in expected:
            assert np.abs(eigs - z).min() < 1e-6
    for n in range(7, 31):
        hs = horizontal_spectrum(n)
        imag = hs.purely_imaginary()
        bound = vertical_spectrum(n).omega_max / hs.omega1
        assert imag.size > 0
        assert np.abs(imag).max() < bound
    assert time.perf_counter() - start < 60.0


def test_criterion_4_group_structure():
    # exhaustive order |G| = 4Ns over N <= 12, s <= 6
    for n in range(3, 13):
        for k in range(1, n // 2 + 1):
            for eta in ((1,) if 2 * k == n else (-1, 1)):
                for s in range(1, 7):
                    for r in range(1, 2 * s + 1):
                        if gcd(r, s) != 1:
                            continue
                        spec = GroupSpec(n, k, eta, r, s)
                        assert len(enumerate_elements(spec)) == 4 * n * s
                if 2 * k != n or eta == 1:
                    for r in (1, 2):
                        rep = structure_report(GroupSpec(n, k, eta, r, 1))
                        assert rep.is_dihedral_times_z2
    # model cylinders are fixed by their stabilizer group
    for spec in (GroupSpec(3, 1, -1, 2, 1), GroupSpec(4, 2, 1, 1, 1),
                 GroupSpec(4, 1, -1, 3, 2), GroupSpec(5, 2, -1, 2, 1),
                 GroupSpec(6, 2, 1, 5, 3)):
        loop = lyapunov_cylinder(spec.n_bodies, spec.k, spec.eta,
                                 spec.r, spec.s, 0.3)
        assert invariance_defect(loop, spec) < 1e-10


def test_criterion_5_classifiers():
    # choreography classifier vs cycle-structure brute force, N <= 8
    for n in range(3, 9):
        for k in range(1, n // 2 + 1):
            for eta in ((1,) if 2 * k == n else (-1, 1)):
                for s in (1, 2, 3):
                    for r in range(-4, 5):
                        if gcd(r, s) != 1:
                            continue
                        spec = GroupSpec(n, k, eta, r, s)
                        assert is_simple_choreography(spec) == \
                            cycle_bruteforce(spec), spec
    # every relabelling the classifier finds transports invariant loops
    rng = np.random.default_rng(7)
    for n in range(3, 9):
        specs = [GroupSpec(n, k, eta, r, 1)
                 for k in range(1, n // 2 + 1)
                 for eta in ((1,) if 2 * k == n else (-1, 1))
                 for r in range(-4, 5)]
        loops = {}
        for spec in specs:
            for spec2 in specs:
                perm = find_isomorphism(spec, spec2)
                if perm is None:
                    continue
                if spec2 not in loops:
                    loops[spec2] = FourierConstraints(spec2).random_loop(
                        rng, amplitude=0.3)
                src = loops[spec2]
                moved = LoopPath(src.positions[:, perm, :], src.period)
                assert invariance_defect(moved, spec) < 1e-10, (spec, spec2)
    # worked examples
    perm = find_isomorphism(GroupSpec(5, 1, -1, 4, 1),
                            GroupSpec(5, 2, -1, 2, 1))
    np.testing.assert_array_equal(perm, (-2 * np.arange(5)) % 5)
    perm = find_isomorphism(GroupSpec(4, 1, -1, 3, 1),
                            GroupSpec(4, 1, 1, 1, 1))
    np.testing.assert_array_equal(perm, (-np.arange(4)) % 4)
    perm = find_isomorphism(GroupSpec(5, 2, 1, 3, 1),
                            GroupSpec(5, 1, 1, 1, 1))
    np.testing.assert_array_equal(perm, (2 * np.arange(5)) % 5)
    assert find_isomorphism(GroupSpec(4, 1, 1, 1, 1),
                            GroupSpec(4, 2, 1, 1, 1)) is None
    assert is_simple_choreography(GroupSpec(5, 2, -1, 2, 1))


def test_criterion_6_bounds():
    start = time.perf_counter()
    spm = vertical_spectrum(5)
    w1, w2 = spm.omegas[0], spm.omegas[1]
    rep = absolute_interval(GroupSpec(5, 1, -1, 4, 1))
    assert rep.H_plus == pytest.approx(2.0 * TWO_PI * w1 / (w1 + w2),
                                       abs=1e-12)
    assert rep.H_minus == pytest.approx(TWO_PI, abs=1e-12)
    rep = absolute_interval(GroupSpec(5, 2, -1, 2, 1))
    half = TWO_PI * w1 / w2
    assert rep.interval[0] == pytest.approx(-half, abs=1e-12)
    assert rep.interval[1] == pytest.approx(half, abs=1e-12)
    # brute-force eigenvalue probes just inside/outside each interval
    offset = 1e-3
    for n in range(3, 9):
        for k in range(1, n // 2 + 1):
            for eta in ((1,) if 2 * k == n else (-1, 1)):
                spec = GroupSpec(n, k, eta, 2, 1)
                lo, hi = absolute_interval(spec).interval
                shift = TWO_PI * spec.r / spec.s

                def lam(x):
                    return lambda_G_bruteforce(spec, x - shift)

                assert lam(hi + offset) < 1.0
                assert lam(lo - offset) < 1.0
                if hi - lo > 2.0 * offset:
                    assert lam(hi - offset) >= 1.0 - 1e-12
                    assert lam(lo + offset) >= 1.0 - 1e-12
    assert time.perf_counter() - start < 10.0


def test_criterion_7_torsion():
    start = time.perf_counter()
    assert torsion_gamma(P12).gamma == pytest.approx(GAMMA_P12, rel=1e-6)
    assert abs(torsion_gamma(GroupSpec(3, 1, 1, 1, 1)).gamma) < 1e-10
    for spec, bound in GAMMA_LOWER_BOUNDS:
        assert torsion_gamma(spec).gamma > bound
    assert time.perf_counter() - start < 5.0


@pytest.fixture(scope="module")
def continued_families():
    start = time.perf_counter()
    families = {spec: continue_family(spec, n_steps=21, step=0.035,
                                      max_step=0.06)
                for spec in (P12, HH4)}
    return families, time.perf_counter() - start


def test_criterion_8_continuation_consistency(continued_families):
    families, family_seconds = continued_families
    start = time.perf_counter()
    for spec, fam in families.items():
        # at least 20 arclength steps beyond the onset record
        assert len(fam.records) >= 21

        # finite-difference torsion against the expansion coefficient
        gamma = torsion_gamma(spec).gamma
        early = fam.records[1:4]
        eps = np.array([r.amplitude for r in early])
        varpi = np.array([r.varpi for r in early])
        slope = ((varpi - fam.records[0].varpi) / eps ** 2).mean()
        assert abs(slope - gamma) / gamma < 0.05

        # every recorded orbit: invariance, residual, L_z conservation
        for rec in fam.records:
            loop = rec.orbit.sample(512)
            assert invariance_defect(loop, spec) <= 1e-6
            assert newton_residual(loop.resample(64), rec.varpi) <= 1e-8
            assert np.ptp(angular_momentum_z(loop, rec.varpi)) <= 1e-9

        # zero-amplitude action: (3/2) U T and the closed-form branch
        rec0 = fam.records[0]
        assert abs(rec0.amplitude) < 1e-12
        assert rec0.action == pytest.approx(
            re_branch_action(spec, rec0.varpi), rel=1e-6)
        spm = vertical_spectrum(spec.n_bodies)
        w_hat = TWO_PI * spm.omega1 / spm.omega(spec.k)
        a0 = (spm.omega1 / w_hat) ** (2.0 / 3.0)
        u_bar = potential(NGonSystem(spec.n_bodies, a0).positions)
        assert rec0.action == pytest.approx(1.5 * u_bar * spec.s, rel=1e-6)
    elapsed = family_seconds + (time.perf_counter() - start)
    assert elapsed < 600.0


def test_criterion_9_reconstruction_scaling():
    eps_grid = np.array([1e-1, 1e-2, 1e-3])
    for spec in (P12, HH4, GroupSpec(5, 2, -1, 2, 1),
                 GroupSpec(6, 1, -1, 5, 1)):
        res = torsion_gamma(spec)
        resid = []
        for eps in eps_grid:
            loop, varpi = reconstruct_loop(res, eps)
            resid.append(newton_residual(loop, varpi))
        slope = np.polyfit(np.log(eps_grid), np.log(resid), 1)[0]
        assert slope >= 3.9
