"""Action bounds: closed forms, brute-force eigenvalue, comparison functional."""

from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from unchained.minimize import (BarActionParams, _lambda_G_scan,
                                absolute_interval, bar_action,
                                lambda_G_bruteforce, vertical_bound_V,
                                horizontal_bounds_H)
from unchained.ngon import LoopPath, NGonSystem, action
from unchained.spectrum import vertical_spectrum
from unchained.symmetry import FourierConstraints, GroupSpec

PI = np.pi


def bound_battery(n_max=8):
    specs = []
    for n in range(3, n_max + 1):
        for k in range(1, n // 2 + 1):
            for eta in ((1,) if 2 * k == n else (-1, 1)):
                specs.append(GroupSpec(n, k, eta, 2, 1))
    return specs


def test_vertical_bound_closed_forms():
    s5 = vertical_spectrum(5)
    assert vertical_bound_V(GroupSpec(5, 1, -1, 4, 1)) == pytest.approx(
        2 * PI, abs=1e-12)
    assert vertical_bound_V(GroupSpec(5, 2, -1, 2, 1)) == pytest.approx(
        2 * PI * s5.omega1 / s5.omega(2), abs=1e-12)
    assert vertical_bound_V(GroupSpec(3, 1, -1, 2, 1)) == pytest.approx(
        2 * PI, abs=1e-12)


def test_vertical_bound_highest_mode():
    # antisymmetric (k = n) family: V = 2 pi omega_1 / omega_n
    for n in (4, 6, 8):
        spm = vertical_spectrum(n)
        v = vertical_bound_V(GroupSpec(n, n // 2, 1, 1, 1))
        assert v == pytest.approx(2 * PI * spm.omega1 / spm.omega(n // 2),
                                  abs=1e-12)


def test_horizontal_bounds_closed_forms():
    s5 = vertical_spectrum(5)
    w1, w2 = s5.omega1, s5.omega(2)
    hp, hm = horizontal_bounds_H(GroupSpec(5, 1, -1, 4, 1))
    assert hp == pytest.approx(4 * PI * w1 / (w1 + w2), abs=1e-12)
    assert hm == pytest.approx(2 * PI, abs=1e-12)
    hp, hm = horizontal_bounds_H(GroupSpec(5, 2, -1, 2, 1))
    assert hp == pytest.approx(4 * PI, abs=1e-12)
    # complete infimum: the first admissible mode (p = 1, folded index 2)
    # already binds; keeping only p = 2 would report 8 pi w1/(w1+w2)
    assert hm == pytest.approx(4 * PI * w1 / (w1 + w2), abs=1e-12)
    hp, hm = horizontal_bounds_H(GroupSpec(3, 1, -1, 2, 1))
    assert hp == pytest.approx(4 * PI, abs=1e-12)
    assert hm == pytest.approx(2 * PI, abs=1e-12)


def loop_bound_V(spec):
    """vertical_bound_V with a checked spectrum.omega lookup per index."""
    spectrum = vertical_spectrum(spec.n_bodies)
    n, ke = spec.n_bodies, spec.k * spec.eta
    w1, wmax = spectrum.omega1, spectrum.omega_max
    best = np.inf
    for p in range(int(np.ceil(wmax / w1)) + n + 1):
        if (1 + 2 * p) * ke % n:
            best = min(best, (w1 / spectrum.omega((1 + 2 * p) * ke))
                       * (1 + 2 * p) * (2.0 * np.pi))
    return best


def loop_bound_H(spec, sign):
    """One side of horizontal_bounds_H, looked up the same way."""
    spectrum = vertical_spectrum(spec.n_bodies)
    n, ke = spec.n_bodies, spec.k * spec.eta
    w1, wmax = spectrum.omega1, spectrum.omega_max
    two_pi = 2.0 * np.pi
    best = 2.0 * two_pi
    for p in range(1, int(np.ceil(wmax / w1)) + n + 2):
        if (1 - sign * 2 * p * ke) % n:
            best = min(best, 2 * p * two_pi * w1 / (
                w1 + spectrum.omega(1 - sign * 2 * p * ke)))
        if (1 + sign * 2 * p * ke) % n:
            den = spectrum.omega(1 + sign * 2 * p * ke) - w1
            if den > 0:
                best = min(best, 2 * p * two_pi * w1 / den)
    return best


@pytest.mark.parametrize("spec", bound_battery(12), ids=str)
def test_bound_scans_match_checked_lookups_bitwise(spec):
    # the scans index the frequency list with the index they folded; the
    # checked lookup folds it again and must read the same entry
    assert vertical_bound_V(spec) == loop_bound_V(spec)
    assert horizontal_bounds_H(spec) == (loop_bound_H(spec, +1),
                                         loop_bound_H(spec, -1))


def test_interval_assembly_and_invariants():
    for spec in bound_battery():
        rep = absolute_interval(spec)
        assert rep.V > 0
        assert 0 < rep.H_plus <= 4 * PI + 1e-12
        assert 0 < rep.H_minus <= 4 * PI + 1e-12
        assert rep.interval[0] == -min(rep.V, rep.H_minus)
        assert rep.interval[1] == min(rep.V, rep.H_plus)
        assert rep.V <= 2 * PI + 1e-12


def test_interval_examples():
    rep = absolute_interval(GroupSpec(3, 1, -1, 2, 1))
    assert rep.interval[0] == pytest.approx(-2 * PI, abs=1e-12)
    assert rep.interval[1] == pytest.approx(2 * PI, abs=1e-12)
    s5 = vertical_spectrum(5)
    rep = absolute_interval(GroupSpec(5, 2, -1, 2, 1))
    v = 2 * PI * s5.omega1 / s5.omega(2)
    assert rep.interval == pytest.approx((-v, v), abs=1e-12)
    rep = absolute_interval(GroupSpec(5, 1, -1, 4, 1))
    assert rep.interval[1] == pytest.approx(
        4 * PI * s5.omega1 / (s5.omega1 + s5.omega(2)), abs=1e-12)
    assert rep.interval[1] < rep.V


def test_lambda_bruteforce_interval_consistency():
    for spec in bound_battery():
        lo, hi = absolute_interval(spec).interval
        shift = 2 * PI * spec.r / spec.s
        for x in np.linspace(lo, hi, 20):
            assert lambda_G_bruteforce(spec, x - shift) >= 1 - 1e-12
        assert lambda_G_bruteforce(spec, hi + 1e-3 - shift) < 1
        assert lambda_G_bruteforce(spec, lo - 1e-3 - shift) < 1


def test_lambda_bruteforce_zero_frame():
    spec = GroupSpec(5, 2, -1, 2, 1)
    assert lambda_G_bruteforce(spec, -2 * PI * 2) == 1.0


@pytest.mark.parametrize("varpi", [np.nan, np.inf])
def test_lambda_bruteforce_refuses_non_finite_frame(varpi):
    # min(1.0, nan, nan) is 1.0, which certified the n-gon at varpi = nan,
    # and varpi = inf divided inf by inf into 0.0
    with pytest.raises(ValueError, match="varpi must be finite"):
        lambda_G_bruteforce(GroupSpec(5, 1, -1, 4, 1), varpi)


def test_lambda_bruteforce_pmax_stable():
    spec = GroupSpec(6, 2, -1, 1, 1)
    for x in (0.3, 1.0, 5.0, 9.0):
        a = lambda_G_bruteforce(spec, x - 2 * PI, p_max=64)
        b = lambda_G_bruteforce(spec, x - 2 * PI, p_max=128)
        assert a == b


def scalar_lambda_G(spec, spectrum, varpi, p_max):
    """Per-index enumeration of the candidates of lambda_G_bruteforce."""
    n, ke = spec.n_bodies, spec.k * spec.eta
    w1 = spectrum.omega1
    two_pi = 2.0 * PI
    x = varpi + two_pi * spec.r / spec.s
    best = 1.0
    if x == 0.0:
        return best
    for p in range(p_max + 1):
        m = (1 + 2 * p) * ke % n
        m = min(m, n - m)
        if m:
            w = float(spectrum.omegas[m - 1])
            root = (w1 / w) * (1 + 2 * p) * two_pi / abs(x)
            best = min(best, root * root)
    for p in range(-p_max, p_max + 1):
        m = (1 - 2 * p * ke) % n
        m = min(m, n - m)
        if p and m:
            w = float(spectrum.omegas[m - 1])
            root = (w1 / w) * abs(x - 2 * p * two_pi) / abs(x)
            best = min(best, root * root)
    return best


@st.composite
def bruteforce_cases(draw):
    n = draw(st.integers(3, 12))
    k = draw(st.integers(1, n // 2))
    eta = draw(st.sampled_from((-1, 1)))
    s = draw(st.integers(1, 6))
    r = draw(st.integers(-2 * s, 2 * s).filter(lambda r: gcd(r, s) == 1))
    spec = GroupSpec(n, k, eta, r, s)
    # X = varpi + 2 pi r/s = 0 exactly takes the early return, and its
    # neighbours give |X| of one ulp of 2 pi r/s
    zero = -(2 * PI * spec.r / spec.s)
    varpi = st.one_of(st.just(zero), st.floats(-40.0, 40.0),
                      st.sampled_from((float(np.nextafter(zero, -np.inf)),
                                       float(np.nextafter(zero, np.inf)))))
    varpis = draw(st.lists(varpi, min_size=1, max_size=5))
    return spec, varpis, draw(st.sampled_from((8, 64, 128)))


@settings(max_examples=300, deadline=None)
# r = 0: X = varpi, so a tiny varpi overflows the candidates to inf
@example((GroupSpec(5, 1, -1, 0, 1), [1e-300, -5e-324, 0.0, 2.5], 64))
@given(bruteforce_cases())
def test_lambda_bruteforce_matches_scalar_enumeration(case):
    # the scan at several frame rates at once equals the per-index
    # enumeration at each of them, and so does the one-rate wrapper
    spec, varpis, p_max = case
    spm = vertical_spectrum(spec.n_bodies)
    expected = [scalar_lambda_G(spec, spm, v, p_max) for v in varpis]
    assert _lambda_G_scan(spec, np.array(varpis), p_max).tolist() \
        == expected
    assert [lambda_G_bruteforce(spec, v, p_max=p_max)
            for v in varpis] == expected


def test_italian_bound():
    # sqrt(lambda) <= inf_k omega_1/omega_k = omega_1/omega_max for the
    # Italian class: strictly below 1 once n >= 4, so that class never
    # certifies the n-gon as sole minimizer there
    def bound(n):
        spec = vertical_spectrum(n)
        return spec.omega1 / spec.omega_max

    assert bound(3) == 1.0
    assert bound(4) == pytest.approx(1 / 1.2155625241, rel=1e-9)
    assert bound(6) == pytest.approx(
        vertical_spectrum(6).omega1 / (np.sqrt(17) / 2), abs=1e-12)
    for n in range(4, 13):
        assert bound(n) < 1


def test_bar_action_relative_equilibrium_identity():
    loop = NGonSystem(5).rigid_loop()
    for lam in (1.0, 0.7, 1.3):
        params = BarActionParams.from_configuration(loop.positions[0],
                                                    lambda_G=lam)
        expected = (lam / 2 + 1) * params.U_bar * loop.period
        assert bar_action(loop, params) == pytest.approx(expected, rel=1e-10)


def test_bar_action_equals_action_only_at_unit_lambda():
    loop = NGonSystem(5).rigid_loop()
    a = action(loop)
    params = BarActionParams.from_configuration(loop.positions[0], lambda_G=1.0)
    assert bar_action(loop, params) == pytest.approx(a, rel=1e-10)
    params = BarActionParams.from_configuration(loop.positions[0], lambda_G=1.2)
    assert bar_action(loop, params) > a + 1e-6


def test_g_minimum_location_and_value():
    loop = NGonSystem(4).rigid_loop()
    lam = 0.85
    params = BarActionParams.from_configuration(loop.positions[0],
                                                lambda_G=lam)
    ut = params.U_bar * loop.period
    s_min = ut / lam ** (2.0 / 3.0)
    g = lambda s: 0.5 * lam * s + ut ** 1.5 / np.sqrt(s)
    grid = np.linspace(0.2 * s_min, 5 * s_min, 20001)
    values = g(grid)
    assert grid[np.argmin(values)] == pytest.approx(s_min, rel=1e-3)
    assert values.min() == pytest.approx(1.5 * lam ** (1.0 / 3.0) * ut,
                                         rel=1e-6)


def test_jensen_step_on_random_loops():
    rng = np.random.default_rng(8)
    for _ in range(20):
        m, n = 64, 4
        base = NGonSystem(n).rigid_loop(n_samples=m).positions
        pos = base + 0.15 * rng.standard_normal(base.shape)
        loop = LoopPath(pos, 1.7)
        t_weight = loop.period / m
        diff = pos[:, :, None, :] - pos[:, None, :, :]
        dist = np.sqrt((diff ** 2).sum(-1))
        iu, ju = np.triu_indices(n, k=1)
        inv_int = (1.0 / dist[:, iu, ju]).sum(axis=0) * t_weight
        xi = (dist[:, iu, ju] ** 2).sum(axis=0) * t_weight
        assert np.all(inv_int >= loop.period ** 1.5 / np.sqrt(xi) - 1e-12)


def test_bar_action_below_action_on_invariant_loops():
    # frame chosen so X = varpi + 2 pi r/s sits strictly inside the
    # certified interval, where the Poincare constant is exactly 1
    spec = GroupSpec(5, 2, -1, 2, 1)
    spm = vertical_spectrum(5)
    x = PI
    varpi = x - 2 * PI * spec.r / spec.s
    lam = lambda_G_bruteforce(spec, varpi)
    assert lam == 1.0
    radius = (spm.omega1 / x) ** (2.0 / 3.0)
    reference = radius * NGonSystem(5).positions
    params = BarActionParams.from_configuration(reference, lambda_G=lam)
    fc = FourierConstraints(spec)
    rng = np.random.default_rng(17)
    for _ in range(100):
        loop = fc.random_loop(rng, amplitude=0.1)
        pos = loop.positions
        gaps = np.linalg.norm(pos[:, :, None] - pos[:, None, :], axis=-1)
        assert np.min(gaps[:, ~np.eye(5, dtype=bool)]) > 0.25
        assert bar_action(loop, params, T=1.0) <= action(loop, varpi) + 1e-9
