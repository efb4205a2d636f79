"""Group structure, loop actions, Fourier constraints, classification."""

import dataclasses
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from unchained import symmetry
from unchained.errors import UnsupportedCase
from unchained.ngon import LoopPath
from unchained.spectrum import lyapunov_cylinder
from unchained.symmetry import (FourierConstraints, GroupSpec,
                                StructureReport, _action, apply_element,
                                compose, dense_choreography_params,
                                element_order, enumerate_elements,
                                find_isomorphism, invariance_defect, inverse,
                                is_simple_choreography, make_element,
                                structure_report)
from unchained.torsion import excluded_harmonics


def cycle_bruteforce(spec):
    """Choreography oracle: some group element with trivial isometry part
    (no rotation, no flip, forward time) permutes bodies in one N-cycle."""
    n = spec.n_bodies
    return any(
        g.xi == 1 and g.beta == 0 and g.alpha == 0 and gcd(g.delta, n) == 1
        for g in enumerate_elements(spec))


def curve_bruteforce(spec, amplitude=0.35):
    """Choreography oracle: every body's sampled curve is a time shift of
    body 0's curve on the model cylinder loop."""
    loop = lyapunov_cylinder(spec.n_bodies, spec.k, spec.eta, spec.r,
                             spec.s, amplitude)
    pos = loop.positions
    m = loop.n_samples
    for j in range(1, spec.n_bodies):
        deviations = [np.abs(pos[:, j] - np.roll(pos[:, 0], -d, axis=0)).max()
                      for d in range(m)]
        if min(deviations) > 1e-8:
            return False
    return True


def spec_battery(n_max=6, r_range=(-4, 5), s_max=3):
    specs = []
    for n in range(3, n_max + 1):
        for k in range(1, n // 2 + 1):
            for eta in ((1,) if 2 * k == n else (-1, 1)):
                for s in range(1, s_max + 1):
                    for r in range(*r_range):
                        if gcd(r, s) == 1:
                            specs.append(GroupSpec(n, k, eta, r, s))
    return specs


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(5, 3, -1, 1, 1)
    with pytest.raises(ValueError):
        GroupSpec(5, 2, 0, 1, 1)
    with pytest.raises(ValueError):
        GroupSpec(5, 2, -1, 2, 4)
    # eta is immaterial for the antisymmetric mode and normalizes to +1
    assert GroupSpec(4, 2, -1, 1, 1) == GroupSpec(4, 2, 1, 1, 1)


@pytest.mark.parametrize("fields", [
    (3.0, 1, -1, 2, 1), (3, True, -1, 2, 1), (3, 1, -1, 2, 1.0),
    (3, 1, -1, 2.5, 1), (3, 1, np.bool_(True), 2, 1), (3, 1, -1, "2", 1),
])
def test_spec_refuses_non_integer_fields(fields):
    # 3.0 and True were built and compared and hashed equal to the int
    # spec; 1.0 and 2.5 raised TypeError from gcd
    with pytest.raises(ValueError, match="must be an integer"):
        GroupSpec(*fields)


def test_spec_stores_numpy_integers_as_int():
    spec = GroupSpec(*np.array([3, 1, -1, 2, 1], dtype=np.int64))
    assert spec == GroupSpec(3, 1, -1, 2, 1)
    assert hash(spec) == hash(GroupSpec(3, 1, -1, 2, 1))
    assert all(type(v) is int for v in dataclasses.astuple(spec))


def test_compose_refuses_elements_of_different_groups():
    # with one spec passed beside both, elements of P12's group composed
    # under G_{2/1}(5,2,-1) gave theta = 9/10, which no P12 element has
    g = enumerate_elements(GroupSpec(3, 1, -1, 2, 1))[5]
    h = enumerate_elements(GroupSpec(5, 2, -1, 2, 1))[5]
    for pair in ((g, h), (h, g)):
        with pytest.raises(ValueError, match="cannot compose"):
            compose(*pair)


def test_group_order():
    assert len(enumerate_elements(GroupSpec(3, 1, -1, 2, 1))) == 12
    assert len(enumerate_elements(GroupSpec(4, 2, 1, 3, 2))) == 32
    for spec in (GroupSpec(5, 2, -1, 1, 1), GroupSpec(6, 2, 1, 5, 3)):
        assert len(enumerate_elements(spec)) == 4 * spec.n_bodies * spec.s


def test_identity_present():
    spec = GroupSpec(5, 2, -1, 2, 1)
    e = make_element(spec, 0, 0)
    assert e.theta == 0 and e.delta == 0 and e.beta == 0 and e.xi == 1
    assert e.alpha == 0
    assert e in enumerate_elements(spec)


def test_defining_congruences_exact():
    for spec in (GroupSpec(5, 2, -1, 2, 1), GroupSpec(4, 1, 1, 3, 2),
                 GroupSpec(6, 3, 1, 1, 3)):
        n, k, eta = spec.n_bodies, spec.k, spec.eta
        for g in enumerate_elements(spec):
            assert (g.theta - Fraction(g.beta, 2)
                    - Fraction(k * eta * g.delta, n)) % 1 == 0
            assert (Fraction(spec.r, spec.s) * g.theta
                    - Fraction(g.delta, n) - g.alpha) % 1 == 0


def test_group_axioms():
    spec = GroupSpec(3, 1, -1, 2, 1)
    elements = enumerate_elements(spec)
    table = set(elements)
    assert len(table) == 12
    for g in elements:
        assert compose(g, inverse(g)) == make_element(spec, 0, 0)
        for h in elements:
            gh = compose(g, h)
            assert gh in table
            for f in elements:
                left = compose(f, gh)
                right = compose(compose(f, g), h)
                assert left == right


def test_group_closure_larger():
    rng = np.random.default_rng(7)
    for spec in (GroupSpec(6, 2, -1, 1, 2), GroupSpec(8, 3, 1, 2, 3)):
        elements = enumerate_elements(spec)
        table = set(elements)
        assert len(table) == 4 * spec.n_bodies * spec.s
        pick = rng.choice(len(elements), size=(60, 2))
        for i, j in pick:
            assert compose(elements[i], elements[j]) in table


def test_structure_report_dihedral_for_unit_s():
    rep5 = structure_report(GroupSpec(5, 1, -1, 4, 1))
    assert rep5.order == 20 and rep5.h_order == 10
    assert rep5.is_dihedral_times_z2
    rep3 = structure_report(GroupSpec(3, 1, -1, 2, 1))
    assert rep3.order == 12
    assert rep3.is_dihedral_times_z2
    rep4 = structure_report(GroupSpec(4, 2, 1, 1, 1))
    assert rep4.order == 16
    assert rep4.is_dihedral_times_z2


# every G_{r/s}(N, k, eta) with N <= 6, |r| <= N and s <= 2; GroupSpec
# folds eta = -1 into +1 for the mode k = N / 2
SMALL_SPECS = sorted({GroupSpec(n, k, eta, r, s)
                      for n in range(3, 7) for k in range(1, n // 2 + 1)
                      for eta in (1, -1) for s in (1, 2)
                      for r in range(-n, n + 1) if gcd(r, s) == 1},
                     key=dataclasses.astuple)


def test_dihedral_presentation_by_compose():
    # oracle for is_dihedral_times_z2, from the group law alone: for s = 1
    # a = (delta 1), b = the pure time reversal and c = the vertical flip
    # satisfy the D_N x Z/2 relations and their 4N words fill the group;
    # for s > 1 the group has more than 4N elements
    assert len(SMALL_SPECS) == 224
    for spec in SMALL_SPECS:
        n = spec.n_bodies
        elements = enumerate_elements(spec)
        dihedral = structure_report(spec).is_dihedral_times_z2
        if spec.s > 1:
            assert len(elements) > 4 * n and not dihedral, spec
            continue
        e = make_element(spec, 0, 0)
        a, c = make_element(spec, 1, 0), make_element(spec, 0, 1)
        b = make_element(spec, 0, 0, xi=-1)
        powers = [e]
        for _ in range(n):
            powers.append(compose(a, powers[-1]))
        assert powers[n] == e, spec
        assert compose(b, b) == e and compose(c, c) == e, spec
        assert compose(b, compose(a, b)) == powers[n - 1], spec
        assert all(compose(c, g) == compose(g, c) for g in elements), spec
        words = {compose(compose(p, bj), cl)
                 for p in powers[:n] for bj in (e, b) for cl in (e, c)}
        assert len(words) == 4 * n == len(elements), spec
        assert dihedral, spec


def test_kernel_cyclic_order_matches_element_orders():
    # oracle for k_cyclic_order: the kernel (xi = +1, beta = 0) is cyclic
    # iff some element's order equals its size
    for spec in SMALL_SPECS + [GroupSpec(6, 3, 1, 1, 3),
                               GroupSpec(4, 2, 1, 1, 6)]:
        kernel = [g for g in enumerate_elements(spec)
                  if g.xi == 1 and g.beta == 0]
        assert len(kernel) == spec.n_bodies * spec.s, spec
        best = max(element_order(g) for g in kernel)
        expected = len(kernel) if best == len(kernel) else None
        assert structure_report(spec).k_cyclic_order == expected, spec


def test_structure_report_builds_no_element(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("structure_report built a group element")

    for name in ("enumerate_elements", "make_element", "GroupElement"):
        monkeypatch.setattr(symmetry, name, refuse)
    assert structure_report(GroupSpec(6, 2, 1, 5, 3)) == StructureReport(
        72, 36, False, 18)
    assert structure_report(GroupSpec(6, 3, 1, 1, 3)).k_cyclic_order is None


def test_structure_report_unit_s_battery():
    # G_{r/1}(N, k, eta) for every mode and r = 1, 2: order 4N, 2N elements
    # keep the orientation, D_N x Z/2, and delta = 1 generates the kernel
    for n in range(3, 13):
        for k in range(1, n // 2 + 1):
            for eta in ((1,) if 2 * k == n else (-1, 1)):
                for r in (1, 2):
                    spec = GroupSpec(n, k, eta, r, 1)
                    assert structure_report(spec) == StructureReport(
                        4 * n, 2 * n, True, n), spec


def test_structure_report_s2():
    rep = structure_report(GroupSpec(4, 2, 1, 3, 2))
    assert rep.order == 32 and rep.h_order == 16
    assert not rep.is_dihedral_times_z2


def test_k_subgroup_cyclicity():
    # gcd(N k', gcd(k, s)) = 1 guarantees a cyclic kernel of order N s
    assert structure_report(GroupSpec(5, 2, -1, 1, 4)).k_cyclic_order == 20
    assert structure_report(GroupSpec(5, 1, -1, 2, 1)).k_cyclic_order == 5
    assert structure_report(GroupSpec(7, 3, 1, 1, 3)).k_cyclic_order == 21
    # (4, 2, s=2): kernel is Z/4 x Z/2, not cyclic
    assert structure_report(GroupSpec(4, 2, 1, 3, 2)).k_cyclic_order is None


def test_element_orders_divide_group_order():
    spec = GroupSpec(5, 2, -1, 2, 1)
    for g in enumerate_elements(spec):
        assert (4 * spec.n_bodies * spec.s) % element_order(g) == 0


def test_apply_identity_returns_same_loop():
    spec = GroupSpec(5, 2, -1, 2, 1)
    loop = lyapunov_cylinder(5, 2, -1, 2, 1, 0.2)
    out = apply_element(make_element(spec, 0, 0), loop)
    np.testing.assert_allclose(out.positions, loop.positions, atol=1e-14)


def test_apply_rejects_wrong_body_count():
    spec = GroupSpec(5, 2, -1, 2, 1)
    loop = lyapunov_cylinder(4, 1, -1, 2, 1, 0.2)
    with pytest.raises(ValueError):
        apply_element(make_element(spec, 0, 0), loop)


def test_invariance_defect_checks_bodies_before_any_fft(fft_calls):
    loop = lyapunov_cylinder(4, 1, -1, 2, 1, 0.2)
    with pytest.raises(ValueError, match="loop has 4 bodies"):
        invariance_defect(loop, GroupSpec(5, 2, -1, 2, 1))
    assert not any(fft_calls.values()), fft_calls


def _dense_apply(dense_interpolant, g, spec, loop):
    """Oracle for apply_element: the dense interpolant at xi (t - theta),
    theta/s of the period, then the spatial matrix of `_action`."""
    t = g.xi * (loop.times - g.t / (2 * spec.n_bodies * spec.s) * loop.period)
    dense = dense_interpolant(loop, t)
    return (dense.reshape(len(t), -1) @ _action(g).T).reshape(dense.shape)


@pytest.mark.parametrize("spec", [GroupSpec(3, 1, -1, 2, 1),
                                  GroupSpec(6, 1, -1, 5, 1)])
def test_apply_element_matches_dense_oracle(dense_interpolant, spec):
    # a loop with no symmetry, so each element moves it; 64 samples put
    # some time shifts on the grid and the rest off it
    rng = np.random.default_rng(spec.n_bodies)
    loop = LoopPath(rng.normal(size=(64, spec.n_bodies, 3)), 1.3)
    scale = np.abs(loop.positions).max()
    on_grid = set()
    for g in enumerate_elements(spec):
        moved = apply_element(g, loop)
        on_grid.add((g.t * 64) % (2 * spec.n_bodies * spec.s) == 0)
        assert moved.period == loop.period
        dense = _dense_apply(dense_interpolant, g, spec, loop)
        assert np.abs(moved.positions - dense).max() <= 1e-13 * scale
    assert on_grid == {True, False}


DEFECT_SPECS = [GroupSpec(3, 1, -1, 2, 1), GroupSpec(4, 2, 1, 1, 1),
                GroupSpec(6, 1, -1, 5, 1), GroupSpec(6, 2, 1, 5, 3)]


@pytest.mark.parametrize("m", [64, 63])  # even m has a Nyquist bin
@pytest.mark.parametrize("spec", DEFECT_SPECS)
def test_invariance_defect_matches_dense_oracle(dense_interpolant, spec, m):
    # the sup norm over every element of the dense image minus the loop,
    # on a loop with no symmetry.  Each case has time shifts on the grid
    # and off it, but for the Hip-Hop at m = 64, whose shifts of 0 and half
    # a period are all on it (the half period is off it at m = 63)
    rng = np.random.default_rng(10 * spec.n_bodies + spec.s + m)
    loop = LoopPath(rng.normal(size=(m, spec.n_bodies, 3)), 1.3)
    scale = np.abs(loop.positions).max()
    worst = max(np.abs(_dense_apply(dense_interpolant, g, spec, loop)
                       - loop.positions).max()
                for g in enumerate_elements(spec))
    assert abs(invariance_defect(loop, spec) - worst) <= 1e-13 * scale


@pytest.mark.parametrize("spec", DEFECT_SPECS)
def test_invariance_defect_transforms_once_each_way(fft_calls, spec):
    # one forward and one inverse transform whatever the group order
    # (12, 16, 24 and 72 elements here); it took one of each per element
    loop = LoopPath(np.random.default_rng(1).normal(
        size=(48, spec.n_bodies, 3)), 1.0)
    invariance_defect(loop, spec)
    assert fft_calls == {"fft": 0, "rfft": 1, "ifft": 0, "irfft": 1}


@pytest.mark.parametrize("spec", [
    GroupSpec(3, 1, -1, 2, 1),
    GroupSpec(4, 2, 1, 1, 1),
    GroupSpec(4, 1, -1, 3, 2),
    GroupSpec(5, 2, -1, 2, 1),
    GroupSpec(6, 2, 1, 5, 3),
])
def test_cylinder_stabilized_by_its_group(spec):
    loop = lyapunov_cylinder(spec.n_bodies, spec.k, spec.eta, spec.r,
                             spec.s, 0.3)
    assert invariance_defect(loop, spec) < 1e-10


def test_cylinder_not_invariant_under_other_mode():
    loop = lyapunov_cylinder(5, 2, -1, 2, 1, 0.3)
    assert invariance_defect(loop, GroupSpec(5, 1, -1, 2, 1)) > 1e-6


def test_equilibrium_invariant_for_matching_frame():
    # zero amplitude leaves only the horizontal n-gon rotation, which
    # carries the symmetry of every vertical mode in the same frame;
    # normalized loops (period s) make the cross-mode comparison legal
    r, s, n = 2, 1, 5
    j = np.arange(n)

    def gon(t):
        ang = 2.0 * np.pi * (j / n + r * t / s)
        return np.stack([np.cos(ang), np.sin(ang), np.zeros(n)], axis=-1)

    loop = LoopPath.from_function(gon, float(s), 2 * n * s * 16)
    for k, eta in [(1, -1), (1, 1), (2, -1), (2, 1)]:
        assert invariance_defect(loop, GroupSpec(n, k, eta, r, s)) < 1e-10


def test_italian_symmetry_for_odd_r_s():
    spec = GroupSpec(5, 1, -1, 1, 1)
    rng = np.random.default_rng(3)
    loop = FourierConstraints(spec).random_loop(rng, amplitude=0.2)
    m = loop.n_samples
    assert m % 2 == 0
    half = np.roll(loop.positions, -m // 2, axis=0)
    np.testing.assert_allclose(half, -loop.positions, atol=1e-10)


def test_mirror_symmetry_at_time_zero():
    spec = GroupSpec(5, 2, -1, 2, 1)
    rng = np.random.default_rng(4)
    loop = FourierConstraints(spec).random_loop(rng, amplitude=0.2)
    x0 = loop.positions[0]
    n = spec.n_bodies
    mirrored = x0[(-np.arange(n)) % n]
    np.testing.assert_allclose(x0[:, 0], mirrored[:, 0], atol=1e-10)
    np.testing.assert_allclose(x0[:, 1], -mirrored[:, 1], atol=1e-10)
    np.testing.assert_allclose(x0[:, 2], mirrored[:, 2], atol=1e-10)


def test_marchal_constraints_three_bodies():
    fc = FourierConstraints(GroupSpec(3, 1, -1, 2, 1))
    for l in range(-12, 13):
        expected = l % 2 == 0 and l % 3 != 0
        assert fc.allowed_horizontal(l) == expected
    for l in range(-12, 13):
        expected = l > 0 and l % 2 == 1 and l % 3 != 0
        assert fc.allowed_vertical(l) == expected


def test_equilibrium_harmonic_always_allowed():
    for spec in (GroupSpec(5, 2, -1, 2, 1), GroupSpec(4, 2, 1, 3, 2),
                 GroupSpec(6, 1, 1, 1, 3)):
        fc = FourierConstraints(spec)
        u = fc.horizontal_phase(spec.r)
        np.testing.assert_allclose(
            u, np.exp(2j * np.pi * np.arange(spec.n_bodies) / spec.n_bodies),
            atol=1e-14)


def test_projector_idempotent():
    spec = GroupSpec(5, 2, -1, 2, 1)
    fc = FourierConstraints(spec)
    rng = np.random.default_rng(11)
    loop = LoopPath(rng.standard_normal((40, 5, 3)), 1.0)
    once = fc.project(loop)
    twice = fc.project(once)
    np.testing.assert_allclose(twice.positions, once.positions, atol=1e-12)


def test_projected_random_loop_is_invariant():
    for spec in (GroupSpec(5, 2, -1, 2, 1), GroupSpec(4, 1, -1, 3, 2)):
        fc = FourierConstraints(spec)
        rng = np.random.default_rng(12)
        m = 2 * spec.n_bodies * spec.s * 8
        loop = LoopPath(rng.standard_normal((m, spec.n_bodies, 3)),
                        float(spec.s))
        assert invariance_defect(fc.project(loop), spec) < 1e-10


def test_random_invariant_loop_passes_strict_tolerance():
    for seed, spec in [(1, GroupSpec(3, 1, -1, 2, 1)),
                       (2, GroupSpec(5, 2, -1, 2, 1)),
                       (3, GroupSpec(4, 2, 1, 3, 2))]:
        fc = FourierConstraints(spec)
        loop = fc.random_loop(np.random.default_rng(seed), amplitude=0.3)
        assert invariance_defect(loop, spec) < 1e-12


def test_projection_agrees_with_invariance():
    spec = GroupSpec(4, 1, -1, 1, 1)
    fc = FourierConstraints(spec)
    rng = np.random.default_rng(5)
    for trial in range(25):
        invariant = fc.random_loop(rng, amplitude=0.25)
        assert invariance_defect(invariant, spec) <= 1e-9
        noisy = LoopPath(
            invariant.positions + 0.05 * rng.standard_normal(
                invariant.positions.shape),
            invariant.period)
        moved = fc.project(noisy)
        assert invariance_defect(noisy, spec) > 1e-9
        assert np.abs(moved.positions - noisy.positions).max() > 1e-4


def test_group_average_oracle_for_the_torsion_harmonics():
    # oracle for the harmonic rules, sharing no code with their
    # congruences: a loop carrying only the horizontal harmonics r - 2s,
    # r + 2s and the vertical harmonic 3s, with random complex body
    # coefficients summing to zero over the bodies (centre of mass at the
    # origin), averaged over the whole group.  Every element keeps each
    # harmonic and the centre of mass, so the average is the projection
    # onto the invariant loops harmonic by harmonic: nonzero exactly where
    # the harmonic is allowed, and then along the body phases of
    # FourierConstraints.  An odd sample count above twice the largest
    # harmonic aliases none.
    rng = np.random.default_rng(23)
    for spec in SMALL_SPECS:
        n, r, s = spec.n_bodies, spec.r, spec.s
        fc = FourierConstraints(spec)
        m = 2 * (abs(r) + 3 * s) + 1
        t = np.arange(m) * (s / m)
        coef = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        coef -= coef.mean(axis=1, keepdims=True)
        h = (coef[0] * np.exp(2j * np.pi * (r - 2 * s) * t / s)[:, None]
             + coef[1] * np.exp(2j * np.pi * (r + 2 * s) * t / s)[:, None])
        z = 2.0 * (coef[2] * np.exp(6j * np.pi * t)[:, None]).real
        loop = LoopPath(np.stack([h.real, h.imag, z], axis=2), float(s))
        elements = enumerate_elements(spec)
        mean = sum(apply_element(g, loop).positions
                   for g in elements) / len(elements)
        hhat = np.fft.fft(mean[:, :, 0] + 1j * mean[:, :, 1], axis=0) / m
        zhat = np.fft.fft(mean[:, :, 2], axis=0) / m
        excl = excluded_harmonics(spec)
        for name, avg, phase in (
                ("A2", hhat[(r - 2 * s) % m], fc.horizontal_phase(r - 2 * s)),
                ("Am2", hhat[(r + 2 * s) % m], fc.horizontal_phase(r + 2 * s)),
                ("C3", zhat[3 * s], fc.vertical_phase(3 * s))):
            allowed = np.abs(avg).max() > 1e-9
            assert allowed == (not excl[name]) == (phase is not None), \
                (spec, name)
            # body j's coefficient is body 0's times the phase; compared
            # as products, since a ratio would divide the rounding by
            # |avg[0]|, which a random draw can make small
            if allowed:
                assert np.abs(avg - avg[0] * phase).max() < 1e-12, \
                    (spec, name)


def test_simple_choreography_worked_examples():
    assert is_simple_choreography(GroupSpec(3, 1, -1, 2, 1))
    assert is_simple_choreography(GroupSpec(4, 2, 1, 3, 2))
    assert not is_simple_choreography(GroupSpec(4, 2, 1, 1, 1))


def test_choreography_matches_cycle_bruteforce():
    for spec in spec_battery(n_max=6, r_range=(-4, 5), s_max=3):
        assert is_simple_choreography(spec) == cycle_bruteforce(spec), spec


def test_choreography_matches_curve_bruteforce():
    for spec in spec_battery(n_max=5, r_range=(-2, 4), s_max=2):
        assert is_simple_choreography(spec) == curve_bruteforce(spec), spec


@pytest.mark.parametrize("n, k, eta", [(4, 3, 1), (4, 0, 1), (4, 1, 0),
                                       (0, 1, 1), (2, 1, 1), (4.0, 1, 1)])
def test_dense_choreography_params_needs_a_group(n, k, eta):
    # (n, k, eta) must name a group, as GroupSpec checks them
    with pytest.raises(ValueError):
        dense_choreography_params(n, k, eta, 2)


@pytest.mark.parametrize("max_denominator", [2.5, "3", True, 0, -1])
def test_dense_choreography_params_needs_a_count(max_denominator):
    # max_denominator is a positive integer, bool excluded
    with pytest.raises(ValueError):
        dense_choreography_params(3, 1, -1, max_denominator)


def test_dense_choreography_params():
    pairs = dense_choreography_params(3, 1, -1, 1)
    assert (2, 1) in pairs
    assert all(s == 1 and (1 + r) % 3 == 0 for r, s in pairs)
    deep = dense_choreography_params(3, 1, -1, 8)
    assert all(gcd(r, s) == 1 for r, s in deep)
    assert all(is_simple_choreography(GroupSpec(3, 1, -1, r, s))
               for r, s in deep)
    ratios_shallow = sorted(r / s for r, s in pairs)
    ratios_deep = sorted(r / s for r, s in deep)
    assert max(np.diff(ratios_deep)) < max(np.diff(ratios_shallow))


def test_isomorphism_worked_examples():
    perm = find_isomorphism(GroupSpec(5, 1, -1, 4, 1),
                            GroupSpec(5, 2, -1, 2, 1))
    np.testing.assert_array_equal(perm, (-2 * np.arange(5)) % 5)
    perm = find_isomorphism(GroupSpec(4, 1, -1, 3, 1),
                            GroupSpec(4, 1, 1, 1, 1))
    np.testing.assert_array_equal(perm, (-np.arange(4)) % 4)
    assert find_isomorphism(GroupSpec(4, 1, 1, 1, 1),
                            GroupSpec(4, 2, 1, 1, 1)) is None
    perm = find_isomorphism(GroupSpec(5, 2, 1, 3, 1),
                            GroupSpec(5, 1, 1, 1, 1))
    np.testing.assert_array_equal(perm, (2 * np.arange(5)) % 5)


def test_isomorphism_requires_unit_s():
    with pytest.raises(UnsupportedCase):
        find_isomorphism(GroupSpec(4, 2, 1, 3, 2), GroupSpec(4, 1, 1, 1, 1))


def test_isomorphism_rejects_mismatched_bodies():
    with pytest.raises(ValueError):
        find_isomorphism(GroupSpec(4, 1, 1, 1, 1), GroupSpec(5, 1, 1, 1, 1))


def test_isomorphism_transports_invariance():
    cases = [
        (GroupSpec(5, 1, -1, 4, 1), GroupSpec(5, 2, -1, 2, 1)),
        (GroupSpec(4, 1, -1, 3, 1), GroupSpec(4, 1, 1, 1, 1)),
        (GroupSpec(5, 2, 1, 3, 1), GroupSpec(5, 1, 1, 1, 1)),
    ]
    rng = np.random.default_rng(21)
    for spec, spec2 in cases:
        perm = find_isomorphism(spec, spec2)
        assert perm is not None
        source = FourierConstraints(spec2).random_loop(rng, amplitude=0.3)
        assert invariance_defect(source, spec2) < 1e-10
        relabeled = LoopPath(source.positions[:, perm, :], source.period)
        assert invariance_defect(relabeled, spec) < 1e-10


def test_make_element_rejects_bad_xi():
    with pytest.raises(ValueError):
        make_element(GroupSpec(5, 2, -1, 2, 1), 0, 0, 0, 2)
