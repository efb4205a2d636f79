import dataclasses
import inspect

import numpy as np
import pytest

import unchained
from unchained import (CollisionError, LoopPath, NGonSystem, action,
                       angular_momentum_z, gravity, newton_residual, ngon,
                       potential, rescale, wintner_matrix)
from unchained.continuation import integrate
from unchained.ngon import force_jacobian, jay, kinetic_energy
from unchained.symmetry import GroupSpec
from unchained.torsion import reconstruct_loop, torsion_gamma

# Frozen oracle values (direct trigonometric sums, independent of the
# package): potential of the unit n-gon and its proper frequency.
U_TRIANGLE = 1.7320508075688772       # sqrt(3)
U_SQUARE = 3.8284271247461898         # 2 sqrt(2) + 1
OMEGA1_TRIANGLE = 0.75983568565159254  # 3^(-1/4)


def to_rotating(loop, varpi):
    """Oracle: a loop of inertial coordinates in the frame rotating at
    rate varpi about the vertical axis."""
    ang = -varpi * loop.times
    c, s = np.cos(ang)[:, None], np.sin(ang)[:, None]
    x, y, z = (loop.positions[..., 0], loop.positions[..., 1],
               loop.positions[..., 2])
    return LoopPath(np.stack([c * x - s * y, s * x + c * y, z], axis=-1),
                    loop.period)


def test_build_ngon_rejects_small_n():
    with pytest.raises(ValueError):
        NGonSystem(2)


@pytest.mark.parametrize("make", [lambda: NGonSystem(4.5),
                                  lambda: NGonSystem(3.0),
                                  lambda: NGonSystem(True)])
def test_body_count_must_be_an_integer(make):
    # 4.5 would give 5 vertices at angles 2 pi j / 4.5, and 3.0 a float n
    with pytest.raises(ValueError, match="n must be a positive integer"):
        make()


def test_body_count_accepts_numpy_integers():
    ngon = NGonSystem(np.int64(4))
    assert type(ngon.n) is int and ngon.n == 4
    assert ngon.positions.shape == (4, 3)


def test_unit_triangle_potential():
    sys3 = NGonSystem(3)
    assert potential(sys3.positions) == pytest.approx(U_TRIANGLE, abs=1e-14)


def test_unit_square_potential():
    sys4 = NGonSystem(4)
    assert potential(sys4.positions) == pytest.approx(U_SQUARE, abs=1e-14)


def test_omega1_identity():
    # n omega1^2 equals the unit n-gon potential, for several n
    for n in (3, 4, 5, 6, 9, 17):
        sysn = NGonSystem(n)
        u = potential(sysn.positions)
        assert n * sysn.omega1 ** 2 == pytest.approx(u, rel=1e-14)
    assert NGonSystem(3).omega1 == pytest.approx(OMEGA1_TRIANGLE, abs=1e-15)


def test_omega1_scaling():
    # omega1 scales like a^(-3/2) with the circumradius a
    base = NGonSystem(5).omega1
    assert NGonSystem(5, scale=4.0).omega1 == pytest.approx(base / 8.0, rel=1e-13)


def test_moment_of_inertia_identity():
    # U(C)/I(C) = omega1^2 at any scale
    for scale in (1.0, 0.7, 3.2):
        sysn = NGonSystem(6, scale)
        ratio = potential(sysn.positions) / np.sum(sysn.positions ** 2)
        assert ratio == pytest.approx(sysn.omega1 ** 2, rel=1e-13)


def test_rho_distances():
    sysn = NGonSystem(7, scale=2.5)
    pos = sysn.positions
    for d in range(1, 7):
        assert np.linalg.norm(pos[d] - pos[0]) == pytest.approx(
            sysn.rho(d), rel=1e-14)


def test_collision_raises_with_pair():
    pos = np.zeros((3, 3))
    pos[1, 0] = 1.0
    pos[2, 0] = 1.0 + 1e-12
    with pytest.raises(CollisionError) as err:
        potential(pos)
    assert err.value.pair == (1, 2)


def test_gravity_matches_potential_gradient():
    rng = np.random.default_rng(7)
    pos = rng.normal(size=(5, 3))
    acc = gravity(pos)
    h = 1e-6
    for i in range(5):
        for c in range(3):
            pp = pos.copy()
            pm = pos.copy()
            pp[i, c] += h
            pm[i, c] -= h
            du = (potential(pp) - potential(pm)) / (2 * h)
            # a_i = dU/dx_i
            assert acc[i, c] == pytest.approx(du, abs=2e-7)


def test_force_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    pos = rng.normal(size=(4, 3))
    jac = force_jacobian(pos)
    h = 1e-6
    for j in range(4):
        for c in range(3):
            pp = pos.copy()
            pm = pos.copy()
            pp[j, c] += h
            pm[j, c] -= h
            col = (gravity(pp) - gravity(pm)).ravel() / (2 * h)
            assert np.allclose(jac[:, 3 * j + c], col, atol=5e-6)


def test_wintner_rows_and_symmetry():
    rng = np.random.default_rng(3)
    pos = rng.normal(size=(6, 3))
    w = wintner_matrix(pos)
    assert np.allclose(w.sum(axis=1), 0.0, atol=1e-14)
    assert np.allclose(w, w.T, atol=1e-13)


def test_wintner_vertical_variational():
    # z'' = W z reproduces the vertical force linearization at z = 0
    sysn = NGonSystem(5)
    w = wintner_matrix(sysn.positions)
    rng = np.random.default_rng(5)
    z = rng.normal(size=5)
    h = 1e-7
    pos = sysn.positions.copy()
    posp = pos.copy()
    posp[:, 2] = h * z
    acc = gravity(posp)[:, 2] / h
    assert np.allclose(acc, w @ z, atol=1e-6)


def test_rigid_loop_solves_newton():
    for n in (3, 4, 6):
        loop = NGonSystem(n).rigid_loop(n_samples=256)
        assert newton_residual(loop) < 1e-10


def test_rigid_loop_wrong_frequency_fails_newton():
    loop = NGonSystem(3).rigid_loop(omega=1.0, n_samples=256)
    assert newton_residual(loop) > 1e-3


def test_action_of_relative_equilibrium():
    # inertial action over one period is (3/2) U T
    for n in (3, 4, 5):
        sysn = NGonSystem(n)
        loop = sysn.rigid_loop(n_samples=512)
        u = potential(sysn.positions)
        expect = 1.5 * u * loop.period
        assert action(loop) == pytest.approx(expect, rel=1e-12)


def test_action_rotating_frame_consistency():
    # the same physical solution, expressed in a rotating frame with the
    # matching varpi kinetic term, has the same action; varpi must be a
    # multiple of 2 pi / T for the transformed samples to stay periodic
    sysn = NGonSystem(4)
    loop = sysn.rigid_loop(n_samples=512)
    for m in (-1, 1, 2):
        varpi = m * sysn.omega1
        rot = to_rotating(loop, varpi)
        assert action(rot, varpi) == pytest.approx(action(loop), rel=1e-11)


def test_action_time_translation_invariance():
    sysn = NGonSystem(3)
    loop = sysn.rigid_loop(n_samples=360)
    shifted = LoopPath(np.roll(loop.positions, 17, axis=0), loop.period)
    assert action(shifted) == pytest.approx(action(loop), rel=1e-13)


def test_masses_are_unit_by_construction():
    # no public callable of the package takes masses, the kernels of ngon
    # included, and no loop type stores them
    public = {name: getattr(unchained, name) for name in unchained.__all__}
    public.update((name, obj) for name, obj in vars(ngon).items()
                  if getattr(obj, "__module__", None) == ngon.__name__
                  and not name.startswith("_"))
    for name, obj in public.items():
        if callable(obj) and not (isinstance(obj, type)
                                  and issubclass(obj, Exception)):
            assert "masses" not in inspect.signature(obj).parameters, name
    assert "masses" not in {f.name for f in dataclasses.fields(LoopPath)}
    # tol is keyword-only: the old call integrate(state, masses, varpi, t)
    # must not read the masses as the frame rate
    loop = NGonSystem(3).rigid_loop(n_samples=64)
    state = np.stack([loop.positions[0], loop.velocities()[0]])
    with pytest.raises(TypeError):
        integrate(state, np.ones(3), 0.0, 0.1)


# each size with the values it must refuse: a negative omega is a
# clockwise rotation, so of the finite ones only omega = 0 is refused
_SIZES = {
    "period": (lambda loop, bad: LoopPath(loop.positions, bad),
               [np.nan, np.inf, 0.0, -1.0]),
    "lam": (lambda loop, bad: rescale(loop, bad), [np.nan, np.inf, 0.0, -1.0]),
    "omega": (lambda loop, bad: NGonSystem(3).rigid_loop(omega=bad,
                                                         n_samples=8),
              [np.nan, np.inf, -np.inf, 0.0]),
    "scale": (lambda loop, bad: NGonSystem(3, scale=bad),
              [np.nan, np.inf, 0.0, -1.0]),
}


@pytest.mark.parametrize("name, bad", [(name, bad)
                                       for name, (_, bads) in _SIZES.items()
                                       for bad in bads])
def test_sizes_must_be_finite_and_positive(name, bad):
    # NaN passed every `<= 0` check: LoopPath(pos, nan) built a loop whose
    # action and Newton residual were NaN, rescale(loop, nan) and
    # rigid_loop(omega=nan) built NaN periods, and NGonSystem(3, nan) or
    # (3, inf) a NaN omega1 after a RuntimeWarning
    loop = NGonSystem(3).rigid_loop(n_samples=8)
    with pytest.raises(ValueError, match=name):
        _SIZES[name][0](loop, bad)


def test_rescale_maps_solutions_to_solutions():
    loop = NGonSystem(3).rigid_loop(n_samples=256)
    lam = 1.7
    scaled = rescale(loop, lam)
    assert scaled.period == pytest.approx(loop.period / lam)
    assert newton_residual(scaled) < 1e-9
    # action scales by lam^(-1/3)
    assert action(scaled) == pytest.approx(action(loop) * lam ** (-1 / 3),
                                           rel=1e-11)


def test_rescale_composition():
    loop = NGonSystem(4).rigid_loop(n_samples=128)
    a = rescale(rescale(loop, 2.0), 3.0)
    b = rescale(loop, 6.0)
    assert np.allclose(a.positions, b.positions, atol=1e-14)
    assert a.period == pytest.approx(b.period)


def test_loop_derivative_and_interpolation(dense_interpolant):
    sysn = NGonSystem(3)
    loop = sysn.rigid_loop(n_samples=200)
    om = sysn.omega1
    vel = loop.velocities()
    t = loop.times
    expect_vx = -om * np.sin(om * t[:, None]
                             + 2 * np.pi * np.arange(3)[None, :] / 3)
    assert np.allclose(vel[..., 0], expect_vx, atol=1e-10)
    probe = np.array([0.123, 1.456])
    vals = dense_interpolant(loop, probe)
    ang = om * probe[:, None] + 2 * np.pi * np.arange(3)[None, :] / 3
    assert np.allclose(vals[..., 0], np.cos(ang), atol=1e-12)


def test_angular_momentum_of_rigid_loop():
    sysn = NGonSystem(5, scale=2.0)
    loop = sysn.rigid_loop(n_samples=128)
    lz = angular_momentum_z(loop)
    expect = 5 * 2.0 ** 2 * sysn.omega1
    assert np.allclose(lz, expect, rtol=1e-12)
    # rotating frame samples with matching varpi give the same value
    rot = to_rotating(loop, sysn.omega1)
    assert np.allclose(angular_momentum_z(rot, sysn.omega1), expect,
                       rtol=1e-12)


def test_kinetic_energy_rigid():
    sysn = NGonSystem(4)
    loop = sysn.rigid_loop(n_samples=64)
    expect = 0.5 * 4 * sysn.omega1 ** 2
    assert np.allclose(kinetic_energy(loop), expect, rtol=1e-11)


def test_jay_is_vertical_rotation_generator():
    v = np.array([[1.0, 2.0, 3.0]])
    assert np.allclose(jay(v), [[-2.0, 1.0, 0.0]])


def test_center_of_mass_normalization():
    rng = np.random.default_rng(2)
    pos = rng.normal(size=(4, 3))
    centered = pos - pos.mean(axis=0)
    assert np.allclose(centered.mean(axis=0), 0.0, atol=1e-15)
    # potential is translation invariant
    assert potential(centered) == pytest.approx(potential(pos), rel=1e-14)


@pytest.mark.parametrize("fun", [potential, wintner_matrix])
@pytest.mark.parametrize("shape", [(4,), (4, 2), (2, 4, 3), (3, 4)],
                         ids=["flat", "planar", "loop", "transposed"])
def test_configuration_functions_refuse_other_shapes(fun, shape):
    # one configuration is (n, 3): a loop, a flat vector or planar
    # positions are refused, not summed over the wrong axis
    with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
        fun(np.ones(shape))


@pytest.mark.parametrize("m", [48, 49])  # even m has a Nyquist bin
@pytest.mark.parametrize("n_out", [12, 20, 48, 49, 75])
def test_on_grid_matches_dense_interpolation(dense_interpolant, m, n_out):
    # grid values from the spectral shift against the dense sum at the
    # same times; the offsets are on the sample grid, off it, negative
    # and beyond one period, and n_out covers M < m (dividing m or not),
    # M = m and M > m
    rng = np.random.default_rng(m * 100 + n_out)
    loop = LoopPath(rng.normal(size=(m, 3, 3)), 1.7)
    scale = np.abs(loop.positions).max()
    for offset in (0.0, 5 * 1.7 / m, 0.123, -0.41, 2.3):
        got = loop.on_grid(offset, n_out)
        assert got.shape == (n_out, 3, 3)
        ref = dense_interpolant(loop,
                                offset + np.arange(n_out) * (1.7 / n_out))
        assert np.abs(got - ref).max() <= 1e-13 * scale


@pytest.mark.parametrize("call", [lambda loop: loop.resample(0),
                                  lambda loop: loop.resample(-2),
                                  lambda loop: loop.on_grid(0.1, 0),
                                  lambda loop: loop.on_grid(0.1, 12.5)],
                         ids=["resample0", "resample-2", "on_grid0",
                              "on_grid12.5"])
def test_grid_count_checked_before_any_fft(fft_calls, call):
    # resample(0) divided by zero and resample(-2) failed in a reshape.
    # Every transform the package calls is counted, real ones included
    loop = LoopPath(np.random.default_rng(3).normal(size=(16, 3, 3)), 1.0)
    with pytest.raises(ValueError, match="n_samples must be a positive"):
        call(loop)
    assert not any(fft_calls.values()), fft_calls


@pytest.mark.parametrize("offsets, match", [
    (np.nan, "must be finite"),
    ([0.1, np.inf], "must be finite"),
    ([[0.1, 0.2]], "1-D array"),
    (np.zeros((2, 1)), "1-D array"),
], ids=["nan", "inf-in-batch", "row", "column"])
def test_on_grid_offsets_checked_before_any_fft(fft_calls, offsets, match):
    loop = LoopPath(np.random.default_rng(3).normal(size=(16, 3, 3)), 1.0)
    with pytest.raises(ValueError, match=match):
        loop.on_grid(offsets, 16)
    assert not any(fft_calls.values()), fft_calls


@pytest.mark.parametrize("m", [48, 49])  # even m has a Nyquist bin
@pytest.mark.parametrize("n_out", [20, 48, 49, 75])
def test_on_grid_batch_is_the_stacked_single_shifts(m, n_out):
    # S offsets in one call give the S single-offset grids, for n_out < m,
    # = m and > m; one offset in a 1-D array still gives a batch of one
    rng = np.random.default_rng(m + n_out)
    loop = LoopPath(rng.normal(size=(m, 4, 3)), 2.1)
    offsets = np.array([0.0, 7 * 2.1 / m, 0.37, -1.3, 4.4])
    got = loop.on_grid(offsets, n_out)
    assert got.shape == (len(offsets), n_out, 4, 3)
    ref = np.stack([loop.on_grid(offset, n_out) for offset in offsets])
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(loop.positions).max()
    assert loop.on_grid(offsets[2:3], n_out).shape == (1, n_out, 4, 3)


@pytest.mark.parametrize("order", [-1, -2, 1.5, 2.0, True, "1", None],
                         ids=["-1", "-2", "1.5", "2.0", "True", "str", "None"])
def test_derivative_order_must_be_a_non_negative_integer(fft_calls, order):
    # derivative(-1) divided by zero at k = 0 and returned NaN, 1.5 gave the
    # real part of a complex power and True was read as 1
    loop = NGonSystem(3).rigid_loop(n_samples=16)
    with pytest.raises(ValueError, match="order must be a non-negative"):
        loop.derivative(order)
    assert not any(fft_calls.values()), fft_calls


def test_newton_residual_transforms_forward_once(fft_calls):
    # both derivatives come from one forward FFT of the samples, and the
    # value is the same float as from two separate derivatives
    loop, varpi = reconstruct_loop(torsion_gamma(GroupSpec(3, 1, -1, 2, 1)),
                                   0.05, n_samples=64)
    before = dict(fft_calls)
    got = newton_residual(loop, varpi)
    assert {k: fft_calls[k] - before[k] for k in fft_calls} \
        == {"fft": 1, "ifft": 2, "rfft": 0, "irfft": 0}
    res = (loop.derivative(2) - gravity(loop.positions)
           - varpi ** 2 * loop.positions * [1.0, 1.0, 0.0]
           + 2.0 * varpi * jay(loop.derivative(1)))
    assert got == float(np.max(np.abs(res)))


def test_derivative_of_order_zero_is_the_loop():
    loop = LoopPath(np.random.default_rng(5).normal(size=(15, 3, 3)), 1.0)
    assert np.abs(loop.derivative(0) - loop.positions).max() <= 1e-14
    assert np.abs(loop.derivative(np.int64(1)) - loop.velocities()).max() \
        == 0.0


def _never_called(t):
    raise AssertionError("sampled before the count was checked")


def _p12_expansion(n_samples):
    return reconstruct_loop(torsion_gamma(GroupSpec(3, 1, -1, 2, 1)), 0.05,
                            n_samples=n_samples)


@pytest.mark.parametrize("call, match", [
    (lambda: LoopPath(np.zeros((0, 3, 3)), 1.0), "positions must have"),
    (lambda: NGonSystem(3).rigid_loop(n_samples=0), "n_samples must be"),
    (lambda: NGonSystem(3).rigid_loop(n_samples=2.5), "n_samples must be"),
    (lambda: LoopPath.from_function(_never_called, 1.0, 2.5),
     "n_samples must be"),
    (lambda: LoopPath.from_function(_never_called, 1.0, 0),
     "n_samples must be"),
    (lambda: _p12_expansion(2.5), "n_samples must be"),
    (lambda: _p12_expansion(-4), "n_samples must be"),
    (lambda: _p12_expansion(0), "n_samples must be"),
], ids=["empty-loop", "rigid0", "rigid2.5", "from_function2.5",
        "from_function0", "reconstruct2.5", "reconstruct-4", "reconstruct0"])
def test_loop_counts_checked_before_any_work(call, match):
    # rigid_loop(0) divided by zero into an empty loop whose action failed
    # inside the FFT; 2.5 samples built 3; reconstruct_loop(-4) built an
    # empty loop; from_function(0) and reconstruct_loop(0) divided by zero
    with pytest.raises(ValueError, match=match):
        call()


def test_resample_is_the_dense_interpolant_on_the_new_grid(
        dense_interpolant):
    rng = np.random.default_rng(7)
    loop = LoopPath(rng.normal(size=(64, 4, 3)), 2.0)
    for n_out in (16, 64, 100):
        out = loop.resample(n_out)
        assert out.period == loop.period
        ref = dense_interpolant(loop, np.arange(n_out) * (2.0 / n_out))
        assert np.abs(out.positions - ref).max() \
            <= 1e-13 * np.abs(loop.positions).max()
