# Property tests of the pairwise kernel and everything built on it, against
# a brute-force double loop over body pairs written out below.
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unchained import (CollisionError, LoopPath, action, gravity, potential,
                       wintner_matrix)
from unchained.continuation import integrate
from unchained.minimize import BarActionParams, bar_action
from unchained.ngon import (COLLISION_TOL, _check_squared, _force,
                            _force_jacobian_apply, _pair_squares, _pairs,
                            force_jacobian, kinetic_energy, newton_residual)

# corners of a cube with side 1.5; jitter of at most 0.5 per coordinate
# keeps every pair at least 0.5 apart before scaling
CORNERS = 1.5 * np.array([[i, j, k] for i in (0, 1) for j in (0, 1)
                          for k in (0, 1)], dtype=float)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def bodies(draw, batch=False):
    """Positions of n in 2..8 unit masses, no collision.

    positions is (n, 3), or (m, n, 3) with m in 1..4 when batch is set.
    """
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 4)) if batch else 1
    seed = draw(st.integers(0, 2 ** 32 - 1))
    scale = draw(st.floats(0.1, 10.0))
    rng = np.random.default_rng(seed)
    pos = scale * (CORNERS[rng.permutation(8)[:n]]
                   + rng.uniform(-0.5, 0.5, size=(m, n, 3)))
    return pos if batch else pos[0]


def brute_force(pos):
    """Pair sums of one (n, 3) configuration of unit masses by an explicit
    double loop."""
    n = len(pos)
    diff = np.zeros((n, n, 3))
    dist = np.full((n, n), np.inf)
    u = 0.0
    acc = np.zeros((n, 3))
    jac = np.zeros((n, 3, n, 3))
    wint = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = pos[j] - pos[i]
            r = np.sqrt(d @ d)
            diff[i, j] = d
            dist[i, j] = r
            if i < j:
                u += 1.0 / r
            acc[i] += d / r ** 3
            block = np.eye(3) / r ** 3 - 3.0 * np.outer(d, d) / r ** 5
            jac[i, :, j, :] = block
            jac[i, :, i, :] -= block
            wint[i, j] = 1.0 / r ** 3
            wint[i, i] -= 1.0 / r ** 3
    return dict(diff=diff, dist=dist, potential=u, gravity=acc,
                jacobian=jac.reshape(3 * n, 3 * n), wintner=wint)


def assert_close(got, want, rtol=1e-12):
    # entries that cancel are compared against the largest one
    want = np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=rtol,
                               atol=rtol * np.max(np.abs(want)))


@SETTINGS
@given(bodies())
def test_single_configuration_matches_double_loop(pos):
    ref = brute_force(pos)
    diff, sq = _pair_squares(pos)
    pairs = np.triu_indices(len(pos), 1)
    np.testing.assert_array_equal(diff, ref["diff"][pairs])
    assert_close(sq, ref["dist"][pairs] ** 2)
    assert potential(pos) == pytest.approx(ref["potential"], rel=1e-13)
    assert_close(gravity(pos), ref["gravity"])
    assert_close(force_jacobian(pos), ref["jacobian"])
    assert_close(wintner_matrix(pos), ref["wintner"])


@SETTINGS
@given(bodies(batch=True))
def test_batch_matches_double_loop(pos):
    refs = [brute_force(p) for p in pos]
    diff, sq = _pair_squares(pos)
    pairs = np.triu_indices(pos.shape[1], 1)
    assert diff.shape == (pos.shape[0], len(pairs[0]), 3)
    assert sq.shape == (pos.shape[0], len(pairs[0]))
    for k, ref in enumerate(refs):
        np.testing.assert_array_equal(diff[k], ref["diff"][pairs])
        assert_close(sq[k], ref["dist"][pairs] ** 2)
    assert_close(gravity(pos), [ref["gravity"] for ref in refs])
    assert_close(force_jacobian(pos), [ref["jacobian"] for ref in refs])


@SETTINGS
@given(bodies(batch=True), st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_jacobian_action_matches_double_loop(pos, m, seed, batch):
    # the flow applies the Jacobian to its tangent columns, beside the
    # positions, without forming it; the brute-force matrix times the same
    # columns must agree, and the positions' column must be gravity
    if not batch:
        pos = pos[0]
    n = pos.shape[-2]
    dpos = np.random.default_rng(seed).normal(size=pos.shape + (m,))
    cols = np.concatenate([pos[..., None], dpos], axis=-1)
    got = _force_jacobian_apply(cols, _pairs(n)[3])
    assert got.shape == cols.shape
    refs = [brute_force(p) for p in pos.reshape(-1, n, 3)]
    want = [ref["jacobian"] @ d.reshape(3 * n, m)
            for ref, d in zip(refs, dpos.reshape(-1, n, 3, m))]
    assert_close(got[..., 1:], np.reshape(want, dpos.shape))
    assert_close(got[..., 0],
                 np.reshape([ref["gravity"] for ref in refs],
                            pos.shape))


@SETTINGS
@given(bodies(batch=True), st.floats(0.1, 10.0), st.floats(-3.0, 3.0))
def test_action_is_mean_lagrangian_times_period(pos, period, varpi):
    loop = LoopPath(pos, period)
    pot = [potential(p) for p in pos]
    want = np.mean(kinetic_energy(loop, varpi) + pot) * period
    assert action(loop, varpi) == pytest.approx(want, rel=1e-13)


@SETTINGS
@given(bodies(), st.data(),
       st.one_of(st.floats(0.1, 0.9), st.floats(1.1, 10.0)), st.booleans())
def test_check_separation_names_closest_pair(pos, data, factor, batch):
    n = len(pos)
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.integers(i + 1, n - 1))
    d = factor * COLLISION_TOL
    pos = pos - pos[i]
    pos[j] = d * np.array([0.6, 0.0, 0.8])
    if batch:
        # the close pair sits in the middle one of three samples
        pos = np.stack([2.0 * CORNERS[:n], pos, 3.0 * CORNERS[:n]])
    # the distances of every pair i < j, by a double loop over bodies
    n_lead = pos.shape[:-2]
    r = np.array([[np.linalg.norm(p[b] - p[a]) for a in range(n)
                   for b in range(a + 1, n)]
                  for p in pos.reshape(-1, n, 3)]).reshape(n_lead + (-1,))
    if factor < 1.0:
        with pytest.raises(CollisionError) as err:
            _check_squared(r * r)
        assert err.value.pair == (i, j)
        assert err.value.distance == pytest.approx(d, rel=1e-12)
    else:
        _check_squared(r * r)


@pytest.mark.parametrize("call", [
    lambda pos: potential(pos),
    lambda pos: wintner_matrix(pos),
    lambda pos: action(LoopPath(pos[None], 1.0)),
    lambda pos: integrate(np.stack([pos, np.zeros_like(pos)]), 0.0, 1.0),
    lambda pos: force_jacobian(pos),
    lambda pos: gravity(pos),
    lambda pos: newton_residual(LoopPath(np.stack([pos] * 4), 1.0)),
])
def test_coincident_bodies_raise_collision(call):
    pos = np.zeros((3, 3))
    pos[0, 0] = 1.0
    with pytest.raises(CollisionError) as err:
        call(pos)
    assert err.value.pair == (1, 2)
    assert err.value.distance == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", [
    lambda pos: potential(pos),
    lambda pos: wintner_matrix(pos),
    lambda pos: force_jacobian(pos),
    lambda pos: force_jacobian(np.stack([2.0 * CORNERS[:4], pos])),
    lambda pos: action(LoopPath(pos[None], 1.0)),
    lambda pos: newton_residual(LoopPath(np.stack([pos] * 4), 1.0)),
    lambda pos: gravity(pos),
    lambda pos: gravity(np.stack([2.0 * CORNERS[:4], pos])),
], ids=["potential", "wintner", "jacobian", "jacobian-batch", "action",
        "residual", "gravity", "gravity-batch"])
def test_non_finite_positions_raise(call, bad):
    # a NaN distance compares False against COLLISION_TOL, so each of
    # these returned NaN without a word
    pos = 2.0 * CORNERS[:4]
    pos[1, 2] = bad
    with pytest.raises(ValueError, match="positions must be finite"):
        call(pos)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("batch", [False, True])
def test_flow_kernel_threshold_is_collision_tol(k, batch):
    # the kernel compares squared distances with a guard just above
    # COLLISION_TOL^2 and takes roots only past it: a pair a millionth
    # inside the threshold still collides, one a millionth outside does not
    pos = 2.0 * CORNERS[:4]
    for factor in (0.999999, 1.000001):
        close = pos.copy()
        close[3] = close[1] + factor * COLLISION_TOL * np.array([0.6, 0.0,
                                                                 0.8])
        if batch:
            close = np.stack([pos, close, 3.0 * pos])
        tangents = np.random.default_rng(k).normal(size=close.shape
                                                   + (k - 1,))
        cols = np.concatenate([close[..., None], tangents], axis=-1)
        if k == 1:
            # the positions alone go to the plain flow's force pass
            def kernel():
                return _force(close)
        else:
            def kernel():
                return _force_jacobian_apply(cols, _pairs(4)[3])
        if factor < 1.0:
            with pytest.raises(CollisionError) as err:
                kernel()
            assert err.value.pair == (1, 3)
            assert err.value.distance < COLLISION_TOL
        else:
            assert np.isfinite(kernel()).all()


def test_bar_action_of_a_collision_loop_is_finite():
    # a loop through a collision is in the class the comparison functional
    # bounds, so bar_action takes the pair differences with no check and
    # must neither raise nor warn where two bodies coincide
    params = BarActionParams.from_configuration(2.0 * CORNERS[:3])
    t = np.linspace(0.0, 1.0, 16, endpoint=False)
    pos = np.zeros((16, 3, 3))
    pos[:, 0, 0] = np.cos(2.0 * np.pi * t)
    pos[:, 1, 1] = np.sin(2.0 * np.pi * t)
    pos[:, 2, 1] = np.sin(2.0 * np.pi * t)  # bodies 1 and 2 coincide
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = bar_action(LoopPath(pos, 1.0), params)
    assert np.isfinite(value)
