# Property tests of the pairwise kernel and everything built on it, against
# a brute-force double loop over body pairs written out below.
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unchained import (CollisionError, Configuration, LoopPath, action,
                       gravity, potential, wintner_matrix)
from unchained.continuation import integrate
from unchained.ngon import (COLLISION_TOL, check_separation, closest_pair,
                            force_jacobian, kinetic_energy, pair_terms)

# corners of a cube with side 1.5; jitter of at most 0.5 per coordinate
# keeps every pair at least 0.5 apart before scaling
CORNERS = 1.5 * np.array([[i, j, k] for i in (0, 1) for j in (0, 1)
                          for k in (0, 1)], dtype=float)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def bodies(draw, batch=False):
    """(positions, masses): n in 2..8, masses in [0.5, 2], no collision.

    positions is (n, 3), or (m, n, 3) with m in 1..4 when batch is set.
    """
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 4)) if batch else 1
    seed = draw(st.integers(0, 2 ** 32 - 1))
    scale = draw(st.floats(0.1, 10.0))
    rng = np.random.default_rng(seed)
    pos = scale * (CORNERS[rng.permutation(8)[:n]]
                   + rng.uniform(-0.5, 0.5, size=(m, n, 3)))
    masses = rng.uniform(0.5, 2.0, size=n)
    return (pos if batch else pos[0]), masses


def brute_force(pos, masses):
    """Pair sums of one (n, 3) configuration by an explicit double loop."""
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
                u += masses[i] * masses[j] / r
            acc[i] += masses[j] * d / r ** 3
            block = masses[j] * (np.eye(3) / r ** 3
                                 - 3.0 * np.outer(d, d) / r ** 5)
            jac[i, :, j, :] = block
            jac[i, :, i, :] -= block
            wint[i, j] = masses[j] / r ** 3
            wint[i, i] -= masses[j] / r ** 3
    return dict(diff=diff, dist=dist, potential=u, gravity=acc,
                jacobian=jac.reshape(3 * n, 3 * n), wintner=wint)


def assert_close(got, want, rtol=1e-12):
    # entries that cancel are compared against the largest one
    want = np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=rtol,
                               atol=rtol * np.max(np.abs(want)))


@SETTINGS
@given(bodies())
def test_single_configuration_matches_double_loop(sample):
    pos, masses = sample
    ref = brute_force(pos, masses)
    diff, r, inv_r3 = pair_terms(pos)
    np.testing.assert_array_equal(diff, ref["diff"])
    assert_close(r[np.isfinite(r)], ref["dist"][np.isfinite(ref["dist"])])
    assert np.all(np.isinf(np.diag(r)))
    assert np.all(np.diag(inv_r3) == 0.0)
    assert_close(inv_r3, ref["dist"] ** -3.0)
    config = Configuration(pos, masses)
    assert potential(config) == pytest.approx(ref["potential"], rel=1e-13)
    assert_close(gravity(pos, masses), ref["gravity"])
    assert_close(force_jacobian(pos, masses), ref["jacobian"])
    assert_close(wintner_matrix(config), ref["wintner"])


@SETTINGS
@given(bodies(batch=True))
def test_batch_matches_double_loop(sample):
    pos, masses = sample
    refs = [brute_force(p, masses) for p in pos]
    _, r, _ = pair_terms(pos)
    assert r.shape == pos.shape[:2] + (pos.shape[1],)
    for k, ref in enumerate(refs):
        assert_close(r[k][np.isfinite(r[k])],
                     ref["dist"][np.isfinite(ref["dist"])])
    assert_close(gravity(pos, masses), [ref["gravity"] for ref in refs])
    assert_close(force_jacobian(pos, masses),
                 [ref["jacobian"] for ref in refs])
    loop = LoopPath(pos, 1.0, masses)
    assert loop.min_separation() == pytest.approx(
        min(ref["dist"].min() for ref in refs), rel=1e-13)


@SETTINGS
@given(bodies(batch=True), st.floats(0.1, 10.0), st.floats(-3.0, 3.0))
def test_action_is_mean_lagrangian_times_period(sample, period, varpi):
    pos, masses = sample
    loop = LoopPath(pos, period, masses)
    pot = [potential(Configuration(p, masses)) for p in pos]
    want = np.mean(kinetic_energy(loop, varpi) + pot) * period
    assert action(loop, varpi) == pytest.approx(want, rel=1e-13)


@SETTINGS
@given(bodies(), st.data(),
       st.one_of(st.floats(0.1, 0.9), st.floats(1.1, 10.0)), st.booleans())
def test_check_separation_names_closest_pair(sample, data, factor, batch):
    pos, _ = sample
    n = len(pos)
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.integers(i + 1, n - 1))
    d = factor * COLLISION_TOL
    pos = pos - pos[i]
    pos[j] = d * np.array([0.6, 0.0, 0.8])
    if batch:
        # the close pair sits in the middle one of three samples
        pos = np.stack([2.0 * CORNERS[:n], pos, 3.0 * CORNERS[:n]])
    _, r, _ = pair_terms(pos)
    assert closest_pair(r) == (i, j, pytest.approx(d, rel=1e-12))
    if factor < 1.0:
        with pytest.raises(CollisionError) as err:
            check_separation(r)
        assert err.value.pair == (i, j)
        assert err.value.distance == pytest.approx(d, rel=1e-12)
    else:
        check_separation(r)


@pytest.mark.parametrize("call", [
    lambda pos: potential(Configuration(pos)),
    lambda pos: wintner_matrix(Configuration(pos)),
    lambda pos: action(LoopPath(pos[None], 1.0)),
    lambda pos: integrate(np.stack([pos, np.zeros_like(pos)]),
                          np.ones(len(pos)), 0.0, 1.0),
])
def test_coincident_bodies_raise_collision(call):
    pos = np.zeros((3, 3))
    pos[0, 0] = 1.0
    with pytest.raises(CollisionError) as err:
        call(pos)
    assert err.value.pair == (1, 2)
    assert err.value.distance == 0.0
