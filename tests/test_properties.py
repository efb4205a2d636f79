# Property tests of the force kernels against numerical derivatives, and of
# the family CSV against a parse of its own text.  The derivatives are
# central differences of the public functions: they share no formula with
# the analytic force and Jacobian they check.
import io
from math import gcd

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from unchained.continuation import (ContinuationResult, FamilyRecord,
                                    write_family_csv)
from unchained.ngon import (_force_jacobian_apply, _pairs, force_jacobian,
                            gravity, potential)
from unchained.symmetry import GroupSpec

SETTINGS = settings(max_examples=60, deadline=None)
STEP = 1e-5
MIN_SEPARATION = 0.25


@st.composite
def configurations(draw):
    """Positions of n in 2..6 unit masses in a box of side 4."""
    n = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-2.0, 2.0, size=(n, 3))
    dist = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
    assume(np.min(dist[np.triu_indices(n, 1)]) > MIN_SEPARATION)
    return pos


def central_difference(fun, pos):
    """d fun / d pos as (*fun shape, n, 3), by central differences."""
    cols = []
    for idx in np.ndindex(pos.shape):
        step = np.zeros_like(pos)
        step[idx] = STEP
        cols.append((np.asarray(fun(pos + step))
                     - np.asarray(fun(pos - step))) / (2.0 * STEP))
    return np.moveaxis(np.array(cols), 0, -1).reshape(
        *np.shape(cols[0]), *pos.shape)


@SETTINGS
@given(configurations())
def test_force_jacobian_is_derivative_of_gravity(pos):
    n = len(pos)
    jac = force_jacobian(pos)
    fd = central_difference(gravity, pos)
    fd = fd.reshape(3 * n, 3 * n)
    assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac))


@SETTINGS
@given(configurations(), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_jacobian_action_is_directional_derivative_of_gravity(pos, m,
                                                              seed):
    # column k of the action on displacements D is the derivative of gravity
    # along D[..., k], here by a central difference along that direction
    dpos = np.random.default_rng(seed).normal(size=pos.shape + (m,))
    got = _force_jacobian_apply(
        np.concatenate([pos[..., None], dpos], axis=-1),
        _pairs(len(pos))[3])[..., 1:]
    fd = np.stack([(gravity(pos + STEP * d) - gravity(pos - STEP * d))
                   / (2.0 * STEP)
                   for d in np.moveaxis(dpos, -1, 0)], axis=-1)
    assert np.max(np.abs(got - fd)) <= 1e-6 * np.max(np.abs(got))


@SETTINGS
@given(configurations(), st.integers(0, 6), st.integers(0, 2 ** 32 - 1))
def test_jacobian_pass_gives_force_and_matrix_action(pos, m, seed):
    # the flow's one pass over the pairs: on the positions, alone (m = 0,
    # the kernel's fast path) or beside m displacement columns, it gives
    # gravity, and on the displacements the matrix of force_jacobian times
    # them
    n = len(pos)
    dpos = np.random.default_rng(seed).normal(size=pos.shape + (m,))
    got = _force_jacobian_apply(
        np.concatenate([pos[..., None], dpos], axis=-1),
        _pairs(n)[3])
    force = gravity(pos)
    assert np.max(np.abs(got[..., 0] - force)) \
        <= 1e-12 * np.max(np.abs(force))
    want = force_jacobian(pos) @ dpos.reshape(3 * n, m)
    assert np.max(np.abs(got[..., 1:].reshape(3 * n, m) - want),
                  initial=0.0) <= 1e-12 * np.max(np.abs(want), initial=1.0)


@SETTINGS
@given(configurations())
def test_gravity_is_gradient_of_potential(pos):
    # x_i'' = dU / dx_i
    grad = central_difference(potential, pos)
    force = gravity(pos)
    assert np.max(np.abs(force - grad)) <= 1e-6 * np.max(np.abs(force))


@st.composite
def specs(draw):
    n = draw(st.integers(3, 12))
    s = draw(st.integers(1, 6))
    return GroupSpec(n, draw(st.integers(1, n // 2)),
                     draw(st.sampled_from((-1, 1))),
                     draw(st.integers(-2 * s, 2 * s).filter(
                         lambda r: gcd(r, s) == 1)), s)


any_float = st.floats(allow_nan=False)


@st.composite
def families(draw):
    records = [FamilyRecord(*draw(st.tuples(*[any_float] * 5)), orbit=None)
               for _ in range(draw(st.integers(0, 5)))]
    reason = draw(st.text(st.characters(blacklist_categories=("Cc", "Cs"))))
    return ContinuationResult(draw(specs()), records, reason)


@SETTINGS
@given(families())
def test_write_family_csv_round_trip(family):
    buf = io.StringIO()
    write_family_csv(family, buf)
    lines = buf.getvalue().split("\n")
    spec = family.spec
    assert lines[0] == (f"# spec={spec.n_bodies},{spec.k},{spec.eta},"
                        f"{spec.r},{spec.s}")
    assert lines[1] == "varpi,amplitude,action,period,angular_momentum_z"
    assert lines[-2:] == [f"# end={family.end_reason}", ""]
    rows = [[float(v) for v in line.split(",")] for line in lines[2:-2]]
    want = [[r.varpi, r.amplitude, r.action, r.period, r.angular_momentum_z]
            for r in family.records]
    # hex compares bit patterns, so -0.0 and 0.0 differ
    assert [[v.hex() for v in row] for row in rows] == \
        [[float(v).hex() for v in row] for row in want]
