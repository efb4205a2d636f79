"""Regular n-gon relative equilibria of the Newtonian n-body problem.

Bodies have unit mass and G = 1 throughout.  The regular n-gon with unit
circumradius, rigidly rotating about the vertical axis at its proper
frequency omega1, is the reference relative equilibrium.  This module
provides the n-gon, the gravitational potential and force, the Wintner
matrix governing vertical variations, periodic paths sampled on a
uniform grid, and the Lagrangian action in a frame rotating at an
arbitrary rate varpi.  Positions are plain arrays: one configuration is
(n, 3), and a loop is (m, n, 3) samples in a `LoopPath`.

Every pairwise quantity is built from one front end, `_pair_squares`,
over the n(n-1)/2 pairs i < j in `np.triu_indices(n, 1)` order: the
differences x_j - x_i and their squared lengths r_ij^2, with no diagonal.
Sums over pairs go back to the bodies through the (n, P) scatter that
`_pairs` caches per n, which adds a pair's vector to body i and subtracts
it from body j.  Two bodies closer than the single threshold
COLLISION_TOL collide, and `_check_squared` is the one place that checks:
it compares the squared distances with a guard just above
COLLISION_TOL^2 and takes their roots only when one falls below it, so
the threshold is exact.  Every function that takes positions, and the
flow of `continuation.integrate`, raises CollisionError below it.  A NaN
distance passes that test, so the positions that `potential`,
`wintner_matrix`, `gravity` and `force_jacobian` take, and those of every
`LoopPath`, must be finite: ValueError otherwise.  `potential` and
`wintner_matrix` take one (n, 3) configuration and refuse any other shape
with ValueError.

The force is `_pair_force` of the pair differences: `_force` of
positions, the body of `gravity` and `newton_residual`, takes them from
the pair-difference matrix, and the plain flow of
`continuation.integrate` from its own batched product.  The force
Jacobian is `_pair_jacobian_apply` of the pair differences of a stack of
position columns, the positions in column 0: with one scatter product it
returns the force in column 0 and the force Jacobian, in rank-one form,
applied to every other column.  It reads r^2 off the differences and
runs the same guard as the front end.  `force_jacobian` takes the
differences through `_force_jacobian_apply`, and the tangent flow from
its batched product.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CollisionError

COLLISION_TOL = 1e-7
# just above COLLISION_TOL^2, so that no pair closer than COLLISION_TOL
# passes it whatever the rounding of its squared distance
_SQ_GUARD = 1.0001 * COLLISION_TOL ** 2
_ONES3 = np.ones(3)


@functools.lru_cache(maxsize=None)
def _pairs(n):
    # (i, j, diff_matrix, scatter) of the pairs i < j of n bodies, in
    # np.triu_indices(n, 1) order: diff_matrix @ x is x_j - x_i per pair,
    # and the (n, P) scatter takes pair vectors f_p to bodies, column
    # p = (i, j) holding 1 at row i and -1 at row j, so scatter @ (inv_r3
    # * diff) is the gravity of every body.  Cached per n, so read-only
    i, j = np.triu_indices(n, 1)
    eye = np.eye(n)
    diff_matrix = eye[j] - eye[i]
    scatter = np.ascontiguousarray((eye[i] - eye[j]).T)
    for a in (i, j, diff_matrix, scatter):
        a.flags.writeable = False
    return i, j, diff_matrix, scatter


def _pair_squares(pos):
    # (d, sq) of (..., n, 3) positions: the pair differences d = x_j - x_i,
    # (..., P, 3), and their squared lengths, (..., P), after the collision
    # check of `_check_squared`: no caller divides by a closer pair
    d = _pairs(pos.shape[-2])[2] @ pos
    return d, _checked_squares(d)


def _checked_squares(d):
    # the squared lengths (..., P) of pair differences d (..., P, 3), after
    # the collision check of `_check_squared`
    sq = (d * d) @ _ONES3
    _check_squared(sq)
    return sq


def _check_squared(sq):
    # raise CollisionError, naming the closest pair (i < j) of all samples,
    # when a pair in the squared distances sq (..., P) is closer than
    # COLLISION_TOL.  The roots are taken only when some sq falls below
    # _SQ_GUARD: every sq at or above it has a rounded root above
    # COLLISION_TOL, so skipping them changes no outcome and the threshold
    # stays exact
    if np.minimum.reduce(sq, axis=None, initial=np.inf) < _SQ_GUARD:
        r = np.sqrt(sq)
        k = int(np.argmin(r))
        if r.flat[k] < COLLISION_TOL:
            i, j = _pairs((1 + math.isqrt(1 + 8 * r.shape[-1])) // 2)[:2]
            p = k % r.shape[-1]
            raise CollisionError(int(i[p]), int(j[p]), float(r.flat[k]))


def _checked_int(value, name, kind="an integer"):
    # value as an int, bool refused: ValueError "{name} must be {kind}"
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be {kind}: {value!r}")
    return int(value)


def _checked_count(count, name):
    # a count such as a sample or step count: a positive integer
    if _checked_int(count, name, "a positive integer") < 1:
        raise ValueError(f"{name} must be a positive integer: {count!r}")
    return int(count)


def _checked_bodies(n):
    # a body count: an integer n >= 3, returned as int.  The spectrum
    # caches check it before any lookup, since 3.0 == 3 would share a
    # cache entry with 3
    n = _checked_count(n, "n")
    if n < 3:
        raise ValueError(f"need at least 3 bodies, got {n}")
    return n


def _checked_positive(value, name):
    # a finite value > 0: NaN fails both comparisons, so it is refused too
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _checked_finite(values, name):
    # a value or array with no NaN or infinite entry: every comparison
    # with NaN is False, so range checks and `_check_squared` pass it
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")


def _configuration(positions):
    # positions of one configuration as a finite (n, 3) float array
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"positions must have shape (n, 3), got {pos.shape}")
    _checked_finite(pos, "positions")
    return pos


def potential(positions):
    """Newtonian potential U = sum_{i<j} 1 / r_ij (positive) of (n, 3)
    positions; ValueError for any other shape."""
    _, sq = _pair_squares(_configuration(positions))
    return float(np.sum(1.0 / np.sqrt(sq)))


def gravity(positions):
    """Accelerations x_i'' = sum_{j != i} (x_j - x_i) / r_ij^3.

    positions may be (n, 3) or a batch (..., n, 3); the pairwise force is
    evaluated pointwise over the leading axes.  Raises ValueError for a
    NaN or infinite entry and CollisionError when two bodies are closer
    than COLLISION_TOL.
    """
    pos = np.asarray(positions, dtype=float)
    _checked_finite(pos, "positions")
    return _force(pos)


def _force(pos):
    # the force of (..., n, 3) positions
    _, _, diff_matrix, scatter = _pairs(pos.shape[-2])
    return _pair_force(diff_matrix @ pos, scatter)


def _pair_force(d, scatter):
    # the force from the pair differences d = x_j - x_i, (..., P, 3): the
    # `_pairs` scatter, its columns weighted by r^-3, adds d to body i and
    # subtracts it from body j.  A scatter with zero rows added returns
    # zero rows there
    return (scatter * (_checked_squares(d) ** -1.5)[..., None, :]) @ d


def force_jacobian(positions):
    """Derivative of `gravity` with respect to positions.

    Returns the (3n, 3n) matrix of d(acceleration_i)/d(position_j) blocks,
    or a (..., 3n, 3n) batch for (..., n, 3) positions: the action of
    `_force_jacobian_apply` on the 3n unit displacements.  Raises
    CollisionError when two bodies are closer than COLLISION_TOL.
    """
    pos = np.asarray(positions, dtype=float)
    _checked_finite(pos, "positions")
    n = pos.shape[-2]
    unit = np.broadcast_to(np.eye(3 * n).reshape(n, 3, 3 * n),
                           pos.shape + (3 * n,))
    cols = np.concatenate([pos[..., None], unit], axis=-1)
    jac = _force_jacobian_apply(cols, _pairs(n)[3])[..., 1:]
    return jac.reshape(*jac.shape[:-3], 3 * n, 3 * n)


def _force_jacobian_apply(cols, scatter):
    # the force F at the positions x = cols[..., 0] in column 0, and the
    # force Jacobian J at x applied to every other column of cols
    # (..., n, 3, k): `_pair_jacobian_apply` of the columns' pair
    # differences
    shape = cols.shape
    n, k, lead = shape[-3], shape[-1], shape[:-3]
    rel = (_pairs(n)[2] @ cols.reshape(lead + (n, 3 * k))).reshape(
        lead + (-1, 3, k))
    return _pair_jacobian_apply(rel, scatter).reshape(shape)


def _pair_jacobian_apply(rel, scatter):
    # F in column 0 and J applied to every other column, as (..., n, 3k),
    # from the pair differences rel = c_j - c_i, (..., P, 3, k), of a stack
    # of position columns c, column 0 the positions x, in one pass over the
    # pairs times the `_pairs` scatter.  Pair p = (i, j) gives the rank-one
    # form of (I / r^3 - 3 d d^T / r^5) rel, d = x_j - x_i, which the
    # scatter adds to body i and subtracts from body j; column 0 keeps only
    # the isotropic term d / r^3, the pair's force.  The front end's
    # `_check_squared` runs before any division
    d = rel[..., 0]
    # d . rel of every column, (..., P, 1, k); column 0 holds r^2
    proj = d[..., None, :] @ rel
    sq = proj[..., 0, 0]
    _check_squared(sq)
    # the pair weights r^-3 go into the scatter; weight is taken before
    # proj, and so sq, is scaled in place
    weight = sq ** -1.5
    proj *= (3.0 / sq)[..., None, None]
    proj[..., 0] = 0.0
    g = rel - d[..., None] * proj
    return (scatter * weight[..., None, :]) @ g.reshape(
        rel.shape[:-3] + (-1, 3 * rel.shape[-1]))


def wintner_matrix(positions):
    """Matrix of the variational equation z'' = W z normal to the plane.

    Off diagonal W_ij = 1 / r_ij^3 and the diagonal makes every row sum
    vanish.  W is symmetric and its spectrum is nonpositive for planar
    central configurations.  positions must be (n, 3): ValueError
    otherwise.
    """
    pos = _configuration(positions)
    _, sq = _pair_squares(pos)
    # gravity is linear in the positions at fixed r^-3: W x = F(x)
    _, _, diff_matrix, scatter = _pairs(len(pos))
    return scatter @ ((sq ** -1.5)[:, None] * diff_matrix)


@dataclass
class NGonSystem:
    """Unit-mass regular n-gon relative equilibrium at a given scale.

    Vertices sit at scale * (cos(2 pi j / n), sin(2 pi j / n), 0), the
    rows of the (n, 3) array `positions`.  The
    rigid rotation at frequency `omega1` solves Newton's equations; the
    identity n * omega1(1)^2 = U(unit n-gon) fixes the frequency.  An n
    that is not an integer >= 3 (bool refused), or a scale that is not
    finite and positive, raises ValueError.
    """

    n: int
    scale: float = 1.0
    positions: np.ndarray = field(init=False)
    omega1: float = field(init=False)

    def __post_init__(self):
        self.n = _checked_bodies(self.n)
        _checked_positive(self.scale, "scale")
        j = np.arange(self.n)
        ang = 2.0 * np.pi * j / self.n
        pos = self.scale * np.stack(
            [np.cos(ang), np.sin(ang), np.zeros_like(ang)], axis=1)
        self.positions = pos
        u_unit = potential(pos / self.scale)
        self.omega1 = np.sqrt(u_unit / self.n) * self.scale ** -1.5

    def rho(self, d):
        """Distance between vertices d apart: 2 scale sin(pi d / n)."""
        return 2.0 * self.scale * np.sin(np.pi * (d % self.n) / self.n)

    def rigid_loop(self, omega=None, n_samples=512):
        """Loop of the n-gon rigidly rotating at frequency omega.

        Defaults to the proper frequency, for which the loop solves
        Newton's equations.  Period is 2 pi / |omega|.  Raises ValueError,
        before any work, unless n_samples is a positive integer and omega
        finite and nonzero.
        """
        n_samples = _checked_count(n_samples, "n_samples")
        if omega is None:
            omega = self.omega1
        _checked_positive(abs(omega), "|omega|")
        period = 2.0 * np.pi / abs(omega)
        t = np.arange(n_samples) * (period / n_samples)
        ang = omega * t[:, None] + 2.0 * np.pi * np.arange(self.n)[None, :] / self.n
        pos = self.scale * np.stack(
            [np.cos(ang), np.sin(ang), np.zeros_like(ang)], axis=2)
        return LoopPath(pos, period)


def _fourier_multiplier(m, period, order):
    k = np.fft.fftfreq(m, d=period / m)
    mult = (2j * np.pi * k) ** order
    if m % 2 == 0 and order % 2 == 1:
        mult[m // 2] = 0.0
    return mult


def _fold_spectrum(coef, m, n_samples):
    # half spectrum (..., m // 2 + 1, n, 3) of a real m-sample interpolant
    # to the half spectrum (..., n_samples // 2 + 1, n, 3) of its values on
    # n_samples points: the full spectrum over k = -(m // 2) .. m // 2, an
    # even m's Nyquist term split evenly between +-m / 2, padded to whole
    # blocks of n_samples consecutive frequencies; each column of the
    # blocks holds one residue, starting at -(m // 2).  Scales coef's
    # Nyquist bin in place
    if m % 2 == 0:
        coef[..., -1, :, :] *= 0.5
    full = np.concatenate([np.conj(coef[..., :0:-1, :, :]), coef], axis=-3)
    lead, tail = full.shape[:-3], full.shape[-2:]
    full = np.concatenate(
        [full, np.zeros(lead + (-full.shape[-3] % n_samples,) + tail)],
        axis=-3)
    folded = full.reshape(lead + (-1, n_samples) + tail).sum(axis=-4)
    return np.roll(folded, -(m // 2), axis=-3)[..., :n_samples // 2 + 1, :, :]


@dataclass
class LoopPath:
    """Periodic path of n bodies sampled uniformly over one period.

    positions[i] is the (n, 3) configuration at time i * period / m,
    i = 0 .. m-1 (the final endpoint is omitted).  Sampling is uniform so
    derivatives and off-grid values come from trigonometric interpolation.
    Values on shifted uniform grids (`on_grid`, `resample`) come from a
    phase shift of the samples' FFT.  A period that is not finite and
    positive raises ValueError.
    """

    positions: np.ndarray
    period: float

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 3 or self.positions.shape[2] != 3 \
                or self.positions.shape[0] == 0:
            raise ValueError("positions must have shape (m, n, 3), m >= 1")
        _checked_finite(self.positions, "positions")
        _checked_positive(self.period, "period")

    @property
    def n_samples(self):
        return self.positions.shape[0]

    @property
    def n_bodies(self):
        return self.positions.shape[1]

    @property
    def times(self):
        m = self.n_samples
        return np.arange(m) * (self.period / m)

    @classmethod
    def from_function(cls, fun, period, n_samples=512):
        """Loop of fun(t) on n_samples uniform times over one period;
        ValueError, before fun is called, unless n_samples is a positive
        integer."""
        n_samples = _checked_count(n_samples, "n_samples")
        t = np.arange(n_samples) * (period / n_samples)
        pos = np.stack([np.asarray(fun(ti), dtype=float) for ti in t])
        return cls(pos, period)

    def derivative(self, order=1):
        """Time derivative of the sampled path, by Fourier differentiation.

        order must be a non-negative integer (bool refused): ValueError,
        before any FFT, otherwise.
        """
        order = _checked_int(order, "order", "a non-negative integer")
        if order < 0:
            raise ValueError(f"order must be a non-negative integer: {order}")
        return self._derivatives(order)[0]

    def _derivatives(self, *orders):
        # the derivatives of the given orders, from one forward FFT
        coef = np.fft.fft(self.positions, axis=0)
        return [np.real(np.fft.ifft(coef * _fourier_multiplier(
            self.n_samples, self.period, order)[:, None, None], axis=0))
            for order in orders]

    def velocities(self):
        return self.derivative(1)

    def on_grid(self, offsets, n_samples):
        """Trigonometric interpolant at offset + j * period / n_samples,
        j = 0 .. n_samples-1, for one offset or a 1-D array of them.

        Returns (n_samples, n, 3) for one offset and (S, n_samples, n, 3)
        for S offsets, from one real FFT of the m samples and one batched
        inverse real FFT, in O(m log m + S n_samples log n_samples).  The
        interpolant sums frequency k of the samples' FFT, 0 <= k <= m / 2,
        with its conjugate at -k; an even m's Nyquist bin k = m / 2 counts
        once, as the real part of its term.  Bin k is turned by
        exp(2 pi i k offset / period) and lands on bin k mod n_samples of
        the grid, since exp(2 pi i k j / n_samples) depends on no more; for
        n_samples = m no bin moves, otherwise `_fold_spectrum` adds the
        bins up.  Raises ValueError, before any FFT, unless n_samples is a
        positive integer and the offsets are finite and at most 1-D.
        """
        n_samples = _checked_count(n_samples, "n_samples")
        offsets = np.asarray(offsets, dtype=float)
        if offsets.ndim > 1:
            raise ValueError(
                f"offsets must be a number or a 1-D array, got {offsets.shape}")
        _checked_finite(offsets, "offset")
        m = self.n_samples
        phase = np.exp(2j * np.pi * (offsets / self.period)[..., None]
                       * np.arange(m // 2 + 1))
        coef = np.fft.rfft(self.positions, axis=0) * phase[..., None, None]
        if n_samples != m:
            coef = _fold_spectrum(coef, m, n_samples)
        return np.fft.irfft(coef, n_samples, axis=-3) * (n_samples / m)

    def resample(self, n_samples):
        return LoopPath(self.on_grid(0.0, n_samples), self.period)


def jay(vectors):
    """Generator of vertical rotations: (x, y, z) -> (-y, x, 0)."""
    out = np.zeros_like(vectors)
    out[..., 0] = -vectors[..., 1]
    out[..., 1] = vectors[..., 0]
    return out


def kinetic_energy(loop, varpi=0.0):
    """Sampled kinetic energy (1/2) sum |y' + varpi J y|^2; ValueError
    unless varpi is finite."""
    _checked_finite(varpi, "varpi")
    vel = loop.velocities() + varpi * jay(loop.positions)
    return _kinetic(vel)


def _kinetic(vel):
    # (1/2) sum |v|^2 over the body axis of (..., n, 3) velocities
    return 0.5 * np.einsum("...jc,...jc->...", vel, vel)


def action(loop, varpi=0.0):
    """Lagrangian action of a loop in a frame rotating at rate varpi.

    A = integral over one period of (1/2) sum_i |y_i' + varpi J y_i|^2
    + U(y).  The loop samples are taken as rotating-frame coordinates;
    varpi = 0 is the inertial action.  Quadrature is the trapezoid rule on
    the uniform grid, which is spectrally accurate for smooth loops.
    ValueError unless varpi is finite.
    """
    kin = kinetic_energy(loop, varpi)
    _, sq = _pair_squares(loop.positions)
    return float(np.mean(kin + np.sum(1.0 / np.sqrt(sq), axis=-1))
                 * loop.period)


def rescale(loop, lam):
    """Homogeneity rescaling x -> lam^(-2/3) x(lam t).

    Maps solutions to solutions; the period becomes period / lam and the
    action scales by lam^(-1/3).  Raises ValueError unless lam is finite
    and positive.
    """
    _checked_positive(lam, "lam")
    return LoopPath(loop.positions * lam ** (-2.0 / 3.0), loop.period / lam)


def newton_residual(loop, varpi=0.0):
    """Sup-norm residual of Newton's equations along the loop.

    In the rotating frame: y'' - F(y) - varpi^2 P_h y + 2 varpi J y',
    with P_h the horizontal projection.  Derivatives are spectral, so the
    value is meaningful only for smooth well-sampled loops.  ValueError
    unless varpi is finite.
    """
    _checked_finite(varpi, "varpi")
    frc = _force(loop.positions)
    acc, vel = loop._derivatives(2, 1)
    cen = varpi ** 2 * loop.positions * [1.0, 1.0, 0.0]
    res = acc - frc - cen + 2.0 * varpi * jay(vel)
    return float(np.max(np.abs(res)))


def angular_momentum_z(loop, varpi=0.0):
    """Vertical angular momentum along the loop (inertial value).

    For rotating-frame samples this is sum (y x (y' + varpi J y))_z,
    a first integral of the equations of motion.  ValueError unless varpi
    is finite.
    """
    _checked_finite(varpi, "varpi")
    vel = loop.velocities() + varpi * jay(loop.positions)
    return _lz(loop.positions, vel)


def _lz(pos, vel):
    # sum (x v_y - y v_x) over the body axis of (..., n, 3) arrays
    return np.einsum("...j->...",
                     pos[..., 0] * vel[..., 1] - pos[..., 1] * vel[..., 0])
