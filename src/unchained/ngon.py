"""Regular n-gon relative equilibria of the Newtonian n-body problem.

Bodies have unit mass and G = 1 throughout.  The regular n-gon with unit
circumradius, rigidly rotating about the vertical axis at its proper
frequency omega1, is the reference relative equilibrium.  This module
provides the configuration objects, the gravitational potential and force,
the Wintner matrix governing vertical variations, periodic paths sampled
on a uniform grid, and the Lagrangian action in a frame rotating at an
arbitrary rate varpi.

Every pairwise quantity comes from one kernel, `pair_terms`, which returns
the differences x_j - x_i, the distances r_ij and r_ij^-3.  Two bodies
closer than the single threshold COLLISION_TOL collide.  The functions that
take positions from a caller (`potential`, `wintner_matrix`, `action`,
`newton_residual`) raise CollisionError below it.  `gravity` and
`force_jacobian` do not check: they are the right-hand side of the flow,
whose terminal event in `continuation.integrate` is the collision check.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CollisionError

COLLISION_TOL = 1e-7


def pair_terms(positions):
    """Pairwise differences, distances and inverse cubed distances.

    positions is (..., n, 3).  Returns (diff, r, inv_r3) with
    diff[..., i, j] = x_j - x_i of shape (..., n, n, 3) and r, inv_r3 of
    shape (..., n, n).  The diagonal holds r = inf, so inv_r3 is 0 there
    and r.min() is the closest separation.
    """
    pos = np.asarray(positions, dtype=float)
    diff = pos[..., None, :, :] - pos[..., :, None, :]
    r = np.sqrt(np.sum(diff * diff, axis=-1))
    np.einsum("...ii->...i", r)[...] = np.inf
    return diff, r, 1.0 / r ** 3


def closest_pair(r):
    """(i, j, distance) of the closest pair in a `pair_terms` distance array.

    Over a batch (..., n, n) the pair is the closest one of all samples.
    """
    # r is symmetric, so its first minimum in row-major order has i < j
    k = np.argmin(r)
    *_, i, j = np.unravel_index(k, r.shape)
    return int(i), int(j), float(r.flat[k])


def check_separation(r):
    """Raise CollisionError when a pair in r is closer than COLLISION_TOL."""
    i, j, d = closest_pair(r)
    if d < COLLISION_TOL:
        raise CollisionError(i, j, d)


def _separated(positions):
    """`pair_terms` of positions that must be collision-free.

    A coincident pair raises CollisionError, not a division warning.
    """
    with np.errstate(divide="ignore"):
        terms = pair_terms(positions)
    check_separation(terms[1])
    return terms


def _pair_potential(r, masses):
    # U = sum_{i<j} m_i m_j / r_ij, over the leading axes of r
    return 0.5 * np.sum(np.outer(masses, masses) / r, axis=(-2, -1))


@dataclass
class Configuration:
    """Instantaneous positions of n point masses in R^3."""

    positions: np.ndarray
    masses: np.ndarray = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must have shape (n, 3)")
        if self.masses is None:
            self.masses = np.ones(self.positions.shape[0])
        self.masses = np.asarray(self.masses, dtype=float)
        if self.masses.shape != (self.positions.shape[0],):
            raise ValueError("masses must have shape (n,)")
        if np.any(self.masses <= 0):
            raise ValueError("masses must be positive")

    @property
    def n(self):
        return self.positions.shape[0]

    def center_of_mass(self):
        return self.masses @ self.positions / self.masses.sum()

    def centered(self):
        """Same configuration translated so the center of mass is 0."""
        return Configuration(self.positions - self.center_of_mass(),
                             self.masses.copy())

    def moment_of_inertia(self):
        return float(np.sum(self.masses[:, None] * self.positions ** 2))


def potential(config):
    """Newtonian potential U = sum_{i<j} m_i m_j / r_ij (positive)."""
    _, r, _ = _separated(config.positions)
    return float(_pair_potential(r, config.masses))


def gravity(positions, masses):
    """Accelerations x_i'' = sum_{j != i} m_j (x_j - x_i) / r_ij^3.

    positions may be (n, 3) or a batch (..., n, 3); the pairwise force is
    evaluated pointwise over the leading axes.  No collision check: a
    coincident pair gives an infinite or undefined force.
    """
    diff, _, inv_r3 = pair_terms(positions)
    w = np.asarray(masses, dtype=float) * inv_r3
    return np.einsum("...ij,...ijc->...ic", w, diff)


def force_jacobian(positions, masses):
    """Derivative of `gravity` with respect to positions.

    Returns the (3n, 3n) matrix of d(acceleration_i)/d(position_j) blocks,
    or a (..., 3n, 3n) batch for (..., n, 3) positions.  Like `gravity`
    it does no collision check.
    """
    diff, r, inv_r3 = pair_terms(positions)
    w = np.asarray(masses, dtype=float) * inv_r3
    # off-diagonal blocks m_j (I / r^3 - 3 d d^T / r^5)
    blocks = (w[..., None, None] * np.eye(3)
              - 3.0 * (w / r ** 2)[..., None, None]
              * diff[..., :, None] * diff[..., None, :])
    n = diff.shape[-2]
    # the diagonal block of body i is minus the sum of its row
    row_sums = blocks.sum(axis=-3)[..., :, None, :, :]
    jac = blocks - np.eye(n)[:, :, None, None] * row_sums
    return np.swapaxes(jac, -3, -2).reshape(*jac.shape[:-4], 3 * n, 3 * n)


def wintner_matrix(config):
    """Matrix of the variational equation z'' = W z normal to the plane.

    Off diagonal W_ij = m_j / r_ij^3 and the diagonal makes every row sum
    vanish.  W is symmetric with respect to the mass inner product
    <u, v> = sum_i m_i u_i v_i and its spectrum is nonpositive for planar
    central configurations.
    """
    _, _, inv_r3 = _separated(config.positions)
    w = config.masses[None, :] * inv_r3
    np.fill_diagonal(w, -w.sum(axis=1))
    return w


@dataclass
class NGonSystem:
    """Unit-mass regular n-gon relative equilibrium at a given scale.

    Vertices sit at scale * (cos(2 pi j / n), sin(2 pi j / n), 0).  The
    rigid rotation at frequency `omega1` solves Newton's equations; the
    identity n * omega1(1)^2 = U(unit n-gon) fixes the frequency.
    """

    n: int
    scale: float = 1.0
    configuration: Configuration = field(init=False)
    omega1: float = field(init=False)

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("n-gon needs n >= 3")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        j = np.arange(self.n)
        ang = 2.0 * np.pi * j / self.n
        pos = self.scale * np.stack(
            [np.cos(ang), np.sin(ang), np.zeros_like(ang)], axis=1)
        self.configuration = Configuration(pos)
        u_unit = potential(Configuration(pos / self.scale))
        self.omega1 = np.sqrt(u_unit / self.n) * self.scale ** -1.5

    def rho(self, d):
        """Distance between vertices d apart: 2 scale sin(pi d / n)."""
        return 2.0 * self.scale * np.sin(np.pi * (d % self.n) / self.n)

    @property
    def u(self):
        return potential(self.configuration)

    @property
    def moment_of_inertia(self):
        return self.configuration.moment_of_inertia()

    def rigid_loop(self, omega=None, n_samples=512):
        """Loop of the n-gon rigidly rotating at frequency omega.

        Defaults to the proper frequency, for which the loop solves
        Newton's equations.  Period is 2 pi / |omega|.
        """
        if omega is None:
            omega = self.omega1
        if omega == 0:
            raise ValueError("omega must be nonzero")
        period = 2.0 * np.pi / abs(omega)
        t = np.arange(n_samples) * (period / n_samples)
        ang = omega * t[:, None] + 2.0 * np.pi * np.arange(self.n)[None, :] / self.n
        pos = self.scale * np.stack(
            [np.cos(ang), np.sin(ang), np.zeros_like(ang)], axis=2)
        return LoopPath(pos, period)


def build_ngon(n, scale=1.0):
    """Construct the regular n-gon relative equilibrium (n >= 3)."""
    return NGonSystem(n, scale)


def _fourier_multiplier(m, period, order):
    k = np.fft.fftfreq(m, d=period / m)
    mult = (2j * np.pi * k) ** order
    if m % 2 == 0 and order % 2 == 1:
        mult[m // 2] = 0.0
    return mult


@dataclass
class LoopPath:
    """Periodic path of n bodies sampled uniformly over one period.

    positions[i] is the (n, 3) configuration at time i * period / m,
    i = 0 .. m-1 (the final endpoint is omitted).  Sampling is uniform so
    derivatives and off-grid values come from trigonometric interpolation.
    """

    positions: np.ndarray
    period: float
    masses: np.ndarray = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 3 or self.positions.shape[2] != 3:
            raise ValueError("positions must have shape (m, n, 3)")
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.masses is None:
            self.masses = np.ones(self.positions.shape[1])
        self.masses = np.asarray(self.masses, dtype=float)

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
    def from_function(cls, fun, period, n_samples=512, masses=None):
        t = np.arange(n_samples) * (period / n_samples)
        pos = np.stack([np.asarray(fun(ti), dtype=float) for ti in t])
        return cls(pos, period, masses)

    def derivative(self, order=1):
        """Time derivative of the sampled path, by Fourier differentiation."""
        coef = np.fft.fft(self.positions, axis=0)
        mult = _fourier_multiplier(self.n_samples, self.period, order)
        return np.real(np.fft.ifft(coef * mult[:, None, None], axis=0))

    def velocities(self):
        return self.derivative(1)

    def evaluate(self, t):
        """Trigonometric interpolation of positions at times t (any shape)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        coef = np.fft.fft(self.positions, axis=0) / self.n_samples
        k = np.fft.fftfreq(self.n_samples, d=self.period / self.n_samples)
        phase = np.exp(2j * np.pi * np.outer(t, k))
        vals = np.tensordot(phase, coef, axes=(1, 0))
        return np.real(vals)

    def resample(self, n_samples):
        t = np.arange(n_samples) * (self.period / n_samples)
        return LoopPath(self.evaluate(t), self.period, self.masses.copy())

    def min_separation(self):
        return float(pair_terms(self.positions)[1].min())

    def configuration_at(self, i):
        return Configuration(self.positions[i], self.masses.copy())


def vertical_rotation(angle):
    """3x3 rotation by `angle` about the vertical axis."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def jay(vectors):
    """Generator of vertical rotations: (x, y, z) -> (-y, x, 0)."""
    out = np.zeros_like(vectors)
    out[..., 0] = -vectors[..., 1]
    out[..., 1] = vectors[..., 0]
    return out


@dataclass
class RotatingFrame:
    """Frame rotating at rate varpi about the vertical axis."""

    varpi: float

    def to_inertial(self, loop):
        """Map a loop of rotating-frame coordinates to inertial ones."""
        return LoopPath(self._turn(loop, +1.0), loop.period,
                        loop.masses.copy())

    def to_rotating(self, loop):
        return LoopPath(self._turn(loop, -1.0), loop.period,
                        loop.masses.copy())

    def _turn(self, loop, sign):
        ang = sign * self.varpi * loop.times
        c, s = np.cos(ang)[:, None], np.sin(ang)[:, None]
        x, y, z = (loop.positions[..., 0], loop.positions[..., 1],
                   loop.positions[..., 2])
        return np.stack([c * x - s * y, s * x + c * y, z], axis=-1)


def kinetic_energy(loop, varpi=0.0):
    """Sampled kinetic energy (1/2) sum m |y' + varpi J y|^2."""
    vel = loop.velocities() + varpi * jay(loop.positions)
    return 0.5 * np.einsum("j,ijc,ijc->i", loop.masses, vel, vel)


def action(loop, varpi=0.0):
    """Lagrangian action of a loop in a frame rotating at rate varpi.

    A = integral over one period of (1/2) sum_i m_i |y_i' + varpi J y_i|^2
    + U(y).  The loop samples are taken as rotating-frame coordinates;
    varpi = 0 is the inertial action.  Quadrature is the trapezoid rule on
    the uniform grid, which is spectrally accurate for smooth loops.
    """
    kin = kinetic_energy(loop, varpi)
    _, r, _ = _separated(loop.positions)
    return float(np.mean(kin + _pair_potential(r, loop.masses))
                 * loop.period)


def rescale(loop, lam):
    """Homogeneity rescaling x -> lam^(-2/3) x(lam t).

    Maps solutions to solutions; the period becomes period / lam and the
    action scales by lam^(-1/3).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    return LoopPath(loop.positions * lam ** (-2.0 / 3.0), loop.period / lam,
                    loop.masses.copy())


def newton_residual(loop, varpi=0.0):
    """Sup-norm residual of Newton's equations along the loop.

    In the rotating frame: y'' - F(y) - varpi^2 P_h y + 2 varpi J y',
    with P_h the horizontal projection.  Derivatives are spectral, so the
    value is meaningful only for smooth well-sampled loops.
    """
    _separated(loop.positions)
    acc = loop.derivative(2)
    vel = loop.derivative(1)
    frc = gravity(loop.positions, loop.masses)
    cen = varpi ** 2 * np.concatenate(
        [loop.positions[..., :2], np.zeros_like(loop.positions[..., 2:])],
        axis=-1)
    res = acc - frc - cen + 2.0 * varpi * jay(vel)
    return float(np.max(np.abs(res)))


def angular_momentum_z(loop, varpi=0.0):
    """Vertical angular momentum along the loop (inertial value).

    For rotating-frame samples this is sum m (y x (y' + varpi J y))_z,
    a first integral of the equations of motion.
    """
    vel = loop.velocities() + varpi * jay(loop.positions)
    lz = np.einsum("j,ij->i", loop.masses,
                   loop.positions[..., 0] * vel[..., 1]
                   - loop.positions[..., 1] * vel[..., 0])
    return lz
