"""Normal-mode spectra of the regular N-gon relative equilibrium.

Vertical frequencies come from the circulant interaction matrix in closed
form.  The horizontal (planar) spectrum is obtained by a dense eigensolve
of the rotating-frame linearization restricted to the translation-free
subspace.  Also provides the model two-frequency loops (Lyapunov
cylinders), the Pacella-Moeckel frequency test, and the quadratic energy
forms used in the convexity argument for vertical mode subspaces.

Both spectra depend on n alone, so each is computed once per n in a
process and shared by every caller: their arrays are read-only, and a
caller that wants to modify one copies it first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSystem
from .ngon import (LoopPath, _checked_count, build_ngon, force_jacobian,
                   wintner_matrix)
from .symmetry import GroupSpec

__all__ = [
    "VerticalSpectrum",
    "HorizontalSpectrum",
    "ConvexityReport",
    "vertical_spectrum",
    "check_monotone",
    "horizontal_spectrum",
    "pacella_moeckel",
    "lyapunov_cylinder",
    "convexity_report",
    "fold_mode",
    "zero_mean_basis",
]

# |Re z| below this fraction of |z| counts as purely imaginary.
IMAG_CLASSIFY_TOL = 1e-8


def fold_mode(n: int, m: int) -> int:
    """Reduce an integer mode index to its representative in 0..floor(n/2).

    Vertical modes m and -m (and m + n) share one frequency; the
    representative is the distance from m to the nearest multiple of n.
    A result of 0 marks a resonant index with no transverse frequency.
    """
    f = m % n
    return min(f, n - f)


@dataclass(frozen=True)
class VerticalSpectrum:
    """Eigenvalues of the vertical variational equation z'' = W z.

    lambdas[k] for k = 0..floor(n/2); lambda_0 = 0 is kept for
    bookkeeping.  omegas[k-1] = sqrt(-lambda_k) are the vertical
    frequencies, indexed from k = 1.  `vertical_spectrum` shares one
    instance per n, so both arrays are read-only; copy them to modify.
    """

    n_bodies: int
    lambdas: np.ndarray
    omegas: np.ndarray

    @property
    def omega1(self) -> float:
        return float(self.omegas[0])

    @property
    def omega_max(self) -> float:
        return float(self.omegas[-1])

    @property
    def ratios(self) -> np.ndarray:
        """omega_k / omega_1 for k = 1..floor(n/2)."""
        return self.omegas / self.omegas[0]

    def omega(self, m: int) -> float:
        """Frequency of an arbitrary integer mode index, folded mod n.

        Raises DegenerateSystem when the index folds to 0 (resonant
        direction along the rotation, no transverse oscillation).
        """
        f = fold_mode(self.n_bodies, m)
        if f == 0:
            raise DegenerateSystem(
                f"mode {m} folds to 0 mod {self.n_bodies}; no vertical frequency"
            )
        return float(self.omegas[f - 1])


def _checked_bodies(n):
    # a body count: an integer n >= 3, returned as int.  Checked before
    # any cache lookup, since 3.0 == 3 would share a cache entry with 3
    n = _checked_count(n, "n")
    if n < 3:
        raise ValueError(f"need at least 3 bodies, got {n}")
    return n


def vertical_spectrum(n: int) -> VerticalSpectrum:
    """Vertical frequencies of the unit-circumradius regular n-gon.

    lambda_k = -sum_{j=1}^{n-1} (1 - cos(2 pi j k / n)) / rho_j^3 with
    rho_j = 2 sin(pi j / n) the polygon chord lengths.  Computed once per
    n in a process: every call with the same n returns the same instance,
    whose arrays are read-only.  Raises ValueError unless n is an integer
    >= 3.
    """
    return _vertical_spectrum(_checked_bodies(n))


@functools.cache
def _vertical_spectrum(n):
    # cached per n, so read-only
    j = np.arange(1, n)
    rho3 = (2.0 * np.sin(np.pi * j / n)) ** 3
    k = np.arange(0, n // 2 + 1)
    lam = -np.sum((1.0 - np.cos(2.0 * np.pi * np.outer(k, j) / n)) / rho3, axis=1)
    lam[0] = 0.0
    omegas = np.sqrt(-lam[1:])
    for a in (lam, omegas):
        a.flags.writeable = False
    return VerticalSpectrum(n_bodies=n, lambdas=lam, omegas=omegas)


def check_monotone(n: int) -> bool:
    """True iff lambda_k is negative and strictly decreasing for k = 1..floor(n/2)."""
    lam = vertical_spectrum(n).lambdas[1:]
    return bool(np.all(lam < 0.0) and np.all(np.diff(lam) < 0.0))


def pacella_moeckel(n: int) -> bool:
    """True iff some vertical frequency exceeds omega_1 (holds iff n >= 4)."""
    spec = vertical_spectrum(n)
    return bool(spec.omega_max > spec.omega1)


@dataclass(frozen=True)
class HorizontalSpectrum:
    """Linearization eigenvalues of the planar problem at the n-gon.

    Eigenvalues are stored in units of omega_1 with the trivial modes
    (uniform translations and the rotation/angular-momentum pair)
    removed, leaving 4n - 6 values including the Kepler pair +-i.
    `horizontal_spectrum` shares one instance per n, so `eigenvalues` is
    read-only; copy it to modify.
    """

    n_bodies: int
    eigenvalues: np.ndarray
    omega1: float

    @property
    def raw_eigenvalues(self) -> np.ndarray:
        """Eigenvalues in natural (unscaled) units."""
        return self.eigenvalues * self.omega1

    def purely_imaginary(self) -> np.ndarray:
        """Subset with |Re z| < IMAG_CLASSIFY_TOL * |z| (plus exact zeros)."""
        z = self.eigenvalues
        mask = np.abs(z.real) < IMAG_CLASSIFY_TOL * np.maximum(np.abs(z), 1e-300)
        return z[mask]


def zero_mean_basis(n: int) -> np.ndarray:
    """Orthonormal basis (n x (n-1)) of vectors with zero component sum.

    Columns are the classical contrasts (1,...,1,-m,0,...)/norm; exact
    invariance of the linearized dynamics on this subspace removes the
    uniform-translation modes without any tolerance.
    """
    basis = np.zeros((n, n - 1))
    for m in range(1, n):
        v = np.zeros(n)
        v[:m] = 1.0
        v[m] = -float(m)
        basis[:, m - 1] = v / np.linalg.norm(v)
    return basis


def _planar_jacobian(n: int) -> np.ndarray:
    """(2n x 2n) horizontal block of the force Jacobian at the unit n-gon.

    The configuration is planar, so the 3D Jacobian is block diagonal in
    horizontal/vertical components and the slice is exact.
    """
    pos = build_ngon(n).configuration.positions
    full = force_jacobian(pos, np.ones(n))
    idx = np.concatenate([(3 * j + np.array([0, 1])) for j in range(n)])
    return full[np.ix_(idx, idx)]


def horizontal_spectrum(n: int) -> HorizontalSpectrum:
    """Planar linearization spectrum at the n-gon, in units of omega_1.

    Builds the first-order rotating-frame system on (positions,
    velocities), restricts it to the translation-free subspace, and drops
    the double zero eigenvalue of the rotation degeneracy.  The Kepler
    pair +-i is part of the reported spectrum.  Computed once per n in a
    process: every call with the same n returns the same instance, whose
    `eigenvalues` are read-only.  Raises ValueError unless n is an
    integer >= 3.
    """
    return _horizontal_spectrum(_checked_bodies(n))


@functools.cache
def _horizontal_spectrum(n):
    # cached per n, so read-only
    w1 = build_ngon(n).omega1
    df = _planar_jacobian(n)
    jrot = np.kron(np.eye(n), np.array([[0.0, -1.0], [1.0, 0.0]]))
    dim = 2 * n
    a = np.block(
        [
            [np.zeros((dim, dim)), np.eye(dim)],
            [df + w1**2 * np.eye(dim), -2.0 * w1 * jrot],
        ]
    )
    b2 = np.kron(zero_mean_basis(n), np.eye(2))
    basis = np.block(
        [[b2, np.zeros_like(b2)], [np.zeros_like(b2), b2]]
    )
    ev = np.linalg.eigvals(basis.T @ a @ basis) / w1
    # the rotation/angular-momentum degeneracy survives the restriction as
    # a double zero; everything else is bounded away from 0
    order = np.argsort(np.abs(ev))
    kept = ev[order[2:]]
    if np.abs(ev[order[1]]) > 1e-6 or np.abs(kept).min() < 1e-3:
        raise DegenerateSystem(f"zero-mode separation failed for n={n}")
    kept = np.sort_complex(kept)
    kept.flags.writeable = False
    return HorizontalSpectrum(n_bodies=n, eigenvalues=kept, omega1=w1)


def lyapunov_cylinder(
    n: int,
    k: int,
    eta: int,
    r: int,
    s: int,
    amplitude: float,
) -> LoopPath:
    """Model two-frequency loop tangent to a vertical Lyapunov family.

    In the frame where the n-gon advances r turns while the vertical mode
    (k, eta) completes s oscillations, the motion

        x_j(t) = (zeta^j e^{i (r/s) w_k t},  A Re(zeta^{eta k j} e^{i w_k t}))

    closes up over T = 2 pi s / w_k.  The horizontal part is the rigid
    unit n-gon (exact only in the zero-amplitude limit); the vertical
    part solves the vertical variational equation exactly.

    The sample count is a multiple of 2 n s so that the symmetry group
    acts on the time grid by exact index shifts.  (n, k, eta, r, s) must
    name a `GroupSpec`.
    """
    GroupSpec(n, k, eta, r, s)
    if amplitude < 0.0:
        raise ValueError("amplitude must be nonnegative")
    wk = vertical_spectrum(n).omegas[k - 1]
    period = 2.0 * np.pi * s / wk
    block = 2 * n * s
    n_samples = block * max(1, int(np.ceil(512 / block)))
    j = np.arange(n)

    def path(t: float) -> np.ndarray:
        ang = 2.0 * np.pi * j / n + (r / s) * wk * t
        z = amplitude * np.cos(wk * t + 2.0 * np.pi * eta * k * j / n)
        return np.stack([np.cos(ang), np.sin(ang), z], axis=-1)

    return LoopPath.from_function(path, period, n_samples)


@dataclass(frozen=True)
class ConvexityReport:
    """Quadratic energy forms on a vertical mode subspace.

    Coordinates (a, b) parametrize the vertical displacement
    z_j = a cos(2 pi l j / n) + b sin(2 pi l j / n) and (c, d) the
    vertical velocity dz_j = w_l (c sin(2 pi l j / n) + d cos(...)).
    Both matrices are Hessians (energy = constant + x^T M x / 2).  For
    l < n/2 they coincide: (n/2) w_l^2 I.  For l = n/2 the sine profile
    vanishes identically, so b (and c) span null directions and the
    restriction is only semi-definite; `definite` records l != n/2.
    """

    n_bodies: int
    ell: int
    kinetic_form: np.ndarray
    potential_form: np.ndarray
    definite: bool


def convexity_report(n: int, ell: int) -> ConvexityReport:
    """Second-order kinetic/potential forms of the vertical mode ell."""
    if not 1 <= ell <= n // 2:
        raise ValueError(f"mode index ell={ell} outside 1..{n // 2}")
    wl2 = float(vertical_spectrum(n).omegas[ell - 1] ** 2)
    phase = 2.0 * np.pi * ell * np.arange(n) / n
    # z = B (a, b) and dz = w_l P (c, d); the Hessian of -U in z is -W,
    # W the Wintner matrix
    basis = np.column_stack([np.cos(phase), np.sin(phase)])
    profile = basis[:, ::-1]
    pot = -basis.T @ wintner_matrix(build_ngon(n).configuration) @ basis
    kin = wl2 * profile.T @ profile
    return ConvexityReport(
        n_bodies=n,
        ell=ell,
        kinetic_form=kin,
        potential_form=pot,
        definite=2 * ell != n,
    )
