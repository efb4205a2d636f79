"""Independent references for the benchmark's correctness gate.

Nothing here imports the package: each value comes from a closed form, a
brute force over the group's defining congruences, or a second numerical
method written out again, so a defect in the routine being checked cannot
also hide in its check.
"""

from fractions import Fraction
from math import gcd

import numpy as np

TWO_PI = 2.0 * np.pi


def ngon_positions(n, radius=1.0):
    ang = TWO_PI * np.arange(n) / n
    return radius * np.stack([np.cos(ang), np.sin(ang), np.zeros(n)], axis=1)


def wintner_frequencies(n):
    """Distinct vertical frequencies of the unit n-gon, ascending.

    Eigenvalues of the vertical variational matrix W (W_ij = 1/r_ij^3 off
    the diagonal, zero row sums) by a dense symmetric eigensolver; the zero
    mode is dropped and the doubled modes counted once.
    """
    pos = ngon_positions(n)
    dist = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
    np.fill_diagonal(dist, np.inf)
    w = dist ** -3.0
    np.fill_diagonal(w, -w.sum(axis=1))
    lam = np.linalg.eigvalsh(w)
    freqs = np.sort(np.sqrt(-lam[lam < -1e-9 * np.abs(lam).max()]))
    keep = [freqs[0]]
    for f in freqs[1:]:
        if f - keep[-1] > 1e-9 * f:
            keep.append(f)
    return np.array(keep)


def mode_frequency(n, k):
    """Vertical frequency of mode k: sqrt(-lambda_k) of the circulant W."""
    d = np.arange(1, n)
    chord3 = (2.0 * np.sin(np.pi * d / n)) ** 3
    return float(np.sqrt(np.sum((1.0 - np.cos(TWO_PI * k * d / n)) / chord3)))


def relative_equilibrium(spec):
    """(varpi, action, L_z) of the family's zero-amplitude record.

    The n-gon rotates at X = 2 pi omega_1 / omega_k in time units where the
    loop period is s, with radius a = (omega_1 / X)^(2/3) from Kepler's law
    (omega_1 is both the rotation rate of the unit n-gon and its first
    vertical frequency).  The frame turns at varpi = X - 2 pi r/s, the
    Lagrangian is constant at (3/2) n a^2 X^2, and L_z = n a^2 X.
    """
    n, k, _, r, s = spec
    w1 = mode_frequency(n, 1)
    x = TWO_PI * w1 / mode_frequency(n, k)
    a2 = (w1 / x) ** (4.0 / 3.0)
    return x - TWO_PI * r / s, 1.5 * n * a2 * x * x * s, n * a2 * x


def branch_action(spec, varpi):
    """Action of the relative-equilibrium branch at frame rate varpi."""
    n, _, _, r, s = spec
    x = np.asarray(varpi) + TWO_PI * r / s
    return 1.5 * s * n * mode_frequency(n, 1) ** (4.0 / 3.0) * x ** (2.0 / 3.0)


GAMMA_P12 = (12.0 / 19.0) * (6.0 * np.pi ** 7) ** (1.0 / 3.0)


def _spectral_velocity(positions, period):
    m = positions.shape[0]
    freq = np.fft.fftfreq(m, d=period / m)
    mult = 2j * np.pi * freq
    if m % 2 == 0:
        mult[m // 2] = 0.0
    coef = np.fft.fft(positions, axis=0)
    return np.real(np.fft.ifft(coef * mult[:, None, None], axis=0))


def loop_invariants(positions, period, varpi):
    """(action, L_z samples) of a uniformly sampled rotating-frame loop.

    Trapezoid rule on the uniform grid with Fourier velocities, the pair
    potential summed directly; unit masses.
    """
    vel = _spectral_velocity(positions, period)
    x, y = positions[..., 0], positions[..., 1]
    inertial = vel.copy()
    inertial[..., 0] -= varpi * y
    inertial[..., 1] += varpi * x
    kinetic = 0.5 * np.sum(inertial ** 2, axis=(1, 2))
    n = positions.shape[1]
    iu, ju = np.triu_indices(n, k=1)
    gaps = np.linalg.norm(positions[:, iu] - positions[:, ju], axis=-1)
    pot = np.sum(1.0 / gaps, axis=1)
    lz = np.sum(x * inertial[..., 1] - y * inertial[..., 0], axis=1)
    return float(np.mean(kinetic + pot) * period), lz


def is_choreography_bruteforce(spec):
    """Some element with no isometry part cycles all N bodies.

    Walks the 4Ns elements (delta, beta, lift, xi) of G_{r/s}(N, k, eta)
    with time shift theta = beta/2 + k eta delta / N + lift (mod s) and
    rotation alpha = (r/s) theta - delta/N (mod 1).
    """
    n, k, eta, r, s = spec
    for delta in range(n):
        if gcd(delta, n) != 1:
            continue
        for lift in range(s):
            theta = (Fraction(k * eta * delta, n) + lift) % s
            if (Fraction(r, s) * theta - Fraction(delta, n)) % 1 == 0:
                return True
    return False
