"""Global action-minimization bounds for the vertical Lyapunov families.

In a frame rotating at frequency varpi, the n-gon relative equilibrium
with rotating-frame frequency 2 pi r/s is the sole absolute minimizer
of the action among s-periodic G_{r/s}(N,k,eta)-symmetric loops as soon
as X = varpi + 2 pi r/s lies in the interval [-min(V, H-), +min(V, H+)]
computed here (units normalized so the loop period is s).

The certificate is a comparison functional built from the reference
central configuration: Jensen on the potential, a Poincare-type
inequality with constant lambda^G on the kinetic part.  lambda^G itself
reduces to an explicit scan over the invariant vertical and horizontal
modes of the variational equation, which doubles as a brute-force
oracle for the closed-form bounds.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .ngon import Configuration, LoopPath, pair_terms, potential
from .spectrum import VerticalSpectrum, fold_mode, vertical_spectrum
from .symmetry import GroupSpec

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class BoundReport:
    """Guaranteed-minimizer interval for X = varpi + 2 pi r/s."""

    spec: GroupSpec
    V: float
    H_plus: float
    H_minus: float
    interval: Tuple[float, float]


@dataclass(frozen=True)
class BarActionParams:
    """Coefficients of the comparison functional.

    mu_bar[i, j] = m_i m_j / rbar_ij^3 built from the mutual distances
    of a reference central configuration with potential U_bar;
    lambda_G is the Poincare constant of the loop class.
    """

    mu_bar: np.ndarray
    U_bar: float
    lambda_G: float

    @classmethod
    def from_configuration(cls, positions, masses=None, lambda_G=1.0):
        pos = np.asarray(positions, dtype=float)
        n = pos.shape[0]
        if masses is None:
            masses = np.ones(n)
        masses = np.asarray(masses, dtype=float)
        u_bar = potential(Configuration(pos, masses.copy()))
        mu = np.outer(masses, masses) * pair_terms(pos)[2]
        return cls(mu_bar=mu, U_bar=u_bar, lambda_G=float(lambda_G))


def _resolve(spec: GroupSpec, spectrum: Optional[VerticalSpectrum]):
    if spectrum is None:
        spectrum = vertical_spectrum(spec.n_bodies)
    if spectrum.n_bodies != spec.n_bodies:
        raise ValueError("spectrum does not match spec body count")
    return spectrum


def hessian_vertical(n: int, k: int, omega: float, varpi: float) -> float:
    """Second variation coefficient (1 - (omega+varpi)^2) omega_k^2 of the
    action at the relative equilibrium along the k-th vertical mode, in
    units with unit reference frequency.  Vanishes exactly at the
    Lyapunov bifurcations varpi = +-1 - omega."""
    wk = vertical_spectrum(n).omega(k)
    return (1.0 - (omega + varpi) ** 2) * wk ** 2


def vertical_bound_V(spec: GroupSpec,
                     spectrum: Optional[VerticalSpectrum] = None) -> float:
    """V = inf_{p >= 0} (omega_1 / omega_{(1+2p) k eta}) (1+2p) 2 pi.

    Mode indices are folded into 1..n/2; multiples of N are skipped (no
    such invariant mode).  Candidates grow linearly in p, so the scan
    stops once the odd multiplier exceeds omega_max/omega_1.
    """
    spectrum = _resolve(spec, spectrum)
    n, ke = spec.n_bodies, spec.k * spec.eta
    w1, wmax = spectrum.omega1, spectrum.omega_max
    p_stop = int(np.ceil(wmax / w1)) + n
    best = np.inf
    for p in range(p_stop + 1):
        m = fold_mode(n, (1 + 2 * p) * ke)
        if m == 0:
            continue
        best = min(best, (w1 / spectrum.omega(m)) * (1 + 2 * p) * TWO_PI)
    return best


def _h_one_side(n, ke, spectrum, sign):
    """inf over the p>0 candidates 4 p pi w1/(w1 + w_{1 -+ 2pke}) and
    4 p pi w1/(w_{1 +- 2pke} - w1), capped at 4 pi; sign=+1 gives H+."""
    w1, wmax = spectrum.omega1, spectrum.omega_max
    best = 2.0 * TWO_PI
    p_stop = int(np.ceil(wmax / w1)) + n + 1
    for p in range(1, p_stop + 1):
        m = fold_mode(n, 1 - sign * 2 * p * ke)
        if m != 0:
            best = min(best, 2 * p * TWO_PI * w1 / (w1 + spectrum.omega(m)))
        m = fold_mode(n, 1 + sign * 2 * p * ke)
        if m != 0:
            den = spectrum.omega(m) - w1
            if den > 0:
                best = min(best, 2 * p * TWO_PI * w1 / den)
    return best


def horizontal_bounds_H(spec: GroupSpec,
                        spectrum: Optional[VerticalSpectrum] = None
                        ) -> Tuple[float, float]:
    """(H+, H-) from the complete infimum over invariant horizontal modes.

    Every admissible p contributes; in particular the first admissible
    index is kept on both sides (dropping it can inflate a bound by a
    factor of the next p, without changing the final clipped interval
    whenever V is the smaller constraint).
    """
    spectrum = _resolve(spec, spectrum)
    n, ke = spec.n_bodies, spec.k * spec.eta
    h_plus = _h_one_side(n, ke, spectrum, +1)
    h_minus = _h_one_side(n, ke, spectrum, -1)
    return h_plus, h_minus


def absolute_interval(spec: GroupSpec,
                      spectrum: Optional[VerticalSpectrum] = None
                      ) -> BoundReport:
    """Certified interval -min(V, H-) <= varpi + 2 pi r/s <= min(V, H+)."""
    spectrum = _resolve(spec, spectrum)
    v = vertical_bound_V(spec, spectrum)
    h_plus, h_minus = horizontal_bounds_H(spec, spectrum)
    return BoundReport(
        spec=spec, V=v, H_plus=h_plus, H_minus=h_minus,
        interval=(-min(v, h_minus), min(v, h_plus)))


def lambda_G_bruteforce(spec: GroupSpec, spectrum: VerticalSpectrum,
                        varpi: float, p_max: int = 64) -> float:
    """Smallest Poincare eigenvalue over the listed invariant modes.

    Vertical candidates sqrt(lambda) = (w1/w_{(1+2p)ke}) (1+2p) 2pi/|X|
    for p >= 0 and horizontal candidates (w1/w_{1-2pke}) |X - 4 p pi|/|X|
    for |p| <= p_max, X = varpi + 2 pi r/s.  The p = 0 horizontal mode is
    the relative equilibrium itself and contributes exactly 1; at X = 0
    every other candidate diverges and the infimum over the listed modes
    is 1 (the unlisted escape-to-infinity modes are excluded from the
    loop class by construction).
    """
    spectrum = _resolve(spec, spectrum)
    n, ke = spec.n_bodies, spec.k * spec.eta
    w1 = spectrum.omega1
    x = varpi + TWO_PI * spec.r / spec.s
    best = 1.0
    if x == 0.0:
        return best
    for p in range(p_max + 1):
        m = fold_mode(n, (1 + 2 * p) * ke)
        if m == 0:
            continue
        root = (w1 / spectrum.omega(m)) * (1 + 2 * p) * TWO_PI / abs(x)
        best = min(best, root * root)
    for p in range(-p_max, p_max + 1):
        if p == 0:
            continue
        m = fold_mode(n, 1 - 2 * p * ke)
        if m == 0:
            continue
        root = (w1 / spectrum.omega(m)) * abs(x - 2 * p * TWO_PI) / abs(x)
        best = min(best, root * root)
    return best


def bar_action(loop: LoopPath, params: BarActionParams,
               T: Optional[float] = None) -> float:
    """Comparison functional g(sum_{i<j} mu_bar_ij xi_ij) with
    xi_ij = integral of |x_i - x_j|^2 over one period and
    g(s) = (lambda/2) s + (U_bar T)^{3/2} s^{-1/2}.

    Lies below the rotating-frame action on the loop class whenever
    lambda = lambda^G of that class; equals (lambda/2 + 1) U_bar T on
    the relative equilibrium built from the reference configuration.
    """
    if T is None:
        T = loop.period
    pos = loop.positions
    diff = pos[:, :, None, :] - pos[:, None, :, :]
    sq = (diff * diff).sum(-1).mean(axis=0) * T
    s_bar = 0.5 * float((params.mu_bar * sq).sum())
    lam = params.lambda_G
    return 0.5 * lam * s_bar + (params.U_bar * T) ** 1.5 / np.sqrt(s_bar)


def italian_bound(spectrum: VerticalSpectrum) -> float:
    """sqrt(lambda) <= inf_k omega_1/omega_k = omega_1/omega_max for the
    Italian symmetry class; strictly below 1 once n >= 4, so this class
    never certifies the n-gon as sole minimizer there."""
    return spectrum.omega1 / spectrum.omega_max
