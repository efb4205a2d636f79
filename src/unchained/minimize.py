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

V and H+- are loops over the mode index p; each index is folded once
and reads its frequency from the spectrum's list.  The oracle builds its
candidate arrays once per call and evaluates them at any number of frame
rates at once, so the CLI's four probes of one interval cost one build.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .ngon import LoopPath, _checked_count, _pair_squares, _pairs, potential
from .spectrum import fold_mode, vertical_spectrum
from .symmetry import GroupSpec

TWO_PI = 2.0 * np.pi
# default mode cutoff of the lambda^G scan
_P_MAX = 64


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

    mu_bar[p] = 1 / rbar_ij^3 (unit masses) over the pairs i < j in
    `np.triu_indices(n, 1)` order, the order of `ngon._pair_squares`,
    built from the mutual distances of a reference central configuration
    with potential U_bar; lambda_G is the Poincare constant of the loop
    class.
    """

    mu_bar: np.ndarray
    U_bar: float
    lambda_G: float

    @classmethod
    def from_configuration(cls, positions, lambda_G=1.0):
        pos = np.asarray(positions, dtype=float)
        # potential checks the shape and finiteness of pos
        u_bar = potential(pos)
        return cls(mu_bar=_pair_squares(pos)[1] ** -1.5, U_bar=u_bar,
                   lambda_G=float(lambda_G))


def vertical_bound_V(spec: GroupSpec) -> float:
    """V = inf_{p >= 0} (omega_1 / omega_{(1+2p) k eta}) (1+2p) 2 pi.

    Mode indices are folded into 1..n/2 and index the frequency list
    directly; multiples of N are skipped (no such invariant mode).
    Candidates grow linearly in p, so the scan stops once the odd
    multiplier exceeds omega_max/omega_1.
    """
    spectrum = vertical_spectrum(spec.n_bodies)
    n, ke = spec.n_bodies, spec.k * spec.eta
    w1, wmax = spectrum.omega1, spectrum.omega_max
    p_stop = int(np.ceil(wmax / w1)) + n
    omegas = spectrum.omegas.tolist()
    best = np.inf
    for p in range(p_stop + 1):
        m = fold_mode(n, (1 + 2 * p) * ke)
        if m == 0:
            continue
        best = min(best, (w1 / omegas[m - 1]) * (1 + 2 * p) * TWO_PI)
    return best


def _h_one_side(n, ke, spectrum, sign):
    """inf over the p>0 candidates 4 p pi w1/(w1 + w_{1 -+ 2pke}) and
    4 p pi w1/(w_{1 +- 2pke} - w1), capped at 4 pi; sign=+1 gives H+."""
    w1, wmax = spectrum.omega1, spectrum.omega_max
    omegas = spectrum.omegas.tolist()
    best = 2.0 * TWO_PI
    p_stop = int(np.ceil(wmax / w1)) + n + 1
    for p in range(1, p_stop + 1):
        m = fold_mode(n, 1 - sign * 2 * p * ke)
        if m != 0:
            best = min(best, 2 * p * TWO_PI * w1 / (w1 + omegas[m - 1]))
        m = fold_mode(n, 1 + sign * 2 * p * ke)
        if m != 0:
            den = omegas[m - 1] - w1
            if den > 0:
                best = min(best, 2 * p * TWO_PI * w1 / den)
    return best


def horizontal_bounds_H(spec: GroupSpec) -> Tuple[float, float]:
    """(H+, H-) from the complete infimum over invariant horizontal modes.

    Every admissible p contributes; in particular the first admissible
    index is kept on both sides (dropping it can inflate a bound by a
    factor of the next p, without changing the final clipped interval
    whenever V is the smaller constraint).
    """
    spectrum = vertical_spectrum(spec.n_bodies)
    n, ke = spec.n_bodies, spec.k * spec.eta
    h_plus = _h_one_side(n, ke, spectrum, +1)
    h_minus = _h_one_side(n, ke, spectrum, -1)
    return h_plus, h_minus


def absolute_interval(spec: GroupSpec) -> BoundReport:
    """Certified interval -min(V, H-) <= varpi + 2 pi r/s <= min(V, H+)."""
    v = vertical_bound_V(spec)
    h_plus, h_minus = horizontal_bounds_H(spec)
    return BoundReport(
        spec=spec, V=v, H_plus=h_plus, H_minus=h_minus,
        interval=(-min(v, h_minus), min(v, h_plus)))


def lambda_G_bruteforce(spec: GroupSpec, varpi: float,
                        p_max: int = _P_MAX) -> float:
    """Smallest Poincare eigenvalue over the listed invariant modes.

    Vertical candidates sqrt(lambda) = (w1/w_{(1+2p)ke}) (1+2p) 2pi/|X|
    for p >= 0 and horizontal candidates (w1/w_{1-2pke}) |X - 4 p pi|/|X|
    for |p| <= p_max, X = varpi + 2 pi r/s.  The p = 0 horizontal mode is
    the relative equilibrium itself and contributes exactly 1; at X = 0
    every other candidate diverges and the infimum over the listed modes
    is 1 (the unlisted escape-to-infinity modes are excluded from the
    loop class by construction).

    A p_max that is not a positive integer, which would list no candidate
    and certify 1 from nothing, raises ValueError, and so does a varpi
    that is not finite, whose candidates are NaN or 0.  The scan itself is
    `_lambda_G_scan` at one frame rate.
    """
    p_max = _checked_count(p_max, "p_max")
    if not -np.inf < varpi < np.inf:
        raise ValueError(f"varpi must be finite, got {varpi!r}")
    return float(_lambda_G_scan(spec, np.array([varpi]), p_max)[0])


def _lambda_G_scan(spec: GroupSpec, varpi: np.ndarray,
                   p_max: int = _P_MAX) -> np.ndarray:
    """lambda^G at each finite frame rate of the 1-D array varpi.

    Both candidate lists are built once as arrays over p (vertical
    p = 0..p_max, horizontal 0 < |p| <= p_max) and broadcast against the
    frame rates, with the same float expressions per element as a
    per-index loop, so each entry is bit-identical to one.  The mode
    folding is written out here rather than shared with
    `vertical_bound_V` and `_h_one_side`, whose scans this checks.
    Arguments are not checked: `lambda_G_bruteforce` checks them.
    """
    spectrum = vertical_spectrum(spec.n_bodies)
    n, ke = spec.n_bodies, spec.k * spec.eta
    w1 = spectrum.omega1
    x = (varpi + TWO_PI * spec.r / spec.s)[:, None]
    odd = np.arange(1, 2 * p_max + 2, 2)
    p = np.arange(-p_max, p_max + 1)
    p = p[p != 0]
    m_v, m_h = odd * ke % n, (1 - 2 * p * ke) % n
    m_v, m_h = np.minimum(m_v, n - m_v), np.minimum(m_h, n - m_h)
    keep_v, keep_h = m_v != 0, m_h != 0
    odd, m_v, p, m_h = odd[keep_v], m_v[keep_v], p[keep_h], m_h[keep_h]
    # m indexes omegas from 1; m = 0 has no transverse frequency
    w_v, w_h = spectrum.omegas[m_v - 1], spectrum.omegas[m_h - 1]
    # at X = 0 every candidate divides by zero into inf, and a tiny |X|
    # overflows it to inf, as with Python floats; inf never wins the
    # minimum, so X = 0 gives 1
    with np.errstate(over="ignore", divide="ignore"):
        ax = np.abs(x)
        root_v = (w1 / w_v) * odd * TWO_PI / ax
        root_h = (w1 / w_h) * np.abs(x - 2 * p * TWO_PI) / ax
        best = np.minimum(np.min(root_v * root_v, axis=1, initial=1.0),
                          np.min(root_h * root_h, axis=1, initial=1.0))
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
    # a collision loop is in the class, so no separation check
    diff = _pairs(loop.n_bodies)[2] @ loop.positions
    xi = (diff * diff).sum(-1).mean(axis=0) * T
    s_bar = float(params.mu_bar @ xi)
    lam = params.lambda_G
    return 0.5 * lam * s_bar + (params.U_bar * T) ** 1.5 / np.sqrt(s_bar)
