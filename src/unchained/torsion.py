"""Second-order expansion of the vertical Lyapunov families.

Units normalize the bifurcating vertical frequency to 2 pi, so the
n-gon rotates at w_hat = 2 pi omega_1/omega_k and has circumradius
A0 = (omega_1,unit / w_hat)^(2/3).  With epsilon the first vertical
harmonic of body 0, the family expands as

  h_j = e^{i(w_hat + gamma eps^2) t} [ (A0 + alpha eps^2) zeta^j
        + eps^2 (A2 e^{2 pi i(-2t + j[1]/N)}
        + Am2 e^{2 pi i(2t + j[-1]/N)}) ] + O(eps^4),
  z_j = eps cos 2 pi(t + k eta j/N)
        + C3 eps^3 cos 6 pi(t + k eta j/N) + O(eps^5),

where e^{2 pi i j[p]/N} is the body phase of the horizontal harmonic
r - 2 p s.  Matching the equations of motion at second order gives an
affine system for the unknowns (alpha, A2, Am2, C3, gamma): the
constant and e^{+-4 pi i t} parts of the horizontal equation at body 0
plus the e^{2 pi i t} and e^{6 pi i t} parts of the vertical one.
Harmonics that the symmetry group and the fixed centre of mass forbid
are excluded from the ansatz (and their equations vanish identically).
Both the exclusions and the body phases are read from
symmetry.FourierConstraints, the one statement of the group's harmonic
rules.

The torsion gamma is the leading frame-frequency shift
varpi_tilde = gamma eps^2 + O(eps^4); it depends only on (N, k, eta),
not on the resonance r/s selecting the co-rotating frame.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import DegenerateSystem
from .ngon import LoopPath, _checked_count, _checked_finite
from .spectrum import vertical_spectrum
from .symmetry import FourierConstraints, GroupSpec

TWO_PI = 2.0 * np.pi

# affine coefficient layout: constant term + the five unknowns
_CONST, _ALPHA, _A2, _AM2, _C3, _GAMMA = range(6)


@dataclass(frozen=True)
class ExpansionResult:
    """Leading coefficients of the family; excluded harmonics are None."""

    spec: GroupSpec
    A0: float
    w_hat: float
    alpha: float
    A2: Optional[float]
    Am2: Optional[float]
    C3: Optional[float]
    gamma: float


def _frequencies(n: int, k: int) -> Tuple[float, float]:
    spm = vertical_spectrum(n)
    w_hat = TWO_PI * spm.omega1 / spm.omega(k)
    a0 = (spm.omega1 / w_hat) ** (2.0 / 3.0)
    return w_hat, a0


def excluded_harmonics(spec: GroupSpec) -> Dict[str, bool]:
    """Which expansion coefficients the symmetry kills.

    Read from FourierConstraints: A2 and Am2 sit on the horizontal
    harmonics r - 2s and r + 2s, C3 on the vertical harmonic 3s.
    """
    fc = FourierConstraints(spec)
    return {
        "A2": not fc.allowed_horizontal(spec.r - 2 * spec.s),
        "Am2": not fc.allowed_horizontal(spec.r + 2 * spec.s),
        "C3": not fc.allowed_vertical(3 * spec.s),
    }


@dataclass(frozen=True)
class AffineSystem:
    """Real rows of the second-order matching equations, matrix @ w = rhs,
    with the rotation frequency w_hat and circumradius A0 they were built
    from."""

    spec: GroupSpec
    matrix: np.ndarray
    rhs: np.ndarray
    unknowns: Tuple[str, ...]
    row_labels: Tuple[str, ...]
    w_hat: float
    A0: float


def build_equations(spec: GroupSpec) -> AffineSystem:
    """Assemble the affine system in (alpha, A2, Am2, C3, gamma).

    Rows: constant and e^{+-4 pi i t} Fourier parts of the horizontal
    equation at body 0 (complex, but with real coefficients thanks to
    the l -> -l symmetry of the sums) and the e^{2 pi i t}, e^{6 pi i t}
    parts of the vertical equation.  Excluded unknowns are dropped;
    their columns are identically zero.

    Every harmonic table is an array over the harmonics -3..3 (in units
    of e^{2 pi i t}) and the six affine slots, and every per-pair
    quantity an array over the pairs (0, l), l = 1..N-1; the factors G_l
    form one (N-1, 7, 6) array.  Each equation stacks its inertial terms
    and then, pair by pair, its direct term and the weighted G_l (shifted
    by the pair's first vertical harmonic in the vertical equation), and
    sums the stack along its first axis: one weighted reduction per
    equation, adding in the order of a loop over the pairs.
    """
    n, ke = spec.n_bodies, spec.k * spec.eta
    w_hat, a0 = _frequencies(n, spec.k)
    excl = excluded_harmonics(spec)
    idx_p = {1: _A2, -1: _AM2}

    ls = np.arange(1, n)
    zl = np.exp(2j * np.pi * ls / n)
    r0l = 1.0 - zl
    rho = np.abs(r0l)
    a_l = a0 * rho
    b_l = np.sin(np.pi * ke * ls / n) ** 2 / a_l
    # zeta^{l[p]} - 1, body l's phase of the harmonic r - 2 p s, for each
    # of the two the group allows
    fc = FourierConstraints(spec)
    phases = {p: fc.horizontal_phase(spec.r - 2 * p * spec.s) for p in (1, -1)}
    zp_l = {p: u[1:] - 1.0 for p, u in phases.items() if u is not None}
    # z_l - z_0 = -2 eps sin(2 pi(t + ke l/(2n))) sin(pi ke l/n) + ...
    u_l = -2.0 * np.sin(np.pi * ke * ls / n)
    v_l = -2.0 * np.sin(3.0 * np.pi * ke * ls / n)
    # vertical phase of the pair (0, l): sin 2 pi (t + ke l / (2n))
    phase1 = np.exp(1j * np.pi * ke * ls / n)
    phase3 = phase1 ** 3
    c3 = a_l ** -3

    # the per-pair second-order factor G_l(t) of |x_l - x_0|^{-3};
    # harmonic m sits at index m + 3
    g = np.zeros((n - 1, 7, 6), dtype=complex)
    # chord inner product weights alpha by rho_l, pair by pair
    g[:, 3, _ALPHA] = rho
    g[:, 3, _CONST] = b_l
    cosphase = np.exp(2j * np.pi * ke * ls / n)
    g[:, 5, _CONST] = -0.5 * b_l * cosphase
    g[:, 1, _CONST] = -0.5 * b_l * np.conj(cosphase)
    for p, zp in zp_l.items():
        z_pl = -(r0l / rho) * np.conj(zp)
        g[:, 3 + 2 * p, idx_p[p]] = 0.5 * z_pl
        g[:, 3 - 2 * p, idx_p[p]] = 0.5 * np.conj(z_pl)

    # horizontal equation: the inertial terms, then pair by pair the direct
    # attraction and the second-order expansion of |x|^{-3} against the
    # leading chord, stacked in that order and summed along the stack
    horiz = np.zeros((2 * n - 1, 7, 6), dtype=complex)
    horiz[0, 3, _GAMMA] = -2.0 * a0 * w_hat
    horiz[0, 3, _ALPHA] = -w_hat ** 2
    horiz[1::2, 3, _ALPHA] = -c3 * (zl - 1.0)
    for p, zp in zp_l.items():
        horiz[0, 3 - 2 * p, idx_p[p]] = (
            -w_hat ** 2 + 4.0 * TWO_PI * p * w_hat - 4.0 * TWO_PI ** 2)
        horiz[1::2, 3 - 2 * p, idx_p[p]] = -c3 * zp
    chord = 3.0 * a0 * a_l ** -4 * (zl - 1.0)
    horiz[2::2] = chord[:, None, None] * g
    horiz = horiz.sum(axis=0)

    # vertical equation: e^{2 pi i t} and e^{6 pi i t} parts, stacked the
    # same way; G_l times sin 2 pi (t + ke l/(2n)) moves harmonic m to
    # m + 1 and m - 1
    vert = np.zeros((2 * n - 1, 7, 6), dtype=complex)
    vert[0, [0, 6], _C3] = -0.5 * (3.0 * TWO_PI) ** 2
    if not excl["C3"]:
        vert[1::2, 6, _C3] = -c3 * v_l * (phase3 / 2j)
        vert[1::2, 0, _C3] = -c3 * v_l * (-np.conj(phase3) / 2j)
    shaped = vert[2::2]
    shaped[:, 1:] = (phase1 / 2j)[:, None, None] * g[:, :-1]
    shaped[:, :-1] += (-np.conj(phase1) / 2j)[:, None, None] * g[:, 1:]
    shaped *= (3.0 * a_l ** -4 * u_l)[:, None, None]
    vert = vert.sum(axis=0)

    unknown_idx = [_ALPHA]
    names = ["alpha"]
    for name, idx in (("A2", _A2), ("Am2", _AM2), ("C3", _C3)):
        if not excl[name]:
            unknown_idx.append(idx)
            names.append(name)
    unknown_idx.append(_GAMMA)
    names.append("gamma")

    # rows U, V, W: horizontal harmonics 0, 2, -2; rows X, Y: vertical 1, 3;
    # each split into its real and imaginary parts
    picked = np.stack([horiz[3], horiz[5], horiz[1], vert[4], vert[6]])
    rows = np.stack([picked.real, picked.imag], axis=1).reshape(10, 6)
    return AffineSystem(spec=spec, matrix=rows[:, unknown_idx],
                        rhs=-rows[:, _CONST], unknowns=tuple(names),
                        row_labels=tuple(f"{tag}.{part}" for tag in "UVWXY"
                                         for part in ("re", "im")),
                        w_hat=w_hat, A0=a0)


def torsion_gamma(spec: GroupSpec) -> ExpansionResult:
    """Solve the matching system; gamma is the torsion of the family.

    One least-squares solve, one SVD inside LAPACK, gives both the
    solution w and the singular values sigma of the matrix m.  The rank
    test reads sigma with `np.linalg.matrix_rank`'s rule,
    sigma > 1e-9 scale (scale the largest entry of m, b and 1).  A rank
    below the number of unknowns, or a residual |m w - b| above
    1e-8 scale, raises DegenerateSystem.
    """
    system = build_equations(spec)
    m, b = system.matrix, system.rhs
    scale = max(np.abs(m).max(), np.abs(b).max(), 1.0)
    w, _, _, sigma = np.linalg.lstsq(m, b, rcond=None)
    if np.count_nonzero(sigma > 1e-9 * scale) < len(system.unknowns):
        raise DegenerateSystem(
            f"torsion system is singular for {spec}")
    residual = np.abs(m @ w - b).max()
    if residual > 1e-8 * scale:
        raise DegenerateSystem(
            f"torsion system inconsistent for {spec} (residual {residual})")
    values = dict(zip(system.unknowns, w))
    return ExpansionResult(
        spec=spec, A0=system.A0, w_hat=system.w_hat,
        alpha=float(values["alpha"]),
        A2=float(values["A2"]) if "A2" in values else None,
        Am2=float(values["Am2"]) if "Am2" in values else None,
        C3=float(values["C3"]) if "C3" in values else None,
        gamma=float(values["gamma"]),
    )


def reconstruct_loop(result: ExpansionResult, epsilon: float,
                     n_samples: int = 256) -> Tuple[LoopPath, float]:
    """Loop of the O(eps^3) expansion in its co-rotating frame.

    Returns (loop, varpi): the frame rotates at varpi = w_hat
    + gamma eps^2 - 2 pi r/s, making the truncated solution s-periodic
    with Newton residual O(eps^4).  Raises ValueError, before any work,
    unless n_samples is a positive integer and epsilon finite.
    """
    n_samples = _checked_count(n_samples, "n_samples")
    _checked_finite(epsilon, "epsilon")
    spec = result.spec
    n, ke = spec.n_bodies, spec.k * spec.eta
    jj = np.arange(n)
    c3 = result.C3 or 0.0
    period = float(spec.s)
    m = n_samples
    t = np.arange(m) * (period / m)
    # horizontal harmonics r - 2 p s with their body phases: the n-gon at
    # p = 0, A2 and Am2 at p = +-1 where the group allows them
    fc = FourierConstraints(spec)
    waves = 0.0
    for p, coef in ((1, result.A2), (-1, result.Am2)):
        if coef is not None:
            phase = fc.horizontal_phase(spec.r - 2 * p * spec.s)
            waves = waves + coef * (
                np.exp(-4j * np.pi * p * t)[:, None] * phase[None, :])
    h = np.exp(2j * np.pi * (spec.r / spec.s) * t)[:, None] * (
        (result.A0 + result.alpha * epsilon ** 2)
        * fc.horizontal_phase(spec.r)[None, :] + epsilon ** 2 * waves)
    z = (epsilon * np.cos(TWO_PI * (t[:, None] + ke * jj[None, :] / n))
         + c3 * epsilon ** 3 * np.cos(
             3.0 * TWO_PI * (t[:, None] + ke * jj[None, :] / n)))
    pos = np.stack([h.real, h.imag, z], axis=2)
    varpi = result.w_hat + result.gamma * epsilon ** 2 \
        - TWO_PI * spec.r / spec.s
    return LoopPath(pos, period), varpi

