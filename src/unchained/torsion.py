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

with j[p] = -(2 p k eta - 1) j mod N.  Matching the equations of
motion at second order gives an affine system for the unknowns
(alpha, A2, Am2, C3, gamma): the constant and e^{+-4 pi i t} parts of
the horizontal equation at body 0 plus the e^{2 pi i t} and
e^{6 pi i t} parts of the vertical one.  Harmonics whose symmetry
phase sums to zero over the bodies are excluded from the ansatz (and
their equations vanish identically).

The torsion gamma is the leading frame-frequency shift
varpi_tilde = gamma eps^2 + O(eps^4); it depends only on (N, k, eta),
not on the resonance r/s selecting the co-rotating frame.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import DegenerateSystem
from .ngon import LoopPath, _checked_count
from .spectrum import vertical_spectrum
from .symmetry import GroupSpec

TWO_PI = 2.0 * np.pi

# affine coefficient layout: constant term + the five unknowns
_CONST, _ALPHA, _A2, _AM2, _C3, _GAMMA = range(6)


@dataclass(frozen=True)
class AppendixGeometry:
    """Pairwise geometry of the reference n-gon used by the expansion.

    r_vec[j, l] = zeta^j - zeta^l = rho e^{i 4 pi theta}; A = A0 rho;
    B[j, l] = sin^2(pi k eta (j-l)/N) / A[j, l]; Theta[p][j, l] =
    theta[j, l] - theta[j[p], l[p]]; jp_map[p][j] = -(2 p k eta - 1) j
    mod N.  theta and Theta are set to zero on pairs whose difference
    vector vanishes (the accompanying amplitude rho vanishes there).
    """

    n_bodies: int
    A0: float
    r_vec: np.ndarray
    rho: np.ndarray
    theta: np.ndarray
    A: np.ndarray
    B: np.ndarray
    Theta: Dict[int, np.ndarray]
    jp_map: Dict[int, np.ndarray]


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


def appendix_geometry(spec: GroupSpec) -> AppendixGeometry:
    n, ke = spec.n_bodies, spec.k * spec.eta
    _, a0 = _frequencies(n, spec.k)
    j = np.arange(n)
    zeta = np.exp(2j * np.pi * j / n)
    r_vec = zeta[:, None] - zeta[None, :]
    rho = np.abs(r_vec)
    theta = np.where(rho > 0, np.angle(r_vec) / (2.0 * TWO_PI), 0.0)
    a = a0 * rho
    b = np.zeros((n, n))
    off = rho > 0
    b[off] = np.sin(np.pi * ke * (j[:, None] - j[None, :])[off] / n) ** 2
    b[off] /= a[off]
    jp_map, big_theta = {}, {}
    for p in (1, -1):
        perm = (-(2 * p * ke - 1) * j) % n
        jp_map[p] = perm
        mapped = theta[np.ix_(perm, perm)]
        rho_mapped = rho[np.ix_(perm, perm)]
        big_theta[p] = np.where(rho_mapped > 0, theta - mapped, 0.0)
    return AppendixGeometry(n_bodies=n, A0=a0, r_vec=r_vec, rho=rho,
                            theta=theta, A=a, B=b, Theta=big_theta,
                            jp_map=jp_map)


def excluded_harmonics(spec: GroupSpec) -> Dict[str, bool]:
    """Which expansion coefficients the symmetry kills (mod-N rules)."""
    n, ke = spec.n_bodies, spec.k * spec.eta
    return {
        "A2": (2 * ke - 1) % n == 0,
        "Am2": (-2 * ke - 1) % n == 0,
        "C3": (3 * ke) % n == 0,
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
    keep_p = {1: not excl["A2"], -1: not excl["Am2"]}
    idx_p = {1: _A2, -1: _AM2}

    ls = np.arange(1, n)
    zl = np.exp(2j * np.pi * ls / n)
    r0l = 1.0 - zl
    rho = np.abs(r0l)
    a_l = a0 * rho
    b_l = np.sin(np.pi * ke * ls / n) ** 2 / a_l
    # zeta^{l[p]} - 1, with l[p] = -(2 p k eta - 1) l mod N
    zp_l = {p: np.exp(2j * np.pi * ((-(2 * p * ke - 1) * ls) % n) / n) - 1.0
            for p in (1, -1)}
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
    for p in (1, -1):
        if keep_p[p]:
            z_pl = -(r0l / rho) * np.conj(zp_l[p])
            g[:, 3 + 2 * p, idx_p[p]] = 0.5 * z_pl
            g[:, 3 - 2 * p, idx_p[p]] = 0.5 * np.conj(z_pl)

    # horizontal equation: the inertial terms, then pair by pair the direct
    # attraction and the second-order expansion of |x|^{-3} against the
    # leading chord, stacked in that order and summed along the stack
    horiz = np.zeros((2 * n - 1, 7, 6), dtype=complex)
    horiz[0, 3, _GAMMA] = -2.0 * a0 * w_hat
    horiz[0, 3, _ALPHA] = -w_hat ** 2
    horiz[1::2, 3, _ALPHA] = -c3 * (zl - 1.0)
    for p in (1, -1):
        if keep_p[p]:
            horiz[0, 3 - 2 * p, idx_p[p]] = (
                -w_hat ** 2 + 4.0 * TWO_PI * p * w_hat - 4.0 * TWO_PI ** 2)
            horiz[1::2, 3 - 2 * p, idx_p[p]] = -c3 * zp_l[p]
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
    """Solve the matching system; gamma is the torsion of the family."""
    system = build_equations(spec)
    m, b = system.matrix, system.rhs
    scale = max(np.abs(m).max(), np.abs(b).max(), 1.0)
    if np.linalg.matrix_rank(m, tol=1e-9 * scale) < len(system.unknowns):
        raise DegenerateSystem(
            f"torsion system is singular for {spec}")
    w, *_ = np.linalg.lstsq(m, b, rcond=None)
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
    unless n_samples is a positive integer.
    """
    n_samples = _checked_count(n_samples, "n_samples")
    spec = result.spec
    n, ke = spec.n_bodies, spec.k * spec.eta
    jj = np.arange(n)
    zeta_j = np.exp(2j * np.pi * jj / n)
    jp1 = (-(2 * ke - 1) * jj) % n
    jm1 = ((2 * ke + 1) * jj) % n
    a2 = result.A2 or 0.0
    am2 = result.Am2 or 0.0
    c3 = result.C3 or 0.0
    period = float(spec.s)
    m = n_samples
    t = np.arange(m) * (period / m)
    carrier = np.exp(2j * np.pi * (spec.r / spec.s) * t)[:, None]
    h = carrier * (
        (result.A0 + result.alpha * epsilon ** 2) * zeta_j[None, :]
        + epsilon ** 2 * (
            a2 * np.exp(2j * np.pi * (-2.0 * t[:, None] + jp1[None, :] / n))
            + am2 * np.exp(2j * np.pi * (2.0 * t[:, None] + jm1[None, :] / n))))
    z = (epsilon * np.cos(TWO_PI * (t[:, None] + ke * jj[None, :] / n))
         + c3 * epsilon ** 3 * np.cos(
             3.0 * TWO_PI * (t[:, None] + ke * jj[None, :] / n)))
    pos = np.stack([h.real, h.imag, z], axis=2)
    varpi = result.w_hat + result.gamma * epsilon ** 2 \
        - TWO_PI * spec.r / spec.s
    return LoopPath(pos, period), varpi

