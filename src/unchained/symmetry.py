"""Symmetry groups of the vertical two-frequency families.

A family with vertical mode (k, eta) observed in the frame where the
n-gon advances r turns per s vertical oscillations has a finite
stabilizer of order 4 N s acting on loops by time shift/reversal, body
relabelling, horizontal rotation/reflection and vertical flip.  Elements
are quadruples (theta, delta, beta, xi) subject to the congruence
theta = beta/2 + k eta delta / N (mod 1); the horizontal rotation angle
alpha = (r/s) theta - delta / N (mod 1) is derived.

Every theta is a multiple of 1/(2N) taken mod s and every alpha a
multiple of 1/(2Ns), so an element is stored as integers: the numerator
t = 2 N theta over 2 N s, delta mod N, beta mod 2 and xi = +-1.  The
group law is integer arithmetic modulo these; theta and alpha are exact
Fraction views, and floats appear only when an element acts on a state
or a loop, through its one (3N, 3N) spatial matrix (`_action`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import numpy as np

from .errors import UnsupportedCase
from .ngon import LoopPath, _checked_count, _checked_int

__all__ = [
    "GroupSpec",
    "GroupElement",
    "StructureReport",
    "FourierConstraints",
    "make_element",
    "enumerate_elements",
    "compose",
    "inverse",
    "element_order",
    "structure_report",
    "apply_element",
    "invariance_defect",
    "is_simple_choreography",
    "dense_choreography_params",
    "find_isomorphism",
]

@dataclass(frozen=True)
class GroupSpec:
    """Integer parameters (N, k, eta, r, s) naming a stabilizer group."""

    n_bodies: int
    k: int
    eta: int
    r: int
    s: int = 1

    def __post_init__(self):
        for name in ("n_bodies", "k", "eta", "r", "s"):
            object.__setattr__(self, name,
                               _checked_int(getattr(self, name), name))
        n = self.n_bodies
        if n < 3:
            raise ValueError("need at least 3 bodies")
        if not 1 <= self.k <= n // 2:
            raise ValueError(f"mode index k={self.k} outside 1..{n // 2}")
        if self.eta not in (-1, 1):
            raise ValueError(f"eta must be +-1, got {self.eta}")
        if self.s < 1:
            raise ValueError("s must be a positive integer")
        if gcd(self.r, self.s) != 1:
            raise ValueError(f"r/s must be reduced, got {self.r}/{self.s}")
        if 2 * self.k == n and self.eta == -1:
            # for the antisymmetric mode the sign of eta is immaterial;
            # fix +1 so equal specs compare equal
            object.__setattr__(self, "eta", 1)


@dataclass(frozen=True)
class GroupElement:
    """(theta, delta, beta, xi) as integers, with t = 2 N theta mod 2 N s.

    theta and the derived alpha = (r t - 2 s delta mod 2 N s) / (2 N s)
    are exact Fraction views; spec only supplies the moduli and takes no
    part in comparison or hashing.
    """

    t: int
    delta: int
    beta: int
    xi: int
    spec: GroupSpec = field(repr=False, compare=False)

    @property
    def theta(self) -> Fraction:
        return Fraction(self.t, 2 * self.spec.n_bodies)

    @property
    def alpha(self) -> Fraction:
        sp = self.spec
        return Fraction(_rotation(self), 2 * sp.n_bodies * sp.s)


def _rotation(g: GroupElement) -> int:
    """Numerator of alpha over 2 N s: r t - 2 s delta."""
    sp = g.spec
    return (sp.r * g.t - 2 * sp.s * g.delta) % (2 * sp.n_bodies * sp.s)


def make_element(spec: GroupSpec, delta: int, beta: int, lift: int = 0,
                 xi: int = 1) -> GroupElement:
    """Element with given (delta, beta, xi) and integer time-shift lift."""
    if xi not in (-1, 1):
        raise ValueError("xi must be +-1")
    n = spec.n_bodies
    delta %= n
    beta %= 2
    base = (n * beta + 2 * spec.k * spec.eta * delta) % (2 * n)
    t = (base + 2 * n * lift) % (2 * n * spec.s)
    return GroupElement(t, delta, beta, xi, spec)


def enumerate_elements(spec: GroupSpec) -> list[GroupElement]:
    """All 4 N s elements of the stabilizer."""
    return [
        make_element(spec, delta, beta, lift, xi)
        for delta, beta, lift, xi in product(
            range(spec.n_bodies), range(2), range(spec.s), (1, -1))
    ]


def compose(g2: GroupElement, g1: GroupElement) -> GroupElement:
    """Product g2 g1 (apply g1 first); ValueError if their groups differ."""
    spec = g2.spec
    if g1.spec != spec:
        raise ValueError(f"cannot compose elements of {spec} and {g1.spec}")
    n = spec.n_bodies
    return GroupElement((g2.t + g2.xi * g1.t) % (2 * n * spec.s),
                        (g2.delta + g2.xi * g1.delta) % n,
                        (g2.beta + g1.beta) % 2, g2.xi * g1.xi, spec)


def inverse(g: GroupElement) -> GroupElement:
    """Inverse of g in its own group."""
    n, s = g.spec.n_bodies, g.spec.s
    return GroupElement((-g.xi * g.t) % (2 * n * s),
                        (-g.xi * g.delta) % n, g.beta, g.xi, g.spec)


def element_order(g: GroupElement) -> int:
    """Smallest k >= 1 with g^k the identity, read off g's integers.

    A time reversal (xi = -1) squares to the identity.  Elements with
    xi = +1 compose by adding (t, delta, beta) in Z/2NsZ x Z/NZ x Z/2Z, so
    their order is the additive one.
    """
    if g.xi == -1:
        return 2
    n, m = g.spec.n_bodies, 2 * g.spec.n_bodies * g.spec.s
    return lcm(m // gcd(g.t, m), n // gcd(g.delta, n), 2 if g.beta else 1)


@dataclass(frozen=True)
class StructureReport:
    """Structural facts about a stabilizer group."""

    order: int
    h_order: int
    is_dihedral_times_z2: bool
    k_cyclic_order: int | None


def structure_report(spec: GroupSpec) -> StructureReport:
    """Order, xi = +1 half, D_N x Z/2 test and kernel cyclicity of G.

    All four are closed forms in (N, k, eta, r, s); no element is built.
    The group has 4 N s elements, half of them with xi = +1 (the
    subgroup H).

    D_N x Z/2 iff s = 1.  For s = 1, (delta, beta) -> make_element(spec,
    delta, beta) maps Z/N x Z/2 onto H, and it is a homomorphism because
    t = N beta + 2 k eta delta mod 2N is additive, so H is Z/N x Z/2.  The
    pure time reversal rho = (t 0, delta 0, beta 0, xi -1) lies in every
    group and sends (t, delta, beta) to (-t, -delta, beta), so G = H x| <rho>
    is D_N x Z/2 with the beta flip central.  For s > 1, |G| = 4 N s is not
    |D_N x Z/2| = 4 N.

    The kernel K (xi = +1, beta = 0) is cyclic, of order N s, iff
    gcd(N, k, s) = 1.  Halving t, K is {(x, delta) in Z/Ns x Z/N :
    x = k eta delta mod N}: N s pairs, x fixed mod N by delta.  K is
    abelian, so it is cyclic iff its p-torsion has at most p elements for
    every prime p.  That torsion lies in the pairs with p x = 0 and
    p delta = 0.  If p does not divide N, delta = 0 and x lies in the
    cyclic N Z/Ns, so there are at most p.  If p divides N, those pairs
    form (Z/p)^2 generated by (Ns/p, 0) and (0, N/p); the congruence cuts
    out a subgroup, which is all p^2 pairs iff both generators satisfy it:
    Ns/p = 0 mod N iff p | s, and k eta N/p = 0 mod N iff p | k.
    """
    n, s = spec.n_bodies, spec.s
    return StructureReport(
        order=4 * n * s,
        h_order=2 * n * s,
        is_dihedral_times_z2=(s == 1),
        k_cyclic_order=n * s if gcd(n, spec.k, s) == 1 else None,
    )


def _check_loop(spec: GroupSpec, loop: LoopPath) -> None:
    if loop.n_bodies != spec.n_bodies:
        raise ValueError(
            f"loop has {loop.n_bodies} bodies, spec expects {spec.n_bodies}")


def _action(g: GroupElement) -> np.ndarray:
    """Spatial part of g: its (3n, 3n) matrix on raveled (n, 3) positions.

    Body j takes the position of body xi (j + delta) mod N, rotated in the
    horizontal plane by 2 pi alpha (conjugated first when xi = -1) and
    with the vertical flipped by (-1)^beta.
    """
    n = g.spec.n_bodies
    src = (g.xi * (np.arange(n) + g.delta)) % n
    ang = 2.0 * np.pi * (_rotation(g) / (2 * n * g.spec.s))
    c, s = np.cos(ang), np.sin(ang)
    block = np.array([[c, -s * g.xi, 0.0],
                      [s, c * g.xi, 0.0],
                      [0.0, 0.0, 1.0 - 2.0 * g.beta]])
    spatial = np.zeros((n, 3, n, 3))
    spatial[np.arange(n), :, src, :] = block
    return spatial.reshape(3 * n, 3 * n)


def _shift(g: GroupElement) -> int:
    """Time offset of g in units of period / (2 N s): -xi t mod 2 N s."""
    return (-g.xi * g.t) % (2 * g.spec.n_bodies * g.spec.s)


def _shifted(loop: LoopPath, spec: GroupSpec, shifts) -> np.ndarray:
    """The loop's samples shifted by each `_shift` in shifts (one or a
    1-D array), from one `LoopPath.on_grid` call."""
    offsets = np.asarray(shifts) / (2 * spec.n_bodies * spec.s) * loop.period
    return loop.on_grid(offsets, loop.n_samples)


def _place(g: GroupElement, shifted: np.ndarray) -> np.ndarray:
    """g's image from the (m, n, 3) samples shifted by g's offset: the
    samples read in the order xi i, then one product with the matrix of
    `_action` moves every body."""
    m, n = shifted.shape[:2]
    moved = shifted.take((g.xi * np.arange(m)) % m, axis=0)
    return (moved.reshape(m, 3 * n) @ _action(g).T).reshape(m, n, 3)


def apply_element(g: GroupElement, loop: LoopPath) -> LoopPath:
    """Transformed loop (gx)_j(t) = rho x_{xi(j+delta)}(xi(t - theta)).

    rho is the 3 x 3 block of the matrix of `_action`.  theta is read in
    units where the loop period is s, i.e. it shifts time by theta/s of
    the loop's own period.  The times xi(t_i - theta) are the sample grid
    shifted by -xi theta (mod one period) and read in the order xi i, so
    one spectral shift, `LoopPath.on_grid` at that one offset, gives them
    on or off the grid.
    """
    _check_loop(g.spec, loop)
    return LoopPath(_place(g, _shifted(loop, g.spec, _shift(g))),
                    loop.period)


def invariance_defect(loop: LoopPath, spec: GroupSpec) -> float:
    """Sup-norm deviation of g x from x over the whole group.

    An element's time shift depends only on its offset -xi t mod 2 N s,
    and a group has few distinct ones (P12 6, the Hip-Hop 2, the hexagon
    6, for 12, 16 and 24 elements), so one `LoopPath.on_grid` call shifts
    the loop by each distinct offset once: one forward and one inverse
    FFT whatever the group order.  Each element then places its shifted
    copy as `apply_element` does.
    """
    _check_loop(spec, loop)
    elements = enumerate_elements(spec)
    shifts, which = np.unique([_shift(g) for g in elements],
                              return_inverse=True)
    shifted = _shifted(loop, spec, shifts)
    return max(float(np.abs(_place(g, shifted[i]) - loop.positions).max())
               for g, i in zip(elements, which))


@dataclass(frozen=True)
class FourierConstraints:
    """Fourier-side description of the invariant loops of a group.

    With loops expanded as x_j(t) = sum_l a_l^j e^{2 pi i l t / s}
    (horizontal, complex) and z_j(t) = sum_l b_l^j e^{2 pi i l t / s}
    (vertical), invariance kills every other harmonic and forces these
    onto a one-real-dimensional line:

      a_l^j = e^{-2 pi i (2 p k eta - 1) j / N} a^0,  l = r - 2 p s,
              allowed iff 2 p k eta - 1 != 0 (mod N), a^0 real;
      b_l^j = e^{ 2 pi i k eta (l/s) j / N} b^0,      l = (2q+1) s,
              allowed iff (l/s) k eta != 0 (mod N),   b^0 real,

    plus b_{-l} = conj(b_l) from reality of z.  Where the congruence
    fails the phase is the same at every body: the line is a translation
    of the centre of mass, which sits at the origin, so the harmonic is
    forbidden.  The allowed_* methods decide the congruences in integers
    and the *_phase methods call them; the torsion expansion reads its
    exclusions and body phases here.
    """

    spec: GroupSpec

    def allowed_horizontal(self, l: int) -> bool:
        sp = self.spec
        if (sp.r - l) % (2 * sp.s):
            return False
        p = (sp.r - l) // (2 * sp.s)
        return (2 * p * sp.k * sp.eta - 1) % sp.n_bodies != 0

    def allowed_vertical(self, l: int) -> bool:
        sp = self.spec
        if l <= 0 or l % sp.s:
            return False
        mult = l // sp.s
        return mult % 2 == 1 and (mult * sp.k * sp.eta) % sp.n_bodies != 0

    def horizontal_phase(self, l: int) -> np.ndarray | None:
        """Per-body phase vector of harmonic l, or None if forbidden.

        The exponent -(2 p k eta - 1) j is reduced mod N before the
        exponential is taken.
        """
        if not self.allowed_horizontal(l):
            return None
        sp = self.spec
        n = sp.n_bodies
        factor = 2 * ((sp.r - l) // (2 * sp.s)) * sp.k * sp.eta - 1
        return np.exp(2j * np.pi * ((-factor * np.arange(n)) % n) / n)

    def vertical_phase(self, l: int) -> np.ndarray | None:
        """Per-body phase vector of vertical harmonic l > 0, or None."""
        if not self.allowed_vertical(l):
            return None
        sp = self.spec
        n = sp.n_bodies
        j = np.arange(n)
        return np.exp(2j * np.pi * sp.k * sp.eta * (l // sp.s) * j / n)

    def project(self, loop: LoopPath) -> LoopPath:
        """Orthogonal projection of a loop onto the invariant subspace."""
        _check_loop(self.spec, loop)
        n = self.spec.n_bodies
        m = loop.n_samples
        pos = loop.positions

        hhat = np.fft.fft(pos[:, :, 0] + 1j * pos[:, :, 1], axis=0)
        for f in range(m):
            l = f if f <= m // 2 else f - m
            if m % 2 == 0 and f == m // 2:
                hhat[f] = 0.0  # ambiguous Nyquist bin; sample finer
                continue
            u = self.horizontal_phase(l)
            if u is None:
                hhat[f] = 0.0
            else:
                hhat[f] = ((np.conj(u) @ hhat[f]).real / n) * u
        h = np.fft.ifft(hhat, axis=0)

        zhat = np.fft.fft(pos[:, :, 2], axis=0)
        zhat[0] = 0.0
        if m % 2 == 0:
            zhat[m // 2] = 0.0
        for f in range(1, (m - 1) // 2 + 1):
            w = self.vertical_phase(f)
            if w is None:
                zhat[f] = 0.0
                zhat[m - f] = 0.0
            else:
                coef = (np.conj(w) @ zhat[f]).real / n
                zhat[f] = coef * w
                zhat[m - f] = np.conj(coef * w)
        z = np.fft.ifft(zhat, axis=0)

        out = np.empty_like(pos)
        out[:, :, 0] = h.real
        out[:, :, 1] = h.imag
        out[:, :, 2] = z.real
        return LoopPath(out, loop.period)

    def random_loop(self, rng: np.random.Generator,
                    amplitude: float = 0.1) -> LoopPath:
        """Invariant loop with random coefficients on allowed harmonics.

        Period is normalized to s.  Horizontal harmonics r - 2 p s for
        |p| <= 3 and vertical harmonics (2q+1) s for q < 3 are populated
        where allowed, on top of the rotating n-gon (p = 0).
        """
        sp = self.spec
        n, s = sp.n_bodies, sp.s
        span = 3
        block = 2 * n * s
        need = 2 * (abs(sp.r) + 2 * span * s + 2)
        n_samples = block * max(2, int(np.ceil(need / block)))
        t = np.arange(n_samples) / n_samples * s
        h = np.zeros((n_samples, n), dtype=complex)
        z = np.zeros((n_samples, n))
        for p in range(-span, span + 1):
            l = sp.r - 2 * p * s
            u = self.horizontal_phase(l)
            if u is None:
                continue
            base = 1.0 if p == 0 else 0.0
            coef = base + amplitude * rng.standard_normal()
            h += coef * np.exp(2j * np.pi * l * t[:, None] / s) * u[None, :]
        for q in range(span):
            l = (2 * q + 1) * s
            w = self.vertical_phase(l)
            if w is None:
                continue
            coef = amplitude * rng.standard_normal()
            term = coef * np.exp(2j * np.pi * l * t[:, None] / s) * w[None, :]
            z += 2.0 * term.real
        pos = np.stack([h.real, h.imag, z], axis=-1)
        return LoopPath(pos, float(s))


def is_simple_choreography(spec: GroupSpec) -> bool:
    """True iff all bodies share one curve with equal time shifts.

    Criterion: s - k eta r = 0 (mod N); equivalently some group element
    with trivial isometry part advances the body index by a generator
    of Z/NZ.
    """
    return (spec.s - spec.k * spec.eta * spec.r) % spec.n_bodies == 0


def dense_choreography_params(n: int, k: int, eta: int,
                              max_denominator: int) -> list[tuple[int, int]]:
    """Coprime (r, s) with s <= max_denominator making (N,k,eta) choreographic.

    Returns pairs with |r/s| <= N, sorted by r/s; their density in that
    window grows with max_denominator.  (n, k, eta) that name no group
    raise ValueError as GroupSpec does, and so does a max_denominator
    that is not a positive integer.
    """
    spec = GroupSpec(n, k, eta, 0)
    max_denominator = _checked_count(max_denominator, "max_denominator")
    n, ke = spec.n_bodies, spec.k * spec.eta
    found = []
    for s in range(1, max_denominator + 1):
        for r in range(-n * s, n * s + 1):
            if gcd(r, s) != 1:
                continue
            if (s - ke * r) % n == 0:
                found.append((r, s))
    return sorted(found, key=lambda rs: Fraction(rs[0], rs[1]))


def find_isomorphism(spec: GroupSpec, spec2: GroupSpec) -> np.ndarray | None:
    """Body relabelling transporting spec2-invariant loops to spec-invariant.

    For s = s' = 1 the actions coincide up to S(j) = (1 - 2 p k eta) j
    mod N iff r - r' = 2p and -k eta + k' eta' - 2 p k eta k' eta' = 0
    (mod N).  Returns the permutation as an index array, or None.
    """
    if spec.s != 1 or spec2.s != 1:
        raise UnsupportedCase("relabelling criterion requires s = s' = 1")
    if spec.n_bodies != spec2.n_bodies:
        raise ValueError("specs act on different body counts")
    n = spec.n_bodies
    if (spec.r - spec2.r) % 2:
        return None
    p = (spec.r - spec2.r) // 2
    ke, ke2 = spec.k * spec.eta, spec2.k * spec2.eta
    if (-ke + ke2 - 2 * p * ke * ke2) % n:
        return None
    return (1 - 2 * p * ke) * np.arange(n) % n
