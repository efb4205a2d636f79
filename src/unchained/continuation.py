"""Shooting and pseudo-arclength continuation of symmetric periodic orbits.

The vertical families that branch off the rotating n-gon are computed in a
uniformly rotating frame, where they close with the fixed period T = s.  The
frame rate varpi is then the natural continuation parameter: it is left as a
free unknown of the boundary value problem while the amplitude grows along
the family.

The boundary value problem is reduced by symmetry before shooting.  Elements
of the stabilizer group with zero time shift act on a single phase-space
state (spatial rotations with xi = +1, and the time reversal xi = -1 which
also flips velocities); the initial state is confined to their common fixed
subspace.  Composed with the smallest positive time shift tau of the group,
the time reversal at t = 0 gives reversors at t = tau, whose fixed time is
tau / 2.  A state at t = 0 fixed by the first and a state at tau / 2 fixed
by the second lie on one orbit that the shift closes (Devaney, Trans. AMS
218, 1976; Munoz-Almaraz et al., Physica D 181, 2003).  So the orbit is
closed from both ends of [0, tau / 2]: the state at t = 0 is flowed
forward over tau / 4, the state at tau / 2, confined to the fixed subspace
of the midpoint stabilizer (the reversors at t = tau with the xi = +1
elements at t = 0), is flowed backward over tau / 4 by the time reversal of
the rotating frame, and the two must meet at tau / 4 in all 6n
components.  The unknowns are the coordinates of both end states in their
fixed subspaces and the frame rate.  Confining the ends pins the time
origin and the in-plane rotation phase that would otherwise make the
shooting Jacobian singular, and both flows run as one stacked integration
over a quarter of the symmetry segment, so every step moves two members
over half the span a one-ended flow needs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from .dop853 import _BudgetExhausted, solve_ivp
from .errors import (CollisionError, IntegrationFailure, NoConvergence,
                     SingularReduction)
from .ngon import (LoopPath, _checked_count, _checked_finite,
                   _checked_positive, _kinetic, _lz, _pair_force,
                   _pair_jacobian_apply, _pair_squares, _pairs, jay,
                   potential)
from .spectrum import vertical_spectrum
from .symmetry import GroupElement, GroupSpec, _action, enumerate_elements
from .torsion import reconstruct_loop, torsion_gamma

INTEGRATOR_TOL = 1e-12

_HMASK = np.array([1.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# initial value problem


@dataclass
class IntegrationResult:
    """Final state of a flow, with the extras that were requested, the
    right-hand-side evaluations nfev it took, and its accepted and
    rejected steps."""

    state: np.ndarray
    tangents: Optional[np.ndarray] = None
    harmonic: Optional[np.ndarray] = None
    trajectory: Optional[np.ndarray] = None
    nfev: int = 0
    accepted: int = 0
    rejected: int = 0


@functools.lru_cache(maxsize=None)
def _linear_parts(n):
    # the constant parts of the flow's linear operators on the state (x, v)
    # of n bodies: the (6n, 6n) x' = v block, centrifugal P_h x and Coriolis
    # J v in the velocity rows, which the frame varpi weighs 1, varpi^2 and
    # -2 varpi, and the (3P, 6n) rows of the pair differences x_j - x_i of
    # `ngon._pairs`, P = n(n - 1) / 2.  Cached per n, so read-only
    nv = 3 * n
    drift = np.eye(2 * nv, k=nv)
    centrifugal = np.zeros((2 * nv, 2 * nv))
    centrifugal[nv:, :nv] = np.diag(np.tile(_HMASK, n))
    coriolis = np.zeros((2 * nv, 2 * nv))
    coriolis[nv:, nv:] = np.kron(np.eye(n), [[0.0, -1.0, 0.0],
                                             [1.0, 0.0, 0.0],
                                             [0.0, 0.0, 0.0]])
    _, _, diff_matrix, scatter = _pairs(n)
    differences = np.zeros((3 * len(diff_matrix), 2 * nv))
    differences[:, :nv] = np.kron(diff_matrix, np.eye(3))
    # the scatter lifted to the 2n rows of (x, v), zero in x's
    lift = np.concatenate([np.zeros_like(scatter), scatter])
    for a in (drift, centrifugal, coriolis, differences, lift):
        a.flags.writeable = False
    return drift, centrifugal, coriolis, differences, lift


def integrate(state, varpi, t_span, *, tol=INTEGRATOR_TOL, tangents=None,
              t_eval=None, max_step=np.inf,
              _max_nfev=None) -> IntegrationResult:
    """Flow the rotating-frame equations of motion with the package's
    DOP853 stepper (`dop853.solve_ivp`).

    state is (2, n, 3): positions and velocities; varpi the frame rate;
    t_span a duration or a (t0, t1) pair.  Returns an IntegrationResult
    whose state is the state at t1, with the trajectory on t_eval, of
    shape (len(t_eval),) + state.shape, when requested, nfev the
    right-hand-side evaluations the stepper made, and accepted and
    rejected its steps.  Each attempted step takes 12 right-hand sides,
    and a step that holds times of t_eval 3 more for its dense output;
    a flow adds 2 for its initial step, or 1 for a zero span.  tol is
    both the relative and the absolute tolerance, and a relative one
    below 100 eps is raised to it with a UserWarning.

    state may also be a stack (..., 2, n, 3) of states flowed together in
    one solver call, and varpi a frame rate per member broadcast over the
    stack's leading axes.  The members share every step and DOP853's
    error norm, the RMS over all components, so the stack takes the steps
    its hardest member needs, and a member's error may reach sqrt(m)
    times the tolerance of a flow of its own, m the number of members.
    Each member's linear field is taken at its own rate, and the pair
    pass takes the stack as its leading axes.

    tangents, when given, is a (6n + 1, k) matrix of directions in
    (initial state, varpi) for one state, and a (..., 6n + 1, k) stack of
    them, one per member, for a stack.  Each member then also carries
    its tangent flow W' = A(t) W + b(t) w, A its linearised vector field,
    b the derivative in its own frame rate (2 varpi P_h x - 2 J v, in the
    velocity rows) and w the last row of its own seed, which stays
    constant: a member flowed at -varpi with w = -1 carries d / d varpi.
    The result's tangents is the (..., 6n, k) derivative of each final
    state along its seed columns, and its harmonic the (..., n)
    quadratures int_{t0}^{t1} z_b(t) exp(-2 pi i t) dt of each member's
    body heights, carried as 2n more components per member.

    The flow carries each member's state as column 0 of one (6n, 1 + k)
    matrix, the k tangent columns beside it (k = 0 without tangents),
    stored row by row, member after member, and followed by the
    quadratures.  Each call builds one operator per member from the
    constant parts of `_linear_parts`, weighted by the member's rate, and
    every right-hand side is one batched product of that stack of
    operators with the members' (..., 6n, 1 + k) flow rows, plus one pass
    over the pairs on the pair differences the product gives.  A plain
    flow's operator is the linear field (x' = v, centrifugal and
    Coriolis parts) above the 3P pair-difference rows, P = n(n - 1) / 2;
    its right-hand side is the field's rows plus the force of
    `ngon._pair_force`, lifted to the velocity rows.  A tangent flow's
    operator is the velocity rows of the linear field and of their varpi
    derivative above the pair-difference rows; its position rows copy the
    velocity rows, and `ngon._pair_jacobian_apply` gives the force in
    column 0 and the force Jacobian applied to every other column.  The
    operator grows linearly with the stack; no block-diagonal matrix over
    the members is formed.  Either pass compares the pair distances of
    each member with ngon.COLLISION_TOL, as the initial positions are
    before the solver starts; a closer pair raises CollisionError naming
    it (i < j), in whichever member it occurs.
    A step size that underflows or turns non-finite, as a non-finite
    right-hand side drives it, raises IntegrationFailure with the time
    reached.  A tol outside (0, 1), tangents that are not one (6n + 1, k)
    matrix per member, a varpi that does not broadcast over the stack, a
    non-finite varpi, t_span or t_eval entry, and a max_step that is NaN
    or not positive raise ValueError before any integration: the step
    loop never reaches a NaN end time, so it would not stop there, and it
    passes over a NaN time in t_eval without a word, leaving the
    trajectory a row short.  _max_nfev, for the Newton solves of this
    module, stops the flow with _BudgetExhausted on the right-hand side
    after _max_nfev.
    """
    _checked_tol(tol, "tol")
    state = np.asarray(state, dtype=float)
    stack = state.shape[:-3]
    n = state.shape[-2]
    if tangents is not None:
        seed = np.asarray(tangents, dtype=float)
        if seed.shape[:-1] != stack + (6 * n + 1,):
            want = (f"a ({6 * n + 1}, m) matrix" if not stack else
                    f"one ({6 * n + 1}, m) matrix per member of a stack "
                    f"of shape {stack}")
            raise ValueError(f"tangents must be {want}, got shape "
                             f"{seed.shape}")
    try:
        rates = np.broadcast_to(np.asarray(varpi, dtype=float), stack)
    except ValueError:
        raise ValueError(f"varpi of shape {np.shape(varpi)} does not "
                         f"broadcast over a stack of shape {stack}") from None
    _checked_finite(rates, "varpi")
    _pair_squares(state[..., 0, :, :])
    if np.ndim(t_span) == 0:
        t0, t1 = 0.0, float(t_span)
    else:
        t0, t1 = map(float, t_span)
    _checked_finite([t0, t1], "t_span")
    if not max_step > 0:
        raise ValueError(f"max_step must be positive, got {max_step!r}")
    if t_eval is not None:
        _checked_finite(t_eval, "t_eval")
    nv = 3 * n
    drift, centrifugal, coriolis, differences, lift = _linear_parts(n)
    rate = rates[..., None, None]
    lin = drift + rate ** 2 * centrifugal - 2.0 * rate * coriolis
    differences = np.broadcast_to(differences, stack + differences.shape)
    width = 1 if tangents is None else 1 + seed.shape[-1]
    n_flow = state.size * width
    rows = stack + (2 * nv, width)

    if tangents is None:
        y0 = state.ravel()
        # each member's operator: its linear field, then the pair
        # differences
        op = np.concatenate([lin, differences], axis=-2)

        def rhs(t, y):
            prod = op @ y.reshape(rows)
            force = _pair_force(prod[..., 2 * nv:, 0].reshape(stack + (-1, 3)),
                                lift)
            return (prod[..., :2 * nv, 0]
                    + force.reshape(stack + (2 * nv,))).ravel()
    else:
        y0 = np.concatenate([
            np.concatenate([state.reshape(stack + (2 * nv, 1)),
                            seed[..., :-1, :]], axis=-1).ravel(),
            np.zeros(state.size // 3)])
        # each member's operator: the velocity rows of its linear field and
        # of their varpi derivative, then the pair differences.  The
        # position rows, x' = v, are a copy.  The varpi term b w: b = (d
        # lin / d varpi) x at the member's own rate, and w its seed's last
        # row, 0 in the state's column
        op = np.concatenate([
            lin[..., nv:, :],
            (2.0 * rate * centrifugal - 2.0 * coriolis)[..., nv:, :],
            differences], axis=-2)
        w_varpi = np.concatenate([np.zeros(stack + (1,)), seed[..., -1, :]],
                                 axis=-1)[..., None, :]
        scatter = _pairs(n)[3]
        phase = np.empty((2, 1))

        def rhs(t, y):
            mat = y[:n_flow].reshape(rows)
            prod = op @ mat
            acc = _pair_jacobian_apply(prod[..., 2 * nv:, :].reshape(
                stack + (-1, 3, width)), scatter).reshape(stack + (nv, width))
            acc += prod[..., nv:2 * nv, :1] * w_varpi
            out = np.empty_like(y)
            flow = out[:n_flow].reshape(rows)
            flow[..., :nv, :] = mat[..., nv:, :]
            np.add(prod[..., :nv, :], acc, out=flow[..., nv:, :])
            angle = 2.0 * math.pi * t
            phase[0, 0] = math.cos(angle)
            phase[1, 0] = -math.sin(angle)
            np.multiply(phase, mat[..., None, 2:nv:3, 0],
                        out=out[n_flow:].reshape(stack + (2, n)))
            return out

    sol = solve_ivp(rhs, (t0, t1), y0, tol=tol, t_eval=t_eval,
                    max_step=max_step, max_nfev=_max_nfev)
    final = sol.state[:n_flow].reshape(stack + (2 * nv, width))
    result = IntegrationResult(state=final[..., 0].reshape(state.shape),
                               nfev=sol.nfev, accepted=sol.accepted,
                               rejected=sol.rejected)
    if tangents is not None:
        result.tangents = final[..., 1:]
        quad = sol.state[n_flow:].reshape(stack + (2, n))
        result.harmonic = quad[..., 0, :] + 1j * quad[..., 1, :]
    if t_eval is not None:
        result.trajectory = sol.trajectory[:, :n_flow:width].reshape(
            (-1,) + state.shape)
    return result


# ---------------------------------------------------------------------------
# symmetry reduction of the boundary value problem


class _Reduction:
    """Fixed subspaces of the time-zero and the midpoint stabilizers.

    basis spans the states at t = 0 that the time-zero stabilizer fixes.
    The midpoint stabilizer H_mid is the xi = +1 elements at t = 0 and the
    reversors (xi = -1) at t = tau, tau the minimal shift; each fixes the
    state at tau / 2, and mid_basis spans its fixed subspace.  Both bases
    are orthonormal columns.  seeds are the tangent seeds of the two
    members of a closing flow (`_closing_residual`) in (state, varpi), one
    column per unknown of the member, zero columns up to a common width,
    and the varpi column last: the basis with varpi row 1, and the
    time-reversed mid_basis with varpi row -1.

    weights = (alpha, beta) reads the amplitude, the first vertical
    harmonic of body 0, off the two members' height quadratures I_1, I_2
    = int_0^{tau / 4} z(t) exp(-2 pi i t) dt as Re(alpha . I_1 + beta .
    I_2).  The second member runs the orbit backward from tau / 2 and z
    is real, so [0, tau / 2] gives I_1 + h conj(I_2), h = exp(-i pi tau).
    A reversor R of H_mid, z(tau - t) = P_R z(t), adds h^2 P_R conj of
    that over [tau / 2, tau], and the shift, z(t + tau) = P z(t), unfolds
    [0, tau] to the period s by c = sum_j exp(-2 pi i j tau) e_0 P^j, P
    and P_R signed body permutations of the heights.  The amplitude is
    2 / s times the real part, FFT bin s of body 0's height, so with
    r = c P_R, alpha = (2 / s)(c + conj(h^2 r)) and beta = (2 / s)(conj(h
    c) + h r).
    """

    def __init__(self, spec: GroupSpec):
        n = spec.n_bodies
        elements = enumerate_elements(spec)
        frozen = [g for g in elements if g.t == 0]
        self.basis = _fixed_subspace(frozen)
        self.shift = min((g for g in elements if g.xi == 1 and g.t > 0),
                         key=lambda g: (g.t, g.delta, g.beta))
        # theta = t / 2N counts time in units where the loop period is s
        self.tau = self.shift.t / (2 * n)
        reversors = [g for g in elements if g.xi == -1
                     and g.t == self.shift.t]
        self.mid_basis = _fixed_subspace(
            [g for g in frozen if g.xi == 1] + reversors)
        heights = slice(2, 3 * n, 3)  # rows and columns of the heights
        shift_heights = _state_matrix(self.shift)[heights, heights]
        mid_heights = _state_matrix(reversors[0])[heights, heights]
        # the shifts t of the xi = +1 elements form a subgroup of Z/2Ns, so
        # the minimal one divides 2Ns
        c = np.zeros(n, dtype=complex)
        row = np.eye(n)[0]  # body 0 read off P^j z on segment j
        for j in range(2 * n * spec.s // self.shift.t):
            c += np.exp(-2j * np.pi * j * self.tau) * row
            row = row @ shift_heights
        h = np.exp(-1j * np.pi * self.tau)
        r = c @ mid_heights
        self.weights = (2.0 / spec.s) * np.stack([c + np.conj(h * h * r),
                                                  np.conj(h * c) + h * r])
        self.seeds = np.zeros((2, 6 * n + 1, 1 + max(self.dim, self.mid_dim)))
        self.seeds[0, :-1, :self.dim] = self.basis
        self.seeds[1, :-1, :self.mid_dim] = _reversal(n)[:, None] \
            * self.mid_basis
        self.seeds[:, -1, -1] = 1.0, -1.0
        self.spec = spec

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def mid_dim(self) -> int:
        return self.mid_basis.shape[1]

    @property
    def metric(self) -> np.ndarray:
        """1 on the coordinates (u, varpi) of an unknown x = (u, v, varpi),
        in which arclength is measured, and 0 on v."""
        mask = np.ones(self.dim + self.mid_dim + 1)
        mask[self.dim:-1] = 0.0
        return mask


def _state_matrix(g: GroupElement) -> np.ndarray:
    """Phase-space action of a group element evaluated at time zero.

    Positions map by the body relabelling and block of `symmetry._action`;
    velocities pick up the extra factor xi from time reversal.
    """
    src, block = _action(g)
    positions = np.kron(np.eye(g.spec.n_bodies)[src], block)
    return np.kron(np.diag([1.0, g.xi]), positions)


def _fixed_subspace(group):
    """Orthonormal basis, as columns, of the states a group of elements
    fixes.

    The mean of the orthogonal state matrices over a group is the
    orthogonal projector onto their common fixed subspace.
    """
    proj = sum(_state_matrix(g) for g in group) / len(group)
    vals, vecs = np.linalg.eigh(proj)
    return vecs[:, vals > 0.5]


@functools.cache
def _reduction(spec: GroupSpec) -> _Reduction:
    return _Reduction(spec)


def _reversal(n):
    # the diagonal of the time reversal T = diag(I, -I) on a raveled state
    # (positions, velocities) of n bodies
    return np.repeat([1.0, -1.0], 3 * n)


def _closing_residual(red: _Reduction, x, tol, max_nfev=None):
    """Quarter-point matching defect of the reduced boundary value problem
    at frame rate varpi, x = (u, v, varpi).

    One stacked tangent flow over [0, tau / 4], seeded with `red.seeds`,
    moves two members: x_1 from Q u at varpi, and x_2 from T y at -varpi,
    y = Q_mid v the state at tau / 2 and T the time reversal (p, v) ->
    (p, -v), so that T x_2(s) is the orbit at tau / 2 - s.  The residual
    is x_1(tau / 4) - T x_2(tau / 4), 6n equations.  Returns (residual,
    jac, amplitude, nfev): jac = [J_1u | -T J_2v | J_1varpi - T J_2varpi]
    from the members' tangent columns, nfev the flow's right-hand-side
    evaluations, and amplitude the first vertical harmonic of body 0 over
    the period, `red.weights` applied to the members' height quadratures
    I_1, I_2 = int_0^{tau / 4} z(t) exp(-2 pi i t) dt.  max_nfev caps the
    flow's right-hand-side evaluations (`integrate`).
    """
    n = red.spec.n_bodies
    flip = _reversal(n)
    u, v, varpi = x[:red.dim], x[red.dim:-1], x[-1]
    starts = np.stack([red.basis @ u, flip * (red.mid_basis @ v)])
    res = integrate(starts.reshape(2, 2, n, 3), [varpi, -varpi],
                    0.25 * red.tau, tol=tol, tangents=red.seeds,
                    _max_nfev=max_nfev)
    end, back = res.state.reshape(2, -1)
    fwd, rev = res.tangents
    jac = np.column_stack([fwd[:, :red.dim],
                           -flip[:, None] * rev[:, :red.mid_dim],
                           fwd[:, -1] - flip * rev[:, -1]])
    amplitude = float(np.sum(red.weights * res.harmonic).real)
    return end - flip * back, jac, amplitude, res.nfev


# ---------------------------------------------------------------------------
# periodic orbits


@dataclass
class PeriodicOrbit:
    """Closed orbit of the rotating-frame equations.

    initial_state is the (2, n, 3) stack of positions and velocities at
    t = 0, which lies in the fixed subspace of the time-zero stabilizer
    elements.  amplitude is the signed coefficient of the first vertical
    harmonic of body 0, which a linear functional of the group
    (`_Reduction`) reads off the height quadratures that the closing flow
    that passed the Newton test carries; residual is the sup norm of the
    quarter-point matching defect of that flow, which runs from t = 0 and
    from the midpoint state at tau / 2, in the fixed subspace of the
    midpoint stabilizer, and meets at tau / 4 (`_closing_residual`).
    `sample` flows the whole period, from both ends at once, and uses no
    symmetry, so it is an independent check of the values built from the
    half segment.
    """

    spec: GroupSpec
    varpi: float
    period: float
    initial_state: np.ndarray
    amplitude: float
    residual: float

    def sample(self, n_samples: int = 512,
               tol: float = INTEGRATOR_TOL) -> LoopPath:
        """Integrate one period and return the uniformly sampled loop;
        ValueError, before any integration, unless n_samples is a positive
        integer.

        The period is flowed from both ends at once, in one stacked
        `integrate` call over [0, T / 2].  The forward member starts at
        the initial state (p, v).  By time reversal in the rotating frame,
        x(T - s) is the forward flow of (p, -v) at frame rate -varpi (the
        Coriolis term flips sign, and x(T) = x(0) on a closed orbit), so
        the backward member is that flow.  Samples at t <= T / 2 are read
        off the forward member, the rest off the backward one at s = T - t.
        The two members miss each other at T / 2 by a gap delta, the
        closing defect of the flow.  It is spread as a hat: +(t / T) delta
        on forward samples and -((T - t) / T) delta on backward ones, so
        the loop is continuous at T / 2 and across the seam, and sample 0
        is exactly the initial positions.  No group element is used.
        """
        n_samples = _checked_count(n_samples, "n_samples")
        period = self.period
        # grid times below T / 2, then T / 2 itself: the forward member is
        # read at t = k T / n_samples <= T / 2, the backward one at
        # s = T - t < T / 2, which is a grid time too
        n_below = (n_samples + 1) // 2
        t_eval = np.append(np.arange(n_below) * (period / n_samples),
                           0.5 * period)
        pos0, vel0 = self.initial_state
        # on P12 and the Hip-Hop the step cap, not tol, sets the samples'
        # error.  Against a two-ended flow at 1e-13 capped at T / 1024, the
        # 20-step records land at most 2.8e-14, 9.1e-14, 3.3e-13 and
        # 1.3e-12 away at caps T / 128, T / 112, T / 96 and T / 80, so
        # T / 96 is the coarsest cap within the stated 1e-12 by a factor 3.
        # The hexagon's steps are finer than any of these
        res = integrate(np.stack([self.initial_state, [pos0, -vel0]]),
                        [self.varpi, -self.varpi], (0.0, 0.5 * period),
                        tol=tol, t_eval=t_eval, max_step=period / 96.0)
        forward, backward = res.trajectory[:, 0, 0], res.trajectory[:, 1, 0]
        delta = backward[-1] - forward[-1]
        # the hat: -((T - t) / T) delta = (t / T) delta - delta
        pos = np.concatenate([forward[:n_samples // 2 + 1],
                              backward[n_below - 1:0:-1] - delta])
        ramp = np.arange(n_samples)[:, None, None] / n_samples
        return LoopPath(pos + ramp * delta, period)


def onset_state(spec: GroupSpec, epsilon: float = 0.0):
    """State and frame rate of the third-order expansion at time zero.

    epsilon = 0 gives the relative equilibrium at the branch point of the
    vertical family, in the frame where it closes with period s after r
    turns.  Returns (state, varpi).
    """
    loop, varpi = _expansion(spec, epsilon)
    return _first_state(loop), varpi


def _expansion(spec: GroupSpec, epsilon):
    # (loop, varpi) of the third-order expansion, 64 samples per period
    return reconstruct_loop(torsion_gamma(spec), epsilon, n_samples=64)


def _first_state(loop: LoopPath) -> np.ndarray:
    # the (2, n, 3) state of a sampled loop at its first sample
    return np.stack([loop.positions[0], loop.velocities()[0]])


def shoot_symmetric(spec: GroupSpec, varpi: float, guess,
                    integrator_tol: float = INTEGRATOR_TOL) -> PeriodicOrbit:
    """Newton solve of the reduced closing condition at fixed frame rate.

    guess is a (2, n, 3) state, projected onto the fixed subspace of the
    time-zero stabilizer elements.  The unknowns are its coordinates u in
    that subspace and the coordinates v of the state at tau / 2, half the
    smallest positive time shift tau of the group, in the fixed subspace
    of the midpoint stabilizer (`_Reduction`); the equations ask that the
    flows from both meet at tau / 4 (`_closing_residual`).  v starts from
    one plain flow of the projected guess over tau / 2.  This is the
    arclength corrector of `continue_family` with its row pinned on
    varpi, so each closing flow carries one tangent column more, along
    varpi, and the guess and the start are flowed at the coarser
    max(integrator_tol, _START_TOL) (`_damped_newton`).  A shot polishes
    down to the same floor as a continuation step (_FLOOR).  Raises
    NoConvergence when the damped iteration stalls or runs out of
    iterations above 100 integrator_tol, and ValueError, before any
    integration, unless integrator_tol lies in (0, 0.01) and varpi is
    finite.
    """
    _checked_tol(100.0 * integrator_tol,
                 "Newton tolerance 100 * integrator_tol")
    red = _reduction(spec)
    u = red.basis.T @ np.asarray(guess, dtype=float).ravel()
    mid = integrate((red.basis @ u).reshape(2, -1, 3), varpi,
                    0.5 * red.tau, tol=max(integrator_tol, _START_TOL))
    x0 = np.concatenate([u, red.mid_basis.T @ mid.state.ravel(), [varpi]])
    return _corrector(red, x0, np.eye(len(x0))[-1], x0, integrator_tol)[1]


def _damped_newton(fun, x0, integrator_tol):
    """Gauss-Newton with a halving line search on a residual function.

    fun(x, tol, max_nfev) returns (residual, Jacobian, extra, nfev) from a
    flow integrated at tolerance tol that takes nfev right-hand sides, and
    raises _BudgetExhausted when it would take more than max_nfev (None:
    no cap).  The start is evaluated at the coarser tolerance
    max(integrator_tol, _START_TOL): it only has to give the first step,
    from a residual far above the Newton test, so its error stays out of
    the result (inexact Newton; Dembo, Eisenstat and Steihaug, SIAM J.
    Numer. Anal. 19, 1982).  Every later point, line-search trials
    included, is evaluated once at integrator_tol, and an accepted
    trial's Jacobian gives the next step.  That step is the least-squares
    solution with singular values below 100 integrator_tol of the largest
    dropped: the Jacobian is no more accurate than the flow, so a
    numerically null direction, as at a branch point, takes no step.  The
    line search tries the full step and five halvings.  Past the Newton
    test the solve polishes with the full step alone while convergence is
    rapid: the polish test stops at an evaluation at most _FLOOR
    integrator_tol, or at one that decreased the residual by less than a
    factor 20.

    Each of the _CORRECTOR_ITER passes takes a step, or takes none when
    the polish test stops or no trial decreases the residual, and then
    ends one of three ways.  A pass that still holds the coarse start
    evaluates it once more at integrator_tol and goes on from there; this
    is the only point evaluated twice, so no solve ends on a coarse
    evaluation.  Any other pass that took no step ends the solve, and a
    pass that took a step goes on.  The start and that re-evaluation run
    uncapped; every trial is capped at `_trial_budget` of the start's
    right-hand sides, and one that runs out ends the line search as no
    decrease, so a solve far from the family stalls there instead of
    halving through flows that crawl towards a collision.  Returns (x,
    residual, extra) of the last evaluation when its sup norm is at most
    tol = 100 integrator_tol.  Raises NoConvergence when a pass ends the
    solve above tol ("Newton stalled"), or when the _CORRECTOR_ITER
    passes end above it.
    """
    x = np.asarray(x0, dtype=float).copy()
    start_tol = max(integrator_tol, _START_TOL)
    coarse = start_tol > integrator_tol
    residual, jac, extra, nfev = fun(x, start_tol, None)
    cap = _trial_budget(nfev, start_tol, integrator_tol)
    norm, prev_norm = float(np.max(np.abs(residual))), np.inf
    tol = 100.0 * integrator_tol
    for _ in range(_CORRECTOR_ITER):
        before = x
        # step above tol, and polish past it while convergence is still
        # rapid; the closing defect rings through spectral residuals of
        # the sampled loop
        if norm > _FLOOR * integrator_tol and (norm > tol
                                               or norm <= 0.05 * prev_norm):
            step = np.linalg.lstsq(jac, -residual,
                                   rcond=100.0 * integrator_tol)[0]
            for scale in 0.5 ** np.arange(6 if norm > tol else 1):
                trial = x + scale * step
                if np.array_equal(trial, x):
                    continue  # the step rounds away: x's evaluation stands
                try:
                    evaluation = fun(trial, integrator_tol, cap)
                except _BudgetExhausted:
                    break
                trial_norm = float(np.max(np.abs(evaluation[0])))
                if trial_norm < norm:
                    x, prev_norm, norm = trial, norm, trial_norm
                    residual, jac, extra, _ = evaluation
                    coarse = False
                    break
        if coarse:
            # the pass still holds the coarse start: evaluate it again at
            # integrator_tol and go on from there
            residual, jac, extra, _ = fun(x, integrator_tol, None)
            norm, coarse = float(np.max(np.abs(residual))), False
        elif x is before:
            # no step: the polish test stopped, or no trial decreased
            if norm <= tol:
                return x, residual, extra
            raise NoConvergence(f"Newton stalled at residual {norm:.3e}")
    if norm > tol:
        raise NoConvergence(f"no convergence in {_CORRECTOR_ITER} iterations "
                            f"(residual {norm:.3e})")
    return x, residual, extra


# ---------------------------------------------------------------------------
# continuation


@dataclass
class FamilyRecord:
    """One accepted continuation step.

    No value needs a sampled loop: amplitude is the orbit's;
    angular_momentum_z is the first integral sum (x cross (v + varpi J
    x))_z at t = 0; action is -3 E T, with E = K - U the inertial energy
    of that state and T the period.  For U homogeneous of degree -1 the
    Lagrange-Jacobi identity I'' = 4K - 2U integrates to zero over a
    closed orbit, so int K = int U / 2 and A = int (K + U) dt = -3 E T.
    """

    varpi: float
    amplitude: float
    action: float
    period: float
    angular_momentum_z: float
    orbit: PeriodicOrbit


@dataclass
class ContinuationResult:
    """Arclength-ordered family records with the reason the run ended."""

    spec: GroupSpec
    records: List[FamilyRecord]
    end_reason: str
    varpi_onset: float

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)


# pinned vertical height of the first step off the branch point
_ONSET_EPS = 0.02
# iterations of every Newton solve, and the arclength step's halvings
_CORRECTOR_ITER = 12
# flow tolerance of every Newton solve's start (`_damped_newton`)
_START_TOL = 1e-8
# right-hand sides of a line-search trial, in multiples of its solve's
# start scaled to the trial's tolerance (`_trial_budget`).  Families of
# 8 steps and shots at amplitudes 0.03 and 0.07, with integrator_tol from
# 1e-9 to 1e-16, on P12, the Hip-Hop, the hexagon, (3,1,1,2,1),
# (4,1,-1,1,2) and (5,2,-1,1,2), took at most 1.17 of that scaled start
# in a trial (1.46 times the start at 1e-9, 2.90 at 1e-12, 4.47 at
# 1e-14, 6.68 at 1e-16)
_TRIAL_NFEV = 1.6
# the polish floor of every Newton solve, a continuation step or a
# `shoot_symmetric` shot, in multiples of integrator_tol.  The
# quarter-point defect reaches the orbit's closure over its period
# amplified several hundred times on the hexagon: a solve that stopped at
# 2.2e-13 closed to 1.2e-10, ten times the worst of the midpoint closing,
# while stops below 8e-14 closed as well as it did.  Shots of P12, the
# Hip-Hop and the hexagon at amplitudes 0.03-0.07 stopped here close to
# at most 1.1e-11 over the period against a flow at rtol 3e-14
_FLOOR = 0.05
_MAX_HALVINGS = 12


def _trial_budget(start_nfev, start_tol, integrator_tol) -> int:
    # right-hand sides a line-search trial at integrator_tol may take
    # when its solve's start at start_tol took start_nfev.  DOP853's
    # right-hand sides grow as tol^(-1/8) in the limit; the trials above
    # grew as tol^(-1/10), from 1e-8 to 1e-16
    return math.ceil(_TRIAL_NFEV * start_nfev
                     * (start_tol / integrator_tol) ** 0.1)


def _corrector(red, start, row, point, integrator_tol):
    """Gauss-Newton on the closing condition plus one linear constraint.

    The unknown is packed x = (u, v, varpi), started at start, and the
    constraint row . (x - point) = 0 is the last equation; every
    line-search trial is capped at `_trial_budget` of the start's
    right-hand sides (`_damped_newton`).  Returns (x, orbit, null), all
    from the converged evaluation: orbit is the PeriodicOrbit at x with
    its closing residual's sup norm and amplitude; null is the right
    singular vector of the smallest singular value of its closing
    Jacobian, the family tangent in (u, v, varpi) up to sign, scaled to
    unit length in the arclength metric (u, varpi), and costs no
    integration.
    """
    def bordered(x, tol, max_nfev):
        residual, jac, amplitude, nfev = _closing_residual(red, x, tol,
                                                           max_nfev)
        return (np.append(residual, row @ (x - point)), np.vstack([jac, row]),
                (amplitude, jac), nfev)

    x, full, (amplitude, jac) = _damped_newton(bordered, start, integrator_tol)
    orbit = PeriodicOrbit(red.spec, float(x[-1]), float(red.spec.s),
                          (red.basis @ x[:red.dim]).reshape(2, -1, 3),
                          amplitude, float(np.max(np.abs(full[:-1]))))
    null = np.linalg.svd(jac)[2][-1]
    return x, orbit, null / np.linalg.norm(red.metric * null)


def _hermite_start(pred, tangent, h, here, t_here, prev, t_prev, chord):
    """First corrector iterate on the arclength hyperplane through pred.

    The cubic Hermite curve through the last two records prev and here,
    with family tangents t_prev and t_here and the parameter length chord,
    is evaluated a further h beyond here.  The tangents and chord are of
    unit and of record distance in the arclength metric, which leaves
    out the midpoint coordinates v of x = (u, v, varpi); v rides along.
    prev is None when the previous record is the branch point, which has
    no tangent, and the start is then here + h t_here.  The point is
    projected onto {x : tangent . (x - pred) = 0}, the hyperplane the
    corrector solves on, so the record it converges to is the one a start
    at pred finds.
    """
    if prev is None:
        guess = here + h * t_here
    else:
        # Hermite basis at tau = (chord + h) / chord, past here at tau = 1
        tau = 1.0 + h / chord
        guess = ((2.0 * tau - 3.0) * tau * tau + 1.0) * prev \
            + (3.0 - 2.0 * tau) * tau * tau * here \
            + chord * (tau - 1.0) * tau * ((tau - 1.0) * t_prev
                                           + tau * t_here)
    return guess - (tangent @ (guess - pred)) * tangent


def continue_family(spec: GroupSpec, direction: int = 1, n_steps: int = 40,
                    step: float = 0.04, max_step: float = 0.15,
                    integrator_tol: float = INTEGRATOR_TOL,
                    varpi_range=None) -> ContinuationResult:
    """Pseudo-arclength continuation of a vertical family from its onset.

    The first record is the relative equilibrium at the branch point (zero
    amplitude).  Each later record solves the closing condition, with the
    period held at T = s, for x = (u, v, varpi) on one hyperplane
    row . (x - point) = 0 (`_corrector`): u and v are the reduced states at
    t = 0 and tau / 2.  The second record pins the vertical coordinate of
    body 0 at t = 0: row picks it out of x, and point, also the start, is
    the third-order expansion at amplitude direction * _ONSET_EPS, read at
    both times (`_onset_point`).  The steps after it follow the arclength
    tangent; step is the first arclength step and max_step its cap.
    Arclength is measured in (u, varpi) alone: v is solved for with each
    record but kept out of the metric.  A step of length h solves on the
    hyperplane normal to the secant tangent through pred = here + h *
    tangent.  Its corrector starts from the cubic Hermite extrapolation of
    the last two records along their family tangents, projected onto that
    hyperplane (`_hermite_start`); the records are the same points as with
    a start at pred, reached in fewer Newton iterations.  When the corrector does not converge the step is
    halved; the run ends when h would fall below step * 2**-_MAX_HALVINGS.
    A step is accepted only with its record, so a failure while finishing
    the record ends the run like a failure of the corrector.  The run ends
    with one of the reasons "max-steps", "newton-failure", "collision:
    ...", "integration-failure: ...", "varpi-range" or, when the pinned
    first step fails, "onset-failure: ...".

    The branch point is the expansion at amplitude 0 (`_onset_point`),
    the relative equilibrium at t = 0 and at tau / 2.  Its record keeps
    that exact planar state, not its projection onto the reduced basis,
    so its heights, vertical velocities and amplitude are exactly 0.

    A record costs no integration of its own: its amplitude comes from the
    corrector's converged closing flow, and its action and L_z from the
    initial state (see `FamilyRecord`).  Every corrector flows its start
    at max(integrator_tol, _START_TOL) and every later point at
    integrator_tol, and never ends on the coarse flow (`_damped_newton`),
    so each record comes from a flow at integrator_tol.
    `PeriodicOrbit.sample` gives the full period on demand.  Raises
    ValueError, before any integration, for a direction other than 1 or
    -1 (a bool is refused too), an n_steps that is not a positive
    integer, a step or max_step that is not positive and finite, a
    varpi_range (lo, hi) without lo <= hi, or an integrator_tol outside
    (0, 0.01): every Newton solve stops at 100 integrator_tol
    (`_damped_newton`), and from 0.01 on passes any orbit.
    """
    if isinstance(direction, bool) or direction not in (1, -1):
        raise ValueError(f"direction must be 1 or -1, got {direction!r}")
    _check_steps(n_steps, step, max_step, varpi_range)
    _checked_tol(100.0 * integrator_tol,
                 "Newton tolerance 100 * integrator_tol")
    red = _reduction(spec)
    x_re, state_re = _onset_point(red, 0.0)
    varpi_star = float(x_re[-1])

    def in_window(w):
        return varpi_range is None or varpi_range[0] <= w <= varpi_range[1]

    res_re = _closing_residual(red, x_re, integrator_tol)[0]
    # the n-gon's heights vanish for all time, and so does the amplitude
    records = [_record(PeriodicOrbit(spec, varpi_star, float(spec.s),
                                     state_re, 0.0,
                                     float(np.max(np.abs(res_re)))))]
    if not in_window(varpi_star):
        return ContinuationResult(spec, records, "varpi-range", varpi_star)

    # first step: pin the vertical coordinate of body 0 at t = 0 to that
    # of the expansion's state
    x1 = _onset_point(red, direction * _ONSET_EPS)[0]
    row = np.zeros_like(x1)
    row[:red.dim] = red.basis[2]
    end_reason = "max-steps"
    try:
        here, orbit, null = _corrector(red, x1, row, x1, integrator_tol)
        records.append(_record(orbit))
    except (CollisionError, IntegrationFailure, NoConvergence) as exc:
        return ContinuationResult(spec, records, f"onset-failure: {exc}",
                                  varpi_star)
    if not in_window(here[-1]):
        return ContinuationResult(spec, records, "varpi-range", varpi_star)

    # the branch point's null space is 2-D, so it supplies no tangent.
    # Arclength, the secant and the hyperplane live in (u, varpi): the
    # midpoint coordinates v are solved for but kept out of the metric
    metric = red.metric
    prev, t_prev, chord = None, None, None
    tangent = metric * (here - x_re)
    tangent /= np.linalg.norm(tangent)
    t_here = np.copysign(1.0, null @ tangent) * null
    h = step
    while len(records) < n_steps + 1:
        pred = here + h * tangent
        start = _hermite_start(pred, tangent, h, here, t_here, prev, t_prev,
                               chord)
        try:
            new, orbit, null = _corrector(red, start, tangent, pred,
                                          integrator_tol)
            records.append(_record(orbit))
        except NoConvergence:
            h *= 0.5
            if step / h > 2 ** _MAX_HALVINGS:
                end_reason = "newton-failure"
                break
            continue
        except CollisionError as exc:
            end_reason = f"collision: {exc}"
            break
        except IntegrationFailure as exc:
            end_reason = f"integration-failure: {exc}"
            break
        prev, t_prev = here, t_here
        t_here = np.copysign(1.0, null @ tangent) * null
        fresh = metric * (new - here)
        chord = np.linalg.norm(fresh)
        if chord > 0:
            fresh /= chord
            if fresh @ tangent > 0:
                tangent = fresh
        here = new
        h = min(h * 1.3, max_step)
        if not in_window(new[-1]):
            end_reason = "varpi-range"
            break
    return ContinuationResult(spec, records, end_reason, varpi_star)


def _onset_point(red: _Reduction, epsilon):
    """(x, state) of the third-order expansion at amplitude epsilon.

    state is the expansion's (2, n, 3) state at t = 0, as `onset_state`
    gives it, and x = (u, v, varpi) its unknowns: u the coordinates of
    state in the reduced basis, v those of the state at tau / 2, read off
    the expansion's loop by a Fourier shift, and varpi its frame rate.  At
    epsilon = 0 the expansion is the relative equilibrium: state is the
    exact planar n-gon, and its state at tau / 2 is, to round-off, the
    n-gon turned by pi r tau / s about the vertical axis.
    """
    loop, varpi = _expansion(red.spec, epsilon)
    mid = LoopPath(loop.on_grid(0.5 * red.tau, loop.n_samples), loop.period)
    state = _first_state(loop)
    x = np.concatenate([red.basis.T @ state.ravel(),
                        red.mid_basis.T @ _first_state(mid).ravel(), [varpi]])
    return x, state


def _check_steps(n_steps, step, max_step, varpi_range) -> None:
    """Raise ValueError unless n_steps is a positive integer (bool
    excluded), both arclength steps are positive and finite and
    varpi_range, when given, is a window (lo, hi) with lo <= hi.

    A zero cap repeats the first record and a negative step walks back
    through the onset, and both would still end as "max-steps"; an
    infinite step puts a non-finite start into the solver; an empty or
    NaN window ends every run at its first record as "varpi-range".
    """
    _checked_count(n_steps, "n_steps")
    _checked_positive(step, "step")
    _checked_positive(max_step, "max_step")
    if varpi_range is not None and not varpi_range[0] <= varpi_range[1]:
        raise ValueError(f"varpi_range needs lo <= hi, got {varpi_range}")


def _checked_tol(tol, source: str) -> None:
    """Raise ValueError unless 0 < tol < 1.

    A zero integrator tolerance stalls the stepper, and a tolerance of
    one or more passes any orbit as closed.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"{source} out of range (0, 1): {tol}")


def _record(orbit: PeriodicOrbit) -> FamilyRecord:
    pos, vel = orbit.initial_state
    vel = vel + orbit.varpi * jay(pos)  # inertial velocities
    energy = _kinetic(vel) - potential(pos)
    return FamilyRecord(orbit.varpi, orbit.amplitude,
                        float(-3.0 * energy * orbit.period), orbit.period,
                        float(_lz(pos, vel)), orbit)


# ---------------------------------------------------------------------------
# monodromy and the action diagram


def monodromy(orbit: PeriodicOrbit) -> float:
    """Rotation number mu in [0, 1) of the inertial orbit over one period.

    Defined by x(t + T) = R(2 pi mu) x(t) for the inertial continuation of
    the rotating-frame orbit.  The orbit closes in the frame, x_rot(t + T)
    = x_rot(t), and its inertial image is x(t) = R(varpi t) x_rot(t), so
    x(t + T) = R(varpi T) x(t) and mu = varpi T / 2 pi mod 1, with no
    integration.  A rotation about the vertical axis fixes a state only
    when all its horizontal positions and velocities vanish; such a state
    stays on the axis, every mu fits, and SingularReduction is raised.
    A varpi or period that is not finite raises ValueError.
    """
    _checked_finite([orbit.varpi, orbit.period], "varpi and period")
    if not np.any(orbit.initial_state[..., :2]):
        raise SingularReduction(
            "every body is on the vertical axis with no horizontal velocity")
    mu = float(orbit.varpi * orbit.period / (2.0 * np.pi)) % 1.0
    return mu if mu < 1.0 else 0.0  # a tiny negative product rounds to 1


def _re_branch(spec: GroupSpec, varpi):
    # (omega_1^{4/3}, X) of the n-gon rotating at X = varpi + 2 pi r / s;
    # ValueError where varpi is not finite or X <= 0
    _checked_finite(varpi, "varpi")
    w1 = vertical_spectrum(spec.n_bodies).omega(1)
    x = np.asarray(varpi, dtype=float) + 2.0 * np.pi * spec.r / spec.s
    if np.any(x <= 0):
        raise ValueError("frame rate beyond the rest point of the branch")
    return w1 ** (4.0 / 3.0), x


def re_branch_action(spec: GroupSpec, varpi) -> np.ndarray:
    """Action of the rotating n-gon branch as a function of the frame rate.

    The n-gon that closes with period s after r turns in the frame varpi
    rotates at X = varpi + 2 pi r / s; scaling the unit n-gon to that rate
    gives A = (3/2) s n omega_1^{4/3} X^{2/3}.
    """
    w43, x = _re_branch(spec, varpi)
    return 1.5 * spec.s * spec.n_bodies * w43 * x ** (2.0 / 3.0)


def _re_branch_lz(spec: GroupSpec, varpi) -> np.ndarray:
    # L_z = n omega_1^{4/3} X^{-1/3} of the same branch
    w43, x = _re_branch(spec, varpi)
    return spec.n_bodies * w43 * x ** (-1.0 / 3.0)


@dataclass
class ActionDiagram:
    """Family table next to the closed-form relative equilibrium branch.

    Both arrays have columns (varpi, amplitude, action, period,
    angular_momentum_z); the branch rows have amplitude 0.
    """

    spec: GroupSpec
    family: np.ndarray
    re_branch: np.ndarray

    columns = ("varpi", "amplitude", "action", "period",
               "angular_momentum_z")


def action_diagram(family) -> ActionDiagram:
    """Tabulate a continued family against the relative equilibrium branch
    on 129 evenly spaced frame rates."""
    records = list(family)
    spec = records[0].orbit.spec
    rows = np.array([[getattr(r, c) for c in ActionDiagram.columns]
                     for r in records])
    lo = float(rows[:, 0].min())
    hi = float(rows[:, 0].max())
    pad = 0.1 * max(hi - lo, 0.1)
    floor = -2.0 * np.pi * spec.r / spec.s
    lo = max(lo - pad, floor + 1e-9)
    grid = np.linspace(lo, hi + pad, 129)
    branch = np.column_stack([
        grid,
        np.zeros_like(grid),
        re_branch_action(spec, grid),
        np.full_like(grid, float(spec.s)),
        _re_branch_lz(spec, grid),
    ])
    return ActionDiagram(spec, rows, branch)


def write_family_csv(result: ContinuationResult, path) -> None:
    """Write a family as CSV: spec header, one row per record, end footer.

    Floats are repr round-trippable.  path may be a filesystem path or a
    writable text file object.
    """
    spec = result.spec
    lines = [
        f"# spec={spec.n_bodies},{spec.k},{spec.eta},{spec.r},{spec.s}",
        ",".join(ActionDiagram.columns),
    ]
    for rec in result.records:
        lines.append(",".join(repr(float(getattr(rec, c)))
                              for c in ActionDiagram.columns))
    lines.append(f"# end={result.end_reason}")
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        Path(path).write_text(text)
