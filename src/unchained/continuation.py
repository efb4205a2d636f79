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
218, 1976; Munoz-Almaraz et al., Physica D 181, 2003), so the orbit is
closed by flowing over tau / 2 alone and asking that the state there lie in
the fixed subspace of the midpoint stabilizer: the reversors at t = tau
with the xi = +1 elements at t = 0.  This cuts the unknown count roughly in
half, leaves fewer equations than the 6n of matching the shifted initial
state, and shortens every integration to tau / 2, while pinning the time
origin and the in-plane rotation phase that would otherwise make the
shooting Jacobian singular.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import block_diag

from .errors import (CollisionError, IntegrationFailure, NoConvergence,
                     SingularReduction)
from .ngon import (LoopPath, _checked_count, _checked_finite,
                   _checked_positive, _force, _force_jacobian_apply, _kinetic,
                   _lz, _pair_squares, _pairs, jay, potential)
from .spectrum import vertical_spectrum
from .symmetry import GroupElement, GroupSpec, _action, enumerate_elements
from .torsion import reconstruct_loop, torsion_gamma

INTEGRATOR_TOL = 1e-12
NEWTON_TOL = 100 * INTEGRATOR_TOL

_HMASK = np.array([1.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# initial value problem


@dataclass
class IntegrationResult:
    """Final state of a flow, with the extras that were requested."""

    state: np.ndarray
    tangents: Optional[np.ndarray] = None
    harmonic: Optional[np.ndarray] = None
    trajectory: Optional[np.ndarray] = None


@functools.lru_cache(maxsize=None)
def _linear_parts(n):
    # the constant (6n, 6n) parts of the flow's linear field on (x, v): the
    # x' = v block, the centrifugal P_h x and the Coriolis J v in the
    # velocity rows.  The frame varpi weighs them 1, varpi^2 and -2 varpi.
    # Cached per n, so read-only
    nv = 3 * n
    drift = np.eye(2 * nv, k=nv)
    centrifugal = np.zeros((2 * nv, 2 * nv))
    centrifugal[nv:, :nv] = np.diag(np.tile(_HMASK, n))
    coriolis = np.zeros((2 * nv, 2 * nv))
    coriolis[nv:, nv:] = np.kron(np.eye(n), [[0.0, -1.0, 0.0],
                                             [1.0, 0.0, 0.0],
                                             [0.0, 0.0, 0.0]])
    for a in (drift, centrifugal, coriolis):
        a.flags.writeable = False
    return drift, centrifugal, coriolis


def integrate(state, varpi, t_span, *, tol=INTEGRATOR_TOL, tangents=None,
              t_eval=None, max_step=np.inf) -> IntegrationResult:
    """Flow the rotating-frame equations of motion with a DOP853 stepper.

    state is (2, n, 3): positions and velocities; varpi the frame rate;
    t_span a duration or a (t0, t1) pair.  Returns an IntegrationResult
    whose state is the final state, with the trajectory on t_eval, of
    shape (len(t_eval),) + state.shape, when requested.

    Without tangents, state may also be a stack (..., 2, n, 3) of states
    flowed together in one solver call, and varpi a frame rate per member
    broadcast over the stack's leading axes.  The members share every
    step and DOP853's error norm, the RMS over all components, so the
    stack takes the steps its hardest member needs, and a member's error
    may reach sqrt(m) times the tolerance of a flow of its own, m the
    number of members.  The linear field is then one block-diagonal
    matrix over the members, and the pair pass takes the stack as its
    leading axes.

    tangents, when given, is a (6n + 1, m) matrix of directions in
    (initial state, varpi).  The flow then also carries the tangent flow
    W' = A(t) W + b(t) w, A the linearised vector field, b its derivative
    in varpi (2 varpi P_h x - 2 J v, in the velocity rows) and w the last
    row of the seed, which stays constant.  The result's tangents is the
    (6n, m) derivative of the final state along the seed columns, and its
    harmonic the n quadratures int_{t0}^{t1} z_b(t) exp(-2 pi i t) dt of
    the body heights, carried as 2n more components.

    The flow carries the state as column 0 of one (6n, 1 + m) matrix, the
    m tangent columns beside it (m = 0 without tangents), stored row by
    row and followed by the quadratures.  Every flow's right-hand side is
    the product of the linear field, assembled once per call from
    `_linear_parts`, with the flow rows, plus one pass over the pairs.  A
    plain flow, stacked or not, returns that product as a fresh vector
    with the force of `ngon._force` added in place to its velocity rows.
    A tangent flow takes `ngon._force_jacobian_apply`, which gives the
    force in column 0 and the force Jacobian applied to every other
    column.  Either pass compares the pair distances with
    ngon.COLLISION_TOL, as the initial positions are before the solver
    starts; a closer pair raises CollisionError naming it (i < j), in
    whichever member it occurs.
    Solver breakdown raises IntegrationFailure with the time reached, and
    a tol outside (0, 1), a stacked state with tangents, tangents that
    are not a (6n + 1, m) matrix, a varpi that does not broadcast over
    the stack, a non-finite varpi, t_span or t_eval entry, and a max_step
    that is NaN or not positive raise ValueError before any integration:
    DOP853 never leaves its step loop once its first step size is NaN,
    and scipy drops a NaN time from t_eval without a word.
    """
    _checked_tol(tol, "tol")
    state = np.asarray(state, dtype=float)
    stack = state.shape[:-3]
    if tangents is not None and stack:
        raise ValueError(f"tangents need one (2, n, 3) state, got a stack "
                         f"of shape {state.shape}")
    n = state.shape[-2]
    if tangents is not None:
        seed = np.asarray(tangents, dtype=float)
        if seed.ndim != 2 or len(seed) != 6 * n + 1:
            raise ValueError(f"tangents must be a ({6 * n + 1}, m) matrix, "
                             f"got shape {seed.shape}")
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
    drift, centrifugal, coriolis = _linear_parts(n)
    lins = [drift + w ** 2 * centrifugal - 2.0 * w * coriolis
            for w in rates.flat]
    lin = lins[0] if len(lins) == 1 else block_diag(*lins)
    scatter = _pairs(n)[3]
    width = 1 if tangents is None else 1 + seed.shape[1]
    n_flow = state.size * width
    view = stack + (2, n, 3, width)
    if tangents is None:
        y0 = state.ravel()
    else:
        y0 = np.concatenate([np.column_stack([state.ravel(), seed[:-1]])
                             .ravel(), np.zeros(2 * n)])
        # the varpi term b w: b = (d lin / d varpi) x, in the velocity rows,
        # and w the seed's last row, 0 in the state's column
        dlin = (2.0 * float(varpi) * centrifugal - 2.0 * coriolis)[nv:]
        w_varpi = np.append(0.0, seed[-1])

    def rhs(t, y):
        if tangents is None:
            # a flat vector, whose product with lin is the faster one
            out = lin @ y
            out.reshape(view)[..., 1, :, :, 0] += _force(
                y.reshape(view)[..., 0, :, :, 0])
            return out
        out = np.empty_like(y)
        mat = y[:n_flow].reshape(-1, width)
        flow = out[:n_flow].reshape(-1, width)
        np.matmul(lin, mat, out=flow)
        acc = _force_jacobian_apply(mat.reshape(view)[..., 0, :, :, :],
                                    scatter)
        acc += (dlin @ mat[:, 0]).reshape(n, 3, 1) * w_varpi
        np.multiply.outer([math.cos(2.0 * math.pi * t),
                           -math.sin(2.0 * math.pi * t)],
                          mat[2:nv:3, 0], out=out[n_flow:].reshape(2, n))
        flow.reshape(view)[..., 1, :, :, :] += acc
        return out

    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=tol, atol=tol,
                    t_eval=t_eval, max_step=max_step)
    if sol.status != 0:
        raise IntegrationFailure(
            f"integrator stopped at t = {sol.t[-1]:.9g} of "
            f"[{t0:.9g}, {t1:.9g}]: {sol.message}")

    final = sol.y[:n_flow, -1].reshape(-1, width)
    result = IntegrationResult(state=final[:, 0].reshape(state.shape))
    if tangents is not None:
        result.tangents = final[:, 1:]
        result.harmonic = sol.y[n_flow:n_flow + n, -1] \
            + 1j * sol.y[n_flow + n:, -1]
    if t_eval is not None:
        result.trajectory = sol.y[:n_flow:width].T.reshape(
            (-1,) + state.shape)
    return result


# ---------------------------------------------------------------------------
# symmetry reduction of the boundary value problem


class _Reduction:
    """Fixed subspaces of the time-zero and the midpoint stabilizers.

    basis spans the states at t = 0 that the time-zero stabilizer fixes.
    The midpoint stabilizer H_mid is the xi = +1 elements at t = 0 and the
    reversors (xi = -1) at t = tau, tau the minimal shift; each fixes the
    state at tau / 2.  mid_eq is an orthonormal basis, as rows, of the
    complement of its fixed subspace, so mid_eq x = 0 says x is fixed by
    H_mid.  shift_heights and mid_heights are the signed body permutations
    of the heights under the shift and under one reversor of H_mid.
    """

    def __init__(self, spec: GroupSpec):
        n = spec.n_bodies
        elements = enumerate_elements(spec)
        frozen = [g for g in elements if g.t == 0]
        self.basis = _fixed_subspace(frozen)[0]
        self.shift = min((g for g in elements if g.xi == 1 and g.t > 0),
                         key=lambda g: (g.t, g.delta, g.beta))
        # theta = t / 2N counts time in units where the loop period is s
        self.tau = self.shift.t / (2 * n)
        reversors = [g for g in elements if g.xi == -1
                     and g.t == self.shift.t]
        self.mid_eq = _fixed_subspace(
            [g for g in frozen if g.xi == 1] + reversors)[1].T
        h = slice(2, 3 * n, 3)  # rows and columns of the heights
        self.shift_heights = _state_matrix(self.shift)[h, h]
        self.mid_heights = _state_matrix(reversors[0])[h, h]
        # tangent seed in (state, varpi): the basis columns, then varpi
        self.seed = block_diag(self.basis, 1.0)
        self.spec = spec

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _state_matrix(g: GroupElement) -> np.ndarray:
    """Phase-space action of a group element evaluated at time zero.

    Positions map by the body relabelling and block of `symmetry._action`;
    velocities pick up the extra factor xi from time reversal.
    """
    src, block = _action(g)
    positions = np.kron(np.eye(g.spec.n_bodies)[src], block)
    return np.kron(np.diag([1.0, g.xi]), positions)


def _fixed_subspace(group):
    """Orthonormal bases, as columns, of the states a group of elements
    fixes and of their complement.

    The mean of the orthogonal state matrices over a group is the
    orthogonal projector onto their common fixed subspace.
    """
    proj = sum(_state_matrix(g) for g in group) / len(group)
    vals, vecs = np.linalg.eigh(proj)
    return vecs[:, vals > 0.5], vecs[:, vals <= 0.5]


@functools.cache
def _reduction(spec: GroupSpec) -> _Reduction:
    return _Reduction(spec)


def _closing_residual(red: _Reduction, x, tol):
    """Midpoint defect E Phi_{tau/2}(Q u) of the reduced boundary value
    problem at frame rate varpi, E = `red.mid_eq` and x = (u, varpi).

    Returns (residual, jac, harmonic) from one tangent flow over tau / 2
    seeded with `red.seed`: jac is E times the tangent flow along it in
    (u, varpi), and harmonic the height quadratures
    I = int_0^tau z(t) exp(-2 pi i t) dt of the whole segment, which
    `_amplitude` unfolds.  A reversor R of the midpoint stabilizer gives
    z(tau - t) = P_R z(t), P_R its signed body permutation of the heights,
    so the reflected half adds exp(-2 pi i tau) P_R conj(I_half) to the
    flow's I_half over [0, tau / 2] (z is real).
    """
    x0 = (red.basis @ x[:-1]).reshape(2, -1, 3)
    res = integrate(x0, x[-1], 0.5 * red.tau, tol=tol, tangents=red.seed)
    half = res.harmonic
    harmonic = half + np.exp(-2j * np.pi * red.tau) \
        * (red.mid_heights @ half.conj())
    eq = red.mid_eq
    return eq @ res.state.ravel(), eq @ res.tangents, harmonic


# ---------------------------------------------------------------------------
# periodic orbits


@dataclass
class PeriodicOrbit:
    """Closed orbit of the rotating-frame equations.

    initial_state is the (2, n, 3) stack of positions and velocities at
    t = 0, which lies in the fixed subspace of the time-zero stabilizer
    elements.  amplitude is the signed coefficient of the first vertical
    harmonic of body 0: the closing flow over half the minimal time shift
    that passed the Newton test also carries the harmonic quadratures of
    the heights, which a reversor reflects to the whole shift and the group
    unfolds to the period (`_amplitude`); residual is the sup norm of the
    midpoint reversor defect, the part of the state at tau / 2 outside the
    fixed subspace of the midpoint stabilizer.  `sample` flows the whole
    period, from both ends at once, and uses no symmetry, so it is an
    independent check of the values built from the half segment.
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


def _amplitude(red: _Reduction, harmonic) -> float:
    """First vertical harmonic of body 0 from one symmetry segment.

    harmonic holds I_b = int_0^tau z_b(t) exp(-2 pi i t) dt, tau the
    minimal time shift, which `_closing_residual` builds from the flow
    over [0, tau / 2] and its reflection by a reversor of the midpoint
    stabilizer.  With z(t + tau) = P z(t), P the shift's signed body
    permutation of the heights, segment j adds exp(-2 pi i j tau) e_0 P^j
    I.  The sum over the period s, over s, is FFT bin s of body 0's
    height, made real by the time-reversal element of the stabilizer.
    """
    n, s = red.spec.n_bodies, red.spec.s
    # the shifts t of the xi = +1 elements form a subgroup of Z/2Ns, so
    # the minimal one divides 2Ns
    n_segments = 2 * n * s // red.shift.t
    row = np.eye(n)[0]  # body 0 read off P^j z on segment j
    coef = 0.0
    for j in range(n_segments):
        coef += np.exp(-2j * np.pi * j * red.tau) * (row @ harmonic)
        row = row @ red.shift_heights
    return float(2.0 * coef.real / s)


def onset_state(spec: GroupSpec, epsilon: float = 0.0):
    """State and frame rate of the third-order expansion at time zero.

    epsilon = 0 gives the relative equilibrium at the branch point of the
    vertical family, in the frame where it closes with period s after r
    turns.  Returns (state, varpi).
    """
    result = torsion_gamma(spec)
    loop, varpi = reconstruct_loop(result, epsilon, n_samples=64)
    state = np.stack([loop.positions[0], loop.velocities()[0]])
    return state, varpi


def shoot_symmetric(spec: GroupSpec, varpi: float, guess,
                    integrator_tol: float = INTEGRATOR_TOL) -> PeriodicOrbit:
    """Newton solve of the reduced closing condition at fixed frame rate.

    guess is a (2, n, 3) state, projected onto the fixed subspace of the
    time-zero stabilizer elements.  The unknowns are the coordinates u in
    that subspace, the equations E Phi_{tau/2}(X) = 0: the flow over half
    the smallest positive time shift tau of the group must end in the
    fixed subspace of the midpoint stabilizer, whose complement E spans
    (`_Reduction`).  This is the arclength corrector of `continue_family`
    with its row pinned on varpi, so each closing flow carries one tangent
    column more, along varpi, and the guess is flowed at the coarser
    max(integrator_tol, _START_TOL) (`_damped_newton`).  Raises
    NoConvergence when the damped iteration stalls or runs out of
    iterations above 100 integrator_tol, and ValueError, before any
    integration, unless integrator_tol lies in (0, 0.01) and varpi is
    finite.
    """
    _checked_tol(100.0 * integrator_tol,
                 "Newton tolerance 100 * integrator_tol")
    red = _reduction(spec)
    x0 = np.append(red.basis.T @ np.asarray(guess, dtype=float).ravel(),
                   varpi)
    return _corrector(red, x0, np.eye(red.dim + 1)[-1], x0,
                      integrator_tol)[1]


def _damped_newton(fun, x0, integrator_tol):
    """Gauss-Newton with a halving line search on a residual function.

    fun(x, tol) returns (residual, Jacobian, extra) from a flow integrated
    at tolerance tol.  The start is evaluated at the coarser tolerance
    max(integrator_tol, _START_TOL): it only has to give the first step,
    from a residual far above the Newton test, so its error stays out of
    the result (inexact Newton; Dembo, Eisenstat and Steihaug, SIAM J.
    Numer. Anal. 19, 1982).  Every later point, line-search trials
    included, is evaluated once at integrator_tol, and an accepted
    trial's Jacobian gives the next step.  That step is the least-squares
    solution with singular values below 100 integrator_tol of the largest
    dropped: the Jacobian is no more accurate than the flow, so a
    numerically null direction, as at a branch point, takes no step.  The
    line search tries the full step and five halvings.

    No solve ends on a coarse evaluation: when the start would pass the
    Newton test, or no trial from it decreases the residual, the start is
    evaluated once more at integrator_tol, in place of one of the
    _CORRECTOR_ITER steps, and the iteration goes on from there; this is
    the only point evaluated twice.  Returns (x, residual, extra) of the
    evaluation whose sup norm passed the test, at most tol = 100
    integrator_tol.  Raises NoConvergence when no trial decreases a
    residual above tol, or _CORRECTOR_ITER steps end above it.
    """
    x = np.asarray(x0, dtype=float).copy()
    start_tol = max(integrator_tol, _START_TOL)
    coarse = start_tol > integrator_tol
    residual, jac, extra = fun(x, start_tol)
    norm, prev_norm = float(np.max(np.abs(residual))), np.inf
    tol, floor = 100.0 * integrator_tol, 0.25 * integrator_tol
    for _ in range(_CORRECTOR_ITER):
        # polish past tol while convergence is still rapid; the closing
        # defect rings through spectral residuals of the sampled loop
        if norm <= floor or (norm <= tol and norm > 0.05 * prev_norm):
            if not coarse:
                return x, residual, extra
        else:
            step = np.linalg.lstsq(jac, -residual,
                                   rcond=100.0 * integrator_tol)[0]
            for scale in 0.5 ** np.arange(6):
                trial = x + scale * step
                if np.array_equal(trial, x):
                    continue  # the step rounds away: x's evaluation stands
                evaluation = fun(trial, integrator_tol)
                trial_norm = float(np.max(np.abs(evaluation[0])))
                if trial_norm < norm:
                    x, prev_norm, norm = trial, norm, trial_norm
                    residual, jac, extra = evaluation
                    coarse = False
                    break
            else:
                if not coarse:
                    if norm <= tol:
                        return x, residual, extra
                    raise NoConvergence(
                        f"Newton stalled at residual {norm:.3e}")
        if coarse:
            # the solve would end on the coarse start: evaluate it again
            # at integrator_tol and go on from there
            residual, jac, extra = fun(x, integrator_tol)
            norm, coarse = float(np.max(np.abs(residual))), False
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
_MAX_HALVINGS = 12


def _corrector(red, start, row, point, integrator_tol):
    """Gauss-Newton on the closing condition plus one linear constraint.

    The unknown is packed x = (u, varpi), started at start, and the
    constraint row . (x - point) = 0 is the last equation.  Returns (x,
    orbit, null), all from the converged evaluation: orbit is the
    PeriodicOrbit at x with its closing residual's sup norm and amplitude;
    null is the unit right singular vector of the smallest singular value
    of its closing Jacobian in (u, varpi), the family tangent up to sign,
    and costs no integration.
    """
    def bordered(x, tol):
        residual, jac, harmonic = _closing_residual(red, x, tol)
        return (np.append(residual, row @ (x - point)), np.vstack([jac, row]),
                (harmonic, jac))

    x, full, (harmonic, jac) = _damped_newton(bordered, start,
                                              integrator_tol)
    orbit = PeriodicOrbit(red.spec, float(x[-1]), float(red.spec.s),
                          (red.basis @ x[:-1]).reshape(2, -1, 3),
                          _amplitude(red, harmonic),
                          float(np.max(np.abs(full[:-1]))))
    null = np.linalg.svd(jac)[2][-1]
    return x, orbit, null


def _hermite_start(pred, tangent, h, here, t_here, prev, t_prev):
    """First corrector iterate on the arclength hyperplane through pred.

    The cubic Hermite curve through the last two records prev and here,
    with unit family tangents t_prev and t_here and the chord |here - prev|
    as parameter length, is evaluated a further h beyond here.  prev is
    None when the previous record is the branch point, which has no
    tangent, and the start is then here + h t_here.  The point is projected
    onto {x : tangent . (x - pred) = 0}, the hyperplane the corrector
    solves on, so the record it converges to is the one a start at pred
    finds.
    """
    if prev is None:
        guess = here + h * t_here
    else:
        chord = np.linalg.norm(here - prev)
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
    period held at T = s, for x = (reduced state, varpi) on one hyperplane
    row . (x - point) = 0 (`_corrector`).  The second record pins the
    vertical coordinate of body 0 at t = 0: row picks it out of x, and
    point, also the start, is the third-order expansion at amplitude
    direction * _ONSET_EPS.  The steps after it follow the arclength
    tangent; step is the first arclength step and max_step its cap.  A
    step of length h solves on the hyperplane normal to the secant tangent
    through pred = here + h * tangent.  Its corrector starts from the
    cubic Hermite extrapolation of the last two records along their family
    tangents, projected onto that hyperplane (`_hermite_start`); the
    records are the same points as with a start at pred, reached in fewer
    Newton iterations.  When the corrector does not converge the step is
    halved; the run ends when h would fall below step * 2**-_MAX_HALVINGS.
    A step is accepted only with its record, so a failure while finishing
    the record ends the run like a failure of the corrector.  The run ends
    with one of the reasons "max-steps", "newton-failure", "collision:
    ...", "integration-failure: ...", "varpi-range" or, when the pinned
    first step fails, "onset-failure: ...".

    The branch-point record keeps the exact planar onset state, not its
    projection onto the reduced basis, so its heights, vertical velocities
    and amplitude are exactly 0.

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
    state_re, varpi_star = onset_state(spec, 0.0)

    def in_window(w):
        return varpi_range is None or varpi_range[0] <= w <= varpi_range[1]

    x_re = np.append(red.basis.T @ state_re.ravel(), varpi_star)
    res_re = _closing_residual(red, x_re, integrator_tol)[0]
    # the n-gon's heights vanish for all time, and so does the amplitude
    records = [_record(PeriodicOrbit(spec, varpi_star, float(spec.s),
                                     state_re, 0.0,
                                     float(np.max(np.abs(res_re)))))]
    if not in_window(varpi_star):
        return ContinuationResult(spec, records, "varpi-range", varpi_star)

    # first step: pin the vertical coordinate of body 0 at t = 0 to that
    # of the expansion's state
    state1, varpi1 = onset_state(spec, direction * _ONSET_EPS)
    x1 = np.append(red.basis.T @ state1.ravel(), varpi1)
    end_reason = "max-steps"
    try:
        here, orbit, null = _corrector(
            red, x1, np.append(red.basis[2], 0.0), x1, integrator_tol)
        records.append(_record(orbit))
    except (CollisionError, IntegrationFailure, NoConvergence) as exc:
        return ContinuationResult(spec, records, f"onset-failure: {exc}",
                                  varpi_star)
    if not in_window(here[-1]):
        return ContinuationResult(spec, records, "varpi-range", varpi_star)

    # the branch point's null space is 2-D, so it supplies no tangent
    prev, t_prev = None, None
    tangent = here - x_re
    tangent /= np.linalg.norm(tangent)
    t_here = np.copysign(1.0, null @ tangent) * null
    h = step
    while len(records) < n_steps + 1:
        pred = here + h * tangent
        start = _hermite_start(pred, tangent, h, here, t_here, prev, t_prev)
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
        fresh = new - here
        norm = np.linalg.norm(fresh)
        if norm > 0:
            fresh /= norm
            if fresh @ tangent > 0:
                tangent = fresh
        here = new
        h = min(h * 1.3, max_step)
        if not in_window(new[-1]):
            end_reason = "varpi-range"
            break
    return ContinuationResult(spec, records, end_reason, varpi_star)


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
