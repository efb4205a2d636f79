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
subspace.  The orbit is then closed by flowing over the smallest positive
time shift theta_0 of the group and matching the group image of the initial
state.  This cuts the unknown count roughly in half and shortens every
integration to a fraction theta_0 / s of the period, while pinning the time
origin and the in-plane rotation phase that would otherwise make the shooting
Jacobian singular.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (CollisionError, IntegrationFailure, NoConvergence,
                     SingularReduction)
from .ngon import (COLLISION_TOL, LoopPath, _separated, action,
                   angular_momentum_z, closest_pair, force_jacobian, gravity,
                   jay, pair_terms)
from .spectrum import vertical_spectrum
from .symmetry import GroupElement, GroupSpec, enumerate_elements
from .torsion import reconstruct_loop, torsion_gamma

INTEGRATOR_TOL = 1e-12
NEWTON_TOL = 1e-10

_HMASK = np.array([1.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# initial value problem


@dataclass
class IntegrationResult:
    """Final state of a flow, with the extras that were requested."""

    state: np.ndarray
    variational: Optional[np.ndarray] = None
    varpi_gradient: Optional[np.ndarray] = None
    trajectory: Optional[np.ndarray] = None
    times: Optional[np.ndarray] = None


def _frame_rate(frame) -> float:
    return float(getattr(frame, "varpi", frame))


def integrate(state, masses, frame, t_span, tol=INTEGRATOR_TOL, *,
              variational=False, varpi_gradient=False, t_eval=None,
              max_step=np.inf):
    """Flow the rotating-frame equations of motion with a DOP853 stepper.

    state is (2, n, 3): positions and velocities.  frame is a RotatingFrame
    or a bare rate varpi; t_span a duration or a (t0, t1) pair.  By default
    the final state is returned.  Requesting the variational matrix (the
    6n x 6n derivative of the flow with respect to the initial state), the
    varpi gradient, or a trajectory on t_eval returns an IntegrationResult
    carrying them.

    Initial positions closer than ngon.COLLISION_TOL raise CollisionError
    with the offending pair; so does a terminal event when the closest pair
    separation crosses below it.  The event is the only collision check of
    the flow: the right-hand side (`gravity`, `force_jacobian`) does none.
    Solver breakdown raises IntegrationFailure with the time reached.
    """
    state = np.asarray(state, dtype=float)
    _separated(state[0])
    n = state.shape[1]
    masses = np.asarray(masses, dtype=float)
    varpi = _frame_rate(frame)
    if np.ndim(t_span) == 0:
        t0, t1 = 0.0, float(t_span)
    else:
        t0, t1 = map(float, t_span)
    nv = 3 * n
    n_core = 2 * nv
    jmat = np.zeros((nv, nv))
    for i in range(n):
        jmat[3 * i, 3 * i + 1] = -1.0
        jmat[3 * i + 1, 3 * i] = 1.0
    pmat = np.diag(np.tile(_HMASK, n))

    def rhs(t, y):
        out = np.empty_like(y)
        pos = y[:nv].reshape(n, 3)
        vel = y[nv:n_core].reshape(n, 3)
        acc = gravity(pos, masses) + varpi ** 2 * (pos * _HMASK) \
            - 2.0 * varpi * jay(vel)
        out[:nv] = y[nv:n_core]
        out[nv:n_core] = acc.ravel()
        if y.size == n_core:
            return out
        mat = np.zeros((n_core, n_core))
        mat[:nv, nv:] = np.eye(nv)
        mat[nv:, :nv] = force_jacobian(pos, masses) + varpi ** 2 * pmat
        mat[nv:, nv:] = -2.0 * varpi * jmat
        idx = n_core
        if variational:
            v = y[idx:idx + n_core * n_core].reshape(n_core, n_core)
            out[idx:idx + n_core * n_core] = (mat @ v).ravel()
            idx += n_core * n_core
        if varpi_gradient:
            w = y[idx:idx + n_core]
            drive = np.concatenate([
                np.zeros(nv),
                2.0 * varpi * (pos * _HMASK).ravel() - 2.0 * jay(vel).ravel(),
            ])
            out[idx:idx + n_core] = mat @ w + drive
        return out

    def closest(t, y):
        r = pair_terms(y[:nv].reshape(n, 3))[1]
        return float(r.min()) - COLLISION_TOL

    closest.terminal = True
    closest.direction = -1.0

    y0 = [state.ravel()]
    if variational:
        y0.append(np.eye(n_core).ravel())
    if varpi_gradient:
        y0.append(np.zeros(n_core))
    y0 = np.concatenate(y0)

    if t1 == t0:
        sol_y = y0[:, None]
        sol_t = np.array([t0])
    else:
        sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=tol,
                        atol=tol, events=closest, t_eval=t_eval,
                        max_step=max_step, dense_output=False)
        if sol.status == 1:
            yc = sol.y_events[0][-1] if len(sol.y_events[0]) else sol.y[:, -1]
            raise CollisionError(
                *closest_pair(pair_terms(yc[:nv].reshape(n, 3))[1]))
        if sol.status != 0:
            raise IntegrationFailure(
                f"integrator stopped at t = {sol.t[-1]:.9g} of "
                f"[{t0:.9g}, {t1:.9g}]: {sol.message}")
        sol_y, sol_t = sol.y, sol.t

    yf = sol_y[:, -1]
    final = yf[:n_core].reshape(2, n, 3)
    if not (variational or varpi_gradient or t_eval is not None):
        return final
    result = IntegrationResult(state=final)
    idx = n_core
    if variational:
        result.variational = yf[idx:idx + n_core * n_core].reshape(
            n_core, n_core)
        idx += n_core * n_core
    if varpi_gradient:
        result.varpi_gradient = yf[idx:idx + n_core]
    if t_eval is not None:
        result.trajectory = sol_y[:n_core].T.reshape(-1, 2, n, 3)
        result.times = sol_t
    return result


# ---------------------------------------------------------------------------
# symmetry reduction of the boundary value problem


class _Reduction:
    """Fixed subspace of the time-zero stabilizer plus the closing map."""

    def __init__(self, spec: GroupSpec):
        n = spec.n_bodies
        elements = enumerate_elements(spec)
        frozen = [g for g in elements if g.theta == 0]
        proj = sum(_state_matrix(spec, g) for g in frozen) / len(frozen)
        vals, vecs = np.linalg.eigh(proj)
        self.basis = vecs[:, vals > 0.5]
        shifts = [g for g in elements if g.xi == 1 and g.theta > 0]
        theta0 = min(g.theta for g in shifts)
        self.shift = min((g for g in shifts if g.theta == theta0),
                         key=lambda g: (g.delta, g.beta))
        self.theta0 = theta0
        # theta counts time in units where the loop period is s
        self.tau = float(theta0)
        self.closing = _state_matrix(spec, self.shift)
        self.closing_basis = self.closing @ self.basis
        self.spec = spec
        self.masses = np.ones(n)
        self.z0_row = self.basis[2]  # vertical coordinate of body 0

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _state_matrix(spec: GroupSpec, g: GroupElement) -> np.ndarray:
    """Phase-space action of a group element evaluated at time zero.

    Positions map by body relabeling j -> xi (j + delta) composed with a
    rotation by 2 pi alpha (conjugating first when xi = -1) and the vertical
    sign (-1)^beta; velocities pick up the extra factor xi from time
    reversal.
    """
    n = spec.n_bodies
    ang = 2.0 * np.pi * float(g.alpha)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    if g.xi == -1:
        rot = rot @ np.diag([1.0, -1.0])
    block = np.zeros((3, 3))
    block[:2, :2] = rot
    block[2, 2] = 1.0 - 2.0 * g.beta
    nv = 3 * n
    mat = np.zeros((2 * nv, 2 * nv))
    for j in range(n):
        src = (g.xi * (j + g.delta)) % n
        mat[3 * j:3 * j + 3, 3 * src:3 * src + 3] = block
        mat[nv + 3 * j:nv + 3 * j + 3, nv + 3 * src:nv + 3 * src + 3] = \
            g.xi * block
    return mat


_REDUCTIONS: dict = {}


def _reduction(spec: GroupSpec) -> _Reduction:
    if spec not in _REDUCTIONS:
        _REDUCTIONS[spec] = _Reduction(spec)
    return _REDUCTIONS[spec]


def _closing_residual(red: _Reduction, u, varpi, integrator_tol,
                      with_jacobian):
    """Residual Phi_tau(Q u) - S Q u of the reduced boundary value problem.

    With the Jacobian flag also returns d(residual)/du and d/dvarpi, built
    from the variational flow.
    """
    x0 = (red.basis @ u).reshape(2, -1, 3)
    if not with_jacobian:
        phi = integrate(x0, red.masses, varpi, red.tau, integrator_tol)
        return phi.ravel() - red.closing_basis @ u
    res = integrate(x0, red.masses, varpi, red.tau, integrator_tol,
                    variational=True, varpi_gradient=True)
    residual = res.state.ravel() - red.closing_basis @ u
    jac_u = res.variational @ red.basis - red.closing_basis
    return residual, jac_u, res.varpi_gradient


# ---------------------------------------------------------------------------
# periodic orbits


@dataclass
class PeriodicOrbit:
    """Closed orbit of the rotating-frame equations.

    initial_state is the (2, n, 3) stack of positions and velocities at
    t = 0, which lies in the fixed subspace of the time-zero stabilizer
    elements.  amplitude is the signed coefficient of the first vertical
    harmonic of body 0; residual the sup norm of the closing defect.
    """

    spec: GroupSpec
    varpi: float
    period: float
    initial_state: np.ndarray
    amplitude: float
    residual: float

    def sample(self, n_samples: int = 512,
               tol: float = INTEGRATOR_TOL) -> LoopPath:
        """Integrate one period and return the uniformly sampled loop."""
        return _sample_loop(self.spec, self.initial_state, self.varpi,
                            n_samples, tol)


def _sample_loop(spec, state, varpi, n_samples, tol) -> LoopPath:
    period = float(spec.s)
    t_eval = np.arange(n_samples + 1) * (period / n_samples)
    # dense-output interpolation is an order lower than the endpoint values;
    # cap the step so sampled points are as accurate as the tolerance
    res = integrate(state, np.ones(spec.n_bodies), varpi, (0.0, period),
                    tol, t_eval=t_eval, max_step=period / 128.0)
    pos = res.trajectory[:, 0]
    # spread the residual closing defect over the period: a seam jump of
    # size delta would otherwise ring through spectral derivatives
    delta = pos[-1] - pos[0]
    pos = pos[:-1] - np.arange(n_samples)[:, None, None] / n_samples * delta
    return LoopPath(pos, period)


def _amplitude(loop: LoopPath, spec: GroupSpec) -> float:
    # first vertical harmonic of body 0; the time-reversal element of the
    # stabilizer makes the coefficient real
    z0 = loop.positions[:, 0, 2]
    coef = np.fft.fft(z0)[spec.s] / loop.n_samples
    return float(2.0 * coef.real)


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
                    tol: float = NEWTON_TOL, max_iter: int = 40,
                    integrator_tol: float = INTEGRATOR_TOL) -> PeriodicOrbit:
    """Newton solve of the reduced closing condition at fixed frame rate.

    guess is a (2, n, 3) state (or a PeriodicOrbit, whose state is reused);
    it is first projected onto the fixed subspace of the time-zero
    stabilizer elements.  The unknowns are the coordinates in that subspace,
    the equations Phi_{theta0 T}(X) = S X with S the smallest positive time
    shift of the group.  Raises NoConvergence when the damped iteration
    stalls above tol.
    """
    red = _reduction(spec)
    if isinstance(guess, PeriodicOrbit):
        guess = guess.initial_state
    u0 = red.basis.T @ np.asarray(guess, dtype=float).ravel()

    def closing(u, with_jacobian):
        out = _closing_residual(red, u, varpi, integrator_tol, with_jacobian)
        return out[:2] if with_jacobian else out

    u, residual = _damped_newton(closing, u0, tol, integrator_tol, max_iter)
    orbit, _ = _finish_orbit(spec, red, u, varpi,
                             float(np.max(np.abs(residual))), integrator_tol)
    return orbit


def _damped_newton(fun, x0, tol, integrator_tol, max_iter):
    """Gauss-Newton with a halving line search on a residual function.

    fun(x, True) returns (residual, Jacobian) and fun(x, False) the
    residual alone.  Returns (x, residual) once the sup norm of the
    residual is at most tol.  Raises NoConvergence when six halvings find
    no decrease above tol, or max_iter iterations end above it.
    """
    x = np.asarray(x0, dtype=float).copy()
    norm, prev_norm = np.inf, np.inf
    floor = 0.25 * integrator_tol
    for _ in range(max_iter):
        residual, jac = fun(x, True)
        norm = float(np.max(np.abs(residual)))
        # polish past tol while convergence is still rapid; the closing
        # defect rings through spectral residuals of the sampled loop
        if norm <= floor or (norm <= tol and norm > 0.05 * prev_norm):
            return x, residual
        prev_norm = norm
        step = np.linalg.lstsq(jac, -residual, rcond=None)[0]
        for scale in 0.5 ** np.arange(6):
            trial = x + scale * step
            if np.max(np.abs(fun(trial, False))) < norm:
                x = trial
                break
        else:
            if norm <= tol:
                return x, residual
            raise NoConvergence(f"Newton stalled at residual {norm:.3e}")
    if norm > tol:
        raise NoConvergence(f"no convergence in {max_iter} iterations "
                            f"(residual {norm:.3e})")
    return x, fun(x, False)


def _finish_orbit(spec, red, u, varpi, residual, integrator_tol,
                  n_samples=512):
    state = (red.basis @ u).reshape(2, -1, 3)
    loop = _sample_loop(spec, state, varpi, n_samples, integrator_tol)
    orbit = PeriodicOrbit(spec, float(varpi), float(spec.s), state,
                          _amplitude(loop, spec), float(residual))
    return orbit, loop


# ---------------------------------------------------------------------------
# continuation


@dataclass
class FamilyRecord:
    """One accepted continuation step."""

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


def _corrector(red, u0, varpi0, row_u, row_w, rhs, tol, integrator_tol,
               max_iter=12):
    """Gauss-Newton on the closing condition plus one scalar constraint.

    rhs(u, varpi) is the constraint value; (row_u, row_w) its gradient.
    Returns (u, varpi, closing residual sup norm).
    """
    row = np.append(row_u, row_w)

    def bordered(x, with_jacobian):
        u, varpi = x[:-1], x[-1]
        out = _closing_residual(red, u, varpi, integrator_tol, with_jacobian)
        if not with_jacobian:
            return np.append(out, rhs(u, varpi))
        residual, jac_u, jac_w = out
        jac = np.vstack([np.column_stack([jac_u, jac_w]), row])
        return np.append(residual, rhs(u, varpi)), jac

    x, full = _damped_newton(bordered, np.append(u0, varpi0), tol,
                             integrator_tol, max_iter)
    return x[:-1], float(x[-1]), float(np.max(np.abs(full[:-1])))


def continue_family(spec: GroupSpec, start_varpi: Optional[float] = None,
                    direction: int = 1, n_steps: int = 40,
                    step: float = 0.04, max_step: float = 0.15,
                    eps0: float = 0.02, tol: float = NEWTON_TOL,
                    integrator_tol: float = INTEGRATOR_TOL,
                    min_step: float = 1e-6, max_halvings: int = 12,
                    n_record_samples: int = 512,
                    varpi_range=None) -> ContinuationResult:
    """Pseudo-arclength continuation of a vertical family from its onset.

    The first record is the relative equilibrium at the branch point (zero
    amplitude); the second is pinned at vertical amplitude direction * eps0
    using the third-order expansion as predictor.  Subsequent steps follow
    the arclength tangent in (reduced state, varpi) with the period held at
    T = s throughout.  On corrector failure the step is halved, down to
    min_step and at most max_halvings times; the run ends with one of the
    reasons "max-steps", "newton-failure", "collision",
    "integration-failure" or "varpi-range".
    """
    red = _reduction(spec)
    state_re, varpi_star = onset_state(spec, 0.0)
    if start_varpi is not None:
        varpi_star = float(start_varpi)

    def in_window(w):
        return varpi_range is None or varpi_range[0] <= w <= varpi_range[1]

    u_re = red.basis.T @ state_re.ravel()
    res_re = _closing_residual(red, u_re, varpi_star, integrator_tol, False)
    records = []
    rec, _ = _make_record(spec, red, u_re, varpi_star,
                          float(np.max(np.abs(res_re))), integrator_tol,
                          n_record_samples)
    records.append(rec)
    if not in_window(varpi_star):
        return ContinuationResult(spec, records, "varpi-range", varpi_star)

    # first step: pin the vertical coordinate of body 0 at t = 0
    state1, varpi1 = onset_state(spec, direction * eps0)
    target = float(state1[0, 0, 2])
    row_u = red.z0_row

    def pin(u, varpi):
        return row_u @ u - target

    end_reason = "max-steps"
    try:
        u1, w1, res1 = _corrector(red, red.basis.T @ state1.ravel(), varpi1,
                                  row_u, 0.0, pin, tol, integrator_tol)
    except (CollisionError, IntegrationFailure, NoConvergence) as exc:
        return ContinuationResult(spec, records, f"onset-failure: {exc}",
                                  varpi_star)
    rec, _ = _make_record(spec, red, u1, w1, res1, integrator_tol,
                          n_record_samples)
    records.append(rec)
    if not in_window(w1):
        return ContinuationResult(spec, records, "varpi-range", varpi_star)

    prev = np.append(u_re, varpi_star)
    here = np.append(u1, w1)
    tangent = here - prev
    tangent /= np.linalg.norm(tangent)
    h = step
    while len(records) < n_steps + 1:
        pred = here + h * tangent
        row_u, row_w = tangent[:-1], tangent[-1]

        def arc(u, varpi, pred=pred, tu=row_u, tw=row_w):
            return tu @ (u - pred[:-1]) + tw * (varpi - pred[-1])

        try:
            u_new, w_new, res_new = _corrector(
                red, pred[:-1], pred[-1], row_u, row_w, arc, tol,
                integrator_tol)
        except NoConvergence:
            h *= 0.5
            if h < min_step or step / h > 2 ** max_halvings:
                end_reason = "newton-failure"
                break
            continue
        except CollisionError as exc:
            end_reason = f"collision: {exc}"
            break
        except IntegrationFailure as exc:
            end_reason = f"integration-failure: {exc}"
            break
        try:
            rec, _ = _make_record(spec, red, u_new, w_new, res_new,
                                  integrator_tol, n_record_samples)
        except CollisionError as exc:
            end_reason = f"collision: {exc}"
            break
        records.append(rec)
        new = np.append(u_new, w_new)
        fresh = new - here
        norm = np.linalg.norm(fresh)
        if norm > 0:
            fresh /= norm
            if fresh @ tangent > 0:
                tangent = fresh
        here = new
        h = min(h * 1.3, max_step)
        if not in_window(w_new):
            end_reason = "varpi-range"
            break
    return ContinuationResult(spec, records, end_reason, varpi_star)


def _make_record(spec, red, u, varpi, residual, integrator_tol, n_samples):
    orbit, loop = _finish_orbit(spec, red, u, varpi, residual,
                                integrator_tol, n_samples)
    lz = angular_momentum_z(loop, varpi)
    rec = FamilyRecord(float(varpi), orbit.amplitude,
                       action(loop, varpi), float(spec.s),
                       float(lz.mean()), orbit)
    return rec, loop


# ---------------------------------------------------------------------------
# monodromy and the action diagram


def monodromy(orbit: PeriodicOrbit, n_samples: int = 256,
              integrator_tol: float = INTEGRATOR_TOL) -> float:
    """Rotation number mu in [0, 1) of the inertial orbit over one period.

    Defined by x(t + T) = R(2 pi mu) x(t) for the inertial continuation of
    the rotating-frame orbit, and measured as the phase advance of the
    leading horizontal Fourier mode sum_j h_j zeta^{-j} along the
    trajectory.  Configurations with no horizontal extent leave the phase
    undefined and raise SingularReduction.
    """
    n = orbit.spec.n_bodies
    t = np.linspace(0.0, orbit.period, n_samples + 1)
    res = integrate(orbit.initial_state, np.ones(n), orbit.varpi,
                    (0.0, orbit.period), integrator_tol, t_eval=t)
    pos = res.trajectory[:, 0]
    h = pos[:, :, 0] + 1j * pos[:, :, 1]
    mode = h @ np.exp(-2j * np.pi * np.arange(n) / n)
    mode = mode * np.exp(1j * orbit.varpi * t)  # frame -> inertial
    scale = float(np.max(np.abs(h)))
    if np.min(np.abs(mode)) < 1e-8 * max(scale, 1e-300) * n:
        raise SingularReduction(
            "leading horizontal mode vanishes along the orbit")
    phase = np.unwrap(np.angle(mode))
    return float(((phase[-1] - phase[0]) / (2.0 * np.pi)) % 1.0)


def re_branch_action(spec: GroupSpec, varpi) -> np.ndarray:
    """Action of the rotating n-gon branch as a function of the frame rate.

    The n-gon that closes with period s after r turns in the frame varpi
    rotates at X = varpi + 2 pi r / s; scaling the unit n-gon to that rate
    gives A = (3/2) s n omega_1^{4/3} X^{2/3}.
    """
    w1 = vertical_spectrum(spec.n_bodies).omega(1)
    x = np.asarray(varpi, dtype=float) + 2.0 * np.pi * spec.r / spec.s
    if np.any(x <= 0):
        raise ValueError("frame rate beyond the rest point of the branch")
    return 1.5 * spec.s * spec.n_bodies * w1 ** (4.0 / 3.0) * x ** (2.0 / 3.0)


def _re_branch_lz(spec: GroupSpec, varpi) -> np.ndarray:
    w1 = vertical_spectrum(spec.n_bodies).omega(1)
    x = np.asarray(varpi, dtype=float) + 2.0 * np.pi * spec.r / spec.s
    return spec.n_bodies * w1 ** (4.0 / 3.0) * x ** (-1.0 / 3.0)


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


def action_diagram(family, n_branch: int = 129) -> ActionDiagram:
    """Tabulate a continued family against the relative equilibrium branch."""
    if isinstance(family, ContinuationResult):
        spec, records = family.spec, family.records
    else:
        records = list(family)
        spec = records[0].orbit.spec
    rows = np.array([[r.varpi, r.amplitude, r.action, r.period,
                      r.angular_momentum_z] for r in records])
    lo = float(rows[:, 0].min())
    hi = float(rows[:, 0].max())
    pad = 0.1 * max(hi - lo, 0.1)
    floor = -2.0 * np.pi * spec.r / spec.s
    lo = max(lo - pad, floor + 1e-9)
    grid = np.linspace(lo, hi + pad, n_branch)
    branch = np.column_stack([
        grid,
        np.zeros(n_branch),
        re_branch_action(spec, grid),
        np.full(n_branch, float(spec.s)),
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
        "varpi,amplitude,action,period,angular_momentum_z",
    ]
    for rec in result.records:
        lines.append(",".join(repr(float(v)) for v in (
            rec.varpi, rec.amplitude, rec.action, rec.period,
            rec.angular_momentum_z)))
    lines.append(f"# end={result.end_reason}")
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        Path(path).write_text(text)
