"""The DOP853 stepper: an explicit Runge-Kutta method of order 8.

Dormand and Prince's 12-stage pair, with the 5th- and 3rd-order error
estimates blended into one error norm and a 7th-order dense output from 3
extra stages (Hairer, Norsett and Wanner, Solving Ordinary Differential
Equations I, 2nd ed., Sec. II.5-6, and their Fortran code DOP853).  The
tableau holds the decimal literals of scipy's `dop853_coefficients`, and
`solve_ivp` makes scipy's `solve_ivp(method="DOP853")` arithmetic, operation
for operation: the same initial step (HNW II.4), stage sums, error norm,
step control and dense output.  A flow takes the same steps, makes the same
right-hand-side calls and returns the same doubles, without scipy's solver
objects around every step and every call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import IntegrationFailure, NoConvergence

# ---------------------------------------------------------------------------
# tableau: 12 stages, the 13th row the 8th-order weights B (first same as
# last), and rows 13-15 the extra stages of the dense output

N_STAGES = 12

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((16, 16))
A[1, 0] = 5.26001519587677318785587544488e-2
A[2, :2] = [1.97250569845378994544595329183e-2,
            5.91751709536136983633785987549e-2]
A[3, [0, 2]] = [2.95875854768068491816892993775e-2,
                8.87627564304205475450678981324e-2]
A[4, [0, 2, 3]] = [2.41365134159266685502369798665e-1,
                   -8.84549479328286085344864962717e-1,
                   9.24834003261792003115737966543e-1]
A[5, [0, 3, 4]] = [3.7037037037037037037037037037e-2,
                   1.70828608729473871279604482173e-1,
                   1.25467687566822425016691814123e-1]
A[6, [0, 3, 4, 5]] = [3.7109375e-2,
                      1.70252211019544039314978060272e-1,
                      6.02165389804559606850219397283e-2,
                      -1.7578125e-2]
A[7, [0, 3, 4, 5, 6]] = [3.70920001185047927108779319836e-2,
                         1.70383925712239993810214054705e-1,
                         1.07262030446373284651809199168e-1,
                         -1.53194377486244017527936158236e-2,
                         8.27378916381402288758473766002e-3]
A[8, [0, 3, 4, 5, 6, 7]] = [6.24110958716075717114429577812e-1,
                            -3.36089262944694129406857109825,
                            -8.68219346841726006818189891453e-1,
                            2.75920996994467083049415600797e1,
                            2.01540675504778934086186788979e1,
                            -4.34898841810699588477366255144e1]
A[9, [0, 3, 4, 5, 6, 7, 8]] = [4.77662536438264365890433908527e-1,
                               -2.48811461997166764192642586468,
                               -5.90290826836842996371446475743e-1,
                               2.12300514481811942347288949897e1,
                               1.52792336328824235832596922938e1,
                               -3.32882109689848629194453265587e1,
                               -2.03312017085086261358222928593e-2]
A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [-9.3714243008598732571704021658e-1,
                                   5.18637242884406370830023853209,
                                   1.09143734899672957818500254654,
                                   -8.14978701074692612513997267357,
                                   -1.85200656599969598641566180701e1,
                                   2.27394870993505042818970056734e1,
                                   2.49360555267965238987089396762,
                                   -3.0467644718982195003823669022]
A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [2.27331014751653820792359768449,
                                       -1.05344954667372501984066689879e1,
                                       -2.00087205822486249909675718444,
                                       -1.79589318631187989172765950534e1,
                                       2.79488845294199600508499808837e1,
                                       -2.85899827713502369474065508674,
                                       -8.87285693353062954433549289258,
                                       1.23605671757943030647266201528e1,
                                       6.43392746015763530355970484046e-1]
A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [5.42937341165687622380535766363e-2,
                                     4.45031289275240888144113950566,
                                     1.89151789931450038304281599044,
                                     -5.8012039600105847814672114227,
                                     3.1116436695781989440891606237e-1,
                                     -1.52160949662516078556178806805e-1,
                                     2.01365400804030348374776537501e-1,
                                     4.47106157277725905176885569043e-2]
A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [5.61675022830479523392909219681e-2,
                                      2.53500210216624811088794765333e-1,
                                      -2.46239037470802489917441475441e-1,
                                      -1.24191423263816360469010140626e-1,
                                      1.5329179827876569731206322685e-1,
                                      8.20105229563468988491666602057e-3,
                                      7.56789766054569976138603589584e-3,
                                      -8.298e-3]
A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [3.18346481635021405060768473261e-2,
                                       2.83009096723667755288322961402e-2,
                                       5.35419883074385676223797384372e-2,
                                       -5.49237485713909884646569340306e-2,
                                       -1.08347328697249322858509316994e-4,
                                       3.82571090835658412954920192323e-4,
                                       -3.40465008687404560802977114492e-4,
                                       1.41312443674632500278074618366e-1]
A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [-4.28896301583791923408573538692e-1,
                                      -4.69762141536116384314449447206,
                                      7.68342119606259904184240953878,
                                      4.06898981839711007970213554331,
                                      3.56727187455281109270669543021e-1,
                                      -1.39902416515901462129418009734e-3,
                                      2.9475147891527723389556272149,
                                      -9.15095847217987001081870187138]

B = A[N_STAGES, :N_STAGES]

# the error estimates' weights on the 12 stages and f at the step's end
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [0.1312004499419488073250102996e-1,
                                  -0.1225156446376204440720569753e+1,
                                  -0.4957589496572501915214079952,
                                  0.1664377182454986536961530415e+1,
                                  -0.3503288487499736816886487290,
                                  0.3341791187130174790297318841,
                                  0.8192320648511571246570742613e-1,
                                  -0.2235530786388629525884427845e-1]

# the dense output's coefficients 3-6 on all 16 stages (0-2 are built from
# the step's ends)
D = np.zeros((4, 16))
_D_STAGES = [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]
D[0, _D_STAGES] = [-0.84289382761090128651353491142e+1,
                   0.56671495351937776962531783590,
                   -0.30689499459498916912797304727e+1,
                   0.23846676565120698287728149680e+1,
                   0.21170345824450282767155149946e+1,
                   -0.87139158377797299206789907490,
                   0.22404374302607882758541771650e+1,
                   0.63157877876946881815570249290,
                   -0.88990336451333310820698117400e-1,
                   0.18148505520854727256656404962e+2,
                   -0.91946323924783554000451984436e+1,
                   -0.44360363875948939664310572000e+1]
D[1, _D_STAGES] = [0.10427508642579134603413151009e+2,
                   0.24228349177525818288430175319e+3,
                   0.16520045171727028198505394887e+3,
                   -0.37454675472269020279518312152e+3,
                   -0.22113666853125306036270938578e+2,
                   0.77334326684722638389603898808e+1,
                   -0.30674084731089398182061213626e+2,
                   -0.93321305264302278729567221706e+1,
                   0.15697238121770843886131091075e+2,
                   -0.31139403219565177677282850411e+2,
                   -0.93529243588444783865713862664e+1,
                   0.35816841486394083752465898540e+2]
D[2, _D_STAGES] = [0.19985053242002433820987653617e+2,
                   -0.38703730874935176555105901742e+3,
                   -0.18917813819516756882830838328e+3,
                   0.52780815920542364900561016686e+3,
                   -0.11573902539959630126141871134e+2,
                   0.68812326946963000169666922661e+1,
                   -0.10006050966910838403183860980e+1,
                   0.77771377980534432092869265740,
                   -0.27782057523535084065932004339e+1,
                   -0.60196695231264120758267380846e+2,
                   0.84320405506677161018159903784e+2,
                   0.11992291136182789328035130030e+2]
D[3, _D_STAGES] = [-0.25693933462703749003312586129e+2,
                   -0.15418974869023643374053993627e+3,
                   -0.23152937917604549567536039109e+3,
                   0.35763911791061412378285349910e+3,
                   0.93405324183624310003907691704e+2,
                   -0.37458323136451633156875139351e+2,
                   0.10409964950896230045147246184e+3,
                   0.29840293426660503123344363579e+2,
                   -0.43533456590011143754432175058e+2,
                   0.96324553959188282948394950600e+2,
                   -0.39177261675615439165231486172e+2,
                   -0.14972683625798562581422125276e+3]

# the smallest relative tolerance the step control resolves
RTOL_FLOOR = 100 * np.finfo(float).eps
# step control: the safety factor and the bounds on a step's change
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
# stage s's weights on stages 0..s-1 and its time fraction, for the step's
# stages 1-11 and the dense output's 13-15
_STAGES = [(A[s, :s], float(C[s])) for s in range(1, N_STAGES)]
_EXTRA = [(A[s, :s], float(C[s])) for s in range(N_STAGES + 1, 16)]


class _BudgetExhausted(NoConvergence):
    """A flow asked for more right-hand sides than its max_nfev allows.

    The Newton solves of `continuation` cap their line-search trials this
    way: a line search counts it as no decrease, and anywhere else it ends
    the solve as a stall."""


@dataclass
class Solution:
    """A flow's state at the end of its span, its trajectory on t_eval
    (one row per time, None without t_eval), its right-hand-side calls
    nfev and its accepted and rejected steps."""

    state: np.ndarray
    trajectory: Optional[np.ndarray]
    nfev: int
    accepted: int
    rejected: int


def _rms(x):
    # scipy's RMS norm: np.linalg.norm(x) / sqrt(size)
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def solve_ivp(fun, t_span, y0, *, tol, t_eval=None, max_step=np.inf,
              max_nfev=None) -> Solution:
    """Flow y' = fun(t, y) from y0 over a finite t_span = (t0, t1) with
    DOP853.

    fun returns a fresh float array of y's shape.  The y it is handed is
    often one buffer that the stepper reuses for every stage argument, so
    fun must not keep it or return a view of it.  The local error of a
    step is held to atol + rtol |y| in DOP853's blended RMS norm, with
    atol = rtol = tol, except that an rtol below RTOL_FLOOR = 100 eps is
    raised to it with a UserWarning, as scipy does, since the step control
    cannot resolve less.  Steps never exceed max_step, and t1 may lie
    before t0.  t_eval, sorted along the direction of the flow and inside
    the span, asks for the trajectory at those times from the 7th-order
    dense output, 3 more right-hand sides for each step that holds one of
    them.  Each such step keeps the 7 coefficient rows of its
    interpolant, and the interpolants are evaluated once, at the end of
    the flow, over all of t_eval, with the operations scipy applies step
    by step, so every row is the same double.  A zero span takes no step
    and costs the one call at t0.

    Raises ValueError, before the first right-hand side, for a NaN or
    infinite time in t_span or t_eval, which the step loop would never
    stop at or would pass over, a y0 that is not a finite vector, a
    max_step that is NaN or not positive, or a t_eval outside the span or
    out of order; IntegrationFailure with the time reached when the step
    size falls below 10 ulps of the time, or is not finite (a non-finite
    right-hand side drives it there); and _BudgetExhausted on the
    right-hand-side call after max_nfev, which it does not make.
    """
    t0, t1 = map(float, t_span)
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got {t_span!r}")
    y = np.asarray(y0, dtype=float)
    if y.ndim != 1 or not np.isfinite(y).all():
        raise ValueError("y0 must be a finite 1-D array")
    if not max_step > 0:
        raise ValueError(f"max_step must be positive, got {max_step!r}")
    atol = rtol = tol
    if rtol < RTOL_FLOOR:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {RTOL_FLOOR})`.",
                      stacklevel=2)
        rtol = RTOL_FLOOR
    direction = 1.0 if t1 == t0 else math.copysign(1.0, t1 - t0)
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.ndim != 1 or not np.isfinite(t_eval).all():
            raise ValueError("t_eval must be a finite 1-D array")
        if np.any(t_eval < min(t0, t1)) or np.any(t_eval > max(t0, t1)):
            raise ValueError("t_eval lies outside t_span")
        if np.any(direction * np.diff(t_eval) <= 0):
            raise ValueError("t_eval is not sorted along the flow")
        times = (direction * t_eval).tolist()  # increasing
        # (samples, t_old, h, y_old, F) of each step that holds samples
        held = []
    budget = math.inf if max_nfev is None else max_nfev
    nfev = accepted = rejected = 0

    def call(t, y):
        nonlocal nfev
        if nfev >= budget:
            raise _BudgetExhausted(
                f"flow stopped at t = {t:.9g} after {max_nfev} "
                f"right-hand-side evaluations")
        nfev += 1
        return fun(t, y)

    t = t0
    f = call(t, y)
    h_abs = _initial_step(call, t0, y, t1, max_step, f, direction, rtol,
                          atol)
    # stages 0-11 of a step, f at its end, then the dense output's 13-15
    K = np.empty((16, y.size))
    KT = [K[:s].T for s in range(17)]
    # reused for every stage's argument y + h sum_j a_j K_j and for the
    # error estimates
    stage, scale, err = (np.empty(y.size) for _ in range(3))
    i_eval = 0
    while t != t1:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while True:
            if not h_abs >= min_step:
                raise IntegrationFailure(
                    f"integrator stopped at t = {t:.9g} of [{t0:.9g}, "
                    f"{t1:.9g}]: step size {h_abs:.3g}, below 10 ulps of t "
                    f"({min_step:.3g}) or not finite")
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)

            K[0] = f
            for s, (a, c) in enumerate(_STAGES, start=1):
                K[s] = call(t + c * h, _stage(KT[s], a, h, y, stage))
            y_new = y + h * np.dot(KT[N_STAGES], B)
            f_new = call(t + h, y_new)
            K[N_STAGES] = f_new

            np.maximum(np.abs(y, out=scale), np.abs(y_new, out=err),
                       out=scale)
            scale *= rtol
            scale += atol
            err5_2 = _norm_2(KT[N_STAGES + 1], E5, scale, err)
            err3_2 = _norm_2(KT[N_STAGES + 1], E3, scale, err)
            if err5_2 == 0 and err3_2 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5_2 / math.sqrt(
                    (err5_2 + 0.01 * err3_2) * y.size)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** -0.125)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** -0.125)
            step_rejected = True
            rejected += 1
        accepted += 1
        if t_eval is not None:
            start = i_eval
            while i_eval < len(times) and times[i_eval] <= direction * t_new:
                i_eval += 1
            if i_eval > start:
                for s, (a, c) in enumerate(_EXTRA, start=N_STAGES + 1):
                    K[s] = call(t + c * h, _stage(KT[s], a, h, y, stage))
                held.append((i_eval - start, t, h, y,
                             _interpolant(h, y, y_new, f_new, K)))
        t, y, f = t_new, y_new, f_new
    trajectory = None
    if t_eval is not None:
        # the times no step held are those of a zero span, all at t0
        trajectory = np.concatenate([_dense(t_eval[:i_eval], held, y.size),
                                     np.tile(y, (len(times) - i_eval, 1))])
    return Solution(y, trajectory, nfev, accepted, rejected)


def _initial_step(call, t0, y0, t1, max_step, f0, direction, rtol, atol):
    # HNW II.4: a step of size h0 with |h0 f0| about 1% of |y0|, then one
    # Euler trial that bounds the second derivative
    interval_length = abs(t1 - t0)
    if interval_length == 0.0:
        return 0.0
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = call(t0 + h0 * direction, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100 * h0, h1, interval_length, max_step)


def _stage(KT, a, h, y, out):
    # the stage argument y + np.dot(KT, a) * h, formed in out
    np.dot(KT, a, out=out)
    out *= h
    out += y
    return out


def _norm_2(KT, weights, scale, out):
    # the squared error estimate |np.dot(KT, weights) / scale|^2 as a float,
    # formed in out, rounded as scipy's np.linalg.norm(...) ** 2
    np.dot(KT, weights, out=out)
    out /= scale
    return math.sqrt(out.dot(out)) ** 2


def _interpolant(h, y_old, y, f, K):
    # the 7 coefficient rows F of the 7th-order interpolant of the step
    # from y_old to y = y_old + delta_y over h, K holding all 16 stages:
    # y_old + x (F_0 + (1 - x) (F_1 + x (F_2 + (1 - x) (... F_6)))) at the
    # step fraction x
    delta_y = y - y_old
    f_old = K[0]
    F = np.empty((7, y.size))
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(D, K)
    return F


def _dense(times, held, size):
    # the interpolants of the steps in held, (samples, t_old, h, y_old, F)
    # each, at the times they hold, in order: one row per time.  Each row
    # takes its step's scalars and rows, and Horner's rule runs once over
    # all of them, with the operations of scipy's per-step loop
    if not held:
        return np.empty((0, size))
    counts, t_old, h, y_old, F = zip(*held)
    step = np.repeat(np.arange(len(held)), counts)
    x = ((times - np.array(t_old)[step]) / np.array(h)[step])[:, None]
    F = np.stack(F)
    out = np.zeros((len(times), size))
    for i in range(7):
        out += F[step, 6 - i]
        if i % 2 == 0:
            out *= x
        else:
            out *= 1 - x
    out += np.array(y_old)[step]
    return out
