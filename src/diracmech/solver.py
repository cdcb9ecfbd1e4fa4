"""Time integration of implicit residual systems.

A problem packages the affine parts (A, b) of a residual R = A rate + b,
an optional algebraic channel constraining states, g(state) = 0 with its
state Jacobian G, and named monitor functions.  A is square: at each
evaluation point the rates come from the one exact linear system
A r = -b.  Rates that a structure leaves free are fixed by rows the
problem builder appends to A (the time derivative of the components it
pins), so the solver knows nothing about them.
``METHODS`` maps each method to its step: rk4, or implicit midpoint, the
fixed point s = state + dt * rate(t + dt/2, (state + s)/2) iterated with
one exact rate solve each time, which raises SolverError unless it contracts.
One loop body in ``integrate`` makes every sample, the initial one as its
first pass; a degenerate step re-raises the solve's own error with the step
index appended.  After every step the state is re-projected onto the
algebraic channel by Gauss-Newton steps on its G to prevent constraint
drift.  The admissibility report reads the states and rates a trajectory holds.

The rate solve calls LAPACK directly, without the overhead of the
``numpy.linalg`` wrappers: ``dgesdd`` for the singular values of the
condition check and ``dgetrf`` for the LU factors run once per distinct A of
a problem, when A is factored, and ``dgetrs`` solves with those factors at
every exact solve.  ``dgesv`` is ``dgetrf`` followed by ``dgetrs``, and the
memo is keyed on the exact bytes of A, so the rates are bitwise those of
``dgesv``.  A nonzero ``info`` from any routine raises SolverError.  Float64
arrays, the solver's own, pass through the solve without a conversion
(``linalg.floats``); lists and other dtypes convert.
"""

import math

import numpy as np
from scipy.linalg.lapack import dgesdd, dgetrf, dgetrs

from .dirac import VelocityPair
from .errors import DegenerateDynamicsError, InitializationError, SolverError
from .linalg import floats

NEWTON_TOL = 1e-10
PROJECTION_TOL = 1e-10
PROJECTION_MAX_ITER = 100
CONDITION_LIMIT = 1e12


class ImplicitProblem:
    """Residual system A(t, state) rate + b(t, state) = 0 with algebraic
    state constraints.

    ``affine`` maps (t, state) to the pair (A, b): A is square of size
    ``state_dim``, b has one entry per row.  ``algebraic`` maps (t, state)
    to the pair (g, G): the constraint values g the projection drives to
    zero and their Jacobian G over the state, of shape (len(g),
    ``state_dim``) (None for unconstrained problems).  ``monitors`` are named
    scalar functions of (t, state) recorded along trajectories.
    ``velocities`` optionally maps stacked (states, rates) to the stacked
    velocity pairs (X, Xdot, Y) for admissibility reporting.

    The problem keeps one slot of rate-solve factors, (key, sigma, lu,
    piv) of the last A that passed the condition check, keyed on its shape
    and bytes: a constant A (a Lie algebra's) is factored and checked once
    per problem.
    """

    def __init__(self, state_dim, affine, algebraic=None, monitors=None,
                 velocities=None, state_labels=None):
        self.state_dim = int(state_dim)
        self.affine = affine
        self.algebraic = algebraic
        self.monitors = dict(monitors or {})
        self.velocities = velocities
        self.state_labels = list(state_labels) if state_labels else [
            f"s{k + 1}" for k in range(self.state_dim)
        ]
        self.rate_labels = [lbl + "_dot" for lbl in self.state_labels]
        self._factors = (None, None, None, None)

    def residual(self, t, state, rate):
        A, b = self.affine(t, state)
        return A @ rate + b  # the product converts a list or an int array itself


class Trajectory:
    """Time-sampled solution with monitor channels and solver statistics."""

    def __init__(self, times, states, rates, monitors, newton_iterations,
                 residual_norms, problem):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.rates = np.asarray(rates, dtype=float)
        self.monitors = {k: np.asarray(v, dtype=float) for k, v in monitors.items()}
        self.newton_iterations = np.asarray(newton_iterations, dtype=int)
        self.residual_norms = np.asarray(residual_norms, dtype=float)
        self.problem = problem

    def __len__(self):
        return self.times.size

    def monitor_drift(self, name):
        channel = self.monitors[name]
        return float(np.max(np.abs(channel - channel[0]), initial=0.0))


def _check_lengths(problem, state, guess=None):
    """SolverError unless the flat ``state`` and ``guess`` (when given) have
    ``state_dim`` entries."""
    d = problem.state_dim
    if state.size != d or (guess is not None and guess.size != d):
        given = "" if guess is None else f" and rate guess {guess.size}"
        raise SolverError(f"state has {state.size}{given} entries for {d} state slots")


def project_initial(problem, guess, t=0.0):
    """Gauss-Newton projection of a state guess onto the algebraic channel (g, G).

    Raises SolverError when the guess does not have ``state_dim`` entries,
    InitializationError when the projection does not converge, and before
    any step when g or G is not finite.
    """
    state = np.array(guess, dtype=float).reshape(-1)
    _check_lengths(problem, state)
    if problem.algebraic is None:
        return state
    g, G = problem.algebraic(t, state)
    steps = 0
    while not math.sqrt(g.dot(g)) <= PROJECTION_TOL:  # a NaN residual never converges
        if steps == PROJECTION_MAX_ITER:
            raise InitializationError(
                f"projection onto the algebraic channel did not converge "
                f"(residual norm {math.sqrt(g.dot(g)):.3e})"
            )
        for name, value in (("g", g), ("G", G)):
            if not np.isfinite(value).all():
                raise InitializationError(
                    f"the algebraic channel's {name} is not finite at (t={t}, "
                    f"state={state}): {value}"
                )
        step, *_ = np.linalg.lstsq(G, -g, rcond=None)
        state = state + step
        g, G = problem.algebraic(t, state)
        steps += 1
    return state


def solve_rate(problem, t, state, rate_guess=None):
    """Solve the affine residual for the rates at (t, state).

    A guess whose residual is already within ``NEWTON_TOL`` is returned, as
    a copy, after one iteration: the rate is always a fresh array.
    Otherwise the exact system A r = -b is solved and the residual
    re-evaluated, which takes two; a residual still above ``NEWTON_TOL``
    after that, or not finite, raises SolverError, and so does a state, a
    guess or a residual without ``state_dim`` entries.  Raises
    DegenerateDynamicsError when A has condition number above 1e12, which is
    the expected signal for singular Lagrangians and controls rather than a
    crash, and SolverError when LAPACK reports a failure (a nonzero
    ``info``).  The singular values and LU factors of A come from the
    problem's one-slot memo, which holds only an A that passed the
    condition check: the check runs when A is factored, so a degenerate A
    raises on every call.
    """
    state = floats(state, flat=True)
    d = problem.state_dim
    guess = np.zeros(d) if rate_guess is None else floats(rate_guess, flat=True)
    _check_lengths(problem, state, guess)
    r = floats(problem.residual(t, state, guess), flat=True)
    if r.size != d:
        raise SolverError(f"residual has {r.size} rows for {d} rate slots")
    norm = math.sqrt(r.dot(r))
    if norm > NEWTON_TOL:
        J = floats(problem.affine(t, state)[0])
        key = (J.shape, J.tobytes())
        slot = problem._factors
        if slot[0] != key:
            _, sigma, _, info = dgesdd(J, compute_uv=0)
            if info:
                raise SolverError(f"LAPACK dgesdd failed with info={info} at t={t}")
            if sigma[0] <= 0.0 or sigma[0] / max(sigma[-1], 1e-300) > CONDITION_LIMIT:
                raise DegenerateDynamicsError(
                    f"degenerate implicit dynamics at (t={t}, state={state}): "
                    f"rate Jacobian singular values {sigma}",
                    t=t, state=state, singular_values=sigma,
                )
            lu, piv, info = dgetrf(J)
            if info:
                raise SolverError(f"LAPACK dgetrf failed with info={info} at t={t}")
            slot = problem._factors = (key, sigma, lu, piv)
        _, _, lu, piv = slot
        # -r then guess + step: guess - dgetrs(r) is equal but flips the sign of zero entries
        step, info = dgetrs(lu, piv, -r, overwrite_b=1)
        if info:
            raise SolverError(f"LAPACK dgetrs failed with info={info} at t={t}")
        rate = guess + step
        r = floats(problem.residual(t, state, rate), flat=True)
        norm, iterations = math.sqrt(r.dot(r)), 2
    else:
        rate, iterations = guess.copy(), 1  # never the caller's own array
    if not norm <= NEWTON_TOL:
        raise SolverError(
            f"rate solve did not converge at (t={t}, state={state}): "
            f"residual norm {norm:.3e} after the exact solve"
        )
    return rate, iterations, norm


def _rk4_step(problem, t, state, dt, k1):
    k2, i2, _ = solve_rate(problem, t + dt / 2, state + (dt / 2) * k1, rate_guess=k1)
    k3, i3, _ = solve_rate(problem, t + dt / 2, state + (dt / 2) * k2, rate_guess=k2)
    k4, i4, _ = solve_rate(problem, t + dt, state + dt * k3, rate_guess=k3)
    new = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return new, max(i2, i3, i4)


def _implicit_midpoint_step(problem, t, state, dt, k1):
    s = state + dt * k1
    update = previous = np.inf
    for iters in range(1, 31):
        # guess k1, not the last iterate: a warm-start hit would freeze the
        # rate at a residual of NEWTON_TOL rather than solving it exactly
        mid_rate, _, _ = solve_rate(problem, t + dt / 2, 0.5 * (state + s), rate_guess=k1)
        new = state + dt * mid_rate
        step = new - s
        previous, update = update, math.sqrt(step.dot(step))
        s = new
        if update == 0.0 or update >= previous:  # the roundoff floor
            break
    if not update <= NEWTON_TOL:
        raise SolverError(
            f"implicit midpoint iteration did not contract at t={t}: "
            f"last update {update:.3e} after {iters} iterations"
        )
    return s, iters


METHODS = {"rk4": _rk4_step, "implicit-midpoint": _implicit_midpoint_step}


def step_count(t0, t1, dt):
    """The number of equal steps, round((t1 - t0) / dt), that span [t0, t1].

    dt must be positive and the span t1 - t0 positive and finite; there
    must be at least one step (a span of at most dt/2 is rejected) and a
    finite number (a dt so small that the ratio overflows is rejected).
    Raises SolverError otherwise.
    """
    if dt <= 0.0:
        raise SolverError("dt must be positive")
    span = float(t1) - float(t0)
    if not (np.isfinite(span) and span > 0.0):
        raise SolverError(f"time span t1 - t0 = {span} must be positive and finite")
    ratio = span / float(dt)
    if not (np.isfinite(ratio) and round(ratio) >= 1):
        raise SolverError(f"time span t1 - t0 = {span} is {ratio} steps of dt = {dt}: "
                          "it must round to a finite count of at least one")
    return int(round(ratio))


def integrate(problem, state0, t0, t1, dt, method="rk4"):
    """Integrate from t0 to t1 in ``step_count(t0, t1, dt)`` equal steps.

    Pass k of one loop makes sample k: it steps from sample k - 1 when k > 0,
    projects onto the algebraic channel when k == 0 or the problem has one,
    solves the rate warm-started from the last and records the monitors (one
    not finite raises SolverError).  A DegenerateDynamicsError in step k is
    re-raised as itself, its message ending "(while stepping from t=..., step k)".
    """
    if method not in METHODS:
        raise SolverError(f"unknown method '{method}'")
    nsteps = step_count(t0, t1, dt)
    dt_eff = (float(t1) - float(t0)) / nsteps

    times, states, rates, newton, norms = [], [], [], [], []
    monitors = {name: [] for name in problem.monitors}
    state, rate, t, it = state0, None, t0, 0
    for k in range(nsteps + 1):
        if k:
            start, t = t0 + (k - 1) * dt_eff, t0 + k * dt_eff
            try:
                state, it = METHODS[method](problem, start, state, dt_eff, rate)
            except DegenerateDynamicsError as err:
                err.args = (f"{err} (while stepping from t={start}, step {k})",)
                raise
        if not k or problem.algebraic is not None:
            state = project_initial(problem, state, t=t)
        rate, iters, norm = solve_rate(problem, t, state, rate_guess=rate)
        times.append(float(t))
        states.append(state)
        rates.append(rate)
        newton.append(max(iters, it))
        norms.append(norm)
        for name, fn in problem.monitors.items():
            value = fn(t, state)
            if not math.isfinite(value):
                raise SolverError(f"monitor '{name}' is not finite at t={t} ({value})")
            monitors[name].append(value)

    return Trajectory(times, states, rates, monitors, newton, norms, problem)


class AdmissibilityReport:
    def __init__(self, norms):
        self.norms = np.asarray(norms, dtype=float)

    @property
    def max(self):
        return float(np.max(self.norms, initial=0.0))


def admissibility_report(dirac, trajectory):
    """Velocity-bundle membership residuals through the problem's ``velocities``:
    one product over all samples on an x-independent structure, else
    ``velocity_residual`` per sample."""
    extract = trajectory.problem.velocities
    if extract is None:
        raise SolverError("no velocity-pair extractor available for this problem")
    X, Xdot, Y = extract(trajectory.states, trajectory.rates)
    VelocityPair(X, Xdot, Y)  # the stacked pairs as one: each block is checked finite
    if dirac.x_independent:
        lf = dirac.local_form(X[0])
        res = np.hstack([Xdot, Y]) @ lf.etahat.T
        if lf.offset is not None:
            res = res - lf.offset
    else:
        res = np.array([dirac.velocity_residual(VelocityPair(*pair))
                        for pair in zip(X, Xdot, Y)])
    return AdmissibilityReport(np.max(np.abs(res), axis=1, initial=0.0))
