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
After every accepted step the state is re-projected onto the algebraic
channel by Gauss-Newton steps on its G to prevent constraint drift.  The
admissibility report reads the states and rates a trajectory holds.

The rate solve calls LAPACK directly, ``dgesdd`` for the singular values of
the condition check and ``dgesv`` for the solve, without the overhead of the
``numpy.linalg`` wrappers; a nonzero ``info`` from either raises SolverError.
"""

import math

import numpy as np
from scipy.linalg.lapack import dgesdd, dgesv

from .dirac import VelocityPair
from .errors import DegenerateDynamicsError, InitializationError, SolverError

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

    def residual(self, t, state, rate):
        A, b = self.affine(t, state)
        return A @ np.asarray(rate, dtype=float) + b


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


def project_initial(problem, guess, t=0.0):
    """Gauss-Newton projection of a state guess onto the algebraic channel (g, G)."""
    state = np.asarray(guess, dtype=float).copy()
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
        step, *_ = np.linalg.lstsq(G, -g, rcond=None)
        state = state + step
        g, G = problem.algebraic(t, state)
        steps += 1
    return state


def solve_rate(problem, t, state, rate_guess=None):
    """Solve the affine residual for the rates at (t, state).

    A guess whose residual is already within ``NEWTON_TOL`` is returned
    after one iteration.  Otherwise the exact system A r = -b is solved and
    the residual re-evaluated, which takes two; a residual still above
    ``NEWTON_TOL`` after that, or not finite, raises SolverError, and so does a residual
    without ``state_dim`` rows.  Raises DegenerateDynamicsError when A has
    condition number above 1e12, which is the expected signal for singular
    Lagrangians and controls rather than a crash, and SolverError when
    LAPACK reports a failure (a nonzero ``info``).
    """
    state = np.asarray(state, dtype=float)
    d = problem.state_dim
    rate = np.zeros(d) if rate_guess is None else np.asarray(rate_guess, float).copy()
    r = np.asarray(problem.residual(t, state, rate), dtype=float).reshape(-1)
    if r.size != d:
        raise SolverError(f"residual has {r.size} rows for {d} rate slots")
    iterations = 1
    if math.sqrt(r.dot(r)) > NEWTON_TOL:
        J = np.asarray(problem.affine(t, state)[0], dtype=float)
        _, sigma, _, info = dgesdd(J, compute_uv=0)
        if info:
            raise SolverError(f"LAPACK dgesdd failed with info={info} at t={t}")
        if sigma[0] <= 0.0 or sigma[0] / max(sigma[-1], 1e-300) > CONDITION_LIMIT:
            raise DegenerateDynamicsError(
                f"degenerate implicit dynamics at (t={t}, state={state}): "
                f"rate Jacobian singular values {sigma}",
                t=t, state=state, singular_values=sigma,
            )
        _, _, step, info = dgesv(J, -r, overwrite_b=1)
        if info:
            raise SolverError(f"LAPACK dgesv failed with info={info} at t={t}")
        rate += step
        r = np.asarray(problem.residual(t, state, rate), dtype=float).reshape(-1)
        iterations = 2
    norm = math.sqrt(r.dot(r))
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


def _record_monitors(problem, monitors, t, state):
    for name, fn in problem.monitors.items():
        value = fn(t, state)
        if not math.isfinite(value):
            raise SolverError(f"monitor '{name}' is not finite at t={t} ({value})")
        monitors[name].append(value)


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

    After each step the state is re-projected onto the algebraic channel
    and monitors are recorded; a monitor value that is not finite raises
    SolverError.  Raises with the step index attached when the inner rate
    solve degenerates.
    """
    if method not in METHODS:
        raise SolverError(f"unknown method '{method}'")
    nsteps = step_count(t0, t1, dt)
    dt_eff = (float(t1) - float(t0)) / nsteps

    state = project_initial(problem, state0, t=t0)
    times = [float(t0)]
    states = [state.copy()]
    rate, iters, norm = solve_rate(problem, t0, state)
    rates = [rate.copy()]
    newton = [iters]
    norms = [norm]
    monitors = {k: [] for k in problem.monitors}
    _record_monitors(problem, monitors, t0, state)

    for step_index in range(nsteps):
        t = t0 + step_index * dt_eff
        try:
            state, it = METHODS[method](problem, t, state, dt_eff, rate)
        except DegenerateDynamicsError as err:
            raise DegenerateDynamicsError(
                f"{err} (while stepping from t={t}, step {step_index})",
                t=err.t, state=err.state, singular_values=err.singular_values,
            ) from err
        t_new = t0 + (step_index + 1) * dt_eff
        state = project_initial(problem, state, t=t_new)
        rate, iters, norm = solve_rate(problem, t_new, state, rate_guess=rate)
        times.append(t_new)
        states.append(state.copy())
        rates.append(rate.copy())
        newton.append(max(iters, it))
        norms.append(norm)
        _record_monitors(problem, monitors, t_new, state)

    return Trajectory(times, states, rates, monitors, newton, norms, problem)


class AdmissibilityReport:
    def __init__(self, norms, times):
        self.norms = np.asarray(norms, dtype=float)
        self.times = np.asarray(times, dtype=float)

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
    return AdmissibilityReport(np.max(np.abs(res), axis=1, initial=0.0), trajectory.times)
