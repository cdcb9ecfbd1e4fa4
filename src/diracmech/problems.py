"""Builders turning a structure plus a Lagrangian/Hamiltonian/control system
into implicit problems for the integrator.

The pinned fibers of a structure induced by adapted constraints are read
from the selectors every structure carries (``free_fiber`` and
``embed_fiber``; nothing is pinned outside ``InducedDirac``).  The
Lagrangian problem works in reduced coordinates (the pinned fiber
components are eliminated), while the Hamiltonian problem keeps the full
dual state.

Every residual is a slot fill of the one membership kernel
``DiracAlgebroid.membership_system`` -> (J, const): a builder writes the
fiber vector as w = slots @ rate + w0, w0 = (0, 0, p, y), and hands the
solver the affine parts A = J[rows] @ slots, b = J[rows] @ w0 + const[rows],
where ``rows`` drops the pinned-fiber selector rows.  ``rows`` and the
constant part of ``slots`` are built once per problem, (A, b) once per
state (cached, so the rate solve and its verification share one assembly).
Rates without a membership row (the Hamiltonian's pinned momentum rates,
the control rates) are fixed by the state Jacobian G of the function the
builder pins, appended to A with zeros in b, so that A is square: the
pinned rows of ``Hamiltonian.hess_xi`` (exact from the fiber Hessian for a
Legendre transform, which inverts the fiber derivative once per point),
and the Jacobian of the control stationarity f_u^T xi - cost_u, by central
differences over (x, u) and exact, f_u^T, over xi.
"""

import numpy as np

from . import fd
from .dirac import InducedDirac, TimeExtendedDirac, VelocityPair
from .errors import SolverError
from .solver import ImplicitProblem


class _StateCache:
    """Single-slot memo for the affine residual parts at one (t, state).

    Calling the cache with (t, state) returns ``assemble(state)``, computed
    only when (t, state) differs from the previous call.
    """

    __slots__ = ("assemble", "key", "parts")

    def __init__(self, assemble):
        self.assemble = assemble
        self.key = None
        self.parts = None

    def __call__(self, t, state):
        state = np.asarray(state, dtype=float)
        key = (t, state.tobytes())
        if key != self.key:
            self.parts = self.assemble(state)
            self.key = key
        return self.parts


def _with_pinned_rows(parts, G):
    """Append the state Jacobian G of the pinned function to A, with zeros in b."""
    A, b = parts
    return np.vstack([A, G]), np.concatenate([b, np.zeros(G.shape[0])])


def _membership_parts(dirac):
    """(x, xi, slots, p, y) -> (A, b) of the solved membership rows.

    The fiber vector is w = slots @ rate + w0 with w0 = (0, 0, p, y); the
    rows are all membership rows but the pinned-fiber selector rows, which
    follow the n base velocity rows of an induced structure.
    """
    n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
    if isinstance(dirac, TimeExtendedDirac) and isinstance(dirac.base, InducedDirac):
        raise SolverError(
            "time extension of an induced structure is not supported by the "
            "problem builders; induce on the extended bundle instead"
        )
    dropped = m - len(dirac.free_fiber)
    # a slice where it can be: it is a view, and on a 6x12 J costs about
    # 0.3 us per call against 2-2.6 us for an index array
    rows = np.r_[0:n, n + dropped:n + m] if dropped else slice(None)
    zero_rates = np.zeros(n + m)

    def parts(x, xi, slots, p, y):
        J, const = dirac._membership(x, xi)
        J = J[rows]
        return J @ slots, J @ np.concatenate([zero_rates, p, y]) + const[rows]

    return parts


def lagrangian_problem(dirac, lagrangian, name=""):
    """Implicit Euler-Lagrange problem with state (x, y_free).

    Residual rows are the velocity rows of etahat and the momentum rows;
    pinned fiber components are eliminated from the state, so their
    (identically zero) selector rows are dropped.  The phase equations of
    the Legendre image form the algebraic channel.
    """
    n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
    free = np.asarray(dirac.free_fiber, dtype=int)
    state_dim = n + free.size
    membership = _membership_parts(dirac)
    # the rate is (xdot, ydot_free); xidot = hyx xdot + hyy ydot is filled
    # in per state
    slots_template = np.zeros((2 * (n + m), state_dim))
    slots_template[:n, :n] = np.eye(n)

    def split(state):
        return state[:n], dirac.embed_fiber(state[n:])

    def assemble(state):
        x, y = split(state)
        slots = slots_template.copy()
        slots[n:n + m, :n] = lagrangian.hess_yx(x, y)
        slots[n:n + m, n:] = lagrangian.hess_yy(x, y)[:, free]
        return membership(x, lagrangian.grad_y(x, y), slots,
                          -lagrangian.grad_x(x, y), y)

    algebraic = None
    if dirac.phase_residual(np.zeros(n), np.zeros(m)).size:
        def algebraic(t, state):
            x, y = split(np.asarray(state, float))
            return dirac.phase_residual(x, lagrangian.grad_y(x, y))

    monitors = {}
    if not isinstance(dirac, TimeExtendedDirac):
        def energy(t, state):
            x, y = split(np.asarray(state, float))
            return lagrangian.energy(x, y)

        monitors["energy"] = energy

    def velocity_pair(t, state, rate):
        x, y = split(np.asarray(state, float))
        return VelocityPair(x, np.asarray(rate, float)[:n], y)

    labels = list(dirac.chart.base_labels) + [dirac.chart.fiber_labels[i] for i in free]
    return ImplicitProblem(
        state_dim, _StateCache(assemble), algebraic=algebraic, monitors=monitors,
        velocity_pair=velocity_pair, state_labels=labels,
        name=name or f"euler-lagrange[{lagrangian.name}]",
    )


def hamiltonian_problem(dirac, hamiltonian, name=""):
    """Implicit phase-dynamics problem with state (x, xi).

    The rows are the velocity rows and the retained momentum rows; for
    induced structures the pinned fiber components of dH/dxi join the phase
    equations as the algebraic channel, and their rows of the Hamiltonian's
    ``hess_xi`` (exact for a Legendre transform, finite differences
    otherwise) fix the momentum rates the structure leaves free.
    """
    n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
    state_dim = n + m
    membership = _membership_parts(dirac)
    constrained = np.setdiff1d(np.arange(m), dirac.free_fiber)
    # values the pinned components of dH/dxi must take: 1 at a fixed index
    target = dirac.embed_fiber(np.zeros(len(dirac.free_fiber)))[constrained]
    # the rate is (xdot, xidot) itself
    slots = np.eye(2 * (n + m), state_dim)

    def pinned(state):
        return hamiltonian.grad_xi(state[:n], state[n:])[constrained]

    def assemble(state):
        x, xi = state[:n], state[n:]
        parts = membership(x, xi, slots, hamiltonian.grad_x(x, xi),
                           hamiltonian.grad_xi(x, xi))
        if constrained.size:
            parts = _with_pinned_rows(parts, hamiltonian.hess_xi(x, xi)[constrained])
        return parts

    def algebraic(t, state):
        state = np.asarray(state, dtype=float)
        phase = dirac.phase_residual(state[:n], state[n:])
        return np.concatenate([phase, pinned(state) - target]) if constrained.size else phase

    has_algebraic = bool(constrained.size) or bool(
        dirac.phase_residual(np.zeros(n), np.zeros(m)).size
    )

    def monitor(t, state):
        state = np.asarray(state, dtype=float)
        return hamiltonian(state[:n], state[n:])

    def velocity_pair(t, state, rate):
        state = np.asarray(state, dtype=float)
        x, xi = state[:n], state[n:]
        return VelocityPair(x, np.asarray(rate, float)[:n], hamiltonian.grad_xi(x, xi))

    labels = list(dirac.chart.base_labels) + list(dirac.chart.dual_labels)
    return ImplicitProblem(
        state_dim, _StateCache(assemble),
        algebraic=algebraic if has_algebraic else None,
        monitors={"hamiltonian": monitor},
        velocity_pair=velocity_pair, state_labels=labels,
        name=name or f"hamilton[{hamiltonian.name}]",
    )


def pmp_problem(system, dirac, name=""):
    """Control-stationarity problem with state (x, u, xi).

    The controls carry no membership rows of their own: the stationarity
    equations form the algebraic channel, and the rows of their state
    Jacobian fix the control rates (an index-1 formulation when the control
    Hessian of the Hamiltonian is invertible; a singular one raises
    DegenerateDynamicsError in the rate solve).
    """
    n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
    if len(dirac.free_fiber) < m:
        raise SolverError("control problems expect an unconstrained structure")
    q = system.control_dim
    state_dim = n + q + m

    def unpack(state):
        state = np.asarray(state, dtype=float)
        return state[:n], state[n:n + q], state[n + q:]

    membership = _membership_parts(dirac)
    # the rate is (xdot, udot, xidot); udot has no slot
    slots = np.zeros((2 * (n + m), state_dim))
    slots[:n, :n] = np.eye(n)
    slots[n:n + m, n + q:] = np.eye(m)

    def stationarity(x, u, xi):
        return system.f_u(x, u).T @ xi - system.cost_u(x, u)

    def assemble(state):
        x, u, xi = unpack(state)
        p = system.f_x(x, u).T @ xi - system.cost_x(x, u)
        # the stationarity is linear in xi: its xi-columns are f_u^T exactly
        G = np.hstack([fd.jacobian(lambda v: stationarity(v[:n], v[n:], xi), state[:n + q]),
                       system.f_u(x, u).T])
        return _with_pinned_rows(membership(x, xi, slots, p, system.f(x, u)), G)

    def monitor(t, state):
        x, u, xi = unpack(state)
        return system.hamiltonian(x, u, xi)

    def velocity_pair(t, state, rate):
        x, u, xi = unpack(state)
        return VelocityPair(x, np.asarray(rate, float)[:n], system.f(x, u))

    labels = (
        list(dirac.chart.base_labels)
        + [f"u{k + 1}" for k in range(q)]
        + list(dirac.chart.dual_labels)
    )
    return ImplicitProblem(
        state_dim, _StateCache(assemble),
        algebraic=lambda t, state: stationarity(*unpack(state)),
        monitors={"hamiltonian": monitor},
        velocity_pair=velocity_pair, state_labels=labels,
        name=name or f"pmp[{system.name}]",
    )
