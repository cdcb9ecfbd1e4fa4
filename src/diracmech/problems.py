"""Builders turning a structure plus a Lagrangian/Hamiltonian/control system
into implicit problems for the integrator.

Every problem is a slot fill of the one membership kernel
``DiracAlgebroid.membership_system`` -> (J, const), residual J w + const at
w = (xdot, xidot, p, y).  A builder supplies only its fill to ``_problem``:

* ``point(state) -> (x, xi, y)``: the base point, dual point and velocity slot;
* ``fill(state, x, xi, y) -> (V, p)``: V maps the rate to (xdot, xidot), p
  is the momentum slot;
* ``pinned = (value, jacobian)``, functions of (state, x, xi, y): a function
  pinned to zero and its state Jacobian G;
* ``velocity_slots(states)``: the slot y of every state row at once, for
  the admissibility report (by default ``point`` row by row).

The solved rows are the ones the structure keeps for a rate solve
(``rows = dirac.rate_rows``: every row but the pinned-fiber selector
rows), so the affine parts are A = J[rows, :n+m] @ V, b = J[rows, n+m:] @
(p, y) + const[rows].  Rates without a membership row (the Hamiltonian's pinned
momentum rates, the control rates) are fixed by G, appended to A with
zeros in b, so that A is square.  The algebraic channel ``algebraic(t,
state) -> (g, G)`` (``t`` unread, kept for the call shape) is the
structure's phase equations at (x, xi), when it has any, with G = P @ V
from their Jacobian P over (x, xi), followed by the pinned value and G:
the components of dH/dxi at ``dirac.pinned_fiber`` less
``dirac.pinned_values`` (rows of ``hess_xi``) or the control
stationarity f_u^T xi - cost_u (einsum(f_u_xu, xi) - cost_u_xu over
(x, u), f_u^T over xi).  Both pairs come from one assembly per state
(cached: the projection's convergence check, the rate solve and its
verification share it).
"""

import numpy as np

from .dirac import TimeExtendedDirac
from .errors import SolverError
from .solver import ImplicitProblem


class _StateCache:
    """Single-slot memo of the parts ((A, b), (g, G)) at one (t, state).

    Calling the cache with (t, state) returns (A, b) and ``algebraic(t,
    state)`` returns (g, G), the two halves of ``assemble(state)``, which
    is computed only when (t, state) differs from the previous call of
    either.
    """

    __slots__ = ("assemble", "key", "parts")

    def __init__(self, assemble):
        self.assemble = assemble
        self.key = None
        self.parts = None

    def _parts(self, t, state):
        state = np.asarray(state, dtype=float)
        key = (t, state.tobytes())
        if key != self.key:
            self.parts = self.assemble(state)
            self.key = key
        return self.parts

    def __call__(self, t, state):
        return self._parts(t, state)[0]

    def algebraic(self, t, state):
        return self._parts(t, state)[1]


def _problem(dirac, point, fill, labels, monitors, pinned=None, velocity_slots=None):
    """The implicit problem of one slot fill (see the module docstring)."""
    n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
    rows = dirac.rate_rows
    has_phase = bool(dirac.phase_residual(np.zeros(n), np.zeros(m)).size)

    def assemble(state):
        x, xi, y = point(state)
        V, p = fill(state, x, xi, y)
        J, const = dirac._membership(x, xi)
        J, const = J[rows], const[rows]
        A = J[:, :n + m] @ V
        b = J[:, n + m:] @ np.concatenate([p, y]) + const
        g, G = [], []
        if has_phase:
            value, P = dirac._phase(x, xi)
            g.append(value)
            G.append(P @ V)
        if pinned is not None:
            Gp = pinned[1](state, x, xi, y)
            A, b = np.vstack([A, Gp]), np.concatenate([b, np.zeros(Gp.shape[0])])
            g.append(pinned[0](state, x, xi, y))
            G.append(Gp)
        if not g:
            return (A, b), None
        return (A, b), (np.concatenate(g), np.vstack(G))

    def velocities(states, rates):
        Y = velocity_slots(states) if velocity_slots else np.array([point(s)[2] for s in states])
        return states[:, :n], rates[:, :n], Y

    cache = _StateCache(assemble)
    return ImplicitProblem(
        len(labels), cache,
        algebraic=cache.algebraic if has_phase or pinned is not None else None,
        monitors=monitors, velocities=velocities, state_labels=labels,
    )


def lagrangian_problem(dirac, lagrangian):
    """Implicit Euler-Lagrange problem with state (x, y_free).

    The slots are xi = dL/dy, p = -dL/dx and xidot = hyx xdot + hyy ydot;
    the pinned fiber components are eliminated from the state.
    """
    n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
    free = np.asarray(dirac.free_fiber, dtype=int)
    # the xidot rows are filled in per state
    template = np.eye(n + m, n + free.size)

    def point(state):
        x, y = state[:n], dirac.embed_fiber(state[n:])
        return x, lagrangian.grad_y(x, y), y

    def fill(state, x, xi, y):
        V = template.copy()
        V[n:, :n] = lagrangian.hess_yx(x, y)
        V[n:, n:] = lagrangian.hess_yy(x, y)[:, free]
        return V, -lagrangian.grad_x(x, y)

    monitors = {}
    if not isinstance(dirac, TimeExtendedDirac):
        def energy(t, state):
            state = np.asarray(state, dtype=float)
            return lagrangian.energy(state[:n], dirac.embed_fiber(state[n:]))

        monitors["energy"] = energy

    def velocity_slots(states):
        Y = np.tile(dirac.embed_fiber(np.zeros(free.size)), (len(states), 1))
        Y[:, free] = states[:, n:]
        return Y

    labels = list(dirac.chart.base_labels) + [dirac.chart.fiber_labels[i] for i in free]
    return _problem(dirac, point, fill, labels, monitors, velocity_slots=velocity_slots)


def hamiltonian_problem(dirac, hamiltonian):
    """Implicit phase-dynamics problem with state (x, xi).

    The slots are y = dH/dxi, p = dH/dx and the rate (xdot, xidot) itself;
    an induced structure pins the constrained components of dH/dxi.
    """
    n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
    constrained, target = np.asarray(dirac.pinned_fiber, dtype=int), dirac.pinned_values
    rate_map = np.eye(n + m)

    def point(state):
        x, xi = state[:n], state[n:]
        return x, xi, hamiltonian.grad_xi(x, xi)

    def fill(state, x, xi, y):
        return rate_map, hamiltonian.grad_x(x, xi)

    pinned = None
    if constrained.size:
        pinned = (lambda state, x, xi, y: y[constrained] - target,
                  lambda state, x, xi, y: hamiltonian.hess_xi(x, xi)[constrained])

    def monitor(t, state):
        state = np.asarray(state, dtype=float)
        return hamiltonian(state[:n], state[n:])

    labels = list(dirac.chart.base_labels) + list(dirac.chart.dual_labels)
    return _problem(dirac, point, fill, labels, {"hamiltonian": monitor}, pinned)


def pmp_problem(system, dirac):
    """Control-stationarity problem with state (x, u, xi).

    The slots are y = f(x, u), p = f_x^T xi - cost_x and (xdot, xidot); the
    pinned stationarity fixes the control rates (index 1 when the control
    Hessian of the Hamiltonian is invertible; a singular one raises
    DegenerateDynamicsError in the rate solve).
    """
    n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
    if len(dirac.free_fiber) < m:
        raise SolverError("control problems expect an unconstrained structure")
    q = system.control_dim
    # the rate is (xdot, udot, xidot); udot has no slot
    rate_map = np.zeros((n + m, n + q + m))
    rate_map[:n, :n] = np.eye(n)
    rate_map[n:, n + q:] = np.eye(m)

    def point(state):
        x, xi = state[:n], state[n + q:]
        return x, xi, system.f(x, state[n:n + q])

    def fill(state, x, xi, y):
        u = state[n:n + q]
        return rate_map, system.f_x(x, u).T @ xi - system.cost_x(x, u)

    def stationarity(state, x, xi, y):
        u = state[n:n + q]
        return system.f_u(x, u).T @ xi - system.cost_u(x, u)

    def stationarity_jacobian(state, x, xi, y):
        # the stationarity is linear in xi: its xi-columns are f_u^T exactly
        u = state[n:n + q]
        xu = np.einsum("iqk,i->qk", system.f_u_xu(x, u), xi) - system.cost_u_xu(x, u)
        return np.hstack([xu, system.f_u(x, u).T])

    def monitor(t, state):
        state = np.asarray(state, dtype=float)
        return system.hamiltonian(state[:n], state[n:n + q], state[n + q:])

    labels = (
        list(dirac.chart.base_labels)
        + [f"u{k + 1}" for k in range(q)]
        + list(dirac.chart.dual_labels)
    )
    return _problem(dirac, point, fill, labels, {"hamiltonian": monitor},
                    (stationarity, stationarity_jacobian))
