"""Builders turning a structure plus a Lagrangian/Hamiltonian/control system
into implicit problems for the integrator.

Every problem is a slot fill of the one membership kernel
``DiracAlgebroid.membership_system`` -> (J, const), residual J w + const at
w = (xdot, xidot, p, y).  A builder supplies only its fill to ``_problem``:

* ``point(state) -> (x, xi, y)``: the base point, dual point and velocity slot;
* ``fill(state, x, xi, y) -> (V, p)``: V maps the rate to (xdot, xidot), p
  is the momentum slot (None on a point base, where it is empty);
* ``pinned(state, x, xi, y) -> (value, G)``: a function pinned to zero and
  its state Jacobian G, from one call;
* ``velocity_slots(states)``: the slot y of every state row at once, for
  the admissibility report (by default ``point`` row by row).

The solved rows are the ones the structure keeps for a rate solve
(``rows = dirac.rate_rows``: every row but the pinned-fiber selector
rows), so the affine parts are A = J[rows, :n+m] @ V, b = J[rows, n+m:] @
(p, y) + const[rows], with y alone on a point base, where p is empty.
Rates without a membership row (the Hamiltonian's pinned momentum rates,
the control rates) are fixed by G, appended to A with zeros in b, so that
A is square.  The algebraic channel ``algebraic(t, state) -> (g, G)`` is the
structure's support equations x^A = 0, when it has any, with G = P @ V
from their constant Jacobian P over (x, xi), followed by the pinned value and G:
the components of dH/dxi at ``dirac.pinned_fiber`` less
``dirac.pinned_values`` (rows of ``hess_xi``) or the control
stationarity f_u^T xi - cost_u (einsum(f_u_xu, xi) - cost_u_xu over
(x, u), f_u^T over xi).  Both pairs come from one assembly per state,
memoised by ``linalg.last_point`` on the state alone: no assembly reads
``t`` (``affine`` and ``algebraic`` take it for the call shape), so the
projection, the rate solve and its verification share it at any ``t``.
"""

import numpy as np

from .errors import SolverError
from .linalg import last_point
from .solver import ImplicitProblem


def _problem(dirac, point, fill, labels, monitors, pinned=None, velocity_slots=None):
    """The implicit problem of one slot fill (see the module docstring)."""
    n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
    rows = dirac.rate_rows
    take_rows = not isinstance(rows, slice)  # a slice keeps every row
    has_phase = bool(dirac.zero_base)
    has_channel = has_phase or pinned is not None
    point_base = n == 0  # the p slot is empty

    def assemble(state):
        x, xi, y = point(state)
        V, p = fill(state, x, xi, y)
        J, const = dirac._membership(x, xi)
        if take_rows:
            J, const = J.take(rows, axis=0), const.take(rows)
        A = J[:, :n + m] @ V
        b = J[:, n + m:] @ (y if point_base else np.concatenate([p, y])) + const
        if not has_channel:
            return (A, b), None
        g, G = [], []
        if has_phase:
            value, P = dirac._phase(x)
            g.append(value)
            G.append(P @ V)
        if pinned is not None:
            value, Gp = pinned(state, x, xi, y)
            A, b = np.concatenate([A, Gp]), np.concatenate([b, np.zeros(len(Gp))])
            g.append(value)
            G.append(Gp)
        if len(g) == 1:  # a one-entry channel as it is
            return (A, b), (g[0], G[0])
        return (A, b), (np.concatenate(g), np.concatenate(G))

    def velocities(states, rates):
        Y = velocity_slots(states) if velocity_slots else np.array([point(s)[2] for s in states])
        return states[:, :n], rates[:, :n], Y

    parts = last_point(assemble)

    def affine(t, state):
        return parts(state)[0]

    def algebraic(t, state):
        return parts(state)[1]

    return ImplicitProblem(
        len(labels), affine, algebraic=algebraic if has_channel else None,
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
        if n == 0:  # a point base: V is the xidot block; hess_yx is empty, and assemble reads no p
            return lagrangian.hess_yy(x, y)[:, dirac._free], None
        V = template.copy()
        V[n:, :n] = lagrangian.hess_yx(x, y)
        V[n:, n:] = lagrangian.hess_yy(x, y)[:, dirac._free]
        return V, -lagrangian.grad_x(x, y)

    monitors = {}
    if dirac.clock_base is None:
        def energy(t, state):
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
        if n == 0:  # a point base: assemble reads no p
            return rate_map, None
        return rate_map, hamiltonian.grad_x(x, xi)

    def pinned(state, x, xi, y):
        return y.take(constrained) - target, hamiltonian.hess_xi(x, xi).take(constrained, axis=0)

    def monitor(t, state):
        return hamiltonian(state[:n], state[n:])

    labels = list(dirac.chart.base_labels) + list(dirac.chart.dual_labels)
    return _problem(dirac, point, fill, labels, {"hamiltonian": monitor},
                    pinned if constrained.size else None)


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
        # linear in xi: the Jacobian's xi-columns are f_u^T exactly
        u = state[n:n + q]
        f_uT = system.f_u(x, u).T
        xu = np.einsum("iqk,i->qk", system.f_u_xu(x, u), xi) - system.cost_u_xu(x, u)
        return f_uT @ xi - system.cost_u(x, u), np.concatenate([xu, f_uT], axis=1)

    def monitor(t, state):
        return system.hamiltonian(state[:n], state[n:n + q], state[n + q:])

    labels = (
        list(dirac.chart.base_labels)
        + [f"u{k + 1}" for k in range(q)]
        + list(dirac.chart.dual_labels)
    )
    return _problem(dirac, point, fill, labels, {"hamiltonian": monitor}, stationarity)
