"""The residual that a builder's affine parts generate must agree with the
reference residual generators row for row.  Rows a builder appends for a
pinned channel must be the state Jacobian of the generator's channel."""

import numpy as np
import pytest

from diracmech import (
    AffineConstraint,
    CanonicalDirac,
    ControlSystem,
    Hamiltonian,
    LinearConstraint,
    PiGraphDirac,
    TimeExtendedDirac,
    el_residual,
    fd,
    hamilton_residual,
    induce,
    integrate,
    legendre_transform,
    pmp_residual,
)
from diracmech.problems import hamiltonian_problem, lagrangian_problem, pmp_problem
from diracmech.solver import PROJECTION_TOL
from diracmech.systems import build_system, quadratic_lagrangian, so3_algebroid

from conftest import clocked_hamiltonian, clocked_lagrangian


def _lagrangian_induced(request):
    dirac = request.getfixturevalue("disc_induced")
    lag = request.getfixturevalue("disc_lagrangian")

    def reference(state, rate):
        x, y = state[:1], np.array([state[1], state[2], 0.0, 0.0])
        ydot = np.array([rate[1], rate[2], 0.0, 0.0])
        rows, _ = el_residual(dirac, lag, (x, y), (rate[:1], ydot))
        return np.concatenate([rows[:1], rows[3:]]), None

    return lagrangian_problem(dirac, lag), reference


def _lagrangian_unconstrained(request):
    dirac = request.getfixturevalue("disc_pi")
    lag = request.getfixturevalue("disc_lagrangian")

    def reference(state, rate):
        rows, _ = el_residual(dirac, lag, (state[:1], state[1:]), (rate[:1], rate[1:]))
        return rows, None

    return lagrangian_problem(dirac, lag), reference


def _lagrangian_time_extended_induced(request):
    dirac = TimeExtendedDirac(request.getfixturevalue("disc_induced"))
    lag = clocked_lagrangian(request.getfixturevalue("disc_lagrangian"))

    def reference(state, rate):
        x, y = state[:2], np.array([state[2], state[3], 0.0, 0.0])
        ydot = np.array([rate[2], rate[3], 0.0, 0.0])
        rows, _ = el_residual(dirac, lag, (x, y), (rate[:2], ydot))
        # the selector rows y3 = y4 = 0 follow the clock and base velocity rows
        return np.concatenate([rows[:2], rows[4:]]), None

    return lagrangian_problem(dirac, lag), reference


def _hamiltonian_induced(request, ham=None):
    dirac = request.getfixturevalue("disc_induced")
    ham = ham or request.getfixturevalue("disc_hamiltonian")

    def reference(state, rate):
        rows, _ = hamilton_residual(dirac, ham, (state[:1], state[1:]),
                                    (rate[:1], rate[1:]))
        return np.concatenate([rows[:1], rows[3:]]), pinned

    def pinned(state):
        # the dropped selector rows y3 = y4 = 0 at y = dH/dxi
        rows, _ = hamilton_residual(dirac, ham, (state[:1], state[1:]),
                                    (np.zeros(1), np.zeros(4)))
        return rows[1:3]

    return hamiltonian_problem(dirac, ham), reference


def _hamiltonian_induced_legendre(request):
    # exact pinned rows from the Legendre transform's hess_xi
    rng = np.random.default_rng(1)
    probes = [(rng.standard_normal(1), rng.standard_normal(4)) for _ in range(5)]
    ham = legendre_transform(request.getfixturevalue("disc_lagrangian"), probes)
    return _hamiltonian_induced(request, ham)


def _pmp(request):
    bundle = build_system("lqr_pmp")

    def reference(state, rate):
        out = pmp_residual(bundle.control, bundle.dirac,
                           (state[:1], state[1:2], state[2:]), (rate[:1], rate[2:]))
        return out[0], stationarity

    def stationarity(state):
        return pmp_residual(bundle.control, bundle.dirac,
                            (state[:1], state[1:2], state[2:]),
                            (np.zeros(1), np.zeros(1)))[1]

    return pmp_problem(bundle.control, bundle.dirac), reference


def _time_dependent(request):
    bundle = build_system("forced_oscillator_timedep")

    def reference(state, rate):
        rows, _ = el_residual(bundle.dirac, bundle.lagrangian,
                              (state[:2], state[2:]), (rate[:2], rate[2:]))
        return rows, None

    return lagrangian_problem(bundle.dirac, bundle.lagrangian), reference


CASES = {
    "lagrangian-induced": _lagrangian_induced,
    "lagrangian-unconstrained": _lagrangian_unconstrained,
    "lagrangian-time-extended-induced": _lagrangian_time_extended_induced,
    "hamiltonian-induced": _hamiltonian_induced,
    "hamiltonian-induced-legendre": _hamiltonian_induced_legendre,
    "pmp": _pmp,
    "time-dependent": _time_dependent,
}


def _jacobian(channel, state, h=1e-6):
    """Central differences of ``channel`` at ``state``, one column per slot."""
    columns = []
    for k in range(state.size):
        e = np.zeros(state.size)
        e[k] = h
        columns.append((channel(state + e) - channel(state - e)) / (2.0 * h))
    return np.stack(columns, axis=-1)


@pytest.mark.parametrize("case", sorted(CASES))
def test_affine_residual_matches_generator(case, request):
    problem, reference = CASES[case](request)
    rng = np.random.default_rng(0)
    for _ in range(10):
        state = rng.standard_normal(problem.state_dim)
        rate = rng.standard_normal(problem.state_dim)
        rows, pinned = reference(state, rate)
        residual = problem.residual(0.0, state, rate)
        assert residual.size == problem.state_dim
        assert np.max(np.abs(residual[:rows.size] - rows)) <= 1e-12
        if pinned is None:
            assert rows.size == problem.state_dim
            continue
        assert np.max(np.abs(problem.algebraic(0.0, state)[0] - pinned(state))) <= 1e-12
        appended = _jacobian(pinned, state) @ rate
        assert np.max(np.abs(residual[rows.size:] - appended)) <= 1e-8


# disc structures with each kind of selector, one induced twice
SELECTED = {
    "fiber": lambda base: induce(base, LinearConstraint(fiber=(3, 2))),
    "fixed": lambda base: induce(base, AffineConstraint(fixed=1)),
    "support": lambda base: induce(base, LinearConstraint(base=(0,))),
    "induced-twice": lambda base: induce(induce(base, LinearConstraint(fiber=(3,))),
                                         AffineConstraint(fixed=1, base=(0,))),
}


@pytest.mark.parametrize("clocked", [False, True], ids=["plain", "time-extended"])
@pytest.mark.parametrize("case", sorted(SELECTED))
def test_dropped_rows_are_the_selector_rows(case, clocked, disc_pi, disc_lagrangian,
                                            disc_hamiltonian):
    dirac, lag, ham = SELECTED[case](disc_pi), disc_lagrangian, disc_hamiltonian
    if clocked:
        dirac = TimeExtendedDirac(dirac)
        lag, ham = clocked_lagrangian(lag), clocked_hamiltonian(ham)
    n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
    fixed = dirac.fixed_fiber
    pinned = sorted(set(dirac.zero_fiber) | ({fixed} - {None}))
    values = np.array([1.0 if i == fixed else 0.0 for i in pinned])
    assert dirac.pinned_fiber == tuple(pinned)
    assert np.array_equal(dirac.pinned_values, values)
    rng = np.random.default_rng(4)
    x, xi = rng.standard_normal(n), rng.standard_normal(m)
    J, const = dirac.membership_system(x, xi)
    # the selector rows are the rows that read y alone: one unit entry on
    # each pinned y column, in the order of pinned_fiber, const = -value
    selector = [r for r in range(n + m) if not J[r, :2 * n + m].any()]
    kept = [r for r in range(n + m) if r not in selector]
    assert np.array_equal(J[selector, 2 * n + m:], np.eye(m)[pinned])
    assert np.array_equal(const[selector], -values)

    lagrangian = lagrangian_problem(dirac, lag)
    hamiltonian = hamiltonian_problem(dirac, ham)
    for _ in range(3):
        state = rng.standard_normal(lagrangian.state_dim)
        rate = rng.standard_normal(lagrangian.state_dim)
        y, ydot = dirac.embed_fiber(state[n:]), np.zeros(m)
        ydot[list(dirac.free_fiber)] = rate[n:]
        rows, _ = el_residual(dirac, lag, (state[:n], y), (rate[:n], ydot))
        residual = lagrangian.residual(0.0, state, rate)
        assert residual.size == len(kept)
        assert np.max(np.abs(residual - rows[kept])) <= 1e-12

        state = rng.standard_normal(n + m)
        rate = rng.standard_normal(n + m)
        rows, _ = hamilton_residual(dirac, ham, (state[:n], state[n:]),
                                    (rate[:n], rate[n:]))
        residual = hamiltonian.residual(0.0, state, rate)
        assert np.max(np.abs(residual[:len(kept)] - rows[kept])) <= 1e-12
        # the channel ends in the dropped rows at y = dH/dxi, and pins
        # one rate for each
        phase = dirac.phase_residual(state[:n], state[n:])
        g, G = hamiltonian.algebraic(0.0, state)
        assert g.size == G.shape[0] == phase.size + len(selector)
        assert np.max(np.abs(g[phase.size:] - rows[selector]), initial=0.0) <= 1e-12
        assert residual.size - len(kept) == len(selector)


def test_closed_hamiltonian_pinned_rows_are_the_fd_jacobian(disc_induced, disc_hamiltonian):
    # a Hamiltonian without an analytic hess_xi (the disc's closed form with
    # its hess_xi left out) takes the finite-difference fallback, which
    # keeps the pinned rows bit for bit what fd.jacobian of the pinned
    # components of dH/dxi gives
    ham = Hamiltonian(disc_hamiltonian, grad_x=disc_hamiltonian.grad_x,
                      grad_xi=disc_hamiltonian.grad_xi)
    problem = hamiltonian_problem(disc_induced, ham)
    pinned = list(disc_induced.zero_fiber)
    rng = np.random.default_rng(2)
    for _ in range(5):
        state = rng.standard_normal(problem.state_dim)
        A, b = problem.affine(0.0, state)
        G = fd.jacobian(lambda s: disc_hamiltonian.grad_xi(s[:1], s[1:])[pinned], state)
        assert np.array_equal(A[-2:], G)
        assert not b[-2:].any()


def test_pmp_channel_holds_the_phase_equations():
    # a base constraint x1 = 0 pins no fiber, so the control problem accepts
    # the structure; its support equation precedes the stationarity in the
    # channel, and the projection keeps the run on the support
    dirac = induce(CanonicalDirac(2), LinearConstraint(base=(0,)))
    system = ControlSystem(lambda x, u: np.array([u[0], 1.0]),
                           lambda x, u: 0.5 * float(u @ u))
    problem = pmp_problem(system, dirac)
    state = np.array([1.0, 0.0, 5e-4, 5e-4, 0.0])
    channel = problem.algebraic(0.0, state)[0]
    assert channel.size == 2 and np.max(np.abs(channel - [1.0, 0.0])) <= 1e-12
    trajectory = integrate(problem, state, 0.0, 0.1, 0.01)
    assert np.max(np.abs(trajectory.states[:, 0])) <= PROJECTION_TOL


def _counted(calls, label, fn):
    def logged(*args):
        calls.append(label)
        return fn(*args)

    return logged


def test_one_partial_call_per_assembly(disc_induced, disc_hamiltonian):
    # the pinned value and its Jacobian come from one call: the control
    # stationarity reads f_u once, and the Hamiltonian's pinned rows one hess_xi
    rng = np.random.default_rng(3)
    control = build_system("lqr_pmp").control
    calls = []
    control.f_u = _counted(calls, "f_u", control.f_u)
    disc_hamiltonian.hess_xi = _counted(calls, "hess_xi", disc_hamiltonian.hess_xi)
    for problem, label in ((pmp_problem(control, CanonicalDirac(1)), "f_u"),
                           (hamiltonian_problem(disc_induced, disc_hamiltonian), "hess_xi")):
        calls.clear()
        for k in range(3):
            state = rng.standard_normal(problem.state_dim)
            problem.affine(0.0, state)
            problem.algebraic(0.0, state)
            assert calls == [label] * (k + 1)


def test_one_assembly_per_state_at_any_t(disc_induced, disc_hamiltonian, assemblies):
    # no assembly reads t, so the parts are keyed on the state alone
    problem = hamiltonian_problem(disc_induced, disc_hamiltonian)
    state = np.array([0.3, 1.0, 2.0, 0.5, -0.4])
    first = problem.affine(0.0, state)
    assert problem.affine(1.0, state) is first
    assert problem.affine(2.0, state.tolist()) is first  # a list converts to the same key
    problem.algebraic(3.0, state)
    assert len(assemblies) == 1


def test_point_base_lagrangian_never_evaluates_grad_x():
    # the p slot is empty on a point base, and the assembly multiplies by y alone
    calls = []
    lag = quadratic_lagrangian(lambda x: np.diag([1.0, 2.0, 3.0]))
    lag.grad_x = _counted(calls, "grad_x", lag.grad_x)
    problem = lagrangian_problem(PiGraphDirac(so3_algebroid()), lag)
    traj = integrate(problem, np.array([0.3, -0.2, 0.9]), 0.0, 0.1, 0.01)
    assert len(traj) == 11  # ten rk4 steps
    assert calls == []


@pytest.mark.parametrize("source", ["closed", "legendre"])
def test_point_base_hamiltonian_never_evaluates_grad_x(source):
    # as for the Lagrangian: the p slot is empty on a point base
    bundle = build_system("euler_top")
    ham = bundle.hamiltonian(source)
    calls = []
    ham.grad_x = _counted(calls, "grad_x", ham.grad_x)
    problem = hamiltonian_problem(bundle.dirac, ham)
    traj = integrate(problem, np.array([0.3, -0.2, 0.9]), 0.0, 0.1, 0.01)
    assert len(traj) == 11  # ten rk4 steps
    assert calls == []
