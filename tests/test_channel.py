"""The algebraic channel ``algebraic(t, state) -> (g, G)`` of every builder.

G must be the state Jacobian of g.  It is held to central differences of g
taken here, in the test, on random systems of each formalism: the
Lagrangian on an induced graph with a base support and on its clock
extension, the Hamiltonian with pinned fibers (closed form and Legendre
transform), the control stationarity with and without analytic second
partials.  The catalog's closed disc Hamiltonian and ``lqr_pmp``
integrate without a single difference, and the closed quadratic
Hamiltonian evaluates its mass matrix once per point.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmech import (
    CanonicalDirac,
    ControlSystem,
    DegenerateDynamicsError,
    InitializationError,
    LinearConstraint,
    PiGraphDirac,
    TimeExtendedDirac,
    fd,
    induce,
    integrate,
    legendre_transform,
    project_initial,
)
from diracmech.problems import hamiltonian_problem, lagrangian_problem, pmp_problem
from diracmech.systems import (
    build_problem,
    build_system,
    quadratic_hamiltonian,
    quadratic_lagrangian,
    rolling_disc_mass,
)

from conftest import clocked_lagrangian, make_random_pigraph

RTOL = 1e-6


def _central(fn, state, h=1e-6):
    """Central differences of ``fn`` at ``state``, one column per slot."""
    columns = []
    for k in range(state.size):
        e = np.zeros(state.size)
        e[k] = h
        columns.append((fn(state + e) - fn(state - e)) / (2.0 * h))
    return np.stack(columns, axis=-1)


def _mass(weights):
    """Diagonal SPD mass matrix varying with x, and its derivatives."""

    def mass(x):
        return np.diag(weights * (2.0 + np.sin(np.sum(x))))

    def mass_diff(x):
        return np.array([np.diag(weights * np.cos(np.sum(x)))] * x.size)

    return mass, mass_diff


def _control(n, q, rng, second_partials):
    """Random smooth control system on an n-dimensional base with q controls."""
    K, W = rng.standard_normal((n, q)), rng.standard_normal((n, q, n))
    r, s = rng.uniform(0.5, 2.0, q), rng.standard_normal((q, n))
    eye = np.eye(q)

    def angle(x, u):
        return u[None, :] + W @ x  # (n, q)

    def f(x, u):
        return np.sum(K * np.sin(angle(x, u)), axis=1)

    def cost(x, u):
        return 0.5 * float(r @ u ** 2) + float(u @ (s @ np.sin(x)))

    def f_u_xu(x, u):
        d = -K * np.sin(angle(x, u))  # (n, q)
        return np.concatenate([d[:, :, None] * W, d[:, :, None] * eye[None]], axis=2)

    extra = {}
    if second_partials:
        extra = {"f_u_xu": f_u_xu,
                 "cost_u_xu": lambda x, u: np.hstack([s * np.cos(x), np.diag(r)])}
    return ControlSystem(
        f, cost,
        f_x=lambda x, u: np.einsum("iq,iqa->ia", K * np.cos(angle(x, u)), W),
        f_u=lambda x, u: K * np.cos(angle(x, u)),
        cost_x=lambda x, u: (u @ s) * np.cos(x),
        cost_u=lambda x, u: r * u + s @ np.sin(x),
        control_dim=q, **extra,
    )


def _problem(case, seed, n, m, zero):
    rng = np.random.default_rng(seed)
    pi = PiGraphDirac(make_random_pigraph(seed=seed, base_dim=n, fiber_dim=m))
    mass, mass_diff = _mass(rng.uniform(0.5, 3.0, m))
    lag = quadratic_lagrangian(mass, mass_matrix_diff=mass_diff)
    supported = induce(pi, LinearConstraint(fiber=zero, base=(0,)))
    if case == "lagrangian-support":
        return lagrangian_problem(supported, lag)
    if case == "lagrangian-support-clocked":
        return lagrangian_problem(TimeExtendedDirac(supported), clocked_lagrangian(lag))
    if case == "hamiltonian-closed":
        return hamiltonian_problem(supported, quadratic_hamiltonian(mass, mass_diff))
    if case == "hamiltonian-legendre":
        probes = [(rng.standard_normal(n), rng.standard_normal(m)) for _ in range(2)]
        return hamiltonian_problem(supported, legendre_transform(lag, probes))
    base = induce(CanonicalDirac(n), LinearConstraint(base=(0,)))
    system = _control(n, 1 + seed % 2, rng, case == "pmp-exact")
    return pmp_problem(system, base)


CASES = ["lagrangian-support", "lagrangian-support-clocked", "hamiltonian-closed",
         "hamiltonian-legendre", "pmp-exact", "pmp-differenced"]


@st.composite
def shapes(draw):
    """(seed, n, m, pinned zero fibers): at least one pinned, one free."""
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(1, 2))
    m = draw(st.integers(2, 4))
    order = draw(st.permutations(range(m)))
    k = draw(st.integers(1, m - 1))
    return seed, n, m, tuple(sorted(order[:k]))


@pytest.mark.parametrize("case", CASES)
@settings(deadline=None, max_examples=15)
@given(shape=shapes())
def test_channel_jacobian_is_the_derivative_of_its_values(case, shape):
    seed, n, m, zero = shape
    problem = _problem(case, seed, n, m, zero)
    rng = np.random.default_rng(seed + 1)
    for _ in range(2):
        state = rng.standard_normal(problem.state_dim)
        g, G = problem.algebraic(0.0, state)
        assert G.shape == (g.size, problem.state_dim)
        numeric = _central(lambda s: problem.algebraic(0.0, s)[0], state)
        scale = 1.0 + np.max(np.abs(numeric))
        assert np.max(np.abs(G - numeric)) <= RTOL * scale


def _disc_closed_problem():
    return build_problem(build_system("rolling_disc"), "hamiltonian",
                         hamiltonian_source="closed")


def _disc_state(phi=0.4, y=(1.0, -0.5)):
    mass, _ = rolling_disc_mass()
    return np.concatenate([[phi], mass(np.array([phi])) @ np.array([*y, 0.0, 0.0])])


@pytest.mark.parametrize("name", ["rolling-disc-closed", "lqr"])
def test_catalog_runs_difference_nothing(monkeypatch, name):
    if name == "lqr":
        problem, state = build_problem(build_system("lqr_pmp"), "pmp"), np.array([1.0, 0.0, 0.0])
    else:
        problem, state = _disc_closed_problem(), _disc_state()
    calls = []
    jacobian = fd.jacobian

    def counted(*args, **kwargs):
        calls.append(1)
        return jacobian(*args, **kwargs)

    monkeypatch.setattr(fd, "jacobian", counted)
    trajectory = integrate(problem, state, 0.0, 0.05, 0.005)
    assert len(trajectory) == 11
    assert calls == []


def test_closed_hamiltonian_factors_its_mass_matrix_once_per_point(assemblies):
    mass, mass_diff = rolling_disc_mass()
    calls = []

    def counted(x):
        calls.append(1)
        return mass(x)

    ham = quadratic_hamiltonian(counted, mass_diff)
    x, xi = np.array([0.4]), np.array([1.0, -0.5, 0.3, 0.2])
    ham(x, xi)
    ham.grad_x(x, xi)
    ham.grad_xi(x, xi)
    ham.hess_xi(x, xi)
    assert len(calls) == 1
    ham.grad_xi(x + 0.1, xi)
    assert len(calls) == 2

    # along a run, every assembly is at a new point and factors M once
    dirac = build_system("rolling_disc").dirac
    problem = hamiltonian_problem(dirac, ham)
    calls.clear()
    integrate(problem, _disc_state(), 0.0, 0.05, 0.005)
    assert len(assemblies) > 11
    assert len(calls) == len(assemblies)


def test_closed_grad_xi_is_bitwise_the_plain_solve():
    rng = np.random.default_rng(3)
    mass, mass_diff = rolling_disc_mass(1.1, 0.9, 1.05, 1.2)
    for M, diff, n, m in [(mass, mass_diff, 1, 4), (lambda x: np.array([[1.7]]), None, 1, 1)]:
        ham = quadratic_hamiltonian(M, diff)
        for _ in range(50):
            x, xi = rng.standard_normal(n), rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 3)
            assert np.array_equal(ham.grad_xi(x, xi), np.linalg.solve(M(x), xi))


@pytest.mark.parametrize("system", ["disc", "euler-top"])
def test_closed_hess_xi_passes_validation(system):
    rng = np.random.default_rng(4)
    if system == "disc":
        ham = quadratic_hamiltonian(*rolling_disc_mass(1.1, 0.9, 1.05, 1.2))
        n, m = 1, 4
    else:
        ham = build_system("euler_top").closed_hamiltonian
        n, m = 0, 3
    assert "hess_xi" in ham._analytic
    ham.validate([(rng.standard_normal(n), rng.standard_normal(m)) for _ in range(10)])


def test_singular_control_still_degenerates_with_the_exact_jacobian():
    problem = build_problem(build_system("lqr_pmp", {"r": 0.0}), "pmp")
    state = np.array([1.0, 0.0, 0.0])
    # r = 0 leaves the stationarity row with no u-column
    _, G = problem.algebraic(0.0, state)
    assert np.array_equal(G, [[0.0, 0.0, 1.0]])
    with pytest.raises(DegenerateDynamicsError):
        integrate(problem, state, 0.0, 0.01, 0.005)


def test_projection_with_the_exact_jacobian_rejects_an_unreachable_channel():
    # the cost is linear in u and f ignores it: the stationarity is -1
    # everywhere, with an exactly zero Jacobian
    system = ControlSystem(
        lambda x, u: np.array([x[0]]), lambda x, u: float(u[0]),
        f_x=lambda x, u: np.eye(1), f_u=lambda x, u: np.zeros((1, 1)),
        cost_x=lambda x, u: np.zeros(1), cost_u=lambda x, u: np.ones(1),
        f_u_xu=lambda x, u: np.zeros((1, 1, 2)), cost_u_xu=lambda x, u: np.zeros((1, 2)),
    )
    problem = pmp_problem(system, CanonicalDirac(1))
    assert not problem.algebraic(0.0, np.zeros(3))[1].any()
    with pytest.raises(InitializationError, match="did not converge"):
        project_initial(problem, np.zeros(3))
