"""Property tests over random skew algebroids and random adapted constraints.

The induced structure's Euler-Lagrange rows (through the membership kernel,
also with the zero fibers re-induced on top of an affine pin) and the
Lagrangian problem's affine rows are compared with the direct
adapted-coordinate oracle ``nonholonomic_el_residual``, and the closed-form
induced subspace with the pointwise oracle ``pointwise_induce``.  The
pi-graph, the linear and affine induced structures and the time extension
of a pi-graph are checked for isotropy (and the pairing matrix against the
pairwise ``pairing``) and core = annihilator of the
velocity space; the two linear ones also for both homotheties.

The structures with x-independent coefficients (random point-base skew
algebroids, the canonical structure and the clock extension of either)
return membership rows from a table; those are compared with the kernel
evaluated directly, on an instance that never builds a table, and checked
for isotropy and core = annihilator through the table.

The affine parts of the Lagrangian and closed-form Hamiltonian problems of a
constant mass matrix, on random point-base algebroids with random pinned
fibers (and on one base of positive dimension), are bitwise those of the
general template formula: the full rate map V with its hess_yx block, and
the slot product with ``np.concatenate([p, y])``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracmech import (
    AffineConstraint,
    CanonicalDirac,
    Chart,
    LinearConstraint,
    PiGraphDirac,
    PontryaginPoint,
    SkewAlgebroid,
    TimeExtendedDirac,
    el_residual,
    induce,
    nonholonomic_el_residual,
    pairing,
    pointwise_induce,
)
from diracmech.checks import (
    CORE_TOL,
    ISOTROPY_TOL,
    core_annihilator_check,
    isotropy_check,
)
from diracmech.linalg import max_principal_angle
from diracmech.problems import hamiltonian_problem, lagrangian_problem
from diracmech.systems import quadratic_hamiltonian, quadratic_lagrangian

from conftest import make_random_pigraph, scale_dual, scale_fiber

TOL = 1e-9


@st.composite
def constrained_systems(draw, affine=True, pin_one=False):
    """(algebroid, constraint, zero indices, fixed index, Lagrangian, rng).

    ``pin_one`` always pins one fiber index to one (an affine constraint).
    """
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(1, 2))
    m = draw(st.integers(2, 4))
    order = draw(st.permutations(range(m)))
    # the pinned-to-one index needs one more fiber index left free
    k = draw(st.integers(0, m - 2 if pin_one else m - 1))
    zero = tuple(sorted(order[:k]))
    fixed = (order[k] if pin_one or (affine and k <= m - 2 and draw(st.booleans()))
             else None)
    weights = np.array(draw(st.lists(st.floats(0.5, 3.0), min_size=m, max_size=m)))
    algebroid = make_random_pigraph(seed=seed, base_dim=n, fiber_dim=m)

    # diagonal SPD mass matrix that varies with x, so every partial is exercised
    def mass(x):
        return np.diag(weights * (2.0 + np.sin(np.sum(x))))

    def mass_diff(x):
        return np.array([np.diag(weights * np.cos(np.sum(x)))] * n)

    lagrangian = quadratic_lagrangian(mass, mass_matrix_diff=mass_diff)
    if fixed is None:
        constraint = LinearConstraint(fiber=zero)
    else:
        constraint = AffineConstraint(fixed=fixed, fiber=zero)
    return algebroid, constraint, zero, fixed, lagrangian, np.random.default_rng(seed)


@settings(deadline=None, max_examples=30)
@given(constrained_systems())
def test_induced_el_residual_matches_oracle(system):
    algebroid, constraint, zero, fixed, lagrangian, rng = system
    base = PiGraphDirac(algebroid)
    variants = [induce(base, constraint)]
    if fixed is not None:
        # re-induction: the affine pin first, then the zero fibers as a
        # linear constraint on the affine structure
        pinned = induce(base, AffineConstraint(fixed=fixed))
        variants.append(induce(pinned, LinearConstraint(fiber=zero)))
    n, m = algebroid.chart.base_dim, algebroid.chart.fiber_dim
    for _ in range(3):
        state = (rng.standard_normal(n), rng.standard_normal(m))
        rate = (rng.standard_normal(n), rng.standard_normal(m))
        direct, phase_d = nonholonomic_el_residual(algebroid, constraint, lagrangian,
                                                   state, rate)
        for induced in variants:
            via_dirac, phase_i = el_residual(induced, lagrangian, state, rate)
            assert np.max(np.abs(direct - via_dirac)) <= TOL
            assert np.array_equal(phase_d, phase_i)


@settings(deadline=None, max_examples=30)
@given(constrained_systems())
def test_problem_rows_match_oracle(system):
    algebroid, constraint, zero, fixed, lagrangian, rng = system
    problem = lagrangian_problem(induce(PiGraphDirac(algebroid), constraint), lagrangian)
    n, m = algebroid.chart.base_dim, algebroid.chart.fiber_dim
    pinned = sorted(zero + ((fixed,) if fixed is not None else ()))
    free = [i for i in range(m) if i not in pinned]
    for _ in range(3):
        state = rng.standard_normal(problem.state_dim)
        rate = rng.standard_normal(problem.state_dim)
        y, ydot = np.zeros(m), np.zeros(m)
        y[free], ydot[free] = state[n:], rate[n:]
        if fixed is not None:
            y[fixed] = 1.0
        rows, _ = nonholonomic_el_residual(algebroid, constraint, lagrangian,
                                           (state[:n], y), (rate[:n], ydot))
        # the pinned selector rows follow the n base velocity rows
        expected = np.concatenate([rows[:n], rows[n + len(pinned):]])
        assert np.max(np.abs(problem.residual(0.0, state, rate) - expected)) <= TOL


@settings(deadline=None, max_examples=30)
@given(constrained_systems(affine=False))
def test_induced_subspace_matches_pointwise_oracle(system):
    algebroid, constraint, _, _, _, rng = system
    base = PiGraphDirac(algebroid)
    induced = induce(base, constraint)
    n, m = algebroid.chart.base_dim, algebroid.chart.fiber_dim
    for _ in range(3):
        x, xi = rng.standard_normal(n), rng.standard_normal(m)
        closed = induced.basis_matrix_at(x, xi)
        oracle = pointwise_induce(base, constraint, x, xi)
        assert max_principal_angle(closed, oracle) <= TOL


def _representation(kind, algebroid, zero, fixed):
    """One of the four representations whose local form the kernel reads."""
    base = PiGraphDirac(algebroid)
    if kind == "pi-graph":
        return base
    if kind == "linear-induced":
        return induce(base, LinearConstraint(fiber=zero))
    if kind == "affine-induced":
        return induce(base, AffineConstraint(fixed=fixed, fiber=zero))
    return TimeExtendedDirac(base)


REPRESENTATIONS = ["pi-graph", "linear-induced", "affine-induced", "time-extended"]


@pytest.mark.parametrize("kind", REPRESENTATIONS)
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_basis_is_isotropic(kind, data):
    system = data.draw(constrained_systems(pin_one=kind == "affine-induced"))
    algebroid, _, zero, fixed, _, rng = system
    dirac = _representation(kind, algebroid, zero, fixed)
    seed = int(rng.integers(2**16))
    assert isotropy_check(dirac, probes=3, seed=seed)["max_violation"] <= ISOTROPY_TOL


@pytest.mark.parametrize("kind", REPRESENTATIONS)
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_isotropy_violation_matches_pairings(kind, data):
    system = data.draw(constrained_systems(pin_one=kind == "affine-induced"))
    algebroid, _, zero, fixed, _, rng = system
    dirac = _representation(kind, algebroid, zero, fixed)
    for _ in range(3):
        x, xi = dirac.sample_phase_point(rng)
        points = dirac.basis_at(x, xi)
        oracle = max(abs(pairing(p, q)) for i, p in enumerate(points) for q in points[i:])
        assert abs(dirac.isotropy_violation(x, xi) - oracle) <= 1e-15


@pytest.mark.parametrize("kind", REPRESENTATIONS)
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_core_is_annihilator_of_velocities(kind, data):
    system = data.draw(constrained_systems(pin_one=kind == "affine-induced"))
    algebroid, _, zero, fixed, _, rng = system
    dirac = _representation(kind, algebroid, zero, fixed)
    seed = int(rng.integers(2**16))
    assert core_annihilator_check(dirac, probes=3, seed=seed)["max_violation"] <= CORE_TOL


@pytest.mark.parametrize("kind", ["pi-graph", "linear-induced"])
@settings(deadline=None, max_examples=30)
@given(system=constrained_systems(affine=False))
def test_homotheties_keep_members(kind, system):
    algebroid, _, zero, fixed, _, rng = system
    dirac = _representation(kind, algebroid, zero, fixed)
    n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
    for _ in range(3):
        x, xi = dirac.sample_phase_point(rng)
        basis = dirac.basis_matrix_at(x, xi)
        member = PontryaginPoint.from_fiber_vector(
            x, xi, basis @ rng.standard_normal(n + m))
        for t in (0.0, 0.5, 2.0, -1.0):
            assert np.max(np.abs(dirac.residual(scale_fiber(member, t)))) <= TOL
            assert np.max(np.abs(dirac.residual(scale_dual(member, t)))) <= TOL


@st.composite
def tabulated_structures(draw):
    """(builder, rng): a builder of fresh x-independent structures.

    A point-base graph of a random antisymmetric c with m = 1..5, or the
    canonical structure of dimension 1..4, either optionally clock-extended.
    """
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        m = draw(st.integers(1, 5))
        raw = rng.standard_normal((m, m, m))
        c = raw - np.swapaxes(raw, 0, 1)

        def base():
            return PiGraphDirac(SkewAlgebroid(Chart(0, m), lambda x: np.zeros((0, m)),
                                              lambda x: c))
    else:
        dim = draw(st.integers(1, 4))

        def base():
            return CanonicalDirac(dim)
    if draw(st.booleans()):
        return (lambda: TimeExtendedDirac(base())), rng
    return base, rng


@settings(deadline=None, max_examples=60)
@given(tabulated_structures())
def test_tabulated_membership_matches_kernel(structure):
    builder, rng = structure
    dirac, reference = builder(), builder()
    assert dirac.x_independent
    n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
    for _ in range(4):
        x, xi = rng.standard_normal(n), 3.0 * rng.standard_normal(m)
        J, const = dirac.membership_system(x, xi)
        J_ref, const_ref = reference._kernel(x, xi)
        # the table sums xi_k J_k in matmul order, the kernel contracts c
        # with xi by einsum first: the two may round differently
        tol = 1e-15 * (1.0 + np.max(np.abs(J_ref)))
        assert J.shape == J_ref.shape and const.shape == const_ref.shape
        assert np.max(np.abs(J - J_ref)) <= tol
        assert np.max(np.abs(const - const_ref), initial=0.0) <= tol
    assert dirac._table is not None and reference._table is None


@settings(deadline=None, max_examples=30)
@given(tabulated_structures())
def test_tabulated_structures_are_isotropic_with_core_annihilator(structure):
    builder, rng = structure
    dirac = builder()
    seed = int(rng.integers(2**16))
    assert isotropy_check(dirac, probes=3, seed=seed)["max_violation"] <= ISOTROPY_TOL
    assert dirac._table is not None
    assert core_annihilator_check(dirac, probes=3, seed=seed)["max_violation"] <= CORE_TOL


def _template_affine(dirac, x, xi, y, V, p, pinned_rows=None):
    """(A, b) by the general formula, with the pinned rows appended as given."""
    n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
    J, const = dirac._membership(x, xi)
    if not isinstance(dirac.rate_rows, slice):
        J, const = J.take(dirac.rate_rows, axis=0), const.take(dirac.rate_rows)
    A = J[:, :n + m] @ V
    b = J[:, n + m:] @ np.concatenate([p, y]) + const
    if pinned_rows is not None:
        A, b = np.concatenate([A, pinned_rows]), np.concatenate([b, np.zeros(len(pinned_rows))])
    return A, b


def _assert_bitwise(actual, expected):
    for a, e in zip(actual, expected):
        assert a.shape == e.shape and a.tobytes() == e.tobytes()


def _check_constant_mass_assembly(dirac, M, rng):
    n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
    free, pins = list(dirac.free_fiber), list(dirac.pinned_fiber)
    lag, ham = quadratic_lagrangian(lambda x: M), quadratic_hamiltonian(lambda x: M)
    lagrangian, hamiltonian = lagrangian_problem(dirac, lag), hamiltonian_problem(dirac, ham)
    for _ in range(3):
        state = rng.standard_normal(n + len(free))
        x, y = state[:n], dirac.embed_fiber(state[n:])
        V = np.eye(n + m, n + len(free))
        V[n:, :n] = lag.hess_yx(x, y)
        V[n:, n:] = lag.hess_yy(x, y)[:, free]
        expected = _template_affine(dirac, x, lag.grad_y(x, y), y, V, -lag.grad_x(x, y))
        _assert_bitwise(lagrangian.affine(0.0, state), expected)

        state = rng.standard_normal(n + m)
        x, xi = state[:n], state[n:]
        pinned_rows = ham.hess_xi(x, xi).take(pins, axis=0) if pins else None
        expected = _template_affine(dirac, x, xi, ham.grad_xi(x, xi), np.eye(n + m),
                                    ham.grad_x(x, xi), pinned_rows)
        _assert_bitwise(hamiltonian.affine(0.0, state), expected)


@settings(deadline=None, max_examples=10)
@given(m=st.integers(1, 4), pins=st.lists(st.booleans(), min_size=4, max_size=4),
       seed=st.integers(0, 2**16))
@example(m=3, pins=[False, False, True, False], seed=0)  # the free fibers are a slice
@example(m=3, pins=[False, True, False, False], seed=1)  # an index array
def test_point_base_assembly_is_the_template_formula_bitwise(m, pins, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((m, m, m))
    c = raw - np.swapaxes(raw, 0, 1)
    half = rng.standard_normal((m, m))
    M = half @ half.T + m * np.eye(m)
    zero = [i for i in range(m - 1) if pins[i]]  # the last fiber stays free
    dirac = PiGraphDirac(SkewAlgebroid(Chart(0, m), lambda x: np.zeros((0, m)), lambda x: c))
    _check_constant_mass_assembly(induce(dirac, LinearConstraint(fiber=zero)) if zero else dirac,
                                  M, rng)


def test_based_assembly_is_the_template_formula_bitwise():
    rng = np.random.default_rng(3)
    half = rng.standard_normal((3, 3))
    dirac = induce(PiGraphDirac(make_random_pigraph(seed=3, base_dim=2, fiber_dim=3)),
                   LinearConstraint(fiber=(1,)))
    _check_constant_mass_assembly(dirac, half @ half.T + 3.0 * np.eye(3), rng)
