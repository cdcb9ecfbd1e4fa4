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
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmech import (
    AffineConstraint,
    LinearConstraint,
    PiGraphDirac,
    PontryaginPoint,
    el_residual,
    induce,
    nonholonomic_el_residual,
    pairing,
    pointwise_induce,
    scale_dual,
    scale_fiber,
    time_extend,
)
from diracmech.checks import (
    CORE_TOL,
    ISOTROPY_TOL,
    core_annihilator_check,
    isotropy_check,
)
from diracmech.linalg import max_principal_angle
from diracmech.problems import lagrangian_problem
from diracmech.systems import quadratic_lagrangian

from conftest import make_random_pigraph

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
    return time_extend(base)


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
