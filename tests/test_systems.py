import numpy as np
import pytest

from diracmech import ScenarioError, integrate
from diracmech.linalg import max_principal_angle
from diracmech.systems import CATALOG, build_problem, build_system


def test_catalog_has_six_systems():
    assert len(CATALOG) == 6


def test_unknown_parameter_rejected():
    with pytest.raises(ScenarioError, match="unknown parameter"):
        build_system("harmonic_oscillator", params={"stiffness": 2.0})


def test_unknown_system_raises_key_error():
    with pytest.raises(KeyError):
        build_system("spinning_top")


def test_constraint_override_uses_one_based_indices(disc_induced):
    bundle = build_system("rolling_disc", constraint_override={"fiber": [3, 4]})
    rng = np.random.default_rng(0)
    x, xi = rng.standard_normal(1), rng.standard_normal(4)
    assert max_principal_angle(
        bundle.dirac.basis_matrix_at(x, xi),
        disc_induced.basis_matrix_at(x, xi),
    ) <= 1e-12


def test_zero_based_override_rejected():
    with pytest.raises(ScenarioError, match="1-based"):
        build_system("rolling_disc", constraint_override={"fiber": [0, 3]})


@pytest.mark.parametrize("override", [{}, {"fiber": []}, {"fiber": [], "base": []}])
def test_empty_override_rejected(override):
    with pytest.raises(ScenarioError, match="empty constraint override"):
        build_system("rolling_disc", constraint_override=override)


def test_constrained_particle_integrates():
    bundle = build_system("canonical_particle", constraint_override={"fiber": [2]})
    problem = build_problem(bundle, "lagrangian")
    assert problem.state_dim == 3  # (x1, x2, y1)
    traj = integrate(problem, np.array([0.0, 0.0, 1.0]), 0.0, 1.0, 1e-2)
    assert abs(traj.states[-1][0] - 1.0) <= 1e-9
    assert abs(traj.states[-1][1]) <= 1e-12


@pytest.mark.parametrize("system,constraint", [(name, None) for name in sorted(CATALOG)] + [
    ("canonical_particle", {"fiber": [2]}),
])
def test_every_structure_but_the_rolling_disc_tabulates(system, constraint):
    # the induced canonical structure keeps the fact through its algebroid
    dirac = build_system(system, constraint_override=constraint).dirac
    assert dirac.x_independent is (system != "rolling_disc")


def test_systems_without_constraints_reject_them():
    for name in ("forced_oscillator_timedep", "lqr_pmp"):
        with pytest.raises(ScenarioError, match="constraint"):
            build_system(name, constraint_override={"fiber": [1]})


def test_hamiltonian_sources_agree():
    bundle = build_system("harmonic_oscillator", params={"mass": 2.0, "spring": 3.0})
    closed = bundle.hamiltonian("closed")
    transformed = bundle.hamiltonian("legendre")
    rng = np.random.default_rng(1)
    for _ in range(10):
        x, xi = rng.standard_normal(1), rng.standard_normal(1)
        assert abs(closed(x, xi) - transformed(x, xi)) <= 1e-10


def test_missing_formalism_rejected():
    bundle = build_system("lqr_pmp")
    with pytest.raises(ScenarioError, match="Lagrangian"):
        build_problem(bundle, "lagrangian")
    with pytest.raises(ScenarioError, match="closed-form"):
        bundle.hamiltonian("closed")
