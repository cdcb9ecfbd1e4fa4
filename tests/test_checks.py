"""The structure checks evaluate each distinct input once, and the isotropy
check takes one SVD for all its probes; these tests hold them to per-probe
reference loops that evaluate every probe, on every catalog system and on
random frame algebroids, where no probe repeats, and the isotropy check
also on random pi-graph, omega-graph and general local structures."""

import json
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmech import (CanonicalDirac, Chart, GeneralLocalDirac, LinearConstraint,
                       OmegaGraphDirac, PiGraphDirac, SkewAlgebroid, induce)
from diracmech.algebroid import JACOBI_TOL
from diracmech import dirac as dirac_module
from diracmech.checks import (
    CORE_TOL,
    ISOTROPY_TOL,
    core_annihilator_check,
    integrability_check,
    isotropy_check,
    jacobi_check,
    run_checks,
)
from diracmech.errors import DiracMechError, EvaluationError
from diracmech.linalg import annihilator, max_principal_angle, null_space
from diracmech.systems import (CATALOG, SystemBundle, build_system, quadratic_lagrangian,
                               so3_algebroid)

from conftest import (make_frame_algebroid, make_general_local, make_random_omega,
                      make_random_pigraph)

BASIS_JACOBI_VIOLATION = SkewAlgebroid.basis_jacobi_violation


def per_probe_jacobi_violation(algebroid, points):
    worst = 0.0
    for x in points:
        worst = max(worst, BASIS_JACOBI_VIOLATION(algebroid, [x]))
    return worst


def jacobi_reference(algebroid, probes=20, seed=0):
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal(algebroid.chart.base_dim) for _ in range(probes)]
    worst = per_probe_jacobi_violation(algebroid, xs)
    return {"max_violation": worst, "tolerance": JACOBI_TOL, "passed": worst <= JACOBI_TOL}


def core_reference(dirac, probes=50, seed=0):
    rng = np.random.default_rng(seed)
    n = dirac.chart.base_dim
    worst = 0.0
    for _ in range(probes):
        x = dirac.project_support(rng.standard_normal(n))
        core = dirac.core_at(x)
        vel = dirac.velocity_space(x)
        ann = annihilator(np.hstack([vel[:n].T, vel[n:].T]))
        worst = max(worst, max_principal_angle(core, ann))
    return {"max_violation": worst, "tolerance": CORE_TOL, "passed": worst <= CORE_TOL}


def isotropy_reference(dirac, probes=50, seed=0):
    """The isotropy check with one null space and one pairing matrix per probe."""
    rng = np.random.default_rng(seed)
    half = dirac.chart.base_dim + dirac.chart.fiber_dim
    worst = 0.0
    for _ in range(probes):
        x, xi = dirac.sample_phase_point(rng)
        assert dirac.phase_membership(x, xi)[0]
        basis = null_space(dirac.membership_system(x, xi)[0])
        assert basis.shape[1] == half
        gram = basis[:half].T @ basis[half:]
        worst = max(worst, float(np.max(np.abs(0.5 * (gram + gram.T)))))
    return {"max_violation": worst, "tolerance": ISOTROPY_TOL, "passed": worst <= ISOTROPY_TOL}


def integrability(dirac):
    try:
        # as the report writes it: the numpy values through their tolist
        return json.dumps(integrability_check(dirac), sort_keys=True,
                          default=operator.methodcaller("tolist"))
    except DiracMechError as err:
        return str(err)


def assert_checks_match_reference(dirac, probes):
    graph = dirac.clock_base or dirac
    algebroid = getattr(graph, "algebroid", None)
    if algebroid is not None:
        assert jacobi_check(algebroid, probes=probes) == jacobi_reference(algebroid, probes)
    assert core_annihilator_check(dirac, probes=probes) == core_reference(dirac, probes)
    deduped = integrability(dirac)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SkewAlgebroid, "basis_jacobi_violation", per_probe_jacobi_violation)
        assert deduped == integrability(dirac)


@pytest.mark.parametrize("delta, passed", [(5e-7, True), (2e-6, False)])
def test_jacobi_check_holds_to_its_tolerance(delta, passed):
    # so(3) with delta e0 added to [e0, e1]: its closed-form Jacobiator is
    # exactly delta, either side of JACOBI_TOL = 1e-6
    so3 = so3_algebroid()
    c = so3.structure(np.zeros(0)).copy()
    c[0, 1, 0] += delta
    c[1, 0, 0] -= delta
    result = jacobi_check(SkewAlgebroid(so3.chart, so3.anchor, lambda x: c))
    assert result["max_violation"] == delta
    assert result["passed"] is passed


@pytest.mark.parametrize("eps, passed", [(5e-9, True), (2e-8, False)])
def test_core_check_holds_to_its_tolerance(eps, passed):
    # the velocities y = 0 annihilate the xidot axis, and the core ker zeta is
    # that axis turned by eps, either side of CORE_TOL = 1e-8
    blocks = (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]),
              np.array([[np.cos(eps), np.sin(eps)]]))
    result = core_annihilator_check(GeneralLocalDirac(Chart(1, 1), lambda x: blocks))
    assert result["max_violation"] == pytest.approx(eps, rel=1e-6)
    assert result["passed"] is passed


@pytest.mark.parametrize("system,constraint", [(name, None) for name in sorted(CATALOG)] + [
    ("euler_top", {"fiber": [3]}),
    ("canonical_particle", {"fiber": [2]}),
    ("rolling_disc", {"fiber": [3]}),
])
def test_catalog_checks_match_per_probe_loops(system, constraint):
    bundle = build_system(system, constraint_override=constraint)
    assert_checks_match_reference(bundle.dirac, probes=20)


@pytest.mark.parametrize("system,constraint", [
    (name, None) for name in sorted(CATALOG) if name != "rolling_disc"
] + [("canonical_particle", {"fiber": [2]})])
def test_core_check_reads_an_x_independent_form_once(monkeypatch, system, constraint):
    dirac = build_system(system, constraint_override=constraint).dirac
    assert dirac.x_independent
    with pytest.MonkeyPatch.context() as patch:  # read the form at every probe
        patch.setattr(type(dirac), "x_independent", property(lambda self: False))
        expected = core_annihilator_check(dirac)
    calls = []
    local_form = dirac.local_form
    monkeypatch.setattr(dirac, "local_form", lambda x: calls.append(x) or local_form(x))
    assert core_annihilator_check(dirac) == expected
    assert len(calls) == 1


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(2, 3), data=st.data())
def test_frame_algebroid_checks_match_per_probe_loops(seed, n, data):
    # x-dependent anchor and structure: every probe is a distinct input
    algebroid = make_frame_algebroid(seed, n)
    fiber = data.draw(st.lists(st.integers(0, n - 1), max_size=n - 1, unique=True))
    dirac = induce(PiGraphDirac(algebroid), LinearConstraint(fiber=tuple(fiber)))
    assert_checks_match_reference(dirac, probes=4)


@pytest.mark.parametrize("system", ["lqr_pmp", "forced_oscillator_timedep"])
def test_jacobi_reads_the_canonical_algebroid_and_legendre_skips(system):
    # the clock extension's Jacobi check reads the structure it extends
    results = run_checks(build_system(system), ["jacobi", "legendre_equivalence"])
    assert results["jacobi"]["passed"] and "skipped" not in results["jacobi"]
    assert results["legendre_equivalence"] == {"skipped": "needs an autonomous Lagrangian",
                                               "passed": True}


def test_a_structure_without_an_algebroid_skips_jacobi_and_integrability():
    omega = OmegaGraphDirac(Chart(1, 1), rho=lambda x: np.eye(1),
                            cform=lambda x: np.zeros((1, 1, 1)))
    results = run_checks(SystemBundle("omega", omega), ["jacobi", "integrability"])
    assert results == {
        "jacobi": {"skipped": "system exposes no algebroid", "passed": True},
        "integrability": {"skipped": "integrability checks need a bivector-graph structure",
                          "passed": True},
    }


@pytest.mark.parametrize("system,constraint", [(name, None) for name in sorted(CATALOG)] + [
    ("euler_top", {"fiber": [3]}),
    ("canonical_particle", {"fiber": [2]}),
    ("rolling_disc", {"fiber": [3]}),
])
def test_catalog_isotropy_matches_per_probe_null_spaces(system, constraint):
    dirac = build_system(system, constraint_override=constraint).dirac
    for seed in (0, 7, 11):
        assert isotropy_check(dirac, seed=seed) == isotropy_reference(dirac, seed=seed)


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["pi-graph", "omega-graph", "general-local"]),
       seed=st.integers(0, 2**16), n=st.integers(1, 3), m=st.integers(2, 4))
def test_random_isotropy_matches_per_probe_null_spaces(kind, seed, n, m):
    if kind == "omega-graph":
        dirac = make_random_omega(seed=seed, base_dim=n, fiber_dim=m)
    else:
        dirac = PiGraphDirac(make_random_pigraph(seed=seed, base_dim=n, fiber_dim=m))
        if kind == "general-local":
            dirac = make_general_local(dirac)
    batched = isotropy_check(dirac, probes=10, seed=seed)
    reference = isotropy_reference(dirac, probes=10, seed=seed)
    assert batched["passed"] and reference["passed"]
    assert abs(batched["max_violation"] - reference["max_violation"]) <= 1e-15


@pytest.mark.parametrize("system", ["rolling_disc", "euler_top"])
def test_isotropy_check_takes_one_svd(monkeypatch, system):
    dirac = build_system(system).dirac
    expected = isotropy_check(dirac)
    calls = []
    svd = dirac_module.svd
    monkeypatch.setattr(dirac_module, "svd", lambda a: calls.append(a.shape) or svd(a))
    assert isotropy_check(dirac) == expected
    half = dirac.chart.base_dim + dirac.chart.fiber_dim
    assert calls == [(50, half, 2 * half)]


def test_isotropy_check_without_probes_passes():
    dirac = build_system("rolling_disc").dirac
    assert isotropy_check(dirac, probes=0) == {"max_violation": 0.0,
                                               "tolerance": ISOTROPY_TOL, "passed": True}


def test_integrability_raises_what_is_not_a_precondition():
    # only a non-graph structure or a failed Jacobi test is skipped: an anchor
    # that is NaN off the unit ball raises as it does in the jacobi check
    def anchor(x):
        return np.eye(2) if np.linalg.norm(x) < 1.0 else np.full((2, 2), np.nan)

    algebroid = SkewAlgebroid(Chart(2, 2), anchor, lambda x: np.zeros((2, 2, 2)))
    bundle = SystemBundle("nan", PiGraphDirac(algebroid))
    for name in ("integrability", "jacobi"):
        with pytest.raises(EvaluationError,
                           match=r"^anchor has non-finite entry at index \(0, 0\)$"):
            run_checks(bundle, [name])


def test_unknown_check_name_rejected():
    with pytest.raises(DiracMechError, match="^unknown check 'bogus'$") as info:
        run_checks(build_system("euler_top"), ["isotropy", "bogus"])
    assert type(info.value) is DiracMechError


def test_legendre_equivalence_skips_without_a_closed_form_hamiltonian():
    bundle = SystemBundle("x", CanonicalDirac(1),
                          lagrangian=quadratic_lagrangian(lambda x: np.eye(1)))
    assert run_checks(bundle, ["legendre_equivalence"]) == {
        "legendre_equivalence": {"skipped": "needs a closed-form Hamiltonian", "passed": True}}
