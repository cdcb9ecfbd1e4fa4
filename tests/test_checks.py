"""The structure checks evaluate each distinct input once; these tests hold
them to per-probe reference loops that evaluate every probe, on every
catalog system and on random frame algebroids, where no probe repeats."""

import json
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmech import LinearConstraint, PiGraphDirac, SkewAlgebroid, induce
from diracmech.algebroid import JACOBI_TOL
from diracmech.checks import (
    CORE_TOL,
    core_annihilator_check,
    integrability_check,
    jacobi_check,
)
from diracmech.errors import DiracMechError
from diracmech.linalg import annihilator, max_principal_angle
from diracmech.systems import CATALOG, build_system

from conftest import make_frame_algebroid

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


def integrability(dirac, base_dirac):
    try:
        # as the report writes it: the numpy values through their tolist
        return json.dumps(integrability_check(dirac, base_dirac), sort_keys=True,
                          default=operator.methodcaller("tolist"))
    except DiracMechError as err:
        return str(err)


def assert_checks_match_reference(algebroid, dirac, base_dirac, probes):
    if algebroid is not None:
        assert jacobi_check(algebroid, probes=probes) == jacobi_reference(algebroid, probes)
    assert core_annihilator_check(dirac, probes=probes) == core_reference(dirac, probes)
    deduped = integrability(dirac, base_dirac)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SkewAlgebroid, "basis_jacobi_violation", per_probe_jacobi_violation)
        assert deduped == integrability(dirac, base_dirac)


@pytest.mark.parametrize("system,constraint", [(name, None) for name in sorted(CATALOG)] + [
    ("euler_top", {"fiber": [3]}),
    ("canonical_particle", {"fiber": [2]}),
    ("rolling_disc", {"fiber": [3]}),
])
def test_catalog_checks_match_per_probe_loops(system, constraint):
    bundle = build_system(system, constraint_override=constraint)
    assert_checks_match_reference(bundle.algebroid, bundle.dirac, bundle.base_dirac,
                                  probes=20)


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
    assert_checks_match_reference(algebroid, dirac, PiGraphDirac(algebroid), probes=4)
