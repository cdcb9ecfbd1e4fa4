"""The benchmark under ``bench/`` wraps package names from outside: every
name it patches must exist, and a traced run must reach the layers it
counts.  A rename in the package then fails here rather than in the
benchmark."""

import json
from pathlib import Path

import numpy as np
import pytest

from diracmech import ControlSystem, cli, solver, systems

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def test_probes_install_and_remove(tracing):
    originals = {name: getattr(cli, name) for name in tracing.Probes.SETUP + ("integrate",)}
    probes = tracing.Probes(cli)
    probes.install()
    try:
        assert all(getattr(cli, name) is not fn for name, fn in originals.items())
    finally:
        probes.remove()
    assert all(getattr(cli, name) is fn for name, fn in originals.items())


@pytest.mark.parametrize("name", ["rolling_disc", "lqr", "forced_oscillator"])
def test_a_run_crosses_the_setup_boundary_once(tracing, monkeypatch, tmp_path, name):
    # ``Probes`` counts the SETUP calls as set-up and ``integrate`` as the
    # run: a run makes each call once, the initial projection last before
    # ``integrate``, so no set-up work is timed as the run.  The document's
    # span is cut to ten steps; the calls do not depend on it.
    calls = []
    for attr in tracing.Probes.SETUP + ("integrate",):
        fn = getattr(cli, attr)
        monkeypatch.setattr(cli, attr, lambda *args, _fn=fn, _attr=attr, **kwargs:
                            calls.append(_attr) or _fn(*args, **kwargs))
    doc = json.loads((BENCH.parent / "scenarios" / f"{name}.json").read_text())
    doc["time"]["t1"] = doc["time"]["t0"] + 10 * doc["time"]["dt"]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    assert cli.main(["run", str(scenario), "--out", str(tmp_path)]) == 0
    assert calls == list(tracing.Probes.SETUP) + ["integrate"]


def test_tracer_counts_a_traced_run(tracing, tmp_path):
    solve_rate = solver.solve_rate
    scenario = tmp_path / "top.json"
    scenario.write_text(json.dumps({
        "schema": "diracmech/scenario-v1", "system": "euler_top", "formalism": "lagrangian",
        "initial": [1.0, 0.01, 0.0], "time": {"t0": 0.0, "t1": 0.01, "dt": 0.005},
        "checks": ["jacobi", "core_annihilator"],
    }))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        problem = systems.build_problem(systems.build_system("lqr_pmp"), "pmp")
        solver.integrate(problem, np.array([1.0, 0.0, 0.0]), 0.0, 0.01, 0.005)
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 0
        # the lqr run differences nothing; a control system without analytic
        # partials still reaches fd.jacobian through its fallbacks
        bare = ControlSystem(lambda x, u: u.copy(), lambda x, u: 0.5 * float(u @ u))
        bare.f_u_xu(np.zeros(1), np.zeros(1))
    finally:
        tracer.remove()
    calls = tracer.totals()[0]
    assert tracer.assemblies > 0 and tracer.solve_iters > 0
    for name in ("solver.solve_rate", "problems.residual", "problems.algebraic.projection",
                 "problems.monitor", "fd.jacobian", "systems.build_problem", "cli.main",
                 "checks.jacobi", "checks.core_annihilator", "solver.admissibility_report"):
        assert calls[name] > 0, name
    # the Euler top is x-independent: its report reads no velocity_residual
    assert calls["dirac.velocity_residual"] == 0
    assert solver.solve_rate is solve_rate
