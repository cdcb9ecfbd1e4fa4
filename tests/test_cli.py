import copy
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import diracmech.cli as cli
from diracmech.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DEGENERATE,
    EXIT_ERROR,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_UNKNOWN_SYSTEM,
    SCHEMA_KEYWORDS,
    Scenario,
    main,
    scenario_schema,
    validate,
)
from diracmech.errors import ScenarioError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def load_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


BASE_DOC = {
    "schema": "diracmech/scenario-v1",
    "system": "harmonic_oscillator",
    "formalism": "lagrangian",
    "initial": [1.0, 0.0],
    "time": {"t0": 0.0, "t1": 0.5, "dt": 0.01, "method": "rk4"},
    "output": {"trajectory": "t.csv", "report": "r.json"},
}


class TestScenario:
    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
    def test_shipped_scenarios_round_trip(self, name):
        # every shipped document loads, the scenario keeps it as read, and a
        # copy of it, which a sweep edits, reads back into the same attributes
        scenario = Scenario.load(SCENARIOS / name)
        assert scenario.doc == json.loads((SCENARIOS / name).read_text())
        again = Scenario.from_dict(copy.deepcopy(scenario.doc))
        assert vars(again) == vars(scenario)

    def test_sweep_run_is_the_run_of_its_document(self, tmp_path):
        # each sub-run of a sweep writes, byte for byte, what a run of the
        # shipped document with that parameter set writes
        path = SCENARIOS / "canonical_particle.json"
        doc = json.loads(path.read_text())
        sweep_dir = tmp_path / "sweep"
        assert main(["run", str(path), "--out", str(sweep_dir),
                     "--sweep", "mass=1:2:2"]) == EXIT_OK
        for value in (1.0, 2.0):
            alone = dict(doc, params={"mass": value})
            alone_dir = tmp_path / f"alone_{value}"
            alone_path = write_scenario(tmp_path, alone, name=f"mass_{value}.json")
            assert main(["run", str(alone_path), "--out", str(alone_dir)]) == EXIT_OK
            for name in doc["output"].values():
                swept = (sweep_dir / f"mass={value:.17g}" / name).read_bytes()
                assert swept == (alone_dir / name).read_bytes()

    def test_unknown_field_rejected(self):
        doc = dict(BASE_DOC, typo_field=1)
        with pytest.raises(ScenarioError, match="typo_field"):
            Scenario.from_dict(doc)

    def test_bad_schema_rejected(self):
        with pytest.raises(ScenarioError, match="schema"):
            Scenario.from_dict(dict(BASE_DOC, schema="other/1"))

    @pytest.mark.parametrize("t1", [-1.0, 0.0, float("inf"), float("nan"), 0.001])
    def test_backwards_span_rejected(self, t1):
        doc = dict(BASE_DOC, time={"t0": 0.0, "t1": t1, "dt": 0.01})
        # a non-finite bound is not a number to the schema, before any span rule
        named = "span" if np.isfinite(t1) else r"^time\.t1 must be a finite number"
        with pytest.raises(ScenarioError, match=named):
            Scenario.from_dict(doc)

    def test_nonpositive_step_rejected(self):
        doc = dict(BASE_DOC, time={"t0": 0.0, "t1": 1.0, "dt": 0.0})
        with pytest.raises(ScenarioError, match="dt"):
            Scenario.from_dict(doc)


def _subschemas(schema):
    yield schema
    for key in ("items", "additionalProperties"):
        if isinstance(schema.get(key), dict):
            yield from _subschemas(schema[key])
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)


class TestSchemaInterpreter:
    def test_schema_uses_only_interpreted_keywords(self):
        for sub in _subschemas(scenario_schema()):
            assert set(sub) <= SCHEMA_KEYWORDS, sorted(set(sub) - SCHEMA_KEYWORDS)
            assert sub.get("type", "number") in cli._TYPES

    def test_every_schema_field_is_an_attribute_with_its_default(self):
        fields = set(scenario_schema()["properties"]) - {"schema"}
        full = dict(BASE_DOC, params={"mass": 2.0}, constraint={"fiber": [1]},
                    checks=["isotropy"], seed=3, hamiltonian_source="closed")
        assert fields <= set(full)
        scenario = Scenario.from_dict(full)
        assert scenario.doc is full
        assert {key: getattr(scenario, key) for key in fields} == {
            key: full[key] for key in fields}
        required = {"schema", "system", "initial", "time"}
        minimal = {key: BASE_DOC[key] for key in required}
        minimal["time"] = {"t0": 0.0, "t1": 0.5, "dt": 0.01}
        scenario = Scenario.from_dict(minimal)
        assert {key: getattr(scenario, key) for key in fields} == {
            "system": "harmonic_oscillator",
            "initial": [1.0, 0.0],
            "time": {"t0": 0.0, "t1": 0.5, "dt": 0.01, "method": "rk4"},
            "formalism": "lagrangian",
            "params": {},
            "constraint": None,
            "checks": [],
            "output": {"trajectory": "trajectory.csv", "report": "report.json"},
            "seed": 0,
            "hamiltonian_source": "legendre",
        }

    def test_annotations_are_ignored(self):
        validate(1.0, {"$schema": "x", "title": "t", "description": "d", "examples": ["a"]})

    def test_output_defaults_fill_missing_names(self):
        scenario = Scenario.from_dict(dict(BASE_DOC, output={"trajectory": "x.csv"}))
        assert scenario.output == {"trajectory": "x.csv", "report": "report.json"}

    # documents that a reader coercing or defaulting these fields would run
    @pytest.mark.parametrize("override, named", [
        ({"params": 0}, "params"),
        ({"params": []}, "params"),
        ({"params": None}, "params"),
        ({"params": ""}, "params"),
        ({"output": 0}, "output"),
        ({"output": False}, "output"),
        ({"output": []}, "output"),
        ({"time": {"t0": 0.0, "t1": 0.5, "dt": "0.01"}}, "time.dt"),
        ({"time": {"t0": 0.0, "t1": "0.05", "dt": 0.01}}, "time.t1"),
        ({"initial": ["1", "0"]}, "initial[0]"),
        ({"params": {"mass": True}}, "params.mass"),
        ({"constraint": None}, "constraint"),
        ({"constraint": {}}, "constraint"),
    ], ids=["params-zero", "params-list", "params-null", "params-empty-string",
            "output-zero", "output-false", "output-list", "dt-string", "t1-string",
            "initial-strings", "param-bool", "constraint-null", "constraint-empty"])
    def test_former_leniency_exits_5(self, tmp_path, capsys, override, named):
        path = write_scenario(tmp_path, dict(BASE_DOC, **override))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_MALFORMED
        assert f"error: {named} " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        json.dumps(dict(BASE_DOC, system="caf\xe9"), ensure_ascii=False).encode("latin-1"),
        b'{"seed": ' + b"1" * 5000 + b"}",
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not-utf8", "long-integer", "deep-nesting"])
    def test_unreadable_document_exits_5(self, tmp_path, capsys, text):
        path = tmp_path / "scenario.json"
        path.write_bytes(text)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert "cannot read scenario" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("constraint", [{"fiber": []}, {"base": []}], ids=["fiber", "base"])
    def test_empty_constraint_override_exits_5(self, tmp_path, capsys, constraint):
        doc = dict(BASE_DOC, system="rolling_disc", initial=[0.0, 1.0, 2.0],
                   constraint=constraint, time={"t0": 0.0, "t1": 0.01, "dt": 1e-3})
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_MALFORMED
        assert f"error: constraint.{next(iter(constraint))} " in capsys.readouterr().err


class TestRun:
    def test_rolling_disc_scenario(self, tmp_path):
        code = main(["run", str(SCENARIOS / "rolling_disc.json"),
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        header, data = load_csv(tmp_path / "rolling_disc.csv")
        phi_col = header.index("phi")
        assert abs(data[-1, phi_col] - 1.0) <= 1e-7
        assert "phi_wrapped" in header
        report = json.loads((tmp_path / "rolling_disc_report.json").read_text())
        assert report["checks"]["integrability"]["cond2"] is False
        assert report["checks"]["isotropy"]["passed"] is True
        assert report["newton"]["max_residual"] <= 1e-9
        assert report["admissibility"]["max"] <= 1e-9
        assert report["energy_drift"] <= 1e-6 * (1.0 + 4.5)

    def test_hamiltonian_matches_lagrangian_run(self, tmp_path):
        assert main(["run", str(SCENARIOS / "harmonic_oscillator.json"),
                     "--out", str(tmp_path / "lag")]) == EXIT_OK
        assert main(["run", str(SCENARIOS / "harmonic_oscillator_hamiltonian.json"),
                     "--out", str(tmp_path / "ham")]) == EXIT_OK
        _, lag = load_csv(tmp_path / "lag" / "oscillator.csv")
        _, ham = load_csv(tmp_path / "ham" / "oscillator_h.csv")
        # unit mass: the momentum equals the velocity, so states correspond
        assert np.max(np.abs(lag[:, 1] - ham[:, 1])) <= 1e-7
        assert np.max(np.abs(lag[:, 2] - ham[:, 2])) <= 1e-7

    def test_lqr_stationarity_channel(self, tmp_path):
        code = main(["run", str(SCENARIOS / "lqr.json"), "--out", str(tmp_path)])
        assert code == EXIT_OK
        header, data = load_csv(tmp_path / "lqr.csv")
        u = data[:, header.index("u1")]
        xi = data[:, header.index("xi1")]
        assert np.max(np.abs(u - xi)) <= 1e-9

    def test_deterministic_output(self, tmp_path):
        doc = dict(BASE_DOC)
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["run", str(path), "--out", str(tmp_path / "b")]) == EXIT_OK
        a = (tmp_path / "a" / "t.csv").read_bytes()
        b = (tmp_path / "b" / "t.csv").read_bytes()
        assert a == b

    def test_unknown_system_exit_code(self, tmp_path):
        path = write_scenario(tmp_path, dict(BASE_DOC, system="spinning_top"))
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_UNKNOWN_SYSTEM

    def test_malformed_scenario_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_MALFORMED

    def test_wrong_initial_length_exit_code(self, tmp_path):
        path = write_scenario(tmp_path, dict(BASE_DOC, initial=[1.0]))
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_MALFORMED

    @pytest.mark.parametrize("scenario,expected", [
        (None, "problem expects 2\n"),
        # the document gives "x, y"; the clock is not one of its entries
        ("forced_oscillator.json", "problem expects 2 (the clock is prepended from time.t0)\n"),
    ])
    def test_initial_length_message_counts_the_document(self, tmp_path, capsys,
                                                        scenario, expected):
        doc = json.loads((SCENARIOS / scenario).read_text()) if scenario else BASE_DOC
        path = write_scenario(tmp_path, dict(doc, initial=[1.0, 0.0, 0.0]))
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_MALFORMED
        assert f"initial state has length 3, {expected}" in capsys.readouterr().err

    def test_clocked_scenario_starts_its_clock_at_t0(self, tmp_path):
        doc = json.loads((SCENARIOS / "forced_oscillator.json").read_text())
        doc["time"].update(t0=2.0, t1=2.1)
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_OK
        header, data = load_csv(tmp_path / doc["output"]["trajectory"])
        assert data[0, header.index("clock")] == 2.0
        assert np.all(data[:, header.index("clock_dot")] == 1.0)
        report = json.loads((tmp_path / doc["output"]["report"]).read_text())
        assert report["exit_code"] == EXIT_OK and "energy_drift" not in report

    def test_degenerate_dynamics_exit_code(self, tmp_path):
        doc = dict(BASE_DOC, system="euler_top", initial=[1.0, 0.5, 0.5],
                   params={"J1": 0.0})
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_DEGENERATE
        report = json.loads((tmp_path / "r.json").read_text())
        assert "degeneracy" in report

    def test_sweep_fans_out(self, tmp_path):
        doc = dict(BASE_DOC, time={"t0": 0.0, "t1": 0.2, "dt": 0.01})
        path = write_scenario(tmp_path, doc)
        code = main(["run", str(path), "--out", str(tmp_path),
                     "--sweep", "spring=1:2:3"])
        assert code == EXIT_OK
        for value in ("1", "1.5", "2"):
            assert (tmp_path / f"spring={value}" / "t.csv").exists()

    def test_backwards_span_exit_code(self, tmp_path):
        doc = dict(BASE_DOC, time={"t0": 0.0, "t1": -1.0, "dt": 0.01})
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_MALFORMED

    def test_sweep_keeps_close_values_apart(self, tmp_path):
        doc = dict(BASE_DOC, time={"t0": 0.0, "t1": 0.05, "dt": 0.01})
        path = write_scenario(tmp_path, doc)
        code = main(["run", str(path), "--out", str(tmp_path),
                     "--sweep", "spring=1:1.000000001:2"])
        assert code == EXIT_OK
        reports = sorted(tmp_path.glob("spring=*/r.json"))
        assert len(reports) == 2

    def test_sweep_parameter_stays_inside_out(self, tmp_path, capsys):
        path = write_scenario(tmp_path, dict(BASE_DOC))
        escaped = tmp_path / "escaped" / "mass"
        code = main(["run", str(path), "--out", str(tmp_path / "out"),
                     f"--sweep={escaped}=1:2:2"])
        assert code == EXIT_MALFORMED
        assert "sweep PARAM" in capsys.readouterr().err
        assert not (tmp_path / "escaped").exists()

    def test_sweep_matches_separate_runs(self, tmp_path):
        doc = json.loads((SCENARIOS / "euler_top.json").read_text())
        doc["time"]["t1"] = 0.05
        path = write_scenario(tmp_path, doc)
        sweep_dir = tmp_path / "sweep"
        assert main(["run", str(path), "--out", str(sweep_dir),
                     "--sweep", "J3=2.5:3.5:3"]) == EXIT_OK
        for value in (2.5, 3.0, 3.5):
            alone = dict(doc, params=dict(doc["params"], J3=value))
            alone_path = write_scenario(tmp_path, alone, name=f"J3_{value}.json")
            alone_dir = tmp_path / f"alone_{value}"
            assert main(["run", str(alone_path), "--out", str(alone_dir)]) == EXIT_OK
            swept = (sweep_dir / f"J3={value:.17g}" / "euler_top.csv").read_bytes()
            assert swept == (alone_dir / "euler_top.csv").read_bytes()

    def test_structure_check_failure_exit_code(self, tmp_path, monkeypatch):
        # register a deliberately broken system: the structure functions
        # violate the Jacobi identity, so the jacobi check must fail the run
        import diracmech.systems as systems
        from diracmech import Chart, PiGraphDirac, SkewAlgebroid
        from diracmech.systems import SystemBundle, SystemSpec, quadratic_lagrangian

        rng = np.random.default_rng(12)
        raw = rng.standard_normal((3, 3, 3))
        c = raw - np.swapaxes(raw, 0, 1)

        def build_broken(params, constraint):
            alg = SkewAlgebroid(Chart(0, 3), lambda x: np.zeros((0, 3)),
                                lambda x, c=c: c)
            dirac = PiGraphDirac(alg)
            return SystemBundle("broken_top", dirac,
                                lagrangian=quadratic_lagrangian(lambda x: np.eye(3)))

        spec = SystemSpec("broken_top", "test-only", {}, build_broken,
                          ("lagrangian",), {"lagrangian": "y1, y2, y3"})
        monkeypatch.setitem(systems.CATALOG, "broken_top", spec)
        doc = dict(BASE_DOC, system="broken_top", initial=[1.0, 0.0, 0.0],
                   checks=["jacobi"])
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CHECK_FAILED
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["checks"]["jacobi"]["passed"] is False

    def test_euler_top_reads_its_anchor_once_per_distinct_input(self, tmp_path, monkeypatch):
        # 4 evaluations build the membership table, 1 the Jacobi check (20
        # probes of the one empty x), 1 the core check (one x-independent
        # local form for its 50 probes) and 1 the admissibility report, whose
        # 5,001 samples read no velocity_residual on this x-independent structure
        from diracmech import DiracAlgebroid, SkewAlgebroid

        counts = {"anchor": 0, "velocity_residual": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        # the unchecked hook, which the public anchor and every kernel path reach
        monkeypatch.setattr(SkewAlgebroid, "_anchor", counted("anchor", SkewAlgebroid._anchor))
        monkeypatch.setattr(DiracAlgebroid, "velocity_residual",
                            counted("velocity_residual", DiracAlgebroid.velocity_residual))
        assert main(["run", str(SCENARIOS / "euler_top.json"), "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "euler_top_report.json").read_text())
        assert report["trajectory"]["steps"] == 5000 and "admissibility" in report
        assert counts["anchor"] <= 60
        assert counts["velocity_residual"] == 0


class TestListSystems:
    def test_catalog_lists_all_systems(self, capsys):
        assert main(["list-systems"]) == EXIT_OK
        out = capsys.readouterr().out
        names = [line.split(" -- ")[0] for line in out.splitlines() if " -- " in line]
        assert len(names) == 6
        assert "rolling_disc" in names

    def test_machine_readable_catalog(self, capsys):
        assert main(["list-systems", "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert "scenario_schema" in doc
        assert {s["name"] for s in doc["systems"]} == {
            "canonical_particle", "harmonic_oscillator", "rolling_disc",
            "euler_top", "forced_oscillator_timedep", "lqr_pmp",
        }
        assert doc["scenario_schema"]["properties"]["schema"]["const"]


class TestCheck:
    def test_check_only_writes_report(self, tmp_path):
        doc = dict(BASE_DOC, checks=["isotropy", "core_annihilator"])
        path = write_scenario(tmp_path, doc)
        assert main(["check", str(path), "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["checks"]["isotropy"]["passed"] is True
        assert not (tmp_path / "t.csv").exists()


class TestMalformedNumbers:
    @pytest.mark.parametrize("override, named", [
        ({"time": {"t0": 0.0, "t1": 1.0, "dt": "abc"}}, "time.dt"),
        ({"time": {"t0": 0.0, "t1": 1.0, "dt": float("nan")}}, "time.dt"),
        ({"time": {"t0": 0.0, "t1": 1.0, "dt": float("inf")}}, "time.dt"),
        ({"params": {"mass": "x"}}, "params.mass"),
        ({"params": {"mass": float("nan")}}, "params.mass"),
        ({"initial": [float("nan"), 0.0]}, "initial[0]"),
        ({"checks": "isotropy"}, "checks must be a list"),
        ({"initial": "10"}, "initial must be a list"),
        ({"constraint": {"fibre": [1]}}, "fibre"),
        ({"constraint": {"fiber": ["a"]}}, "constraint.fiber"),
        ({"constraint": {"fiber": 1}}, "constraint.fiber"),
        ({"constraint": {"fiber": [1.7]}, "initial": [1.0]}, "constraint.fiber"),
        ({"constraint": {"base": [True]}}, "constraint.base"),
        ({"time": {"t0": 0.0, "t1": 0.001, "dt": 0.01}}, "span"),
        ({"time": {"t0": 0.0, "t1": 1.0, "dt": 1e-320}}, "time.dt"),
        ({"output": {"trajectory": "t.csv", "report": 1}}, "output.report"),
        ({"output": {"trajectory": ["t.csv"], "report": "r.json"}}, "output.trajectory"),
        ({"output": {"trajectory": "t.csv", "report": ""}}, "output.report"),
        ({"output": {"trajectory": "", "report": "r.json"}}, "output.trajectory"),
        ({"output": {"trajectory": "t.csv", "report": "."}}, "output.report"),
        ({"output": {"trajectory": "..", "report": "r.json"}}, "output.trajectory"),
        ({"output": {"trajectory": "t.csv", "report": "nope/r.json"}}, "output.report"),
        ({"output": {"trajectory": "a\\t.csv", "report": "r.json"}}, "output.trajectory"),
        ({"output": {"trajectory": "t\0.csv", "report": "r.json"}}, "output.trajectory"),
        ({"output": {"trajectory": "t.csv", "reprot": "r.json"}}, "reprot"),
        ({"output": {"trajectory": "same", "report": "same"}}, "output.trajectory"),
        ({"formalism": "hamiltonian", "hamiltonian_source": "closd"},
         "hamiltonian_source"),
        ({"seed": 1.5}, "seed"),
        ({"seed": -1}, "seed"),
        ({"system": ["harmonic_oscillator"]}, "system"),
        ({"initial": [10**400, 0.0]}, "initial[0]"),
        ({"params": {"mass": 10**400}}, "params.mass"),
        ({"time": {"t0": 0.0, "t1": 10**400, "dt": 0.01}}, "too large"),
        ({"output": {"trajectory": "\ud800.csv", "report": "r.json"}},
         "output.trajectory"),
        ({"time": {"t0": 0.0, "t1": 1.0, "dt": 0.01, "methd": "implicit-midpoint"}},
         "methd"),
    ], ids=["dt-string", "dt-nan", "dt-inf", "param-string", "param-nan",
            "initial-nan", "checks-string", "initial-string", "constraint-key",
            "constraint-string", "constraint-int", "constraint-float",
            "constraint-bool", "short-span", "dt-overflow", "output-report",
            "output-trajectory", "output-empty-report", "output-empty-trajectory",
            "output-dot", "output-dotdot", "output-subdirectory", "output-backslash",
            "output-nul", "output-key", "output-same-name", "hamiltonian-source",
            "seed-float", "seed-negative", "system-list", "initial-huge-int",
            "param-huge-int", "time-huge-int", "output-surrogate", "time-key"])
    def test_malformed_number_exits_5(self, tmp_path, capsys, override, named):
        path = write_scenario(tmp_path, dict(BASE_DOC, **override))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert named in err


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not strict JSON")

    return json.loads(text, parse_constant=reject)


class TestNonFiniteMonitors:
    def test_overflowing_monitor_exits_1(self, tmp_path):
        doc = dict(BASE_DOC, formalism="hamiltonian", initial=[1e300, 1e300],
                   time={"t0": 0.0, "t1": 0.01, "dt": 1e-3})
        path = write_scenario(tmp_path, doc)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_ERROR
        report = _strict_json((tmp_path / "r.json").read_text())
        assert report["exit_code"] == EXIT_ERROR
        assert "monitor 'hamiltonian' is not finite at t=0.0" in report["error"]

    def test_overflowing_drift_exits_1(self, tmp_path, monkeypatch):
        import diracmech.cli as cli

        integrate = cli.integrate

        def spread(*args, **kwargs):
            # finite monitor values whose difference overflows
            trajectory = integrate(*args, **kwargs)
            trajectory.monitors["energy"][0] = 1.5e308
            trajectory.monitors["energy"][-1] = -1.5e308
            return trajectory

        monkeypatch.setattr(cli, "integrate", spread)
        path = write_scenario(tmp_path, dict(BASE_DOC))
        with np.errstate(over="ignore"):
            assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_ERROR
        report = _strict_json((tmp_path / "r.json").read_text())
        assert "drift of monitor 'energy' is not finite" in report["error"]


class TestOverflowingParameters:
    def test_huge_disc_radius_exits_1(self, tmp_path):
        doc = dict(BASE_DOC, system="rolling_disc", initial=[0.0, 1.0, 2.0],
                   params={"R": 1e200}, time={"t0": 0.0, "t1": 0.01, "dt": 1e-3})
        path = write_scenario(tmp_path, doc)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_ERROR
        report = _strict_json((tmp_path / "r.json").read_text())
        assert report["exit_code"] == EXIT_ERROR
        assert report["error"]

    @pytest.mark.parametrize("params, sweep, code", [
        ({"R": 1e200}, [], EXIT_ERROR),
        ({}, ["--sweep", "R=0:inf:2"], EXIT_MALFORMED),
        ({}, ["--sweep", "R=0:1e400:2"], EXIT_MALFORMED),
        ({}, ["--sweep", "R=-1e308:1e308:2"], EXIT_MALFORMED),
    ], ids=["huge-disc-radius", "infinite-sweep-bound", "overflowing-sweep-bound",
            "overflowing-sweep-span"])
    def test_handled_error_prints_no_numpy_warning(self, tmp_path, params, sweep, code):
        doc = dict(BASE_DOC, system="rolling_disc", initial=[0.0, 1.0, 2.0],
                   params=params, time={"t0": 0.0, "t1": 0.01, "dt": 1e-3})
        path = write_scenario(tmp_path, doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(path), "--out", str(tmp_path)] + sweep) == code
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestOutputErrors:
    @pytest.mark.parametrize("trajectory", ["a" * 300, "taken"],
                             ids=["name-too-long", "name-is-directory"])
    def test_unwritable_trajectory_exits_1_with_report(self, tmp_path, capsys,
                                                       trajectory):
        (tmp_path / "out" / "taken").mkdir(parents=True)
        doc = dict(BASE_DOC, output={"trajectory": trajectory, "report": "r.json"})
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_ERROR
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "r.json").read_text())
        assert report["exit_code"] == EXIT_ERROR
        assert "cannot write the outputs" in report["error"]

    @pytest.mark.parametrize("case", ["report-name-too-long", "out-is-a-file"])
    def test_unwritable_report_exits_1_on_stderr(self, tmp_path, capsys, case):
        out = tmp_path / "out"
        report = "r.json"
        if case == "out-is-a-file":
            out.write_text("")
        else:
            report = "a" * 300
        doc = dict(BASE_DOC, output={"trajectory": "t.csv", "report": report})
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path), "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "cannot write the report" in err


class TestImplicitMidpoint:
    def test_euler_top_keeps_energy(self, tmp_path):
        doc = dict(BASE_DOC, system="euler_top", initial=[1.0, 0.5, 0.2],
                   time={"t0": 0.0, "t1": 10.0, "dt": 0.1, "method": "implicit-midpoint"})
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["energy_drift"] <= 1e-12

    def test_non_contracting_step_exits_1(self, tmp_path):
        doc = dict(BASE_DOC, time={"t0": 0.0, "t1": 6.0, "dt": 3.0,
                                   "method": "implicit-midpoint"})
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_ERROR
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["exit_code"] == EXIT_ERROR
        assert "did not contract" in report["error"]


class TestReports:
    @pytest.mark.parametrize("override, expected, key", [
        ({}, EXIT_OK, "trajectory"),
        ({"system": "spinning_top"}, EXIT_UNKNOWN_SYSTEM, "error"),
        ({"formalism": "pmp"}, EXIT_MALFORMED, "error"),
        ({"initial": [1.0]}, EXIT_MALFORMED, "error"),
        ({"constraint": {"fiber": [9]}}, EXIT_MALFORMED, "error"),
        ({"system": "euler_top", "initial": [1.0, 0.5, 0.5], "params": {"J1": 0.0}},
         EXIT_DEGENERATE, "degeneracy"),
        ({"params": {"mass": 0.0}, "checks": ["legendre_equivalence"]},
         EXIT_DEGENERATE, "degeneracy"),
        ({"system": "lqr_pmp", "formalism": "pmp", "initial": [1.0, 0.0, 0.0],
          "params": {"q": 1.0, "r": 0.0}}, EXIT_DEGENERATE, "degeneracy"),
    ], ids=["ok", "unknown-system", "formalism", "initial-length", "constraint",
            "degenerate-run", "degenerate-check", "singular-control"])
    def test_every_exit_writes_report(self, tmp_path, override, expected, key):
        path = write_scenario(tmp_path, dict(BASE_DOC, **override))
        assert main(["run", str(path), "--out", str(tmp_path)]) == expected
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["exit_code"] == expected
        assert key in report

    @pytest.mark.parametrize("error", ["SolverError", "InitializationError",
                                       "EvaluationError", "HyperregularityError"])
    def test_solver_failures_write_report(self, tmp_path, monkeypatch, error):
        import diracmech.cli as cli
        import diracmech.errors as errors

        def failing(*args, **kwargs):
            raise getattr(errors, error)("injected failure")

        monkeypatch.setattr(cli, "integrate", failing)
        path = write_scenario(tmp_path, dict(BASE_DOC))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["exit_code"] == 1
        assert report["error"] == "injected failure"

    def test_failed_check_writes_report(self, tmp_path, monkeypatch):
        import diracmech.cli as cli

        monkeypatch.setattr(cli, "run_checks",
                            lambda *args, **kwargs: {"isotropy": {"passed": False}})
        path = write_scenario(tmp_path, dict(BASE_DOC, checks=["isotropy"]))
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_CHECK_FAILED
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["exit_code"] == EXIT_CHECK_FAILED

    def test_failing_sweep_run_keeps_the_others(self, tmp_path):
        doc = dict(BASE_DOC, time={"t0": 0.0, "t1": 0.05, "dt": 0.01},
                   checks=["legendre_equivalence"])
        path = write_scenario(tmp_path, doc)
        code = main(["run", str(path), "--out", str(tmp_path), "--sweep", "mass=0:1:2"])
        assert code == EXIT_DEGENERATE
        failed = json.loads((tmp_path / "mass=0" / "r.json").read_text())
        assert failed["exit_code"] == EXIT_DEGENERATE
        ok = json.loads((tmp_path / "mass=1" / "r.json").read_text())
        assert ok["exit_code"] == EXIT_OK
        assert (tmp_path / "mass=1" / "t.csv").exists()
