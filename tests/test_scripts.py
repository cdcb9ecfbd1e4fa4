"""``scripts/outputs.py``: the byte-identity check of two checkouts runs every
shipped scenario and benchmark document, each into its own directory, and
names every run that does not exit 0.  ``scripts/reach.py`` names the
functions that its inputs leave unreached."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(monkeypatch, name):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the scripts prepend src/ (and bench/)
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def outputs(monkeypatch):
    return _load(monkeypatch, "outputs")


def test_sweep_documents_run_into_their_own_directories(outputs, tmp_path):
    runs = list(outputs.bench_runs(tmp_path, "sweep", 7))
    assert [name for name, _ in runs] == ["sweep-7/euler_top_sweep"]
    assert all(outputs.exits_0(argv) for _, argv in runs)
    values = sorted((tmp_path / "sweep-7" / "euler_top_sweep").glob("J3=*"))
    assert len(values) == 4
    for value in values:
        assert sorted(p.name for p in value.iterdir()) == ["euler_top_sweep.csv",
                                                           "euler_top_sweep_report.json"]


def test_a_run_that_does_not_exit_0_is_named(outputs, tmp_path, monkeypatch, capsys):
    scenarios = tmp_path / "root" / "scenarios"
    scenarios.mkdir(parents=True)
    (scenarios / "broken.json").write_text(json.dumps({"schema": "unknown"}))
    monkeypatch.setattr(outputs, "ROOT", tmp_path / "root")
    monkeypatch.setattr(outputs.workloads, "GENERATORS", {})
    assert outputs.main(tmp_path / "out") == 1
    assert "did not exit 0: scenarios/broken" in capsys.readouterr().err


def test_reach_of_list_systems_alone(monkeypatch):
    reach = _load(monkeypatch, "reach")
    result = reach.report([lambda: reach._cli(["list-systems"])])
    unreached = result["unreached"]
    assert result["functions"] == result["reached"] + len(unreached)
    assert any(re.fullmatch(r"src/diracmech/solver\.py:\d+ integrate", e) for e in unreached)
    assert not any(e.endswith(" cmd_list_systems") for e in unreached)


def test_reach_counts_calls_made_at_import():
    # a fresh interpreter imports the package under the profiler: the catalog
    # that import builds reaches SystemSpec.__init__
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import reach; "
            "print(json.dumps(reach.report([lambda: reach._cli(['list-systems'])])))")
    done = subprocess.run([sys.executable, "-c", code, str(SCRIPTS)], capture_output=True,
                          text=True, check=True, timeout=60)
    unreached = json.loads(done.stdout)["unreached"]
    assert not any(e.endswith(" SystemSpec.__init__") for e in unreached)
    assert any(e.endswith(" integrate") for e in unreached)
