"""``scripts/outputs.py``: the byte-identity check of two checkouts runs every
shipped scenario and benchmark document, each into its own directory, and
names every run that does not exit 0."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "outputs.py"


@pytest.fixture
def outputs(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/ and bench/
    spec = importlib.util.spec_from_file_location("outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
