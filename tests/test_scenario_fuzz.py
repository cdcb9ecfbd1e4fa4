"""Scenario-document fuzz through ``Scenario.from_dict`` and ``cli.main``.

Documents start from the shipped scenarios and take up to three mutations:
a field replaced by a malformed number, a value of the wrong type, an odd
output name, or deleted; the run may add a ``--sweep``.  Whatever the
document, ``main`` returns a documented exit code with no traceback, and
once the document loads every run writes a report carrying that code.
Times come from a small set, so a well-formed document runs at most 20
steps (|t1 - t0| <= 0.2 and dt >= 0.01).
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from diracmech.cli import EXIT_ERROR, EXIT_MALFORMED, Scenario, main
from diracmech.errors import ScenarioError
from diracmech.systems import CATALOG

SHIPPED = [json.loads(p.read_text())
           for p in sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))]

DELETE = object()

NUMBERS = (st.floats() | st.integers()
           | st.sampled_from([10**400, -10**400, "1.5", "x", None, True, [1.0], {}]))
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([10**400, "", "\ud800", "a" * 300]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=4,
)
NAMES = st.text(max_size=8) | st.sampled_from(
    ["", ".", "..", "a/b", "a\\b", "t\0.csv", "a" * 300, "\ud800.csv", "x.csv", 1, None])
TIMES = st.sampled_from([0.0, 0.1, -0.1, 0.001, float("nan"), float("inf"), 10**400,
                         "0.1", "x", None, [0.1]])
STEPS = st.sampled_from([0.01, 0.05, 0.1, True, 0.0, -0.01, 1e-320, float("nan"),
                         float("inf"), 10**400, "abc", None, {}])


def _choice(values):
    return st.sampled_from(values) | JUNK


# (path into the document, strategy for its new value); "time" itself is
# only ever replaced by a value that is not an object, to keep runs short
FIELDS = [
    (("schema",), _choice(["diracmech/scenario-v1", "diracmech/scenario-v0"])),
    (("system",), _choice(sorted(CATALOG) + ["spinning_top"])),
    (("formalism",), _choice(["lagrangian", "hamiltonian", "pmp"])),
    (("initial",), st.lists(NUMBERS, max_size=6) | JUNK),
    (("params",), JUNK),
    (("params", "mass"), NUMBERS),
    (("params", "J1"), NUMBERS),
    (("params", "r"), NUMBERS),
    (("time",), st.sampled_from([None, [], "0:1", 1.0])),
    (("time", "t0"), TIMES),
    (("time", "t1"), TIMES),
    (("time", "dt"), STEPS),
    (("time", "method"), _choice(["rk4", "implicit-midpoint", "euler"])),
    (("checks",), st.lists(st.sampled_from(["isotropy", "jacobi", "core_annihilator",
                                            "integrability", "legendre_equivalence",
                                            "nope"]), max_size=2) | JUNK),
    (("constraint",), st.dictionaries(st.sampled_from(["fiber", "base", "fibre"]),
                                      st.lists(st.integers(-1, 5) | JUNK, max_size=3)
                                      | JUNK, max_size=2) | JUNK),
    (("output",), JUNK),
    (("output", "trajectory"), NAMES),
    (("output", "report"), NAMES),
    (("seed",), st.integers(-2, 2**70) | JUNK),
    (("hamiltonian_source",), _choice(["legendre", "closed"])),
    (("extra_field",), JUNK),
]


@st.composite
def documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(SHIPPED))))
    doc["time"] = {"t0": 0.0, "t1": draw(st.sampled_from([0.05, 0.1])),
                   "dt": draw(st.sampled_from([0.01, 0.05])),
                   "method": draw(st.sampled_from(["rk4", "implicit-midpoint"]))}
    for _ in range(draw(st.integers(0, 3))):
        path, values = draw(st.sampled_from(FIELDS))
        value = draw(st.just(DELETE) | values)
        parent = doc
        for key in path[:-1]:
            if not isinstance(parent.get(key), dict):
                parent[key] = {}
            parent = parent[key]
        if value is DELETE:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = value
    return json.loads(json.dumps(doc))


SWEEPS = st.none() | st.sampled_from(["mass", "mass=1:2", "=1:2:2", "mass=1:2:2:3"])
SWEEPS |= st.builds(
    "{}={}:{}:{}".format,
    st.sampled_from(["mass", "J1", "q", "nope", "", "a/b", ".."]),
    st.sampled_from(["0", "0.5", "-1", "nan", "inf", "x"]),
    st.sampled_from(["1", "2", "1e400"]),
    st.sampled_from(["0", "1", "2", "-1", "x", "1.5"]),
)


SINGULAR_MASS = {
    "schema": "diracmech/scenario-v1", "system": "rolling_disc", "formalism": "hamiltonian",
    "hamiltonian_source": "closed", "params": {"J1": 0.0}, "initial": [0.1, 0.0, 1.0, 0.0, 0.0],
    "time": {"t0": 0.0, "t1": 0.01, "dt": 0.005},
}


def _exit_code(report):
    return json.loads(report.read_text())["exit_code"]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(doc=documents(), command=st.sampled_from(["run", "check"]), sweep=SWEEPS)
# a closed-form Hamiltonian whose mass matrix is singular at J1 = 0
@example(doc=SINGULAR_MASS, command="run", sweep=None)
@example(doc=SINGULAR_MASS, command="run", sweep="J1=0:1:2")
def test_no_document_escapes_main(tmp_path_factory, doc, command, sweep):
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "scenario.json"
    path.write_text(json.dumps(doc))
    out = work / "out"
    argv = [command, str(path), "--out", str(out)]
    if command == "run" and sweep is not None:
        argv.append(f"--sweep={sweep}")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(6)
    assert "Traceback" not in err.getvalue()

    try:
        scenario = Scenario.from_dict(doc)
    except ScenarioError:
        assert code == EXIT_MALFORMED
        assert not out.exists()
        return
    name = scenario.output.get("report", "report.json")
    if len(name.encode()) > 255:
        # the report cannot be written: exit 1 with the message on stderr
        assert code == EXIT_ERROR or code == EXIT_MALFORMED and len(argv) == 5
        return
    if len(argv) == 4:
        assert _exit_code(out / name) == code
        return
    codes = [_exit_code(sub / name) for sub in out.glob("*=*")]
    assert all(c in range(6) for c in codes)
    if code != EXIT_MALFORMED:
        assert codes and max(codes) == code
