"""Command-line front end.

Subcommands:

* ``run <scenario.json> [--out DIR] [--sweep PARAM=a:b:n]`` integrates the
  scenario and writes a trajectory CSV plus a JSON report; a sweep runs
  its values one after another in the calling process, each into its own
  sub-directory;
* ``list-systems [--json]`` prints the catalog of built-in systems;
* ``check <scenario.json> [--out DIR]`` runs the structure checks only.

Exit codes: 0 success, 1 any other package error (e.g. a solve that does
not converge), 2 degenerate implicit dynamics, 3 structure-check failure,
4 unknown system, 5 a document that ``scenario_schema()`` rejects or that
breaks a cross-field rule (span, step count, distinct output names), a
malformed ``--sweep``, a formalism the system lacks, a wrong initial length,
or a constraint that does not fit the system.  Once a scenario is loaded,
every exit writes the report with ``exit_code`` and ``error`` or ``degeneracy``.
"""

import argparse
import copy
import json
import math
import operator
import re
import sys
from pathlib import Path

import numpy as np

from .checks import CHECK_NAMES, run_checks
from .dirac import TimeExtendedDirac
from .errors import (ConstraintError, DegenerateDynamicsError, DiracMechError, ScenarioError,
                     SolverError)
from .solver import METHODS, admissibility_report, integrate, project_initial, step_count
from .systems import CATALOG, build_problem, build_system

SCHEMA_VERSION = "diracmech/scenario-v1"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGENERATE = 2
EXIT_CHECK_FAILED = 3
EXIT_UNKNOWN_SYSTEM = 4
EXIT_MALFORMED = 5


# JSON type: (test, name in messages); a bool is never a number
_TYPES = {
    "object": (lambda v: isinstance(v, dict), "an object"),
    "array": (lambda v: isinstance(v, list), "a list"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "integer": (lambda v: type(v) is int, "an integer"),
    "number": (lambda v: (type(v) is int or isinstance(v, float)) and math.isfinite(v),
               "a finite number"),
}
# keyword: (test of a value against the keyword's argument, message)
_RULES = {
    "const": (operator.eq, "must be {!r}"),
    "enum": (lambda v, options: v in options, "must be one of {}"),
    "minimum": (operator.ge, "must be at least {}"),
    "exclusiveMinimum": (operator.gt, "must be greater than {}"),
    "pattern": (lambda v, pattern: re.search(pattern, v), "must match {!r}"),
    "minItems": (lambda v, n: len(v) >= n, "must have at least {} entries"),
    "minProperties": (lambda v, n: len(v) >= n, "must have at least {} entries"),
}
SCHEMA_KEYWORDS = frozenset(_RULES) | {
    "type", "required", "properties", "additionalProperties", "items",
    "$schema", "title", "description", "examples"}


def validate(value, schema, path=""):
    """Check ``value`` against ``schema``, written in ``SCHEMA_KEYWORDS``.

    ``"number"`` is a finite int or float, never a ``bool`` (``json.load``
    accepts ``NaN`` and ``Infinity``, so finiteness belongs to the type); an
    int too large for a float fails as "too large".  ``"integer"`` is
    ``type(value) is int``, which rejects ``1.0`` and ``True``.  A failure
    raises ``ScenarioError`` whose message starts with the JSON path, e.g.
    ``time.dt``, ``initial[0]``, ``output.report``, and names an unknown key.
    ``$schema``, ``title``, ``description`` and ``examples`` are ignored.
    """
    where = path or "scenario"
    json_type = schema.get("type")
    try:
        typed = json_type is None or _TYPES[json_type][0](value)
    except OverflowError:
        raise ScenarioError(f"{where} is too large for a float") from None
    if not typed:
        raise ScenarioError(f"{where} must be {_TYPES[json_type][1]} (got {value!r})")
    for keyword, (holds, rule) in _RULES.items():
        if keyword in schema and not holds(value, schema[keyword]):
            raise ScenarioError(f"{where} {rule.format(schema[keyword])} (got {value!r})")
    if json_type == "object":
        for key in schema.get("required", ()):
            if key not in value:
                raise ScenarioError(f"{where} is missing required field {key!r}")
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            sub = schema.get("properties", {}).get(key, extra)
            if sub is False:
                raise ScenarioError(f"{where} has unknown field {key!r}")
            if sub is not True:
                validate(item, sub, f"{path}.{key}" if path else key)
    if json_type == "array" and "items" in schema:
        for k, item in enumerate(value):
            validate(item, schema["items"], f"{where}[{k}]")


class Scenario:
    """A scenario document that passed ``scenario_schema()``.

    ``doc`` is the document itself; every schema property but ``schema``
    reads as an attribute with its default filled in (``time.method`` rk4,
    ``output`` names trajectory.csv and report.json).
    """

    def __init__(self, doc):
        self.doc = doc
        self.system = doc["system"]
        self.initial = doc["initial"]
        time = doc["time"]
        self.time = {"t0": float(time["t0"]), "t1": float(time["t1"]),
                     "dt": float(time["dt"]), "method": time.get("method", "rk4")}
        self.formalism = doc.get("formalism", "lagrangian")
        self.params = doc.get("params", {})
        self.constraint = doc.get("constraint")
        self.checks = doc.get("checks", [])
        self.output = {"trajectory": "trajectory.csv", "report": "report.json",
                       **doc.get("output", {})}
        self.seed = doc.get("seed", 0)
        self.hamiltonian_source = doc.get("hamiltonian_source", "legendre")

    @classmethod
    def from_dict(cls, doc):
        """Validate ``doc`` against ``scenario_schema()``, then the rules that
        span fields: ``step_count`` of the time span, distinct output names."""
        validate(doc, scenario_schema())
        scenario = cls(doc)
        try:
            step_count(scenario.time["t0"], scenario.time["t1"], scenario.time["dt"])
        except SolverError as err:
            raise ScenarioError(f"time.t0, time.t1 and time.dt: {err}") from err
        if scenario.output["trajectory"] == scenario.output["report"]:
            raise ScenarioError("output.trajectory and output.report must differ")
        return scenario

    @classmethod
    def load(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        # ValueError covers bad JSON, bad UTF-8 and over-long integer literals
        except (OSError, ValueError, RecursionError) as err:
            raise ScenarioError(f"cannot read scenario {path}: {err}") from err
        return cls.from_dict(doc)


def scenario_schema():
    """Hand-maintained JSON schema of the scenario document."""
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": "diracmech scenario",
        "type": "object",
        "required": ["schema", "system", "initial", "time"],
        "additionalProperties": False,
        "properties": {
            "schema": {"const": SCHEMA_VERSION},
            "system": {"type": "string", "examples": sorted(CATALOG)},
            "params": {"type": "object", "additionalProperties": {"type": "number"}},
            "constraint": {
                "type": "object",
                "minProperties": 1,
                "additionalProperties": False,
                "properties": {
                    key: {"type": "array", "minItems": 1,
                          "items": {"type": "integer", "minimum": 1}}
                    for key in ("fiber", "base")
                },
                "description": "1-based fiber/base indices pinned to zero",
            },
            "formalism": {"enum": ["lagrangian", "hamiltonian", "pmp"]},
            "initial": {"type": "array", "items": {"type": "number"}},
            "time": {
                "type": "object",
                "required": ["t0", "t1", "dt"],
                "additionalProperties": False,
                "properties": {
                    "t0": {"type": "number"},
                    "t1": {"type": "number"},
                    "dt": {"type": "number", "exclusiveMinimum": 0},
                    "method": {"enum": list(METHODS)},
                },
            },
            "checks": {"type": "array", "items": {"enum": sorted(CHECK_NAMES)}},
            "output": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    # a plain file name: not . or .., no separator, NUL or lone surrogate
                    key: {"type": "string",
                          "pattern": r"^(?!\.\.?$)[^/\\\u0000\ud800-\udfff]+$"}
                    for key in ("trajectory", "report")
                },
            },
            "seed": {"type": "integer", "minimum": 0},
            "hamiltonian_source": {"enum": ["legendre", "closed"]},
        },
    }


def _fmt(value):
    return f"{value:.17g}"


def write_trajectory_csv(path, trajectory, angle_state_indices=()):
    """Plain CSV: t, states, rates, monitors, wrapped copies of angle columns."""
    prob = trajectory.problem
    header = ["t"] + prob.state_labels + prob.rate_labels + sorted(trajectory.monitors)
    wrapped = [(i, prob.state_labels[i]) for i in angle_state_indices]
    header += [f"{label}_wrapped" for _, label in wrapped]
    lines = [",".join(header)]
    monitor_names = sorted(trajectory.monitors)
    for k in range(len(trajectory)):
        row = [_fmt(trajectory.times[k])]
        row += [_fmt(v) for v in trajectory.states[k]]
        row += [_fmt(v) for v in trajectory.rates[k]]
        row += [_fmt(trajectory.monitors[name][k]) for name in monitor_names]
        row += [_fmt(math.remainder(trajectory.states[k][i], 2 * math.pi) % (2 * math.pi))
                for i, _ in wrapped]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _execute(scenario, out_dir, check_only=False):
    """Run (or only check) one scenario; every exit path writes the report,
    or exits 1 with a message on stderr when the report cannot be written."""
    out_dir = Path(out_dir)
    report = {"schema": "diracmech/report-v1", "system": scenario.system,
              "formalism": scenario.formalism}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        code = _run(scenario, out_dir, check_only, report)
    except DegenerateDynamicsError as err:
        report["degeneracy"] = {
            "message": str(err),
            "singular_values": [float(s) for s in np.atleast_1d(err.singular_values)]
            if err.singular_values is not None else None,
        }
        print(f"degenerate implicit dynamics: {err}", file=sys.stderr)
        code = EXIT_DEGENERATE
    except DiracMechError as err:
        report["error"] = str(err)
        print(f"error: {err}", file=sys.stderr)
        code = EXIT_MALFORMED if isinstance(err, ScenarioError) else EXIT_ERROR
    except OSError as err:
        report["error"] = f"cannot write the outputs: {err}"
        print(f"error: {report['error']}", file=sys.stderr)
        code = EXIT_ERROR
    report["exit_code"] = code
    report_path = out_dir / scenario.output["report"]
    try:
        # default writes the numpy scalars and arrays of the check results
        text = json.dumps(report, indent=2, sort_keys=True,
                          default=operator.methodcaller("tolist"))
        report_path.write_text(text + "\n", encoding="utf-8")
    except OSError as err:
        print(f"error: cannot write the report: {err}", file=sys.stderr)
        return EXIT_ERROR
    return code


def _run(scenario, out_dir, check_only, report):
    """Body of ``_execute``: fills ``report`` and returns the exit code.

    Malformed input raises ``ScenarioError``; an unknown system returns
    exit 4 with an ``error`` entry.
    """
    if scenario.system not in CATALOG:
        report["error"] = f"unknown system '{scenario.system}'"
        print(f"error: {report['error']}", file=sys.stderr)
        return EXIT_UNKNOWN_SYSTEM
    spec = CATALOG[scenario.system]
    if scenario.formalism not in spec.formalisms:
        raise ScenarioError(
            f"system {scenario.system} supports formalisms {spec.formalisms}")

    try:
        bundle = build_system(scenario.system, scenario.params, scenario.constraint)
    except ConstraintError as err:
        raise ScenarioError(f"constraint does not fit {scenario.system}: {err}") from err
    problem = build_problem(bundle, scenario.formalism,
                            hamiltonian_source=scenario.hamiltonian_source,
                            seed=scenario.seed)

    checks = run_checks(bundle, scenario.checks, seed=scenario.seed)
    report["checks"] = checks
    failed = [name for name, result in checks.items() if not result.get("passed", True)]
    if failed:
        print(f"structure checks failed: {failed}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if check_only:
        return EXIT_OK

    clocked = isinstance(bundle.dirac, TimeExtendedDirac)
    expected = problem.state_dim - clocked
    if len(scenario.initial) != expected:
        clock = " (the clock is prepended from time.t0)" if clocked else ""
        raise ScenarioError(f"initial state has length {len(scenario.initial)}, "
                            f"problem expects {expected}{clock}")
    initial = ([scenario.time["t0"]] if clocked else []) + scenario.initial

    # a non-finite value here fails the solve or monitor check, unlike in a
    # structure check, where NaN compared with a tolerance can pass
    with np.errstate(over="ignore", invalid="ignore"):
        state0 = project_initial(problem, np.asarray(initial, dtype=float),
                                 t=scenario.time["t0"])
        trajectory = integrate(problem, state0, **scenario.time)
    drifting = [k for k in ("energy", "hamiltonian") if k in trajectory.monitors]
    if drifting and not clocked:
        drift = trajectory.monitor_drift(drifting[0])
        if not math.isfinite(drift):
            raise SolverError(f"drift of monitor '{drifting[0]}' is not finite ({drift})")
        report["energy_drift"] = drift

    csv_path = out_dir / scenario.output["trajectory"]
    write_trajectory_csv(csv_path, trajectory, bundle.angle_bases)

    report["newton"] = {
        "max_iterations": int(np.max(trajectory.newton_iterations)),
        "max_residual": float(np.max(trajectory.residual_norms)),
    }
    report["admissibility"] = {"max": admissibility_report(bundle.dirac, trajectory).max}
    report["trajectory"] = {"path": csv_path.name, "steps": len(trajectory) - 1}
    return EXIT_OK


def _parse_sweep(spec):
    try:
        name, rest = spec.split("=", 1)
        a, b, count = rest.split(":")
        a, b, count = float(a), float(b), int(count)
    except ValueError as err:
        raise ScenarioError(f"malformed sweep '{spec}', expected PARAM=a:b:n") from err
    if not np.isfinite([a, b, b - a]).all():
        raise ScenarioError(f"sweep '{spec}' needs finite bounds a, b and b - a")
    # it names each run's sub-directory, so it obeys the output-name rule
    validate(name, scenario_schema()["properties"]["output"]["properties"]["report"],
             "sweep PARAM")
    return name, a, b, count


def cmd_run(args):
    scenario = Scenario.load(args.scenario)
    if args.sweep is None:
        return _execute(scenario, args.out)
    name, lo, hi, count = _parse_sweep(args.sweep)
    if count < 1:
        raise ScenarioError("sweep needs at least one sample")
    values = np.linspace(lo, hi, count)
    codes = []
    for value in values:
        doc = copy.deepcopy(scenario.doc)
        doc.setdefault("params", {})[name] = float(value)
        codes.append(_execute(Scenario.from_dict(doc), Path(args.out) / f"{name}={value:.17g}"))
    return max(codes)


def cmd_list_systems(args):
    if args.json:
        doc = {
            "scenario_schema": scenario_schema(),
            "systems": [
                {
                    "name": spec.name,
                    "description": spec.description,
                    "params": spec.params,
                    "formalisms": list(spec.formalisms),
                    "initial": spec.initial_doc,
                }
                for spec in CATALOG.values()
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK
    for spec in CATALOG.values():
        print(f"{spec.name} -- {spec.description}")
        params = ", ".join(f"{k}={v:g}" for k, v in spec.params.items())
        print(f"    params: {params}")
        print(f"    formalisms: {', '.join(spec.formalisms)}")
        for formalism, doc in spec.initial_doc.items():
            print(f"    initial [{formalism}]: {doc}")
    return EXIT_OK


def cmd_check(args):
    scenario = Scenario.load(args.scenario)
    return _execute(scenario, args.out, check_only=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="diracmech",
        description="integrate implicit mechanics scenarios and check their structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--sweep", default=None, metavar="PARAM=a:b:n",
                       help="fan one parameter over n values")
    p_run.set_defaults(func=cmd_run)

    p_list = sub.add_parser("list-systems", help="print the system catalog")
    p_list.add_argument("--json", action="store_true",
                        help="machine-readable catalog and scenario schema")
    p_list.set_defaults(func=cmd_list_systems)

    p_check = sub.add_parser("check", help="run structure checks only")
    p_check.add_argument("scenario")
    p_check.add_argument("--out", default=".", help="output directory")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DiracMechError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MALFORMED if isinstance(err, ScenarioError) else EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
