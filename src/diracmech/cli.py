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
4 unknown system, 5 malformed scenario.  Once a scenario is loaded, every
exit writes the report with ``exit_code`` and ``error`` or ``degeneracy``.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .checks import CHECK_NAMES, run_checks
from .errors import (ConstraintError, DegenerateDynamicsError, DiracMechError, ScenarioError,
                     SolverError)
from .solver import METHODS, admissibility_report, integrate, project_initial
from .systems import CATALOG, build_problem, build_system

SCHEMA_VERSION = "diracmech/scenario-v1"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGENERATE = 2
EXIT_CHECK_FAILED = 3
EXIT_UNKNOWN_SYSTEM = 4
EXIT_MALFORMED = 5


def _finite(label, value):
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ScenarioError(f"{label} must be a finite number (got {value!r})")
    return number


def _check_constraint(constraint):
    if not isinstance(constraint, dict):
        raise ScenarioError("constraint must be an object with 1-based index lists")
    unknown = set(constraint) - {"fiber", "base"}
    if unknown:
        raise ScenarioError(f"unknown constraint fields: {sorted(unknown)} "
                            "(expected fiber, base)")
    for key, indices in constraint.items():
        if not (isinstance(indices, list) and all(
                type(i) is int and i >= 1 for i in indices)):
            raise ScenarioError(f"constraint.{key} must be a list of positive "
                                f"integers (got {indices!r})")


def _check_plain_name(label, name):
    """A plain file name: a non-empty UTF-8 string, not . or .., with no separator."""
    # a lone surrogate is the one character UTF-8 cannot encode
    if (not isinstance(name, str) or name in ("", ".", "..")
            or any(c in "/\\\0" or "\ud800" <= c <= "\udfff" for c in name)):
        raise ScenarioError(f"{label} must be a plain file name with no "
                            f"path separator (got {name!r})")


def _check_output(output):
    """Output names are plain file names inside the output directory."""
    if not isinstance(output, dict):
        raise ScenarioError("output must be an object of file names")
    unknown = set(output) - {"trajectory", "report"}
    if unknown:
        raise ScenarioError(f"unknown output fields: {sorted(unknown)} "
                            "(expected trajectory, report)")
    for key, name in output.items():
        _check_plain_name(f"output.{key}", name)
    if output.get("trajectory", "trajectory.csv") == output.get("report", "report.json"):
        raise ScenarioError("output.trajectory and output.report must differ")


class Scenario:
    """Parsed scenario document; ``from_dict``/``to_dict`` round-trip exactly."""

    def __init__(self, system, initial, time, formalism="lagrangian",
                 params=None, constraint=None, checks=(), output=None,
                 seed=0, hamiltonian_source="legendre"):
        self.system = system
        self.params = dict(params or {})
        self.constraint = constraint
        self.formalism = formalism
        self.initial = [float(v) for v in initial]
        self.time = dict(time)
        self.checks = list(checks)
        self.output = dict(output or {"trajectory": "trajectory.csv",
                                      "report": "report.json"})
        self.seed = int(seed)
        self.hamiltonian_source = hamiltonian_source

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ScenarioError("scenario document must be a JSON object")
        fields = scenario_schema()["properties"]
        unknown = set(doc) - set(fields)
        if unknown:
            raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
        if doc.get("schema") != SCHEMA_VERSION:
            raise ScenarioError(
                f"scenario schema must be '{SCHEMA_VERSION}' (got {doc.get('schema')!r})"
            )
        for key in ("system", "initial", "time"):
            if key not in doc:
                raise ScenarioError(f"scenario is missing required field '{key}'")
        if not isinstance(doc["system"], str):
            raise ScenarioError(f"system must be a name (got {doc['system']!r})")
        time = doc["time"]
        if not isinstance(time, dict) or not {"t0", "t1", "dt"} <= set(time):
            raise ScenarioError("time must carry t0, t1, and dt")
        unknown = set(time) - set(fields["time"]["properties"])
        if unknown:
            raise ScenarioError(f"unknown time fields: {sorted(unknown)} "
                                "(expected t0, t1, dt, method)")
        method = time.get("method", "rk4")
        if not isinstance(method, str) or method not in METHODS:
            raise ScenarioError(f"unknown integration method '{method}'")
        formalism = doc.get("formalism", "lagrangian")
        if formalism not in ("lagrangian", "hamiltonian", "pmp"):
            raise ScenarioError(f"unknown formalism '{formalism}'")
        checks = doc.get("checks", [])
        if not isinstance(checks, list):
            raise ScenarioError("checks must be a list of check names")
        bad = [c for c in checks if c not in CHECK_NAMES]
        if bad:
            raise ScenarioError(f"unknown checks: {bad}")
        constraint = doc.get("constraint")
        if constraint is not None:
            _check_constraint(constraint)
        params = doc.get("params") or {}
        if not isinstance(params, dict):
            raise ScenarioError("params must be an object of numbers")
        if not isinstance(doc["initial"], list):
            raise ScenarioError("initial must be a list of numbers")
        output = doc.get("output") or {}
        _check_output(output)
        source = doc.get("hamiltonian_source", "legendre")
        if source not in ("legendre", "closed"):
            raise ScenarioError(
                f"hamiltonian_source must be 'legendre' or 'closed' (got {source!r})")
        seed = doc.get("seed", 0)
        if type(seed) is not int or seed < 0:
            raise ScenarioError(f"seed must be a non-negative integer (got {seed!r})")
        try:
            t0, t1 = float(time["t0"]), float(time["t1"])
            if not (np.isfinite(t1 - t0) and t1 > t0):
                raise ScenarioError(
                    f"time span t1 - t0 = {t1 - t0} must be positive and finite")
            dt = _finite("time.dt", time["dt"])
            if dt <= 0.0:
                raise ScenarioError(f"time.dt must be positive (got {dt})")
            steps = (t1 - t0) / dt
            # round() takes a ratio of exactly 1/2 to zero steps
            if not (math.isfinite(steps) and steps > 0.5):
                raise ScenarioError(
                    f"time span t1 - t0 = {t1 - t0} is {steps} steps of time.dt = {dt}: "
                    "it must round to a finite count of at least one")
            return cls(
                system=doc["system"],
                params={key: _finite(f"params.{key}", v) for key, v in params.items()},
                constraint=constraint, formalism=formalism,
                initial=[_finite(f"initial[{k}]", v) for k, v in enumerate(doc["initial"])],
                time={"t0": t0, "t1": t1, "dt": dt, "method": method},
                checks=checks, output=output, seed=seed, hamiltonian_source=source,
            )
        except (TypeError, ValueError, OverflowError) as err:
            raise ScenarioError(f"scenario has non-numeric entries: {err}") from err

    def to_dict(self):
        doc = {
            "schema": SCHEMA_VERSION,
            "system": self.system,
            "formalism": self.formalism,
            "initial": list(self.initial),
            "time": dict(self.time),
        }
        if self.params:
            doc["params"] = dict(self.params)
        if self.constraint is not None:
            doc["constraint"] = dict(self.constraint)
        if self.checks:
            doc["checks"] = list(self.checks)
        doc["output"] = dict(self.output)
        if self.seed:
            doc["seed"] = self.seed
        if self.hamiltonian_source != "legendre":
            doc["hamiltonian_source"] = self.hamiltonian_source
        return doc

    @classmethod
    def load(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as err:
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
            "system": {"enum": sorted(CATALOG)},
            "params": {"type": "object", "additionalProperties": {"type": "number"}},
            "constraint": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "fiber": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                    "base": {"type": "array", "items": {"type": "integer", "minimum": 1}},
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
                    key: {"type": "string", "pattern": r"^[^/\\\u0000]+$",
                          "not": {"enum": [".", ".."]}}
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


def _angle_state_indices(bundle, formalism):
    if formalism in ("lagrangian", "hamiltonian"):
        return tuple(bundle.angle_bases)
    return ()


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
    report_path = out_dir / scenario.output.get("report", "report.json")
    try:
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
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
    report["checks"] = _jsonable(checks)
    failed = [name for name, result in checks.items() if not result.get("passed", True)]
    if failed:
        print(f"structure checks failed: {failed}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if check_only:
        return EXIT_OK

    initial = list(scenario.initial)
    if bundle.time_dependent:
        initial = [scenario.time["t0"]] + initial
    if len(initial) != problem.state_dim:
        raise ScenarioError(
            f"initial state has length {len(initial)}, "
            f"problem expects {problem.state_dim}"
        )

    t0, t1, dt = scenario.time["t0"], scenario.time["t1"], scenario.time["dt"]
    state0 = project_initial(problem, np.asarray(initial, dtype=float), t=t0)
    trajectory = integrate(problem, state0, t0, t1, dt,
                           method=scenario.time.get("method", "rk4"))
    drifting = [k for k in ("energy", "hamiltonian") if k in trajectory.monitors]
    if drifting and not bundle.time_dependent:
        drift = trajectory.monitor_drift(drifting[0])
        if not math.isfinite(drift):
            raise SolverError(f"drift of monitor '{drifting[0]}' is not finite ({drift})")
        report["energy_drift"] = drift

    csv_path = out_dir / scenario.output.get("trajectory", "trajectory.csv")
    write_trajectory_csv(csv_path, trajectory,
                         _angle_state_indices(bundle, scenario.formalism))

    report["newton"] = {
        "max_iterations": int(np.max(trajectory.newton_iterations)),
        "max_residual": float(np.max(trajectory.residual_norms)),
    }
    if problem.velocity_pair is not None:
        adm = admissibility_report(bundle.dirac, trajectory)
        report["admissibility"] = {"max": adm.max}
    report["trajectory"] = {"path": csv_path.name, "steps": len(trajectory) - 1}
    return EXIT_OK


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    return obj


def _parse_sweep(spec):
    try:
        name, rest = spec.split("=", 1)
        a, b, count = rest.split(":")
        a, b, count = float(a), float(b), int(count)
    except ValueError as err:
        raise ScenarioError(f"malformed sweep '{spec}', expected PARAM=a:b:n") from err
    _check_plain_name("sweep PARAM", name)  # it names each run's sub-directory
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
        doc = scenario.to_dict()
        doc.setdefault("params", {})[name] = float(value)
        sub = Scenario.from_dict(doc)
        codes.append(_execute(sub, Path(args.out) / f"{name}={value:.17g}"))
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
    except ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MALFORMED
    except DiracMechError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
