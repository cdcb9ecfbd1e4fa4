"""Write the CSV and report of every shipped scenario and benchmark document.

    python3 scripts/outputs.py OUT

Each run writes into its own directory under OUT: ``scenarios/<name>``, and
``<workload>-<seed>/<run>`` for each ``bench/workloads.generate`` document at
seeds 7 and 11 (a sweep with its ``--sweep``).  ``diff -r`` of two checkouts'
OUT is the byte-identity check.  Exits 1, naming them, if any run exits nonzero.
"""

import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from diracmech import cli  # noqa: E402


def scenario_runs(out):
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        yield f"scenarios/{path.stem}", ["run", str(path), "--out", str(out / "scenarios" / path.stem)]


def bench_runs(out, workload, seed):
    for run in workloads.generate(workload, seed):
        name = f"{workload}-{seed}/{run.name}"
        (out / name).mkdir(parents=True, exist_ok=True)
        (out / name / "scenario.json").write_text(json.dumps(run.doc, indent=2), encoding="utf-8")
        argv = ["run", str(out / name / "scenario.json"), "--out", str(out / name)]
        if run.sweep is not None:
            param, lo, hi, count = run.sweep
            argv += ["--sweep", f"{param}={lo!r}:{hi!r}:{count}"]
        yield name, argv


def exits_0(argv):
    try:
        return cli.main(argv) == 0
    except Exception:  # the command line would exit 1 with this traceback
        traceback.print_exc()
        return False


def main(out):
    runs = list(scenario_runs(out))
    for workload in workloads.GENERATORS:
        for seed in (7, 11):
            runs += bench_runs(out, workload, seed)
    failed = [name for name, argv in runs if not exits_0(argv)]
    print("".join(f"did not exit 0: {name}\n" for name in failed), end="", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])) if len(sys.argv) == 2 else __doc__)
