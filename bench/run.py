"""Benchmark of ``diracmech run``, end to end and per layer.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/``, and the command fails without printing a result when it is not
there.  Scenario documents for the workload are generated from the seed
(see ``workloads.py``).  One process drives ``diracmech.cli.main(["run",
...])`` in a closed loop: a pass runs every scenario of the workload once,
and the next pass starts when the previous one ends.  A first, untimed
pass fills lazy state and keeps the reference CSVs; timed passes follow
until ``--seconds`` have elapsed.  Every pass is checked against the
independent oracles in ``oracles.py`` and must reproduce the reference
CSVs byte for byte.

Shared virtual machines drift in speed: on the 2-vCPU VM this benchmark
was tuned on, speed moved by 20-40% over stretches of seconds, and a pure
Python loop timed in 16 s windows spread by 21% between windows, far more
than any bound worth having.  So every run is bracketed by a fixed
reference kernel (small numpy solves in a Python loop, independent of
diracmech) executed in the run's own shape (one thread, or one pool thread
per sweep value), and reported times are scaled by the kernel's nominal
over its measured time around that run: they are the wall times the run
would take on a host where the kernel takes 1 ms.  Raw wall times are
printed beside them.

With ``--trace 0`` the result holds the end-to-end metrics (medians over
timed passes).  With ``--trace 1`` traced and untraced passes alternate;
the result holds the per-layer metrics (per traced pass), the spans are
written to ``.bench_work/``, and a side table gives µs/step for every
shipped ``scenarios/*.json``.  The last line of standard output is the
JSON result.
"""

import argparse
import collections
import concurrent.futures
import copy
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import Probes, Tracer  # noqa: E402

perf = time.perf_counter
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
REFERENCE_NOMINAL_S = 1e-3
_REF_A = np.eye(4) + 0.1
_REF_B = np.ones(4)


def _reference_kernel():
    total = 0.0
    for i in range(150):
        z = _REF_A @ np.linalg.solve(_REF_A, _REF_B)
        total += float(z[0]) * 0.5 + i
    return total


def _reference_batch(threads):
    """Run the kernel three times in each of ``threads`` pool threads."""
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(lambda: [_reference_kernel() for _ in range(3)])
                   for _ in range(threads)]
        for future in futures:
            future.result()


def host_scale(threads=1):
    """Nominal over measured time of the reference kernel, run in the shape of the run.

    A plain run executes in one thread, so the kernel is timed alone (median
    of five).  A sweep runs its sub-runs in a thread pool, where the GIL
    hands work between both CPUs; its kernel is timed the same way, one
    batch per sub-run thread (median of three batches).
    """
    times = []
    for _ in range(5 if threads == 1 else 3):
        start = perf()
        if threads == 1:
            _reference_kernel()
        else:
            _reference_batch(threads)
        times.append(perf() - start)
    nominal = REFERENCE_NOMINAL_S if threads == 1 else 3 * threads * REFERENCE_NOMINAL_S
    return nominal / statistics.median(times)


# one run's raw timings and the host scale measured around it
Sample = collections.namedtuple("Sample", "wall setup integrate steps scale")


def import_program():
    """diracmech.cli from this checkout's ``src/``; exits non-zero when it is missing."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import diracmech
        from diracmech import cli
    except ImportError as err:
        sys.exit(f"error: cannot import diracmech from {src}: {err}")
    if Path(diracmech.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"error: diracmech was imported from {diracmech.__file__}, not {src}")
    return cli


def environment(seed):
    import scipy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k, "unset") for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "seed": seed,
    }


class Workload:
    """Generated scenario files, reference CSV digests and run counts."""

    def __init__(self, cli, name, seed, work):
        self.cli = cli
        self.runs = workloads.generate(name, seed)
        self.work = work
        self.scenario_dir = work / "scenarios"
        self.scenario_dir.mkdir(parents=True)
        for run in self.runs:
            path = self.scenario_dir / f"{run.name}.json"
            path.write_text(json.dumps(run.doc, indent=2) + "\n", encoding="utf-8")
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def run_pass(self, probes=None):
        """Run every scenario once through ``cli.main``, then verify the outputs.

        Returns {run name: Sample}; set-up, integrate time and steps are zero
        without ``probes``.
        """
        self.passes += 1
        out = self.work / f"pass{self.passes}"
        samples = {}
        codes = {}
        shape, scale = None, None
        for run in self.runs:
            argv = ["run", str(self.scenario_dir / f"{run.name}.json"),
                    "--out", str(out / run.name)]
            threads = 1
            if run.sweep is not None:
                param, lo, hi, threads = run.sweep
                argv += ["--sweep", f"{param}={lo!r}:{hi!r}:{threads}"]
            if threads != shape:
                shape, scale = threads, host_scale(threads)
            if probes is not None:
                probes.reset()
            start = perf()
            try:
                codes[run.name] = self.cli.main(argv)
            except Exception:  # the command line would exit 1 with this traceback
                traceback.print_exc()
                codes[run.name] = 1
            wall = perf() - start
            after = host_scale(threads)
            if probes is None:
                samples[run.name] = Sample(wall, 0.0, 0.0, 0, 0.5 * (scale + after))
            else:
                samples[run.name] = Sample(wall, probes.setup_s, probes.integrate_s,
                                           probes.steps, 0.5 * (scale + after))
            scale = after
        self.verify(out, codes)
        shutil.rmtree(out, ignore_errors=True)
        return samples

    def verify(self, out, codes):
        """Oracle, output and determinism checks; counts attempted and failed runs."""
        for run in self.runs:
            for key, failures, csv in self._outcomes(run, out / run.name, codes[run.name]):
                self.attempted += 1
                if csv is not None and csv.is_file():
                    digest = hashlib.sha256(csv.read_bytes()).hexdigest()
                    if self.reference.setdefault(key, digest) != digest:
                        failures.append("CSV differs from the reference pass")
                if failures:
                    self.failed += 1
                    print(f"FAILED {key} (pass {self.passes}): {'; '.join(failures)}",
                          file=sys.stderr)

    def _outcomes(self, run, out, code):
        """(key, failures, csv path) for a run, one entry per sweep sub-run."""
        if run.sweep is None:
            failures = [] if code == 0 else [f"exit code {code}"]
            failures += oracles.check_output(run.doc, run.steps, out)
            return [(run.name, failures, out / run.doc["output"]["trajectory"])]
        found, general = oracles.sweep_dirs(run, out)
        results = []
        for k, value in enumerate(run.sweep_values()):
            key = f"{run.name}[{run.sweep[0]}={value:.17g}]"
            failures = [] if code == 0 else [f"sweep exit code {code}"]
            if k == 0:
                failures += general
            if k not in found:
                results.append((key, failures + ["no output directory"], None))
                continue
            doc = copy.deepcopy(run.doc)
            doc["params"][run.sweep[0]] = value
            failures += oracles.check_output(doc, run.steps, found[k])
            results.append((key, failures, found[k] / doc["output"]["trajectory"]))
        return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def untraced(workload, cli, seconds):
    """End-to-end metrics from per-run medians over the timed passes.

    Each scenario's scaled wall time, set-up time and time inside
    ``integrate`` are medians over passes; the workload figures sum them
    over its scenarios.
    """
    probes = Probes(cli)
    probes.install()
    passes = []
    try:
        workload.run_pass(probes)
        deadline = perf() + seconds
        while perf() < deadline or len(passes) < MIN_PASSES:
            passes.append(workload.run_pass(probes))
    finally:
        probes.remove()
    names = list(passes[0])
    steps = max(1, sum(passes[0][name].steps for name in names))

    def total(field, scaled=True):
        return sum(statistics.median(getattr(p[name], field) * (p[name].scale if scaled else 1.0)
                                     for p in passes) for name in names)

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "step_us": (1e6 * total("integrate") / steps, 1e6 * total("integrate", False) / steps),
        "run_s": (total("wall"), total("wall", False)),
        "setup_s": (total("setup"), total("setup", False)),
    }
    scales = [p[name].scale for p in passes for name in names]
    q1, q3 = quartiles(scales)
    print(f"host scale median {statistics.median(scales):.4g} (p25 {q1:.4g}, p75 {q3:.4g}, "
          f"n={len(scales)}); times below are scaled, raw in brackets")
    for name, (value, raw) in values.items():
        unit = "us" if name == "step_us" else "s"
        print(f"{name:>12} {value:.6g} {unit} [raw {raw:.6g}]  (sum over {len(names)} "
              f"runs of per-run medians, n={len(passes)} passes)")
    print(f"{'peak_rss_mb':>12} {peak:.6g} MB  (n=1 process)")
    for name in names:
        run = [p[name] for p in passes]
        walls = [r.wall * r.scale for r in run]
        q1, q3 = quartiles(walls)
        integrate = statistics.median(r.integrate * r.scale for r in run)
        print(f"  {name:<32} run_s {statistics.median(walls):.4g} (p25 {q1:.4g}, "
              f"p75 {q3:.4g})  step_us {1e6 * integrate / max(1, run[0].steps):.4g}"
              f"  steps {run[0].steps}")
    metrics = {name: {"value": value, "unit": "us" if name == "step_us" else "s"}
               for name, (value, _) in values.items()}
    metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    return metrics


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_values(tracer, passes, traced_walls, plain_walls):
    """Per-layer numbers per traced pass, keyed by metric name."""
    calls, self_s, total_s, spans = tracer.totals()
    v = {}

    for name in ("solver.solve_rate", "problems.residual", "solver.project_initial",
                 "fd.jacobian", "dirac.phase_residual", "dirac.velocity_residual",
                 "dynamics.invert_vertical_derivative", "problems.monitor",
                 "problems.algebraic.projection", "problems.algebraic.rate",
                 "problems.algebraic.other"):
        v[f"{name}.calls"] = calls[name] / passes
        v[f"{name}.self_s"] = self_s[name] / passes
    sides = [f"problems.algebraic.{side}" for side in ("projection", "rate", "other")]
    v["problems.algebraic.calls"] = sum(v[f"{side}.calls"] for side in sides)
    v["problems.algebraic.self_s"] = sum(v[f"{side}.self_s"] for side in sides)
    v["solver.solve_rate.iters"] = tracer.solve_iters / passes
    v["problems.residual.assemblies"] = tracer.assemblies / passes
    v["problems.residual.per_solve"] = calls["problems.residual"] / calls["solver.solve_rate"]
    v["dynamics.invert_vertical_derivative.per_assembly"] = (
        calls["dynamics.invert_vertical_derivative"] / tracer.assemblies)
    for check in ("isotropy", "jacobi", "core_annihilator", "integrability",
                  "legendre_equivalence"):
        v[f"checks.{check}_s"] = total_s[f"checks.{check}"] / passes
    for name in ("systems.build_system", "systems.build_problem", "checks.run_checks",
                 "dynamics.legendre_transform", "solver.admissibility_report",
                 "cli.load", "cli.csv"):
        v[f"{name}_s"] = total_s[name] / passes
    v["solver.integrate.self_s"] = self_s["solver.integrate"] / passes
    v["cli.execute.self_s"] = self_s["cli.execute"] / passes
    v["cli.csv_bytes"] = tracer.csv_bytes / passes
    v["cli.sweep.concurrency"] = total_s["cli.execute"] / total_s["cli.main"]
    # wall time of each pass that no span below cli.main covers, in any thread
    mains = [s for s in spans if s[0] == "cli.main"]
    children = [s for s in spans if s[0] in ("cli.load", "cli.execute")]
    gaps = 0.0
    for _, start, end, _, _ in mains:
        inside = [(a, b) for _, a, b, _, _ in children if a >= start and b <= end]
        gaps += (end - start) - _union_length(inside)
    v["trace.wall_s"] = total_s["cli.main"] / passes
    v["trace.unattributed_s"] = gaps / passes
    v["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    v["trace.spans"] = len(spans) / passes
    return v, self_s, spans


def _pass_wall(samples):
    """Scaled wall time of one pass."""
    return sum(sample.wall * sample.scale for sample in samples.values())


def traced(workload, seconds, out_path):
    """Per-layer metrics: traced passes alternate with untraced ones."""
    tracer = Tracer()
    workload.run_pass()
    traced_walls, plain_walls = [], []
    deadline = perf() + seconds
    while (perf() < deadline or len(traced_walls) < MIN_TRACED_PASSES
           or len(plain_walls) < MIN_TRACED_PASSES):
        tracer.install()
        try:
            traced_walls.append(_pass_wall(workload.run_pass()))
        finally:
            tracer.remove()
        plain_walls.append(_pass_wall(workload.run_pass()))
    values, self_s, spans = layer_values(tracer, len(traced_walls), traced_walls, plain_walls)
    attributed = sum(self_s.values()) / len(traced_walls)
    print(f"traced passes {len(traced_walls)}, untraced passes {len(plain_walls)}; "
          f"self time summed over all spans and threads {attributed:.4g} s per pass")
    for name, seconds_ in sorted(self_s.items(), key=lambda kv: -kv[1]):
        share = seconds_ / sum(self_s.values())
        print(f"  self {name:<44} {seconds_ / len(traced_walls):10.4g} s  {share:6.1%}")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "run_id"],
        "spans": spans,
    }) + "\n", encoding="utf-8")
    print(f"spans written to {out_path.relative_to(ROOT)}")
    return values


def shipped_baseline(cli, work):
    """µs/step for every shipped scenario, one untraced run each."""
    probes = Probes(cli)
    probes.install()
    print("shipped scenarios, one run each (scaled us/step [raw]):")
    try:
        for path in sorted((ROOT / "scenarios").glob("*.json")):
            probes.reset()
            before = host_scale()
            code = cli.main(["run", str(path), "--out", str(work / "baseline" / path.stem)])
            scale = 0.5 * (before + host_scale())
            raw = 1e6 * probes.integrate_s / probes.steps if probes.steps else float("nan")
            print(f"  {path.stem:<34} {raw * scale:9.1f} [{raw:9.1f}] us/step  "
                  f"steps {probes.steps:6d}  exit {code}")
    finally:
        probes.remove()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = import_program()

    print("environment", json.dumps(environment(args.seed), sort_keys=True))
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = Workload(cli, args.workload, args.seed, work)
    for run in workload.runs:
        doc = run.doc
        line = (f"  run {run.name}: {doc['system']} {doc['formalism']} "
                f"{doc['time']['method']} {run.steps} steps")
        if run.sweep is not None:
            param, lo, hi, count = run.sweep
            line += f", --sweep {param} at {count} evenly spaced values in [{lo:.6g}, {hi:.6g}]"
        print(line)
    try:
        if args.trace:
            trace_path = ROOT / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.json"
            values = traced(workload, args.seconds, trace_path)
            shipped_baseline(cli, work)
            metrics = {}
            for m in spec["per_layer"]:
                metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
                print(f"  {m['name']:<52} {values[m['name']]:.6g} {m['unit']}")
        else:
            metrics = untraced(workload, cli, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"failed_frac {workload.failed}/{workload.attempted} = "
          f"{workload.failed / workload.attempted:.3g} (runs, sweep sub-runs counted singly)")
    print(json.dumps({"correct": workload.failed == 0, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
