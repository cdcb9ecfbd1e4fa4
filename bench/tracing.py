"""Wrappers that time diracmech's layers from outside the package.

``Probes`` is the light set used for end-to-end numbers: it wraps only the
few calls the command line makes once per run (set-up and ``integrate``).
``Tracer`` wraps the public entry points of every layer for the separate
traced run.  Each thread keeps its own span stack, because sweep sub-runs
execute in pool threads.  Coarse boundaries are kept as spans (name, start,
end, parent, run id); boundaries hit ~1e5 times per run only update
per-name counters and self time.  Everything stays in memory until the end.
"""

import itertools
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

perf = time.perf_counter


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def set_everywhere(self, original, value):
        """Rebind ``original`` in every diracmech module that imported it by name."""
        for name, module in list(sys.modules.items()):
            if name == "diracmech" or name.startswith("diracmech."):
                for attr, bound in list(vars(module).items()):
                    if bound is original:
                        self.set(module, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# end-to-end probes


class Probes:
    """Set-up time, time inside ``integrate`` and accepted steps since ``reset``.

    Set-up is everything the command line does before the first step:
    ``Scenario.load``, ``build_system``, ``build_problem``, ``run_checks``
    and the initial ``project_initial``.
    """

    SETUP = ("build_system", "build_problem", "run_checks", "project_initial")

    def __init__(self, cli):
        self.cli = cli
        self.patches = Patches()
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        self.setup_s = 0.0
        self.integrate_s = 0.0
        self.steps = 0

    def _add_setup(self, dt):
        with self.lock:
            self.setup_s += dt

    def install(self):
        cli = self.cli
        for name in self.SETUP:
            self.patches.set(cli, name, self._timed_setup(getattr(cli, name)))
        load = cli.Scenario.load

        def timed_load(cls, path):
            start = perf()
            try:
                return load(path)
            finally:
                self._add_setup(perf() - start)

        self.patches.set(cli.Scenario, "load", classmethod(timed_load))
        integrate = cli.integrate

        def timed_integrate(*args, **kwargs):
            start = perf()
            trajectory = integrate(*args, **kwargs)
            dt = perf() - start
            with self.lock:
                self.integrate_s += dt
                self.steps += len(trajectory) - 1
            return trajectory

        self.patches.set(cli, "integrate", timed_integrate)

    def _timed_setup(self, fn):
        def timed(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add_setup(perf() - start)

        return timed

    def remove(self):
        self.patches.undo()


# ---------------------------------------------------------------------------
# traced run


class _Frame:
    __slots__ = ("name", "start", "child", "run_id", "parent")

    def __init__(self, name, start, run_id, parent):
        self.name = name
        self.start = start
        self.child = 0.0
        self.run_id = run_id
        self.parent = parent


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.run_id = None
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.spans = []


# names kept as individual spans; every other boundary is only aggregated
COARSE = {
    "cli.main", "cli.execute", "cli.load", "cli.csv", "systems.build_system",
    "systems.build_problem", "checks.run_checks", "checks.isotropy",
    "checks.jacobi", "checks.core_annihilator", "checks.integrability",
    "checks.legendre_equivalence", "dynamics.legendre_transform",
    "solver.integrate", "solver.admissibility_report",
}

# nearest enclosing span that decides which side an algebraic call is on
_ALGEBRAIC_PARENTS = {"solver.project_initial": "projection",
                      "solver.solve_rate": "rate"}


class Tracer:
    """Span and counter collection across threads."""

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._run_ids = itertools.count(1)
        self.patches = Patches()
        self.assemblies = 0
        self.solve_iters = 0
        self.csv_bytes = 0

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def enter(self, name):
        """Open a span; a span with no parent in its thread starts a new run id."""
        state = self._state()
        if not state.stack:
            state.run_id = next(self._run_ids)
        parent = state.stack[-1].name if state.stack else None
        state.stack.append(_Frame(name, perf(), state.run_id, parent))
        return state

    def exit(self, state):
        end = perf()
        frame = state.stack.pop()
        duration = end - frame.start
        name = frame.name
        state.calls[name] += 1
        state.self_s[name] += duration - frame.child
        state.total_s[name] += duration
        if state.stack:
            state.stack[-1].child += duration
        if name in COARSE:
            state.spans.append((name, frame.start, end, frame.parent, frame.run_id))

    def span(self, name, fn):
        def traced(*args, **kwargs):
            state = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(state)

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        from diracmech import checks, cli, dirac, dynamics, fd, problems, solver, systems

        p = self.patches
        p.set(cli, "main", self.span("cli.main", cli.main))
        p.set(cli, "_execute", self.span("cli.execute", cli._execute))
        load = cli.Scenario.load
        traced_load = self.span("cli.load", load)
        p.set(cli.Scenario, "load", classmethod(lambda cls, path: traced_load(path)))
        csv = cli.write_trajectory_csv

        def write_csv(path, *args, **kwargs):
            out = csv(path, *args, **kwargs)
            with self._lock:
                self.csv_bytes += Path(path).stat().st_size
            return out

        p.set(cli, "write_trajectory_csv", self.span("cli.csv", write_csv))
        simple = [
            (systems.build_system, "systems.build_system"),
            (systems.build_problem, "systems.build_problem"),
            (checks.run_checks, "checks.run_checks"),
            (checks.isotropy_check, "checks.isotropy"),
            (checks.jacobi_check, "checks.jacobi"),
            (checks.core_annihilator_check, "checks.core_annihilator"),
            (checks.integrability_check, "checks.integrability"),
            (checks.legendre_equivalence_check, "checks.legendre_equivalence"),
            (dynamics.legendre_transform, "dynamics.legendre_transform"),
            (dynamics.invert_vertical_derivative, "dynamics.invert_vertical_derivative"),
            (solver.integrate, "solver.integrate"),
            (solver.admissibility_report, "solver.admissibility_report"),
            (solver.project_initial, "solver.project_initial"),
            (fd.jacobian, "fd.jacobian"),
        ]
        for fn, name in simple:
            p.set_everywhere(fn, self.span(name, fn))
        p.set_everywhere(solver.solve_rate, self._solve_rate(solver.solve_rate))
        for builder in (problems.lagrangian_problem, problems.hamiltonian_problem,
                        problems.pmp_problem):
            p.set_everywhere(builder, self._problem_builder(builder))
        base = dirac.DiracAlgebroid
        for attr in ("phase_residual", "velocity_residual"):
            p.set(base, attr, self.span(f"dirac.{attr}", vars(base)[attr]))

    def remove(self):
        self.patches.undo()

    def _solve_rate(self, fn):
        def traced(*args, **kwargs):
            state = self.enter("solver.solve_rate")
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(state)
            with self._lock:
                self.solve_iters += result[1]
            return result

        return traced

    def _problem_builder(self, builder):
        """Builder whose problems report residual, algebraic and monitor calls."""

        def traced_builder(*args, **kwargs):
            problem = builder(*args, **kwargs)
            self._instrument(problem)
            return problem

        return traced_builder

    def _instrument(self, problem):
        residual = problem.residual
        last_key = [None]

        def traced_residual(t, state, rate):
            key = (t, np.asarray(state, dtype=float).tobytes())
            if key != last_key[0]:
                last_key[0] = key
                with self._lock:
                    self.assemblies += 1
            span = self.enter("problems.residual")
            try:
                return residual(t, state, rate)
            finally:
                self.exit(span)

        problem.residual = traced_residual
        if problem.algebraic is not None:
            algebraic = problem.algebraic

            def traced_algebraic(t, state):
                side = "other"
                for frame in reversed(self._state().stack):
                    if frame.name in _ALGEBRAIC_PARENTS:
                        side = _ALGEBRAIC_PARENTS[frame.name]
                        break
                span = self.enter(f"problems.algebraic.{side}")
                try:
                    return algebraic(t, state)
                finally:
                    self.exit(span)

            problem.algebraic = traced_algebraic
        problem.monitors = {k: self.span("problems.monitor", fn)
                            for k, fn in problem.monitors.items()}

    # -- results ---------------------------------------------------------------

    def totals(self):
        """(calls, self_s, total_s, spans) merged over all threads."""
        calls, self_s, total_s = defaultdict(int), defaultdict(float), defaultdict(float)
        spans = []
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, value in state.calls.items():
                calls[name] += value
            for name, value in state.self_s.items():
                self_s[name] += value
            for name, value in state.total_s.items():
                total_s[name] += value
            spans.extend(state.spans)
        spans.sort(key=lambda s: s[1])
        return calls, self_s, total_s, spans
