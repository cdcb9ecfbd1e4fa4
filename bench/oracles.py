"""Independent correctness oracles for the benchmark runs.

None of these call into diracmech: every reference is a closed form, a
plain conservation law, or a ``scipy.integrate.solve_ivp`` solution, and
every input comes from the scenario document or from the files the run
wrote.  Tolerances are the ones pinned in ``tests/test_acceptance.py``:

* rolling disc: phi within 1e-7, rates within 1e-8 (criterion 01), phase
  trajectory within 1e-6 (criterion 02);
* oscillators: endpoint within 1e-6 (criterion 07);
* Euler top: energy drift within 1e-6 (1 + |E0|), |J w|^2 drift and gap to
  a ``solve_ivp`` reference within 1e-5 (criterion 09);
* scalar LQR: stationarity within 1e-9, trajectory within 1e-6 (criterion 10);
* admissibility of every reported trajectory within 1e-7 (criterion 01).

Each check returns a list of failure messages; an empty list means correct.
"""

import json
import math

import numpy as np
from scipy.integrate import solve_ivp

from workloads import disc_mass_matrix

ADMISSIBILITY_TOL = 1e-7


def read_csv(path):
    """Columns of a trajectory CSV by header label."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {label: data[:, k] for k, label in enumerate(header)}


def _close(label, got, want, tol):
    gap = float(np.max(np.abs(np.asarray(got, float) - np.asarray(want, float))))
    if not gap <= tol:
        return [f"{label}: gap {gap:.3e} exceeds {tol:.1e}"]
    return []


def _reference(label, rhs, initial, t1, got, tol):
    """Compare ``got`` with a tight ``solve_ivp`` solution at t1."""
    ref = solve_ivp(rhs, (0.0, t1), initial, method="DOP853", rtol=1e-12, atol=1e-13)
    if not ref.success:
        return [f"{label}: reference solve failed: {ref.message}"]
    return _close(label, got, ref.y[:, -1], tol)


def _euler_top(doc, cols):
    J = np.array([doc["params"][k] for k in ("J1", "J2", "J3")])
    w = np.stack([cols["y1"], cols["y2"], cols["y3"]], axis=1)
    energy = 0.5 * np.sum(J * w ** 2, axis=1)
    casimir = np.sum((J * w) ** 2, axis=1)

    def rhs(t, z):
        return [(J[1] - J[2]) / J[0] * z[1] * z[2],
                (J[2] - J[0]) / J[1] * z[2] * z[0],
                (J[0] - J[1]) / J[2] * z[0] * z[1]]

    return (_close("energy drift", energy, energy[0], 1e-6 * (1.0 + abs(energy[0])))
            + _close("|J w|^2 drift", casimir, casimir[0], 1e-5)
            + _reference("w(T)", rhs, doc["initial"], cols["t"][-1], w[-1], 1e-5))


def _oscillator_lagrangian(doc, cols):
    mass, spring = doc["params"]["mass"], doc["params"]["spring"]
    x0, v0 = doc["initial"]
    omega = math.sqrt(spring / mass)
    t = cols["t"][-1]
    x = x0 * math.cos(omega * t) + v0 / omega * math.sin(omega * t)
    v = -x0 * omega * math.sin(omega * t) + v0 * math.cos(omega * t)
    tol = 1e-6 * (1.0 + abs(x0) + abs(v0))
    return _close("x(T)", cols["x1"][-1], x, tol) + _close("y(T)", cols["y1"][-1], v, tol)


def _oscillator_hamiltonian(doc, cols):
    mass, spring = doc["params"]["mass"], doc["params"]["spring"]
    x0, p0 = doc["initial"]
    omega = math.sqrt(spring / mass)
    t = cols["t"][-1]
    x = x0 * math.cos(omega * t) + p0 / (mass * omega) * math.sin(omega * t)
    p = -mass * omega * x0 * math.sin(omega * t) + p0 * math.cos(omega * t)
    tol = 1e-6 * (1.0 + abs(x0) + abs(p0))
    return _close("x(T)", cols["x1"][-1], x, tol) + _close("xi(T)", cols["xi1"][-1], p, tol)


def _particle(doc, cols):
    x1, x2, y1, y2 = doc["initial"]
    t = cols["t"][-1]
    got = [cols["x1"][-1], cols["x2"][-1], cols["y1"][-1], cols["y2"][-1]]
    return _close("particle state(T)", got, [x1 + y1 * t, x2 + y2 * t, y1, y2], 1e-8)


def _forced_oscillator(doc, cols):
    p = doc["params"]
    q0, v0 = doc["initial"]

    def rhs(t, z):
        stiffness = p["k0"] * (1.0 + p["eps"] * math.sin(p["omega"] * t))
        return [z[1], -stiffness * z[0] / p["mass"]]

    t1 = cols["t"][-1]
    return (_close("clock(T)", cols["clock"][-1], t1, 1e-9)
            + _reference("(x, y)(T)", rhs, [q0, v0], t1, [cols["x"][-1], cols["y1"][-1]],
                         1e-6 * (1.0 + abs(q0) + abs(v0))))


def _disc_lagrangian(doc, cols):
    phi0, y1, y2 = doc["initial"]
    t = cols["t"][-1]
    return (_close("phi(T)", cols["phi"][-1], phi0 + y1 * t, 1e-7)
            + _close("y1", cols["y1"], y1, 1e-8) + _close("y2", cols["y2"], y2, 1e-8))


def _disc_hamiltonian(doc, cols):
    params = doc["params"]
    phi0, xi0 = doc["initial"][0], np.array(doc["initial"][1:])
    y = np.linalg.solve(disc_mass_matrix(params, phi0), xi0)
    t = cols["t"]
    phi = phi0 + y[0] * t
    xi = np.array([disc_mass_matrix(params, a) @ y for a in phi])
    got = np.stack([cols[f"xi{k}"] for k in range(1, 5)], axis=1)
    return _close("phi", cols["phi"], phi, 1e-6) + _close("xi", got, xi, 1e-6)


def _lqr(doc, cols):
    q, r = doc["params"]["q"], doc["params"]["r"]
    x0, _, xi0 = doc["initial"]
    omega = math.sqrt(q / r)
    t = cols["t"][-1]
    x = x0 * math.cosh(omega * t) + xi0 / (r * omega) * math.sinh(omega * t)
    xi = r * omega * x0 * math.sinh(omega * t) + xi0 * math.cosh(omega * t)
    return (_close("stationarity u - xi/r", cols["u1"], cols["xi1"] / r, 1e-9)
            + _close("x(T)", cols["x"][-1], x, 1e-6)
            + _close("xi(T)", cols["xi1"][-1], xi, 1e-6))


def _system_oracle(doc):
    system, formalism = doc["system"], doc["formalism"]
    if system == "euler_top":
        return _euler_top
    if system == "harmonic_oscillator":
        return _oscillator_lagrangian if formalism == "lagrangian" else _oscillator_hamiltonian
    if system == "canonical_particle":
        return _particle
    if system == "forced_oscillator_timedep":
        return _forced_oscillator
    if system == "rolling_disc":
        return _disc_lagrangian if formalism == "lagrangian" else _disc_hamiltonian
    if system == "lqr_pmp":
        return _lqr
    raise ValueError(f"no oracle for system {system}")


def check_output(doc, steps, out_dir):
    """Failures of one finished run whose outputs sit in ``out_dir``."""
    csv_path = out_dir / doc["output"]["trajectory"]
    report_path = out_dir / doc["output"]["report"]
    if not report_path.is_file():
        return [f"missing report {report_path.name}"]
    if not csv_path.is_file():
        return [f"missing trajectory {csv_path.name}"]
    report = json.loads(report_path.read_text(encoding="utf-8"))
    failures = []
    if report.get("exit_code") != 0:
        failures.append(f"report exit code {report.get('exit_code')}")
    if report.get("trajectory", {}).get("steps") != steps:
        failures.append(f"report steps {report.get('trajectory')} != {steps}")
    for name, result in report.get("checks", {}).items():
        if not result.get("passed", False):
            failures.append(f"structure check {name} failed")
    adm = report.get("admissibility", {}).get("max")
    if adm is None or not adm <= ADMISSIBILITY_TOL:
        failures.append(f"admissibility.max {adm} exceeds {ADMISSIBILITY_TOL:.0e}")
    cols = read_csv(csv_path)
    if len(cols["t"]) != steps + 1:
        failures.append(f"trajectory has {len(cols['t'])} rows, expected {steps + 1}")
        return failures
    return failures + _system_oracle(doc)(doc, cols)


def sweep_dirs(run, out_dir):
    """Map each swept value to the one output directory that holds it.

    Sub-run directories end in ``=<value>``; a value with no directory of its
    own, or two values sharing one, means an output was lost or overwritten.
    """
    values = run.sweep_values()
    found = {}
    failures = []
    subdirs = sorted(p for p in out_dir.iterdir() if p.is_dir()) if out_dir.is_dir() else []
    for sub in subdirs:
        try:
            value = float(sub.name.rsplit("=", 1)[-1])
        except ValueError:
            failures.append(f"unexpected sweep directory {sub.name}")
            continue
        k = int(np.argmin([abs(value - v) for v in values]))
        if abs(value - values[k]) > 1e-5 * (1.0 + abs(values[k])) or k in found:
            failures.append(f"sweep directory {sub.name} matches no unclaimed value")
            continue
        found[k] = sub
    for k, value in enumerate(values):
        if k not in found:
            failures.append(f"no output directory for {run.sweep[0]}={value!r}")
    return found, failures
