"""Seeded scenario generator for the four benchmark workloads.

Every workload is a fixed list of runs.  The seed only draws parameters and
initial states, from ranges around the catalog defaults; step counts and
time steps are fixed, so the amount of work does not depend on the seed.
The program under test sees nothing but the scenario documents written here.
"""

import math
from dataclasses import dataclass

import numpy as np

SCHEMA = "diracmech/scenario-v1"
DT = 1e-3

WHY = {
    "unconstrained": "Lagrangian runs with no algebraic channel: the finite-difference "
                     "Newton rate solve and residual assembly dominate",
    "constrained": "rolling disc (Lagrangian, closed Hamiltonian) and scalar LQR: "
                   "projection, fixed-rate reconstruction and the four structure checks",
    "legendre": "Hamiltonians from the numerical Legendre transform: the vertical "
                "derivative is inverted at every assembly",
    "sweep": "one run --sweep over an Euler-top inertia: the only path through the "
             "command line's thread pool",
}


@dataclass
class Run:
    """One invocation of ``diracmech run``; ``sweep`` is (param, lo, hi, count)."""

    name: str
    doc: dict
    steps: int
    sweep: tuple = None

    def sweep_values(self):
        """The swept values, evenly spaced over [lo, hi] including both ends."""
        _, lo, hi, count = self.sweep
        return [lo + (hi - lo) * k / (count - 1) for k in range(count)]


def _doc(name, system, formalism, params, initial, steps, method="rk4",
         checks=(), hamiltonian_source=None):
    doc = {
        "schema": SCHEMA,
        "system": system,
        "formalism": formalism,
        "params": {k: float(v) for k, v in params.items()},
        "initial": [float(v) for v in initial],
        "time": {"t0": 0.0, "t1": steps * DT, "dt": DT, "method": method},
        "output": {"trajectory": f"{name}.csv", "report": f"{name}_report.json"},
    }
    if checks:
        doc["checks"] = list(checks)
    if hamiltonian_source is not None:
        doc["hamiltonian_source"] = hamiltonian_source
    return Run(name, doc, steps)


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _euler_params(rng):
    return {"J1": _u(rng, 0.8, 1.2), "J2": _u(rng, 1.8, 2.2), "J3": _u(rng, 2.8, 3.2)}


def _euler_initial(rng):
    return [_u(rng, 0.8, 1.2), _u(rng, -0.5, 0.5), _u(rng, -0.5, 0.5)]


def _disc_params(rng):
    return {k: _u(rng, 0.8, 1.25) for k in ("m", "R", "J1", "J2")}


def disc_mass_matrix(params, phi):
    """Mass matrix of the reduced rolling disc in the catalog's fiber basis."""
    m, R, J1, J2 = params["m"], params["R"], params["J1"], params["J2"]
    c, s = math.cos(phi), math.sin(phi)
    return np.array([
        [J1, 0.0, 0.0, 0.0],
        [0.0, m * R ** 2 + J2, m * R * c, m * R * s],
        [0.0, m * R * c, m, 0.0],
        [0.0, m * R * s, 0.0, m],
    ])


def _disc_phase_initial(rng, params):
    """(phi, xi) on the constraint manifold: xi = M(phi) (y1, y2, 0, 0)."""
    phi = _u(rng, -math.pi, math.pi)
    y = np.array([_u(rng, -2.0, 2.0), _u(rng, -2.0, 2.0), 0.0, 0.0])
    return [phi] + list(disc_mass_matrix(params, phi) @ y)


def _unconstrained(rng):
    osc = {"mass": _u(rng, 0.8, 1.25), "spring": _u(rng, 0.8, 1.25)}
    forced = {"mass": _u(rng, 0.8, 1.25), "k0": _u(rng, 0.8, 1.25),
              "eps": _u(rng, 0.1, 0.4), "omega": _u(rng, 1.5, 2.5)}
    particle = {"mass": _u(rng, 0.8, 1.25)}
    return [
        _doc("euler_top", "euler_top", "lagrangian", _euler_params(rng),
             _euler_initial(rng), 250, checks=("isotropy", "jacobi", "core_annihilator")),
        _doc("harmonic_oscillator", "harmonic_oscillator", "lagrangian", osc,
             [_u(rng, -1.5, 1.5), _u(rng, -1.5, 1.5)], 250,
             checks=("isotropy", "legendre_equivalence")),
        _doc("forced_oscillator", "forced_oscillator_timedep", "lagrangian", forced,
             [_u(rng, -1.5, 1.5), _u(rng, -1.5, 1.5)], 250),
        _doc("canonical_particle", "canonical_particle", "lagrangian", particle,
             [_u(rng, -1.0, 1.0) for _ in range(2)] + [_u(rng, -1.5, 1.5) for _ in range(2)],
             250, checks=("isotropy", "core_annihilator", "legendre_equivalence")),
        _doc("euler_top_midpoint", "euler_top", "lagrangian", _euler_params(rng),
             _euler_initial(rng), 50, method="implicit-midpoint"),
    ]


def _constrained(rng):
    disc_l = _disc_params(rng)
    disc_h = _disc_params(rng)
    lqr = {"q": _u(rng, 0.8, 1.25), "r": _u(rng, 0.8, 1.25)}
    xi0 = _u(rng, -0.5, 0.5)
    return [
        _doc("rolling_disc", "rolling_disc", "lagrangian", disc_l,
             [_u(rng, -math.pi, math.pi), _u(rng, -2.0, 2.0), _u(rng, -2.0, 2.0)], 300,
             checks=("isotropy", "jacobi", "integrability", "core_annihilator")),
        _doc("rolling_disc_closed", "rolling_disc", "hamiltonian", disc_h,
             _disc_phase_initial(rng, disc_h), 100, hamiltonian_source="closed"),
        # the control starts on the stationarity manifold u = xi / r
        _doc("lqr", "lqr_pmp", "pmp", lqr, [_u(rng, 0.5, 1.5), xi0 / lqr["r"], xi0], 200),
    ]


def _legendre(rng):
    osc = {"mass": _u(rng, 0.8, 1.25), "spring": _u(rng, 0.8, 1.25)}
    disc = _disc_params(rng)
    return [
        _doc("harmonic_oscillator_legendre", "harmonic_oscillator", "hamiltonian", osc,
             [_u(rng, -1.5, 1.5), _u(rng, -1.5, 1.5)], 250, hamiltonian_source="legendre"),
        _doc("rolling_disc_legendre", "rolling_disc", "hamiltonian", disc,
             _disc_phase_initial(rng, disc), 50, hamiltonian_source="legendre"),
    ]


def _sweep(rng):
    run = _doc("euler_top_sweep", "euler_top", "lagrangian", _euler_params(rng),
               _euler_initial(rng), 100, checks=("isotropy", "jacobi", "core_annihilator"))
    lo = _u(rng, 2.5, 3.0)
    run.sweep = ("J3", lo, lo + 1.0, 4)
    return [run]


GENERATORS = {
    "unconstrained": _unconstrained,
    "constrained": _constrained,
    "legendre": _legendre,
    "sweep": _sweep,
}


def generate(workload, seed):
    """The runs of ``workload`` drawn from ``seed``; equal seeds give equal runs."""
    index = list(GENERATORS).index(workload)
    rng = np.random.default_rng([int(seed), index])
    return GENERATORS[workload](rng)
