"""Legendre duality: the same dynamics from both sides.

For a hyperregular Lagrangian the numerically inverted fiber derivative
produces a Hamiltonian generating identical phase dynamics.  Shown here on
the oscillator and on the constrained rolling disc, where the dual-side
formulation carries the constrained phase relations as an algebraic
channel, and the time derivative of those relations, appended to the
rate system, fixes the pinned momentum rates.
"""

import numpy as np

from diracmech import (
    LinearConstraint,
    PiGraphDirac,
    induce,
    integrate,
    lagrangian_problem,
    legendre_transform,
    project_initial,
)
from diracmech.problems import hamiltonian_problem
from diracmech.systems import (
    build_system,
    rolling_disc_algebroid,
    rolling_disc_lagrangian,
)

osc = build_system("harmonic_oscillator")
rng = np.random.default_rng(0)
probes = [(rng.standard_normal(1), rng.standard_normal(1)) for _ in range(5)]
ham = legendre_transform(osc.lagrangian, probes)
print("oscillator H(0.3, 0.5) transform vs closed form:",
      ham(np.array([0.3]), np.array([0.5])),
      osc.closed_hamiltonian(np.array([0.3]), np.array([0.5])))

traj_l = integrate(lagrangian_problem(osc.dirac, osc.lagrangian),
                   np.array([1.0, 0.0]), 0.0, np.pi, 1e-3)
traj_h = integrate(hamiltonian_problem(osc.dirac, ham),
                   np.array([1.0, 0.0]), 0.0, np.pi, 1e-3)
print("position gap between the two formulations:",
      f"{np.max(np.abs(traj_l.states[:, 0] - traj_h.states[:, 0])):.2e}")

print()
lagrangian = rolling_disc_lagrangian()
induced = induce(PiGraphDirac(rolling_disc_algebroid()), LinearConstraint(fiber=(2, 3)))
ham_disc = legendre_transform(
    lagrangian, [(rng.standard_normal(1), rng.standard_normal(4)) for _ in range(5)])
problem = hamiltonian_problem(induced, ham_disc)

# project an arbitrary dual guess onto the constrained phase relations
guess = np.array([0.0, 1.0, 1.0, 0.8, -0.3])
state0 = project_initial(problem, guess)
phi, xi = state0[0], state0[1:]
mu = 0.5
print("projected momenta satisfy the constrained phase relations:")
print("  xi3 - mu cos(phi) xi2 =", f"{xi[2] - mu * np.cos(phi) * xi[1]:.2e}")
print("  xi4 - mu sin(phi) xi2 =", f"{xi[3] - mu * np.sin(phi) * xi[1]:.2e}")

traj = integrate(problem, state0, 0.0, 1.0, 1e-3)
drift = traj.monitor_drift("hamiltonian")
print("dual-side energy drift over [0, 1]:", f"{drift:.2e}")
