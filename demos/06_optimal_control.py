"""Smooth optimal control in stationarity form.

A parametrized velocity constraint y = f(x, u) with a running cost turns
into phase dynamics driven by the control Hamiltonian xi . f - L together
with the stationarity equations dH/du = 0.  The controls are algebraic
unknowns: they carry no membership rows, and the time derivative of the
stationarity channel, appended to the rate system, fixes their rates.
"""

import numpy as np

from diracmech import integrate, project_initial
from diracmech.problems import pmp_problem
from diracmech.systems import build_system

bundle = build_system("lqr_pmp", params={"q": 1.0, "r": 1.0})
problem = pmp_problem(bundle.control, bundle.dirac)

# project the guess onto the stationarity set (u = xi here), then integrate
state0 = project_initial(problem, np.array([1.0, 0.3, 0.0]))
print("projected initial (x, u, xi):", state0)

trajectory = integrate(problem, state0, 0.0, 1.0, 1e-3)
u = trajectory.states[:, 1]
xi = trajectory.states[:, 2]
print("max |u - xi| along the flow:", f"{np.max(np.abs(u - xi)):.2e}")
print("control Hamiltonian drift:",
      f"{trajectory.monitor_drift('hamiltonian'):.2e}")

# the extremals of the quadratic cost satisfy a linear two-point flow; from
# a stationarity-consistent start the costate never leaves the extremal
x0, xi0 = state0[0], state0[2]
a = 0.5 * (x0 + xi0)
b = 0.5 * (x0 - xi0)
x_exact = a * np.exp(trajectory.times) + b * np.exp(-trajectory.times)
print("gap to the closed-form extremal:",
      f"{np.max(np.abs(trajectory.states[:, 0] - x_exact)):.2e}")
