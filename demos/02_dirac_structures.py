"""Dirac structures on the dual bundle: membership, isotropy, core.

A structure is a maximally isotropic, doubly linear family of subspaces in
the bundle with coordinates (x, xi, xdot, xidot, p, y).  The canonical
structure, bivector graphs, and 2-form graphs are all available; every one
of them exposes membership residuals, pointwise bases, velocity residuals,
and the core.
"""

import numpy as np

from diracmech import (
    CanonicalDirac,
    OmegaGraphDirac,
    PiGraphDirac,
    PontryaginPoint,
    VelocityPair,
    pairing,
)
from diracmech.algebroid import Chart
from diracmech.linalg import annihilator, max_principal_angle
from diracmech.systems import rolling_disc_algebroid

canonical = CanonicalDirac(1)
point = PontryaginPoint(x=[0.0], xi=[0.7], xdot=[2.0], xidot=[-5.0], p=[5.0], y=[2.0])
print("canonical membership residual (xdot = y, xidot = -p):",
      canonical.residual(point))

# the same structure as a bivector graph and as a 2-form graph
pi_form = PiGraphDirac(canonical.algebroid)
omega_form = OmegaGraphDirac(Chart(1, 1), rho=lambda x: np.eye(1),
                             cform=lambda x: np.zeros((1, 1, 1)))
x, xi = np.array([0.4]), np.array([-1.1])
angle = max_principal_angle(pi_form.basis_matrix_at(x, xi),
                            omega_form.basis_matrix_at(x, xi))
print("bivector graph vs 2-form graph, principal angle:", f"{angle:.2e}")

print()
disc = PiGraphDirac(rolling_disc_algebroid())
rng = np.random.default_rng(1)
x, xi = rng.standard_normal(1), rng.standard_normal(4)
basis = disc.basis_at(x, xi)
print(f"disc structure: pointwise subspace dimension {len(basis)} "
      f"in a {2 * (1 + 4)}-dimensional fiber")
worst = max(abs(pairing(a, b)) for i, a in enumerate(basis) for b in basis[i:])
print("max |pairing| over basis pairs:", f"{worst:.2e}  (isotropy)")

# velocity membership: the anchor ties base velocities to fiber vectors
good = VelocityPair(x, xdot=[3.0], y=[3.0, 1.0, 0.0, 0.0])
bad = VelocityPair(x, xdot=[1.0], y=[0.0, 0.0, 0.0, 0.0])
print("admissible pair residual:", disc.velocity_residual(good))
print("inadmissible pair residual:", disc.velocity_residual(bad))

# the core is the annihilator of the velocity bundle
core = disc.core_at(x)
vel = disc.velocity_space(x)
ann = annihilator(np.hstack([vel[:1].T, vel[1:].T]))
print("core dimension:", core.shape[1],
      " principal angle to the annihilator:",
      f"{max_principal_angle(core, ann):.2e}")
