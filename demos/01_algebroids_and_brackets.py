"""Brackets and anchors of skew algebroids.

Two running examples: the rank-4 algebroid of a disc rolling on the plane
(base: the steering angle) and the rotation algebra so(3) (base: a point).
"""

import numpy as np

from diracmech import basis_sections
from diracmech.systems import rolling_disc_algebroid, so3_algebroid

disc = rolling_disc_algebroid(R=1.0)
e = basis_sections(disc.chart)

print("== rolling disc ==")
print("anchor at phi=0.3:", disc.anchor([0.3]).ravel())

# the steering and rolling generators fail to commute: their bracket
# produces the two slip directions, rotating with the steering angle
for phi in (0.0, np.pi / 4, np.pi / 2):
    out = disc.bracket(e[0], e[1], [phi])
    print(f"[e1, e2] at phi={phi:4.2f}:", np.round(out, 6))

# numerically confirm the Jacobi identity on random probe points
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(50):
    x = rng.standard_normal(1)
    for (i, j, k) in ((0, 1, 2), (0, 1, 3), (1, 2, 3)):
        worst = max(worst, np.max(np.abs(disc.jacobiator(e[i], e[j], e[k], x))))
print("max jacobiator over 50 probes:", f"{worst:.2e}  (Lie algebroid)")

print()
print("== rotation algebra ==")
so3 = so3_algebroid()
f = basis_sections(so3.chart)
x0 = np.zeros(0)
for i, j in ((0, 1), (1, 2), (2, 0)):
    print(f"[f{i+1}, f{j+1}] =", so3.bracket(f[i], f[j], x0))

# the associated linear bivector on the dual: its fiber block is linear in
# the dual coordinates, the base/fiber block carries the anchor
print()
print("bivector of the disc at phi=0, xi=(0,0,0,1):")
print(np.round(disc.linear_bivector([0.0], [0.0, 0.0, 0.0, 1.0]), 3))
