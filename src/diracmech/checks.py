"""Named structure checks reported by the command line.

Each check returns a dict with the measured maximal violation, the
tolerance it is held to, and a pass flag.  The integrability check reports
verdicts instead: a constraint failing to close is a property of the
system, not a defect, so it never fails the run.  Each distinct input is
evaluated once: the Jacobi check's probe points, and the core-annihilator
angle, which depends only on the blocks (etahat, zeta) read at each probe
(at the first probe only on an x-independent structure).  The isotropy
check samples all its probes first, then takes one SVD of their stacked
membership matrices and one stacked product for their pairing matrices.
"""

import numpy as np

from . import linalg
from .algebroid import JACOBI_TOL
from .constraints import check_integrability
from .dirac import ISOTROPY_TOL
from .dynamics import el_residual, hamilton_residual
from .errors import ConstraintError, DiracMechError, StructureError

CORE_TOL = 1e-8
LEGENDRE_TOL = 1e-7

CHECK_NAMES = ("isotropy", "jacobi", "integrability", "core_annihilator",
               "legendre_equivalence")


def _verdict(worst, tol):
    return {"max_violation": worst, "tolerance": tol, "passed": worst <= tol}


def isotropy_check(dirac, probes=50, seed=0):
    rng = np.random.default_rng(seed)
    points = [dirac.sample_phase_point(rng) for _ in range(probes)]
    return _verdict(dirac._isotropy_violation(points), ISOTROPY_TOL)


def jacobi_check(algebroid, probes=20, seed=0):
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal(algebroid.chart.base_dim) for _ in range(probes)]
    worst = algebroid.basis_jacobi_violation(xs)
    return _verdict(worst, JACOBI_TOL)


def core_annihilator_check(dirac, probes=50, seed=0):
    rng = np.random.default_rng(seed)
    n = dirac.chart.base_dim
    points = [dirac.project_support(rng.standard_normal(n)) for _ in range(probes)]
    forms = {}
    for x in points[:1] if dirac.x_independent else points:
        lf = dirac.local_form(x)
        forms.setdefault((lf.etahat.tobytes(), lf.zeta.tobytes()), lf)
    worst = 0.0
    for lf in forms.values():
        vel = linalg.null_space(lf.etahat)
        ann = linalg.annihilator(np.hstack([vel[:n].T, vel[n:].T]))
        worst = max(worst, linalg.max_principal_angle(dirac._core(lf.zeta), ann))
    return _verdict(worst, CORE_TOL)


def integrability_check(dirac):
    # informational verdict
    return dict(check_integrability(dirac.clock_base or dirac).as_dict(), passed=True)


def legendre_equivalence_check(dirac, lagrangian, hamiltonian, probes=50, seed=0):
    """Bidirectional zero-set correspondence through the fiber derivative.

    Forward: solve the Euler-Lagrange rates at a random state, push the
    state and rates through the fiber derivative, and evaluate the phase
    dynamics residual.  Backward: solve the phase-dynamics rates at a
    random dual state, pull back through the inverse map, and evaluate the
    Euler-Lagrange residual.
    """
    from .problems import hamiltonian_problem, lagrangian_problem
    from .solver import project_initial, solve_rate

    rng = np.random.default_rng(seed)
    n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
    prob_l = lagrangian_problem(dirac, lagrangian)
    prob_h = hamiltonian_problem(dirac, hamiltonian)
    free = list(dirac.free_fiber)

    worst = 0.0
    for _ in range(probes):
        # forward: Euler-Lagrange state to phase dynamics
        state_l = rng.standard_normal(prob_l.state_dim)
        state_l[:n] = dirac.project_support(state_l[:n])
        rate_l, _, _ = solve_rate(prob_l, 0.0, state_l)
        x = state_l[:n]
        y = dirac.embed_fiber(state_l[n:])
        xdot = rate_l[:n]
        ydot = np.zeros(m)
        ydot[free] = rate_l[n:]
        xi = lagrangian.grad_y(x, y)
        xidot = lagrangian.momentum_rate(x, y, xdot, ydot)
        rows, _ = hamilton_residual(dirac, hamiltonian, (x, xi), (xdot, xidot))
        worst = max(worst, float(np.max(np.abs(rows), initial=0.0)))

        # backward: dual state to Euler-Lagrange
        guess = rng.standard_normal(prob_h.state_dim)
        guess[:n] = dirac.project_support(guess[:n])
        state_h = project_initial(prob_h, guess)
        rate_h, _, _ = solve_rate(prob_h, 0.0, state_h)
        x = state_h[:n]
        xi = state_h[n:]
        y = hamiltonian.grad_xi(x, xi)
        xdot = rate_h[:n]
        xidot = rate_h[n:]
        ydot = np.linalg.solve(lagrangian.hess_yy(x, y),
                               xidot - lagrangian.hess_yx(x, y) @ xdot)
        rows, _ = el_residual(dirac, lagrangian, (x, y), (xdot, ydot))
        worst = max(worst, float(np.max(np.abs(rows), initial=0.0)))
    return _verdict(worst, LEGENDRE_TOL)


def run_checks(bundle, names, seed=0):
    """Run the named checks against a system bundle; unknown names raise."""
    results = {}
    for name in names:
        if name not in CHECK_NAMES:
            raise DiracMechError(f"unknown check '{name}'")
        if name == "isotropy":
            results[name] = isotropy_check(bundle.dirac, seed=seed)
        elif name == "jacobi":
            algebroid = getattr(bundle.dirac.clock_base or bundle.dirac, "algebroid", None)
            if algebroid is None:
                results[name] = {"skipped": "system exposes no algebroid", "passed": True}
            else:
                results[name] = jacobi_check(algebroid, seed=seed)
        elif name == "core_annihilator":
            results[name] = core_annihilator_check(bundle.dirac, seed=seed)
        elif name == "integrability":
            try:
                results[name] = integrability_check(bundle.dirac)
            except (ConstraintError, StructureError) as err:  # not a linear graph, or no Jacobi
                results[name] = {"skipped": str(err), "passed": True}
        elif name == "legendre_equivalence":
            if bundle.lagrangian is None or bundle.dirac.clock_base is not None:
                results[name] = {"skipped": "needs an autonomous Lagrangian", "passed": True}
            elif bundle.closed_hamiltonian is None:
                results[name] = {"skipped": "needs a closed-form Hamiltonian", "passed": True}
            else:
                results[name] = legendre_equivalence_check(
                    bundle.dirac, bundle.lagrangian, probes=20, seed=seed,
                    hamiltonian=bundle.closed_hamiltonian,
                )
    return results
