"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import time

import numpy as np

from diracmech import (
    CanonicalDirac,
    Hamiltonian,
    LinearConstraint,
    PiGraphDirac,
    check_integrability,
    hamilton_residual,
    induce,
    integrate,
    lagrangian_problem,
    legendre_transform,
    pairing,
    pointwise_induce,
    project_initial,
    solve_rate,
)
from diracmech.checks import legendre_equivalence_check
from diracmech.dirac import PontryaginPoint
from diracmech.linalg import annihilator, max_principal_angle
from diracmech.problems import hamiltonian_problem, pmp_problem
from diracmech.systems import (
    build_system,
    quadratic_hamiltonian,
    quadratic_lagrangian,
    rolling_disc_algebroid,
    rolling_disc_lagrangian,
    so3_algebroid,
)

from conftest import make_random_pigraph, scale_dual, scale_fiber

MU = 0.5  # m R / (m R^2 + J2) at unit parameters


def _criterion(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance criterion {number:2d} [{status}] {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


def disc_display_hamiltonian(m=1.0, R=1.0, J1=1.0, J2=1.0):
    """The disc Hamiltonian written out termwise, with analytic partials."""

    def G(phi, xi):
        return xi[1] - R * xi[2] * np.cos(phi) - R * xi[3] * np.sin(phi)

    def fn(x, xi):
        g = G(x[0], xi)
        return (xi[0] ** 2 / (2 * J1) + g ** 2 / (2 * J2)
                + (xi[2] ** 2 + xi[3] ** 2) / (2 * m))

    def grad_xi(x, xi):
        phi = x[0]
        g = G(phi, xi)
        return np.array([
            xi[0] / J1,
            g / J2,
            -R * np.cos(phi) * g / J2 + xi[2] / m,
            -R * np.sin(phi) * g / J2 + xi[3] / m,
        ])

    def grad_x(x, xi):
        phi = x[0]
        g = G(phi, xi)
        return np.array([g * (R * xi[2] * np.sin(phi) - R * xi[3] * np.cos(phi)) / J2])

    rng = np.random.default_rng(0)
    probes = [(rng.standard_normal(1), rng.standard_normal(4)) for _ in range(5)]
    return Hamiltonian(fn, grad_x=grad_x, grad_xi=grad_xi, probes=probes,
                       name="disc_display")


def lagrangian_momenta(lagrangian, phi, y_free):
    y = np.array([y_free[0], y_free[1], 0.0, 0.0])
    return lagrangian.grad_y(np.atleast_1d(phi), y)


def test_criterion_01_rolling_disc_closed_form(disc_induced, disc_lagrangian):
    problem = lagrangian_problem(disc_induced, disc_lagrangian)
    start = time.perf_counter()
    traj = integrate(problem, np.array([0.0, 1.0, 2.0]), 0.0, 1.0, 1e-3)
    elapsed = time.perf_counter() - start
    phi_err = abs(traj.states[-1][0] - 1.0)
    y1_err = abs(traj.states[-1][1] - 1.0)
    y2_err = abs(traj.states[-1][2] - 2.0)
    # unreduced slip velocities: xdot1 = y3 + R y2 cos(phi) with y3 pinned at 0
    phi = traj.states[:, 0]
    y2 = traj.states[:, 2]
    xdot1 = 0.0 + y2 * np.cos(phi)
    slip = float(np.max(np.abs(xdot1 - y2 * np.cos(phi))))
    from diracmech import admissibility_report
    admissible = admissibility_report(disc_induced, traj).max
    ok = (phi_err <= 1e-7 and y1_err <= 1e-8 and y2_err <= 1e-8
          and slip <= 1e-7 and admissible <= 1e-7 and elapsed < 1.0)
    _criterion(1, "rolling-disc closed form over [0, 1]", ok,
               f"phi err {phi_err:.2e}, y errs {y1_err:.2e}/{y2_err:.2e}, "
               f"slip {slip:.2e}, admissibility {admissible:.2e}, "
               f"runtime {elapsed:.2f}s")


def test_criterion_02_rolling_disc_hamiltonian_equivalence(disc_induced,
                                                           disc_lagrangian):
    ham = disc_display_hamiltonian()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        phi = rng.standard_normal(1)
        y1, y2 = rng.standard_normal(2)
        xi = lagrangian_momenta(disc_lagrangian, phi, (y1, y2))
        s, c = np.sin(phi[0]), np.cos(phi[0])
        xidot = np.array([0.0, 0.0,
                          -MU * xi[1] * s * y1, MU * xi[1] * c * y1])
        rows, _ = hamilton_residual(disc_induced, ham, (phi, xi),
                                    (np.array([y1]), xidot))
        worst = max(worst, float(np.max(np.abs(rows))))

    prob_l = lagrangian_problem(disc_induced, disc_lagrangian)
    traj_l = integrate(prob_l, np.array([0.0, 1.0, 2.0]), 0.0, 1.0, 1e-3)
    prob_h = hamiltonian_problem(disc_induced, ham)
    xi0 = lagrangian_momenta(disc_lagrangian, 0.0, (1.0, 2.0))
    traj_h = integrate(prob_h, np.concatenate([[0.0], xi0]), 0.0, 1.0, 1e-3)
    gap = 0.0
    for k in range(len(traj_l)):
        xi = lagrangian_momenta(disc_lagrangian, traj_l.states[k][0],
                                traj_l.states[k][1:])
        mapped = np.concatenate([[traj_l.states[k][0]], xi])
        gap = max(gap, float(np.max(np.abs(mapped - traj_h.states[k]))))
    ok = worst <= 1e-9 and gap <= 1e-6
    _criterion(2, "rolling-disc phase dynamics is Hamiltonian", ok,
               f"residual on image {worst:.2e}, trajectory gap {gap:.2e}")


def test_criterion_03_phase_constraint_recovery(disc_induced, disc_hamiltonian):
    problem = hamiltonian_problem(disc_induced, disc_hamiltonian)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        guess = rng.standard_normal(5)
        state = project_initial(problem, guess)
        phi, xi = state[0], state[1:]
        worst = max(worst,
                    abs(xi[2] - MU * np.cos(phi) * xi[1]),
                    abs(xi[3] - MU * np.sin(phi) * xi[1]))
    _criterion(3, "projection recovers the constrained phase relations",
               worst <= 1e-10, f"max relation residual {worst:.2e}")


def test_criterion_04_integrability_verdicts(disc_induced):
    reports = [check_integrability(disc_induced) for _ in range(2)]
    disc_ok = all(r.cond1 and not r.cond2 and not r.is_dirac_lie for r in reports)
    witness = reports[0].structure_witness
    phi = witness["x"][0]
    expected = abs(np.sin(phi)) if witness["entry"][2] == 2 else abs(np.cos(phi))
    witness_ok = (np.sin(phi) != 0.0
                  and abs(abs(witness["value"]) - expected) <= 1e-12)
    deterministic = (reports[0].structure_witness == reports[1].structure_witness
                     and reports[0].anchor_witness == reports[1].anchor_witness)

    flat = induce(CanonicalDirac(2), LinearConstraint(fiber=(1,)))
    flat_report = check_integrability(flat)
    ok = disc_ok and witness_ok and deterministic and flat_report.is_dirac_lie
    _criterion(4, "integrability verdicts with witnesses", ok,
               f"disc closes: {reports[0].is_dirac_lie}, witness "
               f"|c[{witness['entry']}]| = {abs(witness['value']):.3f}, "
               f"flat constraint closes: {flat_report.is_dirac_lie}")


def test_criterion_05_oracle_equivalence(disc_pi):
    rng = np.random.default_rng(3)
    cases = [
        (disc_pi, LinearConstraint(fiber=(2, 3)), 34),
        (CanonicalDirac(2), LinearConstraint(fiber=(1,)), 33),
        (PiGraphDirac(make_random_pigraph(seed=77)), LinearConstraint(fiber=(2,), base=(1,)), 33),
    ]
    worst = 0.0
    for dirac, constraint, probes in cases:
        induced = induce(dirac, constraint)
        n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
        for _ in range(probes):
            x = induced.project_support(rng.standard_normal(n))
            xi = rng.standard_normal(m)
            closed = induced.basis_matrix_at(x, xi)
            oracle = pointwise_induce(dirac, constraint, x, xi)
            worst = max(worst, max_principal_angle(closed, oracle))
    _criterion(5, "closed-form induction agrees with the pointwise oracle",
               worst <= 1e-8, f"max principal angle {worst:.2e} over 100 probes")


def test_criterion_06_structural_property_suite(disc_pi, disc_induced, so3):
    rng = np.random.default_rng(4)
    structures = [disc_pi, disc_induced, CanonicalDirac(2), PiGraphDirac(so3)]
    iso_worst = homothety_worst = core_worst = 0.0
    for dirac in structures:
        n = dirac.chart.base_dim
        total = n + dirac.chart.fiber_dim
        for _ in range(50):
            x, xi = dirac.sample_phase_point(rng)
            points = dirac.basis_at(x, xi)
            basis = dirac.basis_matrix_at(x, xi)
            for i, a in enumerate(points):
                for b in points[i:]:
                    iso_worst = max(iso_worst, abs(pairing(a, b)))
            member = PontryaginPoint.from_fiber_vector(
                x, xi, basis @ rng.standard_normal(total))
            for factor in (0.0, 0.5, 2.0, -1.0):
                homothety_worst = max(
                    homothety_worst,
                    float(np.max(np.abs(dirac.residual(scale_fiber(member, factor))))),
                    float(np.max(np.abs(dirac.residual(scale_dual(member, factor))))),
                )
            core = dirac.core_at(x)
            vel = dirac.velocity_space(x)
            ann = annihilator(np.hstack([vel[:n].T, vel[n:].T]))
            core_worst = max(core_worst, max_principal_angle(core, ann))

    from diracmech.algebroid import basis_sections
    jac_worst = 0.0
    canonical_alg = CanonicalDirac(2).algebroid
    for alg in (disc_pi.algebroid, canonical_alg, so3):
        sections = basis_sections(alg.chart)
        m = alg.chart.fiber_dim
        for _ in range(50):
            x = rng.standard_normal(alg.chart.base_dim)
            for i in range(m):
                for j in range(i + 1, m):
                    for k in range(j + 1, m):
                        out = alg.jacobiator(sections[i], sections[j], sections[k], x)
                        jac_worst = max(jac_worst, float(np.max(np.abs(out))))
    ok = (iso_worst <= 1e-10 and homothety_worst <= 1e-9
          and core_worst <= 1e-8 and jac_worst <= 1e-6)
    _criterion(6, "isotropy, homothety, core-annihilator, Jacobi", ok,
               f"isotropy {iso_worst:.2e}, homothety {homothety_worst:.2e}, "
               f"core {core_worst:.2e}, jacobi {jac_worst:.2e}")


def test_criterion_07_classical_recovery():
    bundle = build_system("harmonic_oscillator")
    problem = lagrangian_problem(bundle.dirac, bundle.lagrangian)
    traj = integrate(problem, np.array([1.0, 0.0]), 0.0, np.pi, 1e-3)
    cos_err = abs(traj.states[-1][0] - np.cos(np.pi))

    # order study against the sup-norm trajectory error; the endpoint sits at
    # an extremum of the cosine where the dominant phase error cancels
    errors = []
    steps = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        t = integrate(problem, np.array([1.0, 0.0]), 0.0, np.pi, dt)
        errors.append(float(np.max(np.abs(t.states[:, 0] - np.cos(t.times)))))
        steps.append(t.times[1] - t.times[0])
    orders = [np.log(errors[i] / errors[i + 1]) / np.log(steps[i] / steps[i + 1])
              for i in range(2)]
    ok = cos_err <= 1e-6 and min(orders) >= 3.7
    _criterion(7, "oscillator matches cos t with fourth-order convergence", ok,
               f"error at pi {cos_err:.2e}, observed orders "
               + ", ".join(f"{o:.2f}" for o in orders))


def test_criterion_08_hyperregular_equivalence(disc_pi, disc_lagrangian,
                                               disc_hamiltonian, so3):
    rng = np.random.default_rng(5)
    osc = build_system("harmonic_oscillator")
    top = build_system("euler_top")
    cases = [
        (osc.dirac, osc.lagrangian, osc.closed_hamiltonian),
        (disc_pi, disc_lagrangian, disc_hamiltonian),
        (top.dirac, top.lagrangian, top.closed_hamiltonian),
    ]
    transform_worst = 0.0
    zero_set_worst = 0.0
    for dirac, lagrangian, closed in cases:
        n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
        probes = [(rng.standard_normal(n), rng.standard_normal(m)) for _ in range(5)]
        transformed = legendre_transform(lagrangian, probes)
        for _ in range(20):
            x, xi = rng.standard_normal(n), rng.standard_normal(m)
            gap = abs(transformed(x, xi) - closed(x, xi))
            transform_worst = max(transform_worst,
                                  gap / (1.0 + abs(closed(x, xi))))
        result = legendre_equivalence_check(dirac, lagrangian, probes=50,
                                            seed=6, hamiltonian=closed)
        zero_set_worst = max(zero_set_worst, result["max_violation"])
    ok = transform_worst <= 1e-9 and zero_set_worst <= 1e-7
    _criterion(8, "hyperregular Legendre equivalence on three systems", ok,
               f"transform gap {transform_worst:.2e}, "
               f"zero-set correspondence {zero_set_worst:.2e}")


def test_criterion_09_conservation(disc_induced, disc_lagrangian):
    osc = build_system("harmonic_oscillator")
    prob_osc = lagrangian_problem(osc.dirac, osc.lagrangian)
    traj_osc = integrate(prob_osc, np.array([1.0, 0.0]), 0.0, 10.0, 1e-3)
    drift_osc = traj_osc.monitor_drift("energy")
    bound_osc = 1e-6 * (1.0 + abs(traj_osc.monitors["energy"][0]))

    prob_disc = lagrangian_problem(disc_induced, disc_lagrangian)
    traj_disc = integrate(prob_disc, np.array([0.0, 1.0, 2.0]), 0.0, 10.0, 1e-3)
    drift_disc = traj_disc.monitor_drift("energy")
    bound_disc = 1e-6 * (1.0 + abs(traj_disc.monitors["energy"][0]))

    top = build_system("euler_top")
    prob_top = lagrangian_problem(top.dirac, top.lagrangian)
    traj_top = integrate(prob_top, np.array([1.0, 0.01, 0.0]), 0.0, 5.0, 1e-3)
    J = np.array([1.0, 2.0, 3.0])
    momentum_sq = np.sum((traj_top.states * J) ** 2, axis=1)
    drift_momentum = float(np.max(np.abs(momentum_sq - momentum_sq[0])))

    # independent oracle: fixed-step plain-arithmetic integration of the
    # angular momentum balance
    w1, w2, w3 = 1.0, 0.01, 0.0
    h = 1e-5
    inv1, inv2, inv3 = (J[1] - J[2]) / J[0], (J[2] - J[0]) / J[1], (J[0] - J[1]) / J[2]

    def rhs(a, b, c):
        return inv1 * b * c, inv2 * c * a, inv3 * a * b

    for _ in range(int(round(5.0 / h))):
        k1 = rhs(w1, w2, w3)
        k2 = rhs(w1 + 0.5 * h * k1[0], w2 + 0.5 * h * k1[1], w3 + 0.5 * h * k1[2])
        k3 = rhs(w1 + 0.5 * h * k2[0], w2 + 0.5 * h * k2[1], w3 + 0.5 * h * k2[2])
        k4 = rhs(w1 + h * k3[0], w2 + h * k3[1], w3 + h * k3[2])
        w1 += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        w2 += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        w3 += h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    reference_gap = float(np.max(np.abs(traj_top.states[-1] - [w1, w2, w3])))

    ok = (drift_osc <= bound_osc and drift_disc <= bound_disc
          and drift_momentum <= 1e-5 and reference_gap <= 1e-5)
    _criterion(9, "energy and angular-momentum conservation", ok,
               f"oscillator {drift_osc:.2e}, disc {drift_disc:.2e}, "
               f"|J w|^2 {drift_momentum:.2e}, reference gap {reference_gap:.2e}")


def test_criterion_10_pmp_lqr():
    bundle = build_system("lqr_pmp")
    problem = pmp_problem(bundle.control, bundle.dirac)
    state0 = project_initial(problem, np.array([1.0, 0.0, 0.0]))
    traj = integrate(problem, state0, 0.0, 1.0, 1e-3)
    stationarity = float(np.max(np.abs(traj.states[:, 1] - traj.states[:, 2])))
    # hand-derived flow of the stationarity system: xdot = xi, xidot = x
    x_exact = np.cosh(traj.times)
    xi_exact = np.sinh(traj.times)
    gap = max(float(np.max(np.abs(traj.states[:, 0] - x_exact))),
              float(np.max(np.abs(traj.states[:, 2] - xi_exact))))
    ok = stationarity <= 1e-9 and gap <= 1e-6
    _criterion(10, "scalar control stationarity and closed-form match", ok,
               f"stationarity {stationarity:.2e}, trajectory gap {gap:.2e}")
