import re

import numpy as np
import pytest

import diracmech.dynamics as dynamics
from diracmech import (
    AffineConstraint,
    CanonicalDirac,
    Chart,
    ControlSystem,
    EvaluationError,
    Hamiltonian,
    HyperregularityError,
    Lagrangian,
    LinearConstraint,
    OmegaGraphDirac,
    PiGraphDirac,
    SkewAlgebroid,
    StructureError,
    TimeExtendedDirac,
    el_residual,
    hamilton_residual,
    induce,
    legendre_transform,
    nonholonomic_el_residual,
    pmp_residual,
)
from diracmech.linalg import last_point
from diracmech.systems import build_system, quadratic_lagrangian, rolling_disc_lagrangian

from conftest import make_random_pigraph


def oscillator_lagrangian():
    return Lagrangian(
        lambda x, y: 0.5 * (y[0] ** 2 - x[0] ** 2),
        grad_x=lambda x, y: np.array([-x[0]]),
        grad_y=lambda x, y: np.array([y[0]]),
        hess_yy=lambda x, y: np.eye(1),
        hess_yx=lambda x, y: np.zeros((1, 1)),
        name="oscillator",
    )


class TestLegendreMap:
    def test_rolling_disc_momenta(self, disc_lagrangian):
        phi = np.array([0.8])
        y = np.array([0.5, -1.5, 0.0, 0.0])
        xi = disc_lagrangian.grad_y(phi, y)
        c, s = np.cos(phi[0]), np.sin(phi[0])
        expected = np.array([0.5, 2.0 * -1.5, -1.5 * c, -1.5 * s])
        assert np.allclose(xi, expected, atol=1e-12)

    def test_euclidean_lagrangian_is_identity(self):
        lag = quadratic_lagrangian(lambda x: np.eye(3))
        xi = lag.grad_y(np.zeros(0), np.array([1.0, -2.0, 0.5]))
        assert np.allclose(xi, [1.0, -2.0, 0.5], atol=0)

    def test_zero_lagrangian_maps_to_zero(self):
        lag = Lagrangian(lambda x, y: 0.0)
        xi = lag.grad_y(np.zeros(2), np.array([3.0, 4.0]))
        assert np.allclose(xi, 0.0, atol=1e-9)

    def test_phase_report_against_induced(self, disc_induced, disc_lagrangian):
        x = np.array([0.2])
        xi = disc_lagrangian.grad_y(x, np.array([1.0, 2.0, 0.0, 0.0]))
        ok, _ = disc_induced.phase_membership(x, xi)
        assert ok


class TestEulerLagrange:
    def test_canonical_oscillator_flow_point(self):
        dirac = CanonicalDirac(1)
        res, phase = el_residual(dirac, oscillator_lagrangian(),
                                 (np.array([1.0]), np.array([0.0])),
                                 (np.array([0.0]), np.array([-1.0])))
        assert np.allclose(res, 0.0, atol=1e-12)
        assert phase.size == 0

    def test_unconstrained_rolling_disc_fails_in_pinned_slots(self, disc_pi, disc_lagrangian):
        phi = np.array([0.7])
        y = np.array([1.0, 2.0, 0.0, 0.0])
        res, _ = el_residual(disc_pi, disc_lagrangian, (phi, y),
                             (np.array([1.0]), np.zeros(4)))
        assert np.max(np.abs(res[:3])) <= 1e-12
        assert abs(res[3]) >= 1e-3 and abs(res[4]) >= 1e-3

    def test_induced_rolling_disc_flow(self, disc_induced, disc_lagrangian):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a, b = rng.standard_normal(2)
            phi = rng.standard_normal(1)
            res, _ = el_residual(disc_induced, disc_lagrangian,
                                 (phi, np.array([a, b, 0.0, 0.0])),
                                 (np.array([a]), np.zeros(4)))
            assert np.max(np.abs(res)) <= 1e-12

    def test_omega_graph_reduces_to_classical(self):
        omega = OmegaGraphDirac(Chart(1, 1), rho=lambda x: np.eye(1),
                                cform=lambda x: np.zeros((1, 1, 1)))
        res, _ = el_residual(omega, oscillator_lagrangian(),
                             (np.array([1.0]), np.array([0.0])),
                             (np.array([0.0]), np.array([-1.0])))
        assert np.allclose(res, 0.0, atol=1e-12)

    def test_omega_graph_with_magnetic_term(self):
        # two base coordinates, one fiber coordinate: the 2-form coefficient
        # feeds the base velocity back into the momentum balance
        def cform(x):
            c = np.zeros((2, 2, 1))
            c[0, 1, 0] = 1.0
            c[1, 0, 0] = -1.0
            return c

        omega = OmegaGraphDirac(Chart(2, 1), rho=lambda x: np.array([[1.0, 0.0]]),
                                cform=cform)
        lag = Lagrangian(
            lambda x, y: 0.5 * y[0] ** 2 - x[0],
            grad_x=lambda x, y: np.array([-1.0, 0.0]),
            grad_y=lambda x, y: np.array([y[0]]),
            hess_yy=lambda x, y: np.eye(1),
            hess_yx=lambda x, y: np.zeros((1, 2)),
        )
        x = np.array([0.3, -1.0])
        y = np.array([2.0])
        xdot = np.array([2.0, 0.5])
        # residual rows: y - rho xdot; p + rho^T xidot - cform xi xdot
        ydot = np.array([7.0])
        res, _ = el_residual(omega, lag, (x, y), (xdot, ydot))
        xi = y[0]
        expected = np.array([
            y[0] - xdot[0],
            1.0 + ydot[0] - xi * xdot[1],
            0.0 + xi * xdot[0],
        ])
        assert np.allclose(res, expected, atol=1e-12)


class TestHamilton:
    def test_canonical_oscillator(self):
        dirac = CanonicalDirac(1)
        ham = legendre_transform(oscillator_lagrangian(),
                                 [(np.zeros(1), np.array([0.3]))])
        res, _ = hamilton_residual(dirac, ham, (np.array([1.0]), np.array([0.0])),
                                   (np.array([0.0]), np.array([-1.0])))
        assert np.max(np.abs(res)) <= 1e-10

    def test_zero_hamiltonian_freezes_pi_graph(self, disc_pi):
        ham_zero = legendre_transform(
            quadratic_lagrangian(lambda x: np.eye(4)),
            [(np.zeros(1), np.zeros(4))],
        )

        class Zero:
            def __call__(self, x, xi):
                return 0.0

            def grad_x(self, x, xi):
                return np.zeros(x.size)

            def grad_xi(self, x, xi):
                return np.zeros(xi.size)

        res, _ = hamilton_residual(disc_pi, Zero(), (np.array([0.4]), np.ones(4)),
                                   (np.zeros(1), np.zeros(4)))
        assert np.allclose(res, 0.0, atol=0)

    def test_rolling_disc_phase_dynamics(self, disc_induced, disc_lagrangian,
                                         disc_hamiltonian):
        rng = np.random.default_rng(1)
        mu = 0.5
        for _ in range(20):
            phi = rng.standard_normal(1)
            y1, y2 = rng.standard_normal(2)
            y = np.array([y1, y2, 0.0, 0.0])
            xi = disc_lagrangian.grad_y(phi, y)
            s, c = np.sin(phi[0]), np.cos(phi[0])
            xidot = np.array([0.0, 0.0, -mu * xi[1] * s * y1, mu * xi[1] * c * y1])
            res, _ = hamilton_residual(disc_induced, disc_hamiltonian,
                                       (phi, xi), (np.array([y1]), xidot))
            assert np.max(np.abs(res)) <= 1e-9


def quartic_lagrangian():
    """L = |y|^2 / 2 + |y|^4 / 4: hyperregular but not quadratic in y."""
    return Lagrangian(
        lambda x, y: 0.5 * y @ y + 0.25 * (y @ y) ** 2,
        grad_x=lambda x, y: np.zeros(x.size),
        grad_y=lambda x, y: (1.0 + y @ y) * y,
        hess_yy=lambda x, y: (1.0 + y @ y) * np.eye(y.size) + 2.0 * np.outer(y, y),
        hess_yx=lambda x, y: np.zeros((y.size, x.size)),
        name="quartic",
    )


def central_jacobian(f, s, h=1e-6):
    columns = []
    for k in range(s.size):
        e = np.zeros(s.size)
        e[k] = h
        columns.append((f(s + e) - f(s - e)) / (2.0 * h))
    return np.stack(columns, axis=-1)


class TestLegendreTransform:
    def test_mechanical_closed_form(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 3))
        M = A @ A.T + 3.0 * np.eye(3)
        lag = quadratic_lagrangian(lambda x: M,
                                   potential=lambda x: float(np.cos(x[0])),
                                   potential_grad=lambda x: np.array([-np.sin(x[0]), 0.0]))
        probes = [(rng.standard_normal(2), rng.standard_normal(3)) for _ in range(5)]
        ham = legendre_transform(lag, probes)
        Minv = np.linalg.inv(M)
        for _ in range(20):
            x, xi = rng.standard_normal(2), rng.standard_normal(3)
            expected = 0.5 * xi @ Minv @ xi + np.cos(x[0])
            assert abs(ham(x, xi) - expected) <= 1e-9 * (1.0 + abs(expected))

    def test_rolling_disc_matches_published_display(self, disc_lagrangian):
        # the closed-form Hamiltonian of the disc, written out explicitly
        m = R = J1 = J2 = 1.0
        rng = np.random.default_rng(3)
        probes = [(rng.standard_normal(1), rng.standard_normal(4)) for _ in range(5)]
        ham = legendre_transform(disc_lagrangian, probes)
        for _ in range(20):
            phi, xi = rng.standard_normal(1), rng.standard_normal(4)
            c, s = np.cos(phi[0]), np.sin(phi[0])
            display = (
                xi[0] ** 2 / (2 * J1)
                + (xi[1] - R * xi[2] * c - R * xi[3] * s) ** 2 / (2 * J2)
                + (xi[2] ** 2 + xi[3] ** 2) / (2 * m)
            )
            assert abs(ham(phi, xi) - display) <= 1e-9 * (1.0 + abs(display))

    def test_point_base_fiber_square(self):
        lag = quadratic_lagrangian(lambda x: np.eye(1))
        ham = legendre_transform(lag, [(np.zeros(0), np.array([0.7]))])
        assert ham(np.zeros(0), np.array([3.0])) == pytest.approx(4.5)

    def test_singular_lagrangian_rejected(self):
        lag = Lagrangian(lambda x, y: 0.0,
                         grad_y=lambda x, y: np.zeros(1),
                         hess_yy=lambda x, y: np.zeros((1, 1)))
        with pytest.raises(HyperregularityError):
            legendre_transform(lag, [(np.zeros(1), np.zeros(1))])

    def test_ill_conditioned_lagrangian_rejected(self):
        # determinant 0.1, condition number 1e13
        lag = quadratic_lagrangian(lambda x: np.diag([1e6, 1e-7]))
        with pytest.raises(HyperregularityError):
            legendre_transform(lag, [(np.zeros(1), np.ones(2))])

    def test_small_scale_hessian_accepted(self):
        # condition number 3: hyperregularity is relative to the Hessian's scale
        bundle = build_system("euler_top", {"J1": 1e-5, "J2": 2e-5, "J3": 3e-5})
        ham = bundle.hamiltonian()
        xi = np.array([1e-5, 2e-6, 0.0])
        assert np.allclose(ham.grad_xi(np.zeros(0), xi), xi / [1e-5, 2e-5, 3e-5])

    def test_one_inversion_per_point(self, monkeypatch, disc_lagrangian):
        rng = np.random.default_rng(8)
        probes = [(rng.standard_normal(1), rng.standard_normal(4)) for _ in range(5)]
        ham = legendre_transform(disc_lagrangian, probes)
        invert = dynamics.invert_vertical_derivative
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return invert(*args, **kwargs)

        monkeypatch.setattr(dynamics, "invert_vertical_derivative", counting)
        x, xi = rng.standard_normal(1), rng.standard_normal(4)
        ham(x, xi)
        ham.grad_x(x, xi)
        y = ham.grad_xi(x, xi)
        ham.hess_xi(x, xi)
        assert len(calls) == 1
        expected = y.copy()
        y += 1.0
        assert np.array_equal(ham.grad_xi(x, xi), expected)
        assert len(calls) == 1
        x2 = x + 0.25
        ham(x2, xi)
        ham.grad_x(x2, xi)
        ham.grad_xi(x2, xi)
        ham.hess_xi(x2, xi)
        assert len(calls) == 2

    def test_failed_inversion_is_not_kept(self, monkeypatch, disc_lagrangian):
        rng = np.random.default_rng(9)
        probes = [(rng.standard_normal(1), rng.standard_normal(4)) for _ in range(5)]
        ham = legendre_transform(disc_lagrangian, probes)
        x, xi = rng.standard_normal(1), rng.standard_normal(4)
        invert = dynamics.invert_vertical_derivative

        def failing(*args, **kwargs):
            raise HyperregularityError("injected")

        monkeypatch.setattr(dynamics, "invert_vertical_derivative", failing)
        with pytest.raises(HyperregularityError):
            ham.grad_xi(x, xi)
        monkeypatch.setattr(dynamics, "invert_vertical_derivative", invert)
        assert np.array_equal(ham.grad_xi(x, xi), invert(disc_lagrangian, x, xi))

    @pytest.mark.parametrize("case", ["rolling-disc", "quartic"])
    def test_exact_hess_xi_matches_central_differences(self, case):
        lag, n, m = {"rolling-disc": (rolling_disc_lagrangian(), 1, 4),
                     "quartic": (quartic_lagrangian(), 2, 3)}[case]
        rng = np.random.default_rng(10)
        probes = [(rng.standard_normal(n), rng.standard_normal(m)) for _ in range(5)]
        ham = legendre_transform(lag, probes)
        for _ in range(20):
            x, xi = rng.standard_normal(n), 2.0 * rng.standard_normal(m)
            exact = ham.hess_xi(x, xi)
            assert exact.shape == (m, n + m)
            numeric = central_jacobian(lambda s: ham.grad_xi(s[:n], s[n:]),
                                       np.concatenate([x, xi]))
            scale = 1.0 + np.max(np.abs(numeric))
            assert np.max(np.abs(exact - numeric)) <= 1e-7 * scale

    def test_hess_xi_at_singular_fiber_hessian_raises(self):
        lag = Lagrangian(lambda x, y: 0.25 * y[0] ** 4,
                         grad_y=lambda x, y: y ** 3,
                         hess_yy=lambda x, y: np.diag(3.0 * y ** 2))
        ham = legendre_transform(lag, [(np.zeros(1), np.array([1.0]))])
        assert ham.grad_xi(np.zeros(1), np.zeros(1)) == pytest.approx([0.0])
        with pytest.raises(HyperregularityError):
            ham.hess_xi(np.zeros(1), np.zeros(1))

    def test_wrong_user_hess_xi_rejected_at_probes(self):
        def fn(x, xi):
            return 0.5 * xi @ xi + 0.5 * x @ x

        def grad_xi(x, xi):
            return xi.copy()

        def right(x, xi):
            return np.hstack([np.zeros((2, 1)), np.eye(2)])

        def wrong(x, xi):
            return np.hstack([np.zeros((2, 1)), 2.0 * np.eye(2)])

        probes = [(np.array([0.3]), np.array([0.5, -1.0]))]
        Hamiltonian(fn, grad_xi=grad_xi, hess_xi=right, probes=probes)
        with pytest.raises(StructureError, match="hess_xi"):
            Hamiltonian(fn, grad_xi=grad_xi, hess_xi=wrong, probes=probes)

    def test_hyperregular_equivalence_for_oscillator(self):
        dirac = CanonicalDirac(1)
        lag = oscillator_lagrangian()
        ham = legendre_transform(lag, [(np.zeros(1), np.array([0.4]))])
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, y = rng.standard_normal(1), rng.standard_normal(1)
            xdot = y.copy()
            ydot = np.array([-x[0]])
            res_l, _ = el_residual(dirac, lag, (x, y), (xdot, ydot))
            assert np.max(np.abs(res_l)) <= 1e-12
            xi = lag.grad_y(x, y)
            xidot = lag.hess_yy(x, y) @ ydot
            res_h, _ = hamilton_residual(dirac, ham, (x, xi), (xdot, xidot))
            assert np.max(np.abs(res_h)) <= 1e-7


def reference_inverse(lagrangian, x, xi):
    """The Newton inversion with multistart, written with numpy.linalg."""
    scale = 1.0 + float(np.max(np.abs(xi), initial=0.0))
    rng = np.random.default_rng(dynamics.INVERSION_SEED)
    starts = [np.zeros(xi.size)] + [None] * dynamics.INVERSION_MULTISTART
    for y in starts:
        y = scale * rng.standard_normal(xi.size) if y is None else y
        for _ in range(dynamics.INVERSION_MAX_ITER):
            g = lagrangian.grad_y(x, y) - xi
            if np.linalg.norm(g) <= dynamics.INVERSION_TOL * scale:
                return y
            try:
                step = np.linalg.solve(lagrangian.hess_yy(x, y), -g)
            except np.linalg.LinAlgError:
                break
            y = y + step
            if np.linalg.norm(step) <= 1e-14 * (1.0 + np.linalg.norm(y)):
                g = lagrangian.grad_y(x, y) - xi
                if np.linalg.norm(g) <= dynamics.INVERSION_TOL * scale:
                    return y
                break
    raise AssertionError("the reference inversion failed")


def reference_hess_xi(lagrangian, x, y):
    rhs = np.hstack([-lagrangian.hess_yx(x, y), np.eye(y.size)])
    return np.linalg.solve(lagrangian.hess_yy(x, y), rhs)


def counted(calls, fn):
    def wrapped(*args):
        calls.append(args)
        return fn(*args)

    return wrapped


class TestInversion:
    @pytest.mark.parametrize("case", ["oscillator", "euler-top", "rolling-disc", "quartic"])
    def test_inverse_and_hess_xi_are_the_numpy_linalg_newton_bitwise(self, case):
        lag, n, m = {
            "oscillator": (build_system("harmonic_oscillator", {"mass": 1.7}).lagrangian, 1, 1),
            "euler-top": (build_system("euler_top").lagrangian, 0, 3),
            "rolling-disc": (rolling_disc_lagrangian(), 1, 4),
            "quartic": (quartic_lagrangian(), 2, 3),
        }[case]
        rng = np.random.default_rng(11)
        probes = [(rng.standard_normal(n), rng.standard_normal(m)) for _ in range(5)]
        ham = legendre_transform(lag, probes)
        for _ in range(25):
            x, xi = rng.standard_normal(n), 3.0 * rng.standard_normal(m)
            y = reference_inverse(lag, x, xi)
            assert np.array_equal(dynamics.invert_vertical_derivative(lag, x, xi), y)
            assert np.array_equal(ham.hess_xi(x, xi), reference_hess_xi(lag, x, y))

    def test_singular_zero_start_moves_on_to_the_seeded_starts(self):
        # L = y^4 / 4: the fiber Hessian 3 y^2 vanishes at the zero start
        calls = []
        lag = Lagrangian(lambda x, y: 0.25 * y[0] ** 4,
                         grad_y=counted(calls, lambda x, y: y ** 3),
                         hess_yy=lambda x, y: np.diag(3.0 * y ** 2))
        x, xi = np.zeros(1), np.array([2.0])
        scale = 1.0 + abs(xi[0])
        y = dynamics.invert_vertical_derivative(lag, x, xi)
        assert abs(y[0] ** 3 - xi[0]) <= dynamics.INVERSION_TOL * scale
        rng = np.random.default_rng(dynamics.INVERSION_SEED)
        seeded = [scale * rng.standard_normal(1) for _ in range(dynamics.INVERSION_MULTISTART)]
        starts = [at for _, at in calls
                  if not at.any() or any(np.array_equal(at, s) for s in seeded)]
        assert len(starts) == 2
        assert not starts[0].any() and np.array_equal(starts[1], seeded[0])

    def test_zero_lagrangian_fails_after_every_start(self):
        calls = []
        lag = Lagrangian(lambda x, y: 0.0, grad_y=lambda x, y: np.zeros(1),
                         hess_yy=counted(calls, lambda x, y: np.zeros((1, 1))))
        with pytest.raises(HyperregularityError):
            dynamics.invert_vertical_derivative(lag, np.zeros(1), np.ones(1))
        assert len(calls) == 1 + dynamics.INVERSION_MULTISTART

    def test_overflowing_step_norm_does_not_end_a_start(self):
        # the step 1e300 / 2 is finite although its square overflows
        lag = build_system("harmonic_oscillator", {"mass": 2.0}).lagrangian
        xi = np.array([1e300])
        with np.errstate(over="ignore"):  # the norms overflow
            y = dynamics.invert_vertical_derivative(lag, np.zeros(1), xi)
        assert np.array_equal(y, xi / 2.0)

    def test_non_finite_step_ends_its_start(self):
        calls = []
        lag = Lagrangian(lambda x, y: 0.5 * y @ y,
                         grad_y=counted(calls, lambda x, y: y.copy()),
                         hess_yy=lambda x, y: np.full((2, 2), np.nan))
        x, xi = np.array([0.5]), np.array([1.0, -2.0])
        with pytest.raises(HyperregularityError, match=r"x=\[0\.5\], xi=\[ 1\. -2\.\]") as err:
            dynamics.invert_vertical_derivative(lag, x, xi)
        assert np.array_equal(err.value.x, x) and np.array_equal(err.value.xi, xi)
        assert len(calls) <= 2 * (1 + dynamics.INVERSION_MULTISTART)


class TestNonholonomic:
    def test_rolling_disc_reduced_equations(self, disc, disc_lagrangian):
        constraint = LinearConstraint(fiber=(2, 3))
        rng = np.random.default_rng(5)
        for _ in range(5):
            a, b = rng.standard_normal(2)
            phi = rng.standard_normal(1)
            res, _ = nonholonomic_el_residual(
                disc, constraint, disc_lagrangian,
                (phi, np.array([a, b, 0.0, 0.0])), (np.array([a]), np.zeros(4)))
            assert np.max(np.abs(res)) <= 1e-12

    def test_rows_match_induced_generator(self, disc, disc_pi, disc_lagrangian):
        constraint = LinearConstraint(fiber=(2, 3))
        induced = induce(disc_pi, constraint)
        rng = np.random.default_rng(6)
        for _ in range(10):
            state = (rng.standard_normal(1), rng.standard_normal(4))
            rate = (rng.standard_normal(1), rng.standard_normal(4))
            direct, phase_d = nonholonomic_el_residual(disc, constraint,
                                                       disc_lagrangian, state, rate)
            via_dirac, phase_i = el_residual(induced, disc_lagrangian, state, rate)
            assert np.max(np.abs(direct - via_dirac)) <= 1e-9
            assert np.array_equal(phase_d, phase_i)

    def test_trivial_constraint_recovers_unconstrained(self, disc, disc_pi,
                                                       disc_lagrangian):
        rng = np.random.default_rng(7)
        state = (rng.standard_normal(1), rng.standard_normal(4))
        rate = (rng.standard_normal(1), rng.standard_normal(4))
        direct, _ = nonholonomic_el_residual(disc, LinearConstraint(),
                                             disc_lagrangian, state, rate)
        full, _ = el_residual(disc_pi, disc_lagrangian, state, rate)
        assert np.max(np.abs(direct - full)) <= 1e-12

    def test_affine_rows_match_induced_generator(self):
        alg = make_random_pigraph(seed=21, base_dim=1, fiber_dim=3)
        lag = quadratic_lagrangian(lambda x: np.diag([1.0, 2.0, 3.0]))
        constraint = AffineConstraint(fixed=0, fiber=(2,))
        induced = induce(PiGraphDirac(alg), constraint)
        rng = np.random.default_rng(8)
        for _ in range(10):
            state = (rng.standard_normal(1), rng.standard_normal(3))
            rate = (rng.standard_normal(1), rng.standard_normal(3))
            direct, _ = nonholonomic_el_residual(alg, constraint, lag, state, rate)
            via_dirac, _ = el_residual(induced, lag, state, rate)
            assert np.max(np.abs(direct - via_dirac)) <= 1e-9

    @pytest.mark.parametrize("constraint, message", [
        (LinearConstraint(matrix=lambda x: np.zeros((1, 5))),
         "adapted-coordinate constraint required"),
        ((2, 3), "constraint must be linear or affine"),
    ], ids=["matrix", "not-a-constraint"])
    def test_rejects(self, disc, disc_lagrangian, constraint, message):
        pair = (np.zeros(1), np.zeros(4))
        with pytest.raises(EvaluationError, match=message) as err:
            nonholonomic_el_residual(disc, constraint, disc_lagrangian, pair, pair)
        assert type(err.value) is EvaluationError

    def test_affine_without_drift_reduces_to_linear(self):
        # vanishing brackets and anchor column for the distinguished index
        chart = Chart(1, 3)
        alg = SkewAlgebroid(chart,
                            lambda x: np.array([[0.0, 1.0, 0.0]]),
                            lambda x: np.zeros((3, 3, 3)))
        lag = quadratic_lagrangian(lambda x: np.eye(3))
        state = (np.array([0.2]), np.array([1.0, 0.5, 0.0]))
        rate = (np.array([0.5]), np.array([0.0, 0.1, 0.0]))
        affine, _ = nonholonomic_el_residual(
            alg, AffineConstraint(fixed=0, fiber=(2,)), lag, state, rate)
        linear, _ = nonholonomic_el_residual(
            alg, LinearConstraint(fiber=(0, 2)), lag, state, rate)
        # identical rows except the unit-coordinate row replaces the zero row
        assert np.allclose(affine[0], linear[0], atol=1e-12)
        assert affine[1] == pytest.approx(state[1][0] - 1.0)
        assert linear[1] == pytest.approx(state[1][0])
        assert np.allclose(affine[2:], linear[2:], atol=1e-12)


class TestTimeExtension:
    def test_time_dependent_oscillator_equations(self):
        ext = TimeExtendedDirac(CanonicalDirac(1))

        def stiffness(t):
            return 1.0 + 0.5 * np.sin(t)

        lag = Lagrangian(
            lambda x, y: 0.5 * y[0] ** 2 - 0.5 * stiffness(x[0]) * x[1] ** 2,
            grad_x=lambda x, y: np.array([-0.25 * np.cos(x[0]) * x[1] ** 2,
                                          -stiffness(x[0]) * x[1]]),
            grad_y=lambda x, y: np.array([y[0]]),
            hess_yy=lambda x, y: np.eye(1),
            hess_yx=lambda x, y: np.zeros((1, 2)),
        )
        t, q, v = 0.7, 1.2, -0.3
        state = (np.array([t, q]), np.array([v]))
        rate = (np.array([1.0, v]), np.array([-stiffness(t) * q]))
        res, _ = el_residual(ext, lag, state, rate)
        assert np.max(np.abs(res)) <= 1e-12
        # wrong clock speed shows in the first row
        res_bad, _ = el_residual(ext, lag, state, (np.array([2.0, v]), rate[1]))
        assert abs(res_bad[0] - 1.0) <= 1e-12

    def test_extension_keeps_structure_blocks(self, disc, disc_pi):
        ext = TimeExtendedDirac(disc_pi)
        x = np.array([0.0, 0.9])
        c_base, drift_base = disc_pi.structure_terms(x[1:])
        c_ext, drift_ext = ext.structure_terms(x)
        assert np.array_equal(c_ext, c_base)
        assert drift_ext is None and drift_base is None
        etahat = ext.local_form(x).etahat
        assert np.array_equal(etahat[0], [1.0] + [0.0] * 5)
        assert np.array_equal(etahat[1:, 1:], disc_pi.local_form(x[1:]).etahat)


class TestPMP:
    def test_scalar_lqr_closed_form(self):
        dirac = CanonicalDirac(1)
        system = ControlSystem(
            f=lambda x, u: np.array([u[0]]),
            cost=lambda x, u: 0.5 * (x[0] ** 2 + u[0] ** 2),
            f_x=lambda x, u: np.zeros((1, 1)),
            f_u=lambda x, u: np.eye(1),
            cost_x=lambda x, u: np.array([x[0]]),
            cost_u=lambda x, u: np.array([u[0]]),
        )
        # stationarity pins u = xi; the phase flow is xdot = xi, xidot = x,
        # with closed-form solution x = cosh t, xi = sinh t from (1, 0)
        for t in np.linspace(0.0, 1.0, 20):
            x, xi = np.cosh(t), np.sinh(t)
            out = pmp_residual(system, dirac,
                               (np.array([x]), np.array([xi]), np.array([xi])),
                               (np.array([xi]), np.array([x])))
            assert np.max(np.abs(out[0])) <= 1e-12
            assert np.max(np.abs(out[1])) <= 1e-12

    def test_control_independent_data_has_zero_stationarity(self):
        dirac = CanonicalDirac(2)
        system = ControlSystem(
            f=lambda x, u: np.array([x[1], -x[0]]),
            cost=lambda x, u: float(x @ x),
            control_dim=1,
        )
        rng = np.random.default_rng(9)
        out = pmp_residual(system, dirac,
                           (rng.standard_normal(2), rng.standard_normal(1),
                            rng.standard_normal(2)),
                           (rng.standard_normal(2), rng.standard_normal(2)))
        assert np.max(np.abs(out[1])) <= 1e-9

    def test_full_control_recovers_fiber_derivative(self):
        # f(x, u) = u makes the stationarity equation the fiber derivative
        # relation xi = dL/du, matching the map computed from the Lagrangian
        dirac = CanonicalDirac(2)
        lag = Lagrangian(lambda x, y: 0.5 * float(y @ y) + float(x @ y))
        system = ControlSystem(
            f=lambda x, u: u.copy(),
            cost=lambda x, u: 0.5 * float(u @ u) + float(x @ u),
            control_dim=2,
        )
        rng = np.random.default_rng(10)
        for _ in range(5):
            x, u = rng.standard_normal(2), rng.standard_normal(2)
            out = pmp_residual(system, dirac, (x, u, lag.grad_y(x, u)),
                               (np.zeros(2), np.zeros(2)))
            assert np.max(np.abs(out[1])) <= 1e-6


def _partial_cases():
    """(constructor, function keywords, partial, exact partial, x dim, second dim)."""

    def lagrangian(x, y):
        return np.sin(x[0]) * y[0] ** 2 + x[0] * y[0] * y[1] + y[1] ** 3 / 3.0

    def hamiltonian(x, xi):
        return np.cos(x[0]) * xi[0] ** 2 + x[0] * xi[0] * xi[1] + xi[1] ** 4 / 4.0

    def control_f(x, u):
        return np.array([x[1] * u[0], np.sin(x[0]) + u[0] ** 2])

    def control_cost(x, u):
        return 0.5 * u[0] ** 2 * x[0] ** 2 + x[1] * u[0]

    lag = {
        "grad_x": lambda x, y: np.array([np.cos(x[0]) * y[0] ** 2 + y[0] * y[1]]),
        "grad_y": lambda x, y: np.array([2.0 * np.sin(x[0]) * y[0] + x[0] * y[1],
                                         x[0] * y[0] + y[1] ** 2]),
        "hess_yy": lambda x, y: np.array([[2.0 * np.sin(x[0]), x[0]], [x[0], 2.0 * y[1]]]),
        "hess_yx": lambda x, y: np.array([[2.0 * np.cos(x[0]) * y[0] + y[1]], [y[0]]]),
    }
    ham = {
        "grad_x": lambda x, xi: np.array([-np.sin(x[0]) * xi[0] ** 2 + xi[0] * xi[1]]),
        "grad_xi": lambda x, xi: np.array([2.0 * np.cos(x[0]) * xi[0] + x[0] * xi[1],
                                           x[0] * xi[0] + xi[1] ** 3]),
        "hess_xi": lambda x, xi: np.array([
            [-2.0 * np.sin(x[0]) * xi[0] + xi[1], 2.0 * np.cos(x[0]), x[0]],
            [xi[0], x[0], 3.0 * xi[1] ** 2]]),
    }
    ctl = {
        "f_x": lambda x, u: np.array([[0.0, u[0]], [np.cos(x[0]), 0.0]]),
        "f_u": lambda x, u: np.array([[x[1]], [2.0 * u[0]]]),
        "cost_x": lambda x, u: np.array([u[0] ** 2 * x[0], u[0]]),
        "cost_u": lambda x, u: np.array([u[0] * x[0] ** 2 + x[1]]),
        # second partials over the stacked (x, u)
        "f_u_xu": lambda x, u: np.array([[[0.0, 1.0, 0.0]], [[0.0, 0.0, 2.0]]]),
        "cost_u_xu": lambda x, u: np.array([[2.0 * u[0] * x[0], 1.0, x[0] ** 2]]),
    }
    cases = []
    for label, exact in lag.items():
        cases.append((lambda **kw: Lagrangian(lagrangian, **kw),
                      "Lagrangian", label, exact, 1, 2))
    for label, exact in ham.items():
        cases.append((lambda **kw: Hamiltonian(hamiltonian, **kw),
                      "Hamiltonian", label, exact, 1, 2))
    for label, exact in ctl.items():
        cases.append((lambda **kw: ControlSystem(control_f, control_cost, **kw),
                      "control system", label, exact, 2, 1))
    return cases


PARTIAL_CASES = _partial_cases()


class TestValidation:
    @pytest.mark.parametrize("case", PARTIAL_CASES, ids=[
        f"{kind.split()[0].lower()}-{label}" for _, kind, label, *_ in PARTIAL_CASES])
    def test_each_partial_is_held_to_its_fallback(self, case):
        build, kind, label, exact, n, k = case
        rng = np.random.default_rng(13)
        probes = [(rng.standard_normal(n), rng.standard_normal(k)) for _ in range(5)]
        build(**{label: exact}, name="probe", probes=probes)

        def doubled(a, b):
            return 2.0 * exact(a, b)

        with pytest.raises(StructureError, match=f"analytic {label} of {kind} probe deviates"):
            build(**{label: doubled}, name="probe", probes=probes)

        def widened(a, b):
            return np.concatenate([exact(a, b)] * 2)

        shape = np.shape(exact(*probes[0]))
        wide = (2 * shape[0],) + shape[1:]
        with pytest.raises(StructureError, match=re.escape(
                f"analytic {label} of {kind} probe has shape {wide}, its fallback {shape}, at (")):
            build(**{label: widened}, name="probe", probes=probes)

    def test_a_partial_that_broadcasts_is_still_the_wrong_shape(self):
        # a (1,) grad_y against the (3,) fallback broadcasts to a zero
        # difference at y = (1, 1, 1): only the shape tells them apart
        with pytest.raises(StructureError, match=re.escape(
                "analytic grad_y of Lagrangian <anonymous> has shape (1,), its fallback (3,)")):
            Lagrangian(lambda x, y: 0.5 * float(y @ y), grad_y=lambda x, y: np.array([y[0]]),
                       probes=[(np.zeros(1), np.ones(3))])

    def test_exact_disc_hessians_pass_without_grad_y(self):
        # the fallback the Hessians are held to differences the numerical
        # grad_y with the coarse outer step, so exact ones are accepted
        disc = rolling_disc_lagrangian()
        rng = np.random.default_rng(14)
        probes = [(rng.standard_normal(1), rng.standard_normal(4)) for _ in range(20)]
        Lagrangian(disc, hess_yy=disc.hess_yy, hess_yx=disc.hess_yx, probes=probes)

    def test_wrong_analytic_gradient_rejected(self):
        with pytest.raises(StructureError, match="grad_y"):
            Lagrangian(lambda x, y: 0.5 * y[0] ** 2,
                       grad_y=lambda x, y: np.array([2.0 * y[0]]),
                       probes=[(np.zeros(1), np.array([1.0]))])

    def test_registered_partials_pass_on_probes(self):
        rng = np.random.default_rng(11)
        probes = [(rng.standard_normal(1), rng.standard_normal(4)) for _ in range(50)]
        rolling_disc_lagrangian().validate(probes)

    def test_all_catalog_partials_pass_on_probes(self):
        from diracmech.systems import CATALOG, build_system

        rng = np.random.default_rng(12)
        for name in CATALOG:
            bundle = build_system(name)
            n, m = bundle.dirac.chart.base_dim, bundle.dirac.chart.fiber_dim
            probes = [(rng.standard_normal(n), rng.standard_normal(m))
                      for _ in range(50)]
            if bundle.lagrangian is not None:
                bundle.lagrangian.validate(probes)
            if bundle.closed_hamiltonian is not None:
                bundle.closed_hamiltonian.validate(probes)
            if bundle.control is not None:
                control_probes = [(rng.standard_normal(n),
                                   rng.standard_normal(bundle.control.control_dim))
                                  for _ in range(50)]
                bundle.control.validate(control_probes)


class TestBoundPartials:
    def test_partials_take_lists_and_return_float_arrays(self):
        # a point base (x of shape (0,)), analytic partials returning nested
        # lists of ints, and the same functions with every partial left to
        # its fallback: vector partials come back flat either way
        def lag_fn(x, y):
            return 0.5 * float(y @ y)

        def ham_fn(x, xi):
            return 0.5 * float(xi @ xi)

        def cost(x, u):
            return float(u @ u)

        def f(x, u):
            return np.array([u[0], 2.0 * u[0]])

        analytic = [
            Lagrangian(lag_fn, grad_x=lambda x, y: [], grad_y=lambda x, y: [[y[0]], [y[1]]],
                       hess_yy=lambda x, y: [[1, 0], [0, 1]]),
            Hamiltonian(ham_fn, grad_x=lambda x, xi: [[]], grad_xi=lambda x, xi: [[1], [2]]),
            ControlSystem(f, cost, cost_x=lambda x, u: [[]], cost_u=lambda x, u: [[2]],
                          f_u=lambda x, u: [[1], [2]]),
        ]
        numeric = [Lagrangian(lag_fn), Hamiltonian(ham_fn), ControlSystem(f, cost)]
        for lag, ham, ctl in (analytic, numeric):
            for owner, label, second, expected in [
                (lag, "grad_x", [1, 2], np.zeros(0)),
                (lag, "grad_y", [1, 2], np.array([1.0, 2.0])),
                (lag, "hess_yy", [1, 2], np.eye(2)),
                (ham, "grad_x", [1, 2], np.zeros(0)),
                (ham, "grad_xi", [1, 2], np.array([1.0, 2.0])),
                (ctl, "cost_x", [1], np.zeros(0)),
                (ctl, "cost_u", [1], np.array([2.0])),
                (ctl, "f_u", [1], np.array([[1.0], [2.0]])),
            ]:
                value = getattr(owner, label)([], second)
                assert isinstance(value, np.ndarray) and value.dtype == np.float64, label
                assert value.shape == expected.shape, label
                assert np.allclose(value, expected, atol=1e-8), label

    def test_int_arrays_in_and_out(self):
        # int arrays and lists are converted both ways, for the partials, the
        # value and the energy; float64 arrays reach the analytic partial as
        # the very objects passed in
        seen = []

        def grad_y(x, y):
            seen.append((x, y))
            return np.array([[4], [3]])

        def fn(x, y):
            seen.append((x, y))
            return float(x[0] * y[1])

        lag = Lagrangian(fn, grad_y=grad_y, hess_yy=lambda x, y: np.eye(2, dtype=int))
        value = lag.grad_y(np.array([1]), np.array([1, 2]))
        assert value.dtype == np.float64 and value.tolist() == [4.0, 3.0]
        assert all(a.dtype == np.float64 for a in seen[-1])
        hess = lag.hess_yy(np.array([1]), [1, 2])
        assert hess.dtype == np.float64 and np.array_equal(hess, np.eye(2))
        for x, y in (([1], [1, 2]), (np.array([1]), np.array([1, 2]))):
            seen.clear()
            assert lag(x, y) == 2.0 and lag.energy(x, y) == 10.0 - 2.0
            assert all(a.dtype == np.float64 for pair in seen for a in pair)
        x, y = np.array([1.0]), np.array([1.0, 2.0])
        lag.grad_y(x, y)
        assert seen[-1][0] is x and seen[-1][1] is y

    def test_vector_partial_reshaped_only_when_not_flat(self):
        # a float64 column comes back flat; a flat float64 value is returned as it is
        flat = np.array([4.0, 3.0])
        column = Lagrangian(lambda x, y: 0.0, grad_y=lambda x, y: flat[:, None])
        assert column.grad_y(np.zeros(1), np.zeros(2)).shape == (2,)
        same = Lagrangian(lambda x, y: 0.0, grad_y=lambda x, y: flat)
        assert same.grad_y(np.zeros(1), np.zeros(2)) is flat


class TestLastPoint:
    @pytest.mark.parametrize("pair", [False, True], ids=["x", "x-xi"])
    def test_a_compute_that_raises_keeps_the_previous_entry(self, pair):
        calls = []

        def compute(*point):
            calls.append(point)
            if point[0][0] < 0.0:
                raise EvaluationError("negative point")
            return [float(sum(a.sum() for a in point))]

        at = last_point(compute)
        good = (np.array([1.0]),) + ((np.array([2.0]),) if pair else ())
        bad = (np.array([-1.0]),) + ((np.array([2.0]),) if pair else ())
        first = at(*good)
        for _ in range(2):
            with pytest.raises(EvaluationError):
                at(*bad)
        # the failed point was computed each time; the good one still hits
        assert at(*good) is first and len(calls) == 3
        if pair:  # the pair key reads xi too
            assert at(np.array([1.0]), np.array([5.0])) == [6.0] and len(calls) == 4
