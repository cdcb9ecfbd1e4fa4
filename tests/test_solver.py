import numpy as np
import pytest
from scipy.linalg.lapack import dgesv

from diracmech import (
    CanonicalDirac,
    DegenerateDynamicsError,
    DiracAlgebroid,
    EvaluationError,
    ImplicitProblem,
    InitializationError,
    Lagrangian,
    SolverError,
    TimeExtendedDirac,
    Trajectory,
    VelocityPair,
    admissibility_report,
    integrate,
    lagrangian_problem,
    project_initial,
    solve_rate,
)
from diracmech import fd, solver
from diracmech.problems import hamiltonian_problem, pmp_problem
from diracmech.systems import CATALOG, build_problem, build_system

from conftest import clocked_hamiltonian, clocked_lagrangian


@pytest.fixture
def disc_problem(disc_induced, disc_lagrangian):
    return lagrangian_problem(disc_induced, disc_lagrangian)


def affine_problem(A, b):
    """Hand-built problem with constant affine parts (A, b)."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    return ImplicitProblem(A.shape[1], lambda t, state: (A, b))


@pytest.fixture
def oscillator_problem():
    bundle = build_system("harmonic_oscillator")
    return build_problem(bundle, "lagrangian")


class TestProjectInitial:
    def test_rolling_disc_phase_recovery(self, disc_induced, disc_hamiltonian):
        problem = hamiltonian_problem(disc_induced, disc_hamiltonian)
        mu = 0.5
        state = project_initial(problem, np.array([0.0, 1.0, 1.0, 0.0, 0.0]))
        phi, xi = state[0], state[1:]
        assert abs(xi[2] - mu * np.cos(phi) * xi[1]) <= 1e-10
        assert abs(xi[3] - mu * np.sin(phi) * xi[1]) <= 1e-10

    def test_no_algebraic_channel_is_identity(self, oscillator_problem):
        guess = np.array([0.3, -0.4])
        assert np.array_equal(project_initial(oscillator_problem, guess), guess)

    def test_feasible_guess_unchanged(self, disc_induced, disc_hamiltonian,
                                      disc_lagrangian):
        problem = hamiltonian_problem(disc_induced, disc_hamiltonian)
        xi = disc_lagrangian.grad_y(np.zeros(1), np.array([1.0, 2.0, 0.0, 0.0]))
        feasible = np.concatenate([[0.0], xi])
        projected = project_initial(problem, feasible)
        assert np.max(np.abs(projected - feasible)) <= 1e-12

    def test_convergence_on_the_last_allowed_step(self, monkeypatch):
        # the stationarity is linear, so one Gauss-Newton step reaches it
        problem = build_problem(build_system("lqr_pmp"), "pmp")
        guess = np.array([1.0, 0.3, -0.7])
        expected = project_initial(problem, guess)
        monkeypatch.setattr(solver, "PROJECTION_MAX_ITER", 1)
        projected = project_initial(problem, guess)
        assert np.array_equal(projected, expected)
        assert np.max(np.abs(projected - [1.0, -0.2, -0.2])) <= 1e-10


    @pytest.mark.parametrize("case, name", [("G", "G"), ("g", "g"), ("state", "g")])
    def test_non_finite_channel_raises_before_any_step(self, monkeypatch, capfd, case, name):
        # lstsq on a NaN G fails inside LAPACK, and a NaN g never converges;
        # either is named before the first Gauss-Newton step
        def algebraic(t, state):
            g = np.array([np.nan]) if case == "g" else state[:1] - 1.0
            G = np.array([[np.nan if case == "G" else 1.0, 0.0]])
            return g, G

        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kwargs: calls.append(args) or lstsq(*args, **kwargs))
        problem = ImplicitProblem(2, lambda t, state: (np.eye(2), np.zeros(2)),
                                  algebraic=algebraic)
        state = np.array([np.nan if case == "state" else 0.0, 0.0])
        with pytest.raises(InitializationError, match=f"channel's {name} is not finite"):
            project_initial(problem, state)
        assert calls == []
        assert capfd.readouterr().err == ""


class TestSolveRate:
    def test_rolling_disc_rates(self, disc_problem):
        rate, iters, norm = solve_rate(disc_problem, 0.0, np.array([0.4, 1.0, 2.0]))
        assert np.allclose(rate, [1.0, 0.0, 0.0], atol=1e-10)
        assert norm <= 1e-10

    def test_oscillator_acceleration(self, oscillator_problem):
        rate, _, _ = solve_rate(oscillator_problem, 0.0, np.array([1.0, 0.0]))
        assert np.allclose(rate, [0.0, -1.0], atol=1e-10)

    def test_degenerate_lagrangian_signals(self):
        dirac = CanonicalDirac(1)
        flat = Lagrangian(lambda x, y: 0.0,
                          grad_x=lambda x, y: np.zeros(1),
                          grad_y=lambda x, y: np.zeros(1),
                          hess_yy=lambda x, y: np.zeros((1, 1)),
                          hess_yx=lambda x, y: np.zeros((1, 1)))
        problem = lagrangian_problem(dirac, flat)
        with pytest.raises(DegenerateDynamicsError) as info:
            solve_rate(problem, 0.0, np.array([1.0, 1.0]))
        assert info.value.singular_values is not None

    def test_fresh_state_solves_exact_affine_parts(self, monkeypatch):
        def no_differences(*args, **kwargs):
            raise AssertionError("the rate solve took finite differences")

        monkeypatch.setattr(fd, "jacobian", no_differences)
        monkeypatch.setattr(fd, "steps", no_differences)
        A = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, -1.0], [1.0, 0.0, 4.0]])
        b = np.array([1.0, -2.0, 0.5])
        problem = affine_problem(A, b)
        seen = []
        affine = problem.affine

        def recording(t, state):
            seen.append((t, np.asarray(state, dtype=float).tobytes()))
            return affine(t, state)

        problem.affine = recording
        rate, iters, norm = solve_rate(problem, 0.0, np.array([0.1, 0.2, 0.3]))
        assert len(set(seen)) == 1
        assert iters == 2  # one exact solve plus its verification
        assert norm <= 1e-10
        assert np.max(np.abs(rate - np.linalg.solve(A, -b))) <= 1e-14

    def test_warm_start_skips_svd(self, monkeypatch):
        problem = affine_problem([[2.0, 1.0], [0.0, 3.0]], [1.0, -2.0])
        state = np.zeros(2)
        rate, _, _ = solve_rate(problem, 0.0, state)

        def no_svd(*args, **kwargs):
            raise AssertionError("a warm-start hit ran the degeneracy check")

        # the routine the exact solve takes its singular values from
        monkeypatch.setattr(solver, "dgesdd", no_svd)
        again, iters, _ = solve_rate(problem, 0.0, state, rate_guess=rate)
        assert iters == 1
        assert np.array_equal(again, rate)

    def test_norm_is_the_numpy_norm_of_the_residual(self, disc_problem, oscillator_problem):
        rng = np.random.default_rng(12)
        for problem in (disc_problem, oscillator_problem):
            for _ in range(10):
                state = rng.standard_normal(problem.state_dim)
                rate, _, norm = solve_rate(problem, 0.0, state)
                assert norm == np.linalg.norm(problem.residual(0.0, state, rate))
                again, iters, norm = solve_rate(problem, 0.0, state, rate_guess=rate)
                assert iters == 1
                assert norm == np.linalg.norm(problem.residual(0.0, state, again))

    def test_condition_limit_on_exact_matrix(self):
        # condition numbers 5e11 and 2e12 sit either side of the 1e12 limit
        rate, _, _ = solve_rate(affine_problem(np.diag([1.0, 2e-12]), [1.0, 1e-12]),
                                0.0, np.zeros(2))
        assert np.allclose(rate, [-1.0, -0.5], atol=1e-10)
        with pytest.raises(DegenerateDynamicsError) as info:
            solve_rate(affine_problem(np.diag([1.0, 5e-13]), [1.0, 1e-12]),
                       0.0, np.zeros(2))
        assert info.value.singular_values[-1] == pytest.approx(5e-13)

    def test_residual_left_after_exact_solve_raises(self):
        # a residual that is not affine in the rates keeps 0.1 r^2 after the solve
        problem = affine_problem(np.eye(2), [1.0, -2.0])
        affine_residual = problem.residual
        problem.residual = lambda t, state, rate: (affine_residual(t, state, rate)
                                                   + 0.1 * rate ** 2)
        with pytest.raises(SolverError, match="exact solve"):
            solve_rate(problem, 0.0, np.zeros(2))

    def test_non_finite_residual_raises(self):
        with pytest.raises(SolverError, match="nan"):
            solve_rate(affine_problem(np.eye(2), [np.nan, 1.0]), 0.0, np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_raises(self, bad):
        # 0 * inf is nan, so any guess leaves a non-finite residual; the
        # command line runs the solver under the same errstate
        A = np.array([[1.0, 0.0], [0.5, bad]])
        for guess in (None, np.array([1.0, 2.0])):
            with np.errstate(invalid="ignore"), pytest.raises(SolverError, match="nan"):
                solve_rate(affine_problem(A, [1.0, 1.0]), 0.0, np.zeros(2), rate_guess=guess)

    @pytest.mark.parametrize("A, error", [
        # the largest singular value overflows to inf
        (np.full((2, 2), 1e308), DegenerateDynamicsError),
        # condition number 1e300
        (np.diag([1e300, 1.0]), DegenerateDynamicsError),
        # well conditioned, but the rates underflow and leave the residual
        (np.array([[1e308, 1e308], [-1e308, 1e308]]), SolverError),
    ], ids=["sigma-overflow", "ill-conditioned", "rate-underflow"])
    def test_extreme_finite_matrix_errors(self, A, error):
        with pytest.raises(error) as info:
            solve_rate(affine_problem(A, [1.0, 1.0]), 0.0, np.zeros(2))
        if error is DegenerateDynamicsError:
            np.testing.assert_allclose(info.value.singular_values,
                                       np.linalg.svd(A, compute_uv=False), rtol=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_singular_values_match_numpy(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        # rank d - 1, so the exact solve always reports its singular values
        A = rng.standard_normal((d, d - 1)) @ rng.standard_normal((d - 1, d))
        with pytest.raises(DegenerateDynamicsError) as info:
            solve_rate(affine_problem(A, rng.standard_normal(d)), 0.0, np.zeros(d))
        reference = np.linalg.svd(A, compute_uv=False)
        got = info.value.singular_values
        assert got.shape == reference.shape
        assert np.max(np.abs(got - reference)) <= 1e-15 * reference[0]

    @pytest.mark.parametrize("routine", ["dgesdd", "dgetrf", "dgetrs"])
    def test_lapack_failure_raises(self, monkeypatch, routine):
        real = getattr(solver, routine)

        def failing(*args, **kwargs):
            *out, _ = real(*args, **kwargs)
            return (*out, 3)

        monkeypatch.setattr(solver, routine, failing)
        with pytest.raises(SolverError, match=f"{routine} failed with info=3"):
            solve_rate(affine_problem([[2.0, 1.0], [0.0, 3.0]], [1.0, -2.0]), 0.0,
                       np.zeros(2))

    def test_lu_factors_solve_bitwise_as_dgesv(self):
        rng = np.random.default_rng(26)
        for _ in range(2000):
            d = int(rng.integers(1, 9))
            A, b = rng.standard_normal((d, d)), rng.standard_normal(d)
            lu, piv, _ = solver.dgetrf(A)
            x, _ = solver.dgetrs(lu, piv, -b)
            assert x.tobytes() == dgesv(A, -b)[2].tobytes()

    def test_constant_matrix_factored_once(self, monkeypatch):
        calls = {"dgesdd": 0, "dgetrf": 0}
        for name in calls:
            def counted(*args, real=getattr(solver, name), name=name, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(solver, name, counted)
        parts = {"A": np.array([[2.0, 1.0], [0.0, 3.0]])}
        problem = ImplicitProblem(2, lambda t, state: (parts["A"], state - 1.0))
        rng = np.random.default_rng(5)
        for _ in range(10):
            state = rng.standard_normal(2)
            rate, iters, _ = solve_rate(problem, 0.0, state)
            assert iters == 2
            assert rate.tobytes() == dgesv(parts["A"], 1.0 - state)[2].tobytes()
        assert calls == {"dgesdd": 1, "dgetrf": 1}
        parts["A"] = np.array([[2.0, 1.0], [0.0, 4.0]])
        solve_rate(problem, 0.0, np.zeros(2))
        solve_rate(problem, 0.0, np.ones(2) * 3.0)
        assert calls == {"dgesdd": 2, "dgetrf": 2}

    def test_degenerate_matrix_raises_on_every_call(self):
        # it is never stored, so a well-conditioned A after it still factors
        parts = {"A": np.diag([1.0, 0.0])}
        problem = ImplicitProblem(2, lambda t, state: (parts["A"], np.ones(2)))
        seen = []
        for _ in range(3):
            with pytest.raises(DegenerateDynamicsError) as info:
                solve_rate(problem, 0.0, np.zeros(2))
            seen.append(info.value.singular_values.tolist())
        assert seen == [[1.0, 0.0]] * 3
        parts["A"] = np.diag([1.0, 2.0])
        rate, iters, _ = solve_rate(problem, 0.0, np.zeros(2))
        assert iters == 2 and rate.tolist() == [-1.0, -0.5]

    def test_rate_is_never_the_guess(self):
        problem = affine_problem([[2.0, 1.0], [0.0, 3.0]], [1.0, -2.0])
        exact, iters, _ = solve_rate(problem, 0.0, np.zeros(2))
        assert iters == 2
        for guess in (exact, np.zeros(2)):  # a warm-start hit, then an exact solve
            rate, _, _ = solve_rate(problem, 0.0, np.zeros(2), rate_guess=guess)
            assert rate is not guess and not np.shares_memory(rate, guess)

    def test_row_count_mismatch_rejected(self):
        problem = affine_problem([[1.0, 0.0]], [1.0])
        with pytest.raises(SolverError, match="rows"):
            solve_rate(problem, 0.0, np.zeros(2))

    @pytest.mark.parametrize("state, guess, message", [
        (np.zeros(2), np.zeros(1), "state has 2 and rate guess 1 entries for 2 state slots"),
        (np.zeros(2), np.zeros(3), "state has 2 and rate guess 3 entries for 2 state slots"),
        (np.zeros(3), None, "state has 3 and rate guess 2 entries for 2 state slots"),
    ], ids=["short-guess", "long-guess", "long-state"])
    def test_input_lengths_checked(self, state, guess, message):
        # the affine parts ignore the state, so a long one would pass unseen
        problem = affine_problem(np.eye(2), [1.0, -2.0])
        with pytest.raises(SolverError, match=message):
            solve_rate(problem, 0.0, state, rate_guess=guess)

    def test_lists_and_int_arrays_convert(self, oscillator_problem):
        # the float64 fast path and the converting side give the same bits
        rate, iters, norm = solve_rate(oscillator_problem, 0.0, np.array([0.5, -1.0]),
                                       rate_guess=np.zeros(2))
        again = solve_rate(oscillator_problem, 0.0, [0.5, -1.0],
                           rate_guess=np.array([0, 0]))
        assert again[0].tobytes() == rate.tobytes() and again[1:] == (iters, norm)
        column = solve_rate(oscillator_problem, 0.0, np.array([[0.5], [-1.0]]),
                            rate_guess=np.zeros((2, 1)))
        assert column[0].tobytes() == rate.tobytes() and column[1:] == (iters, norm)
        problem = affine_problem(np.eye(2), [-1.0, -2.0])
        hit, iters, _ = solve_rate(problem, 0.0, [0, 0], rate_guess=np.array([1, 2]))
        assert iters == 1 and hit.dtype == np.float64 and hit.tolist() == [1.0, 2.0]
        assert problem.residual(0.0, np.zeros(2), [1.0, 2.0]).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("form", [
        lambda r: r.tolist(), lambda r: r.astype(int), lambda r: r[:, None],
    ], ids=["list", "int-array", "column"])
    def test_residual_of_any_form_gives_a_flat_float_rate(self, form):
        problem = affine_problem(np.eye(2), [-1.0, -2.0])
        affine_residual = problem.residual
        problem.residual = lambda t, state, rate: form(affine_residual(t, state, rate))
        rate, iters, norm = solve_rate(problem, 0.0, np.zeros(2))
        assert rate.dtype == np.float64 and rate.tolist() == [1.0, 2.0]
        assert iters == 2 and norm == 0.0


class TestIntegrate:
    def test_rows_share_no_memory(self, oscillator_problem):
        # integrate keeps the states and rates it owns without copying them:
        # an array updated in place would repeat across rows
        state0 = np.array([0.3, -0.4])
        traj = integrate(oscillator_problem, state0, 0.0, 0.01, 1e-3)
        assert np.array_equal(state0, [0.3, -0.4])
        rows = list(traj.states) + list(traj.rates) + [state0]
        for i, row in enumerate(rows):
            assert not any(np.shares_memory(row, other) for other in rows[i + 1:])
        assert np.all(np.diff(traj.states, axis=0) != 0.0)
        assert np.all(np.diff(traj.rates, axis=0) != 0.0)

    def test_projection_runs_only_with_a_channel(self, monkeypatch, oscillator_problem):
        calls = []
        project = solver.project_initial

        def counting(problem, state, t=0.0):
            calls.append(t)
            return project(problem, state, t=t)

        monkeypatch.setattr(solver, "project_initial", counting)
        lqr = build_problem(build_system("lqr_pmp"), "pmp")
        integrate(lqr, np.array([1.0, 0.3, 0.3]), 0.0, 0.01, 1e-3)
        assert len(calls) == 11  # the initial projection and one per step
        calls.clear()
        plain = integrate(oscillator_problem, np.array([0.3, -0.4]), 0.0, 0.01, 1e-3)
        assert len(calls) == 1
        # an empty channel takes the projection path and gives the same bits
        d = oscillator_problem.state_dim
        empty = ImplicitProblem(d, oscillator_problem.affine,
                                algebraic=lambda t, state: (np.zeros(0), np.zeros((0, d))),
                                monitors=oscillator_problem.monitors)
        calls.clear()
        projected = integrate(empty, np.array([0.3, -0.4]), 0.0, 0.01, 1e-3)
        assert len(calls) == 11
        assert projected.states.tobytes() == plain.states.tobytes()
        assert projected.rates.tobytes() == plain.rates.tobytes()
        assert projected.monitors["energy"].tobytes() == plain.monitors["energy"].tobytes()

    def test_rolling_disc_free_parameters(self, disc_problem):
        traj = integrate(disc_problem, np.array([0.0, 1.0, 2.0]), 0.0, 1.0, 1e-3)
        assert abs(traj.states[-1][0] - 1.0) <= 1e-8
        assert abs(traj.states[-1][1] - 1.0) <= 1e-9
        assert abs(traj.states[-1][2] - 2.0) <= 1e-9
        assert np.max(traj.residual_norms) <= 1e-9
        assert np.all(np.diff(traj.times) > 0)

    @pytest.mark.parametrize("formalism, steps", [("lagrangian", 300), ("hamiltonian", 100)])
    def test_clock_extension_reproduces_induced_run(self, formalism, steps, disc_induced,
                                                    disc_lagrangian, disc_hamiltonian):
        extended = TimeExtendedDirac(disc_induced)
        if formalism == "lagrangian":
            problem = lagrangian_problem(disc_induced, disc_lagrangian)
            clocked = lagrangian_problem(extended, clocked_lagrangian(disc_lagrangian))
            state0 = np.array([0.3, 1.0, 2.0])
        else:
            problem = hamiltonian_problem(disc_induced, disc_hamiltonian)
            clocked = hamiltonian_problem(extended, clocked_hamiltonian(disc_hamiltonian))
            state0 = project_initial(problem, np.array([0.3, 1.0, 2.0, 0.5, -0.5]))
        dt = 1e-3
        traj = integrate(problem, state0, 0.0, steps * dt, dt)
        clocked_traj = integrate(clocked, np.concatenate([[0.0], state0]), 0.0, steps * dt, dt)
        states, clocked_states = np.array(traj.states), np.array(clocked_traj.states)
        assert np.max(np.abs(clocked_states[:, 1:] - states)) <= 1e-12
        assert np.max(np.abs(clocked_states[:, 0] - traj.times)) <= 1e-12

    def test_oscillator_cosine(self, oscillator_problem):
        traj = integrate(oscillator_problem, np.array([1.0, 0.0]), 0.0, np.pi, 1e-3)
        assert abs(traj.states[-1][0] - np.cos(np.pi)) <= 1e-6

    def test_euler_top_against_reference(self):
        bundle = build_system("euler_top")
        problem = build_problem(bundle, "lagrangian")
        traj = integrate(problem, np.array([1.0, 0.01, 0.0]), 0.0, 2.0, 1e-3)

        # independent fixed-step integration of the angular momentum balance
        J1, J2, J3 = 1.0, 2.0, 3.0

        def rhs(w):
            return np.array([
                (J2 - J3) / J1 * w[1] * w[2],
                (J3 - J1) / J2 * w[2] * w[0],
                (J1 - J2) / J3 * w[0] * w[1],
            ])

        w = np.array([1.0, 0.01, 0.0])
        h = 1e-4
        for _ in range(int(2.0 / h)):
            k1 = rhs(w)
            k2 = rhs(w + h / 2 * k1)
            k3 = rhs(w + h / 2 * k2)
            k4 = rhs(w + h * k3)
            w = w + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(traj.states[-1] - w)) <= 1e-8

    def test_implicit_midpoint_oscillator(self, oscillator_problem):
        traj = integrate(oscillator_problem, np.array([1.0, 0.0]), 0.0, 2.0, 1e-2,
                         method="implicit-midpoint")
        assert abs(traj.states[-1][0] - np.cos(2.0)) <= 1e-3
        assert traj.monitor_drift("energy") <= 1e-4

    def test_implicit_midpoint_conserves_quadratic_invariants(self):
        # implicit midpoint keeps every quadratic first integral exactly,
        # up to the solver tolerance; rk4 drifts visibly at this coarse step
        problem = build_problem(build_system("euler_top"), "lagrangian")
        J = np.array([1.0, 2.0, 3.0])
        drifts = {}
        for method in ("implicit-midpoint", "rk4"):
            traj = integrate(problem, np.array([1.0, 0.5, 0.2]), 0.0, 10.0, 0.1,
                             method=method)
            momentum = np.sum((J * traj.states) ** 2, axis=1)
            drifts[method] = (traj.monitor_drift("energy"),
                              np.max(np.abs(momentum - momentum[0])))
        assert max(drifts["implicit-midpoint"]) <= 1e-12
        assert min(drifts["rk4"]) > 1e-9

    def test_implicit_midpoint_is_second_order(self, oscillator_problem):
        errors = []
        for dt in (0.1, 0.05, 0.025):
            traj = integrate(oscillator_problem, np.array([1.0, 0.0]), 0.0, 2.0, dt,
                             method="implicit-midpoint")
            errors.append(np.max(np.abs(traj.states[-1]
                                        - [np.cos(2.0), -np.sin(2.0)])))
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((3.9 <= ratios) & (ratios <= 4.1))

    def test_implicit_midpoint_solves_per_step(self, monkeypatch):
        # one exact rate solve per fixed-point iteration, a few iterations
        # per step at a small dt, plus the solve at the accepted state
        calls = []
        solve = solver.solve_rate

        def counting(*args, **kwargs):
            calls.append(args[1])
            return solve(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_rate", counting)
        problem = build_problem(build_system("euler_top"), "lagrangian")
        traj = integrate(problem, np.array([1.0, 0.5, 0.2]), 0.0, 0.05, 1e-3,
                         method="implicit-midpoint")
        assert len(traj) - 1 == 50
        assert len(calls) / 50 <= 6

    def test_implicit_midpoint_rejects_non_contracting_step(self, oscillator_problem):
        # dt * L / 2 = 1.5 for the unit oscillator: the iteration diverges
        with pytest.raises(SolverError, match="did not contract"):
            integrate(oscillator_problem, np.array([1.0, 0.0]), 0.0, 6.0, 3.0,
                      method="implicit-midpoint")

    def test_unknown_method_rejected(self, oscillator_problem):
        with pytest.raises(SolverError, match="method"):
            integrate(oscillator_problem, np.array([1.0, 0.0]), 0.0, 1.0, 1e-2,
                      method="euler")

    def test_nonpositive_step_rejected(self, oscillator_problem):
        with pytest.raises(SolverError, match="dt"):
            integrate(oscillator_problem, np.array([1.0, 0.0]), 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("t1", [-1.0, 0.0, np.inf, np.nan, 4e-4, 1e306])
    def test_nonpositive_span_rejected(self, oscillator_problem, t1):
        with pytest.raises(SolverError, match="span"):
            integrate(oscillator_problem, np.array([1.0, 0.0]), 0.0, t1, 1e-3)


def legendre_disc_state():
    """A (phi, xi) on the catalog disc's phase support, from the Lagrangian side."""
    phi = np.array([0.3])
    xi = build_system("rolling_disc").lagrangian.grad_y(phi, np.array([1.0, -0.5, 0.0, 0.0]))
    return np.concatenate([phi, xi])


class TestPerStepPath:
    @pytest.mark.parametrize("system, formalism, state0, method", [
        ("harmonic_oscillator", "hamiltonian", np.array([1.0, 0.0]), "rk4"),
        ("rolling_disc", "hamiltonian", legendre_disc_state(), "rk4"),
        ("euler_top", "lagrangian", np.array([1.0, 0.5, 0.2]), "implicit-midpoint"),
    ], ids=["legendre-oscillator", "legendre-disc", "midpoint-euler-top"])
    def test_no_numpy_linalg_wrapper(self, monkeypatch, system, formalism, state0, method):
        # the Hamiltonians come from the numerical Legendre transform; the
        # disc's pins its constrained momentum rates through hess_xi
        problem = build_problem(build_system(system), formalism)

        def banned(*args, **kwargs):
            raise AssertionError("a numpy.linalg wrapper ran on the per-step path")

        monkeypatch.setattr(np.linalg, "norm", banned)
        monkeypatch.setattr(np.linalg, "solve", banned)
        traj = integrate(problem, state0, 0.0, 0.05, 1e-3, method=method)
        assert len(traj) == 51


class TestAdmissibility:
    def test_rolling_disc_constraint_maintenance(self, disc_problem, disc_induced):
        traj = integrate(disc_problem, np.array([0.0, 1.0, 2.0]), 0.0, 1.0, 1e-2)
        report = admissibility_report(disc_induced, traj)
        assert report.max <= 1e-9
        # slip velocities reconstructed in the unreduced coordinates
        R = 1.0
        phi = traj.states[:, 0]
        y2 = traj.states[:, 2]
        xdot1 = 0.0 + R * y2 * np.cos(phi)  # pinned slip + rolling component
        assert np.max(np.abs(xdot1 - R * y2 * np.cos(phi))) <= 1e-7

    def test_oscillator_velocity_match(self, oscillator_problem):
        bundle = build_system("harmonic_oscillator")
        traj = integrate(oscillator_problem, np.array([0.5, 0.0]), 0.0, 1.0, 1e-2)
        report = admissibility_report(bundle.dirac, traj)
        assert report.max <= 1e-10

    def test_corrupted_trajectory_detected(self, disc_problem, disc_induced):
        traj = integrate(disc_problem, np.array([0.0, 1.0, 2.0]), 0.0, 0.2, 1e-2)
        states = traj.states.copy()
        states[:, 1:] += 1e-3  # perturb the fiber channel
        corrupted = Trajectory(
            traj.times, states, traj.rates, traj.monitors,
            traj.newton_iterations, traj.residual_norms, traj.problem,
        )
        report = admissibility_report(disc_induced, corrupted)
        assert report.max >= 1e-4

        # the oscillator is x-independent: one product over the samples
        bundle = build_system("harmonic_oscillator")
        problem = build_problem(bundle, "lagrangian")
        traj = integrate(problem, np.array([0.5, 0.0]), 0.0, 0.2, 1e-2)
        states = traj.states.copy()
        states[:, 1] += 1e-3  # perturb the velocity channel
        corrupted = Trajectory(
            traj.times, states, traj.rates, traj.monitors,
            traj.newton_iterations, traj.residual_norms, traj.problem,
        )
        assert bundle.dirac.x_independent
        assert admissibility_report(bundle.dirac, corrupted).max >= 1e-4
        rates = traj.rates.copy()
        rates[3, 0] = np.nan
        corrupted = Trajectory(
            traj.times, traj.states, rates, traj.monitors,
            traj.newton_iterations, traj.residual_norms, traj.problem,
        )
        with pytest.raises(EvaluationError, match="coordinate block 'xdot'"):
            admissibility_report(bundle.dirac, corrupted)

    @pytest.mark.parametrize("system,formalism,source", [
        (name, formalism, source)
        for name, spec in sorted(CATALOG.items())
        for formalism in spec.formalisms
        for source in (("legendre", "closed") if formalism == "hamiltonian" else (None,))
    ])
    def test_report_matches_per_sample_oracle(self, monkeypatch, system, formalism, source):
        bundle = build_system(system)
        dirac = bundle.dirac
        n = dirac.chart.base_dim
        if formalism == "lagrangian":
            problem = lagrangian_problem(dirac, bundle.lagrangian)

            def velocity_slot(state):
                return dirac.embed_fiber(state[n:])
        elif formalism == "hamiltonian":
            ham = bundle.hamiltonian(source)
            problem = hamiltonian_problem(dirac, ham)

            def velocity_slot(state):
                return ham.grad_xi(state[:n], state[n:])
        else:
            q = bundle.control.control_dim
            problem = pmp_problem(bundle.control, dirac)

            def velocity_slot(state):
                return bundle.control.f(state[:n], state[n:n + q])
        rng = np.random.default_rng(5)
        state0 = project_initial(problem, 0.5 * rng.standard_normal(problem.state_dim))
        traj = integrate(problem, state0, 0.0, 0.05, 1e-2)
        calls = []
        residual = DiracAlgebroid.velocity_residual
        monkeypatch.setattr(DiracAlgebroid, "velocity_residual",
                            lambda self, pair: calls.append(1) or residual(self, pair))
        for bump in (0.0, 1e-3):
            # off the solution too, so that the norms are not all zero
            states = traj.states + bump * rng.standard_normal(traj.states.shape)
            rates = traj.rates + bump * rng.standard_normal(traj.rates.shape)
            sampled = Trajectory(traj.times, states, rates, traj.monitors,
                                 traj.newton_iterations, traj.residual_norms, problem)
            del calls[:]
            report = admissibility_report(dirac, sampled)
            assert len(calls) == (0 if dirac.x_independent else len(traj))
            expected = [
                float(np.max(np.abs(residual(dirac, VelocityPair(s[:n], r[:n], velocity_slot(s)))),
                             initial=0.0))
                for s, r in zip(states, rates)
            ]
            assert report.norms.tolist() == expected


class TestEnergy:
    def test_rolling_disc_energy_expression(self, disc_problem, disc_lagrangian):
        traj = integrate(disc_problem, np.array([0.0, 1.0, 2.0]), 0.0, 1.0, 1e-2)
        expected = 0.5 * 1.0 * 1.0 ** 2 + 0.5 * 2.0 * 2.0 ** 2
        assert np.max(np.abs(traj.monitors["energy"] - expected)) <= 1e-10

    def test_monitor_matches_direct_evaluation(self, disc_lagrangian):
        x, y = np.array([0.3]), np.array([1.0, 2.0, 0.0, 0.0])
        direct = disc_lagrangian.energy(x, y)
        assert direct == pytest.approx(float(y @ disc_lagrangian.grad_y(x, y))
                                       - disc_lagrangian(x, y))

    def test_fiber_linear_lagrangian_has_zero_energy(self):
        lag = Lagrangian(lambda x, y: 2.0 * y[0] - y[1])
        assert lag.energy(np.zeros(1), np.array([3.0, 4.0])) == pytest.approx(0.0, abs=1e-9)


class TestReconstruction:
    def test_hamiltonian_pinned_momentum_rates(self, disc_induced, disc_hamiltonian,
                                               disc_lagrangian):
        # the reconstructed rates of the pinned components follow the closed
        # form obtained by differentiating the phase constraints in time
        problem = hamiltonian_problem(disc_induced, disc_hamiltonian)
        mu, J1 = 0.5, 1.0
        rng = np.random.default_rng(0)
        for _ in range(5):
            phi = rng.standard_normal(1)
            y = np.array([rng.standard_normal(), rng.standard_normal(), 0.0, 0.0])
            xi = disc_lagrangian.grad_y(phi, y)
            state = np.concatenate([phi, xi])
            rate, _, _ = solve_rate(problem, 0.0, state)
            expected3 = -mu / J1 * xi[0] * xi[1] * np.sin(phi[0])
            expected4 = mu / J1 * xi[0] * xi[1] * np.cos(phi[0])
            assert abs(rate[3] - expected3) <= 1e-7 * (1.0 + abs(expected3))
            assert abs(rate[4] - expected4) <= 1e-7 * (1.0 + abs(expected4))

    def test_pmp_control_rate_follows_costate(self):
        bundle = build_system("lqr_pmp")
        problem = build_problem(bundle, "pmp")
        state = project_initial(problem, np.array([1.0, 0.0, 0.0]))
        rate, _, _ = solve_rate(problem, 0.0, state)
        # u = xi along the flow, so udot must equal xidot = x
        assert abs(rate[1] - rate[2]) <= 1e-7
        assert abs(rate[1] - state[0]) <= 1e-7
