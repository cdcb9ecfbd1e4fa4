import numpy as np
import pytest
from scipy.linalg.lapack import dgesv, dgetrf, dgetrs

from diracmech import (CanonicalDirac, ScenarioError, StructureError, integrate,
                       legendre_transform)
from diracmech.linalg import max_principal_angle
from diracmech import systems
from diracmech.systems import CATALOG, build_problem, build_system


def test_catalog_has_six_systems():
    assert len(CATALOG) == 6


def test_unknown_parameter_rejected():
    with pytest.raises(ScenarioError, match="unknown parameter"):
        build_system("harmonic_oscillator", params={"stiffness": 2.0})


def test_unknown_system_raises_key_error():
    with pytest.raises(KeyError):
        build_system("spinning_top")


def test_constraint_override_uses_one_based_indices(disc_induced):
    bundle = build_system("rolling_disc", constraint_override={"fiber": [3, 4]})
    rng = np.random.default_rng(0)
    x, xi = rng.standard_normal(1), rng.standard_normal(4)
    assert max_principal_angle(
        bundle.dirac.basis_matrix_at(x, xi),
        disc_induced.basis_matrix_at(x, xi),
    ) <= 1e-12


def test_unknown_hamiltonian_source_rejected():
    # no silent fallback to the numerical Legendre transform
    message = "^unknown Hamiltonian source 'bogus': expected 'legendre' or 'closed'$"
    bundle = build_system("rolling_disc")
    with pytest.raises(ScenarioError, match=message):
        bundle.hamiltonian("bogus")
    with pytest.raises(ScenarioError, match=message):
        build_problem(bundle, "hamiltonian", hamiltonian_source="bogus")


def test_hamiltonian_needs_a_lagrangian():
    bundle = systems.SystemBundle("bare", CanonicalDirac(1))
    with pytest.raises(ScenarioError, match="^system bare has no Lagrangian$"):
        bundle.hamiltonian()


@pytest.mark.parametrize("formalism, message", [
    ("pmp", "system harmonic_oscillator has no control formalism"),
    ("bogus", "unknown formalism 'bogus'"),
])
def test_build_problem_rejects_a_formalism_it_cannot_build(formalism, message):
    with pytest.raises(ScenarioError, match=f"^{message}$"):
        build_problem(build_system("harmonic_oscillator"), formalism)


def test_zero_based_override_rejected():
    with pytest.raises(ScenarioError, match="1-based"):
        build_system("rolling_disc", constraint_override={"fiber": [0, 3]})


@pytest.mark.parametrize("override", [{}, {"fiber": []}, {"fiber": [], "base": []}])
def test_empty_override_rejected(override):
    with pytest.raises(ScenarioError, match="empty constraint override"):
        build_system("rolling_disc", constraint_override=override)


def test_constrained_particle_integrates():
    bundle = build_system("canonical_particle", constraint_override={"fiber": [2]})
    problem = build_problem(bundle, "lagrangian")
    assert problem.state_dim == 3  # (x1, x2, y1)
    traj = integrate(problem, np.array([0.0, 0.0, 1.0]), 0.0, 1.0, 1e-2)
    assert abs(traj.states[-1][0] - 1.0) <= 1e-9
    assert abs(traj.states[-1][1]) <= 1e-12


@pytest.mark.parametrize("system,constraint", [(name, None) for name in sorted(CATALOG)] + [
    ("canonical_particle", {"fiber": [2]}),
])
def test_every_structure_but_the_rolling_disc_tabulates(system, constraint):
    # the induced canonical structure keeps the fact through its algebroid
    dirac = build_system(system, constraint_override=constraint).dirac
    assert dirac.x_independent is (system != "rolling_disc")


def test_systems_without_constraints_reject_them():
    for name in ("forced_oscillator_timedep", "lqr_pmp"):
        with pytest.raises(ScenarioError, match="constraint"):
            build_system(name, constraint_override={"fiber": [1]})


def test_hamiltonian_sources_agree():
    bundle = build_system("harmonic_oscillator", params={"mass": 2.0, "spring": 3.0})
    closed = bundle.hamiltonian("closed")
    transformed = bundle.hamiltonian("legendre")
    rng = np.random.default_rng(1)
    for _ in range(10):
        x, xi = rng.standard_normal(1), rng.standard_normal(1)
        assert abs(closed(x, xi) - transformed(x, xi)) <= 1e-10


def test_missing_formalism_rejected():
    bundle = build_system("lqr_pmp")
    with pytest.raises(ScenarioError, match="Lagrangian"):
        build_problem(bundle, "lagrangian")
    with pytest.raises(ScenarioError, match="closed-form"):
        bundle.hamiltonian("closed")


def _counted_disc_mass(monkeypatch, calls):
    """Patch ``rolling_disc_mass`` so that its M and dM log their calls."""
    mass, mass_diff = systems.rolling_disc_mass()

    def logged(name, fn):
        def field(x):
            calls[name] += 1
            return fn(x)
        return field

    monkeypatch.setattr(systems, "rolling_disc_mass", lambda *params: (
        logged("M", mass), logged("dM", mass_diff)))


def test_disc_lagrangian_reads_its_mass_matrix_once_per_base_point(monkeypatch, assemblies):
    calls = {"M": 0, "dM": 0}
    _counted_disc_mass(monkeypatch, calls)
    problem = build_problem(build_system("rolling_disc"), "lagrangian")
    calls.update(M=0, dM=0)
    energy = problem.monitors["energy"]
    for k, state in enumerate([[0.3, 1.0, 2.0], [0.3, -1.0, 0.5], [0.7, 1.0, 2.0]]):
        problem.affine(0.0, np.array(state))  # one assembly ...
        energy(0.0, np.array(state))  # ... and the monitor after it
        assert calls == {"M": 1 + (k == 2), "dM": 1 + (k == 2)}

    # along a run: once per change of x between consecutive assemblies, and
    # each state is assembled once, also where the accepted state repeats
    # rk4's last stage at a time one roundoff apart
    assemblies.clear()
    calls.update(M=0, dM=0)
    integrate(problem, np.array([0.3, 1.0, 2.0]), 0.0, 0.05, 0.005)
    xs = [s[0] for s in assemblies]
    changes = sum(1 for k, x in enumerate(xs) if k == 0 or x != xs[k - 1])
    assert len({s.tobytes() for s in assemblies}) == len(assemblies)
    assert calls == {"M": changes, "dM": changes}


def test_disc_hamiltonian_reads_dM_once_per_state(monkeypatch, assemblies):
    calls = {"M": 0, "dM": 0}
    _counted_disc_mass(monkeypatch, calls)
    ham = build_system("rolling_disc").closed_hamiltonian
    x, xi = np.array([0.4]), np.array([1.0, -0.5, 0.3, 0.2])
    ham.grad_x(x, xi)
    ham.hess_xi(x, xi)
    ham(x, xi)
    assert calls == {"M": 1, "dM": 1}

    problem = build_problem(build_system("rolling_disc"), "hamiltonian",
                            hamiltonian_source="closed")
    calls.update(M=0, dM=0)
    integrate(problem, np.array([0.3, 1.0, 2.0, 0.5, -0.4]), 0.0, 0.05, 0.005)
    assert len(assemblies) > 11
    assert calls == {"M": len(assemblies), "dM": len(assemblies)}


def test_lqr_constant_partials_are_built_once_and_read_only():
    control = build_system("lqr_pmp", {"r": 2.5}).control
    x, u = np.array([0.3]), np.array([-0.2])
    for name, value in (("f_x", [[0.0]]), ("f_u", [[1.0]]), ("f_u_xu", [[[0.0, 0.0]]]),
                        ("cost_u_xu", [[0.0, 2.5]])):
        first = getattr(control, name)(x, u)
        assert getattr(control, name)(-x, 3.0 * u) is first
        assert np.array_equal(first, value) and not first.flags.writeable


def test_memoised_lagrangian_is_bitwise_a_fresh_one():
    # the disc (x-dependent M and dM), the Euler top (a point base) and the
    # oscillator (constant M with a potential)
    cases = [
        (lambda: systems.rolling_disc_lagrangian(1.1, 0.9, 1.05, 1.2),
         [(np.array([0.4]), np.array([1.0, -2.0, 0.5, 0.25])),
          (np.array([-1.3]), np.array([0.3, 0.7, -0.1, 2.0]))]),
        (lambda: build_system("euler_top", {"J3": 3.5}).lagrangian,
         [(np.zeros(0), np.array([1.0, -2.0, 0.5])), (np.zeros(0), np.array([0.3, 0.7, -0.1]))]),
        (lambda: build_system("harmonic_oscillator", {"spring": 2.5}).lagrangian,
         [(np.array([0.4]), np.array([1.0])), (np.array([-1.3]), np.array([-0.2]))]),
    ]
    for build, points in cases:
        lag = build()
        for x, y in points * 3:
            fresh = build()
            assert lag(x, y) == fresh(x, y)
            assert lag.energy(x, y) == fresh.energy(x, y)
            for partial in ("grad_x", "grad_y", "hess_yy", "hess_yx"):
                assert np.array_equal(getattr(lag, partial)(x, y), getattr(fresh, partial)(x, y))


def test_quadratic_constant_partials_are_built_once_and_read_only():
    # without dM, hess_yx is constant zeros, and grad_x too without a potential
    lag = systems.quadratic_lagrangian(lambda x: np.diag([1.0, 2.0]))
    ham = systems.quadratic_hamiltonian(lambda x: np.diag([1.0, 2.0]))
    points = [(np.array([0.3]), np.array([1.0, -2.0])), (np.array([-1.2]), np.array([0.5, 0.25]))]
    for partial, shape in ((lag.hess_yx, (2, 1)), (lag.grad_x, (1,)), (ham.grad_x, (1,))):
        first = partial(*points[0])
        assert partial(*points[1]) is first
        assert first.shape == shape and not first.any() and not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 1.0
    # a point base reads the zero arrays of its own (empty) shapes
    assert lag.grad_x(np.zeros(0), np.ones(2)).shape == (0,)
    assert lag.hess_yx(np.zeros(0), np.ones(2)).shape == (2, 0)


@pytest.mark.parametrize("builder", ["lagrangian", "hamiltonian"])
@pytest.mark.parametrize("terms", ["dM", "potential"])
def test_quadratic_partials_with_dM_or_a_potential_are_fresh(builder, terms):
    def mass(x):
        return np.diag([2.0 + np.sin(x[0]), 1.5])

    def mass_diff(x):
        return np.array([np.diag([np.cos(x[0]), 0.0])])

    kwargs = ({"mass_matrix": mass, "mass_matrix_diff": mass_diff} if terms == "dM" else
              {"mass_matrix": lambda x: np.diag([2.0, 1.5]),
               "potential": lambda x: float(np.cos(x[0])),
               "potential_grad": lambda x: np.array([-np.sin(x[0])])})
    system = getattr(systems, f"quadratic_{builder}")(**kwargs)
    partials = ["grad_x"] + (["hess_yx"] if builder == "lagrangian" and terms == "dM" else [])
    x, v = np.array([0.3]), np.array([1.0, -2.0])
    for name in partials:
        partial = getattr(system, name)
        first = partial(x, v)
        expected = first.copy()
        assert first.flags.writeable and first.any()
        first.fill(np.nan)
        again = partial(x, v)
        assert again is not first and np.array_equal(again, expected)


@pytest.mark.parametrize("builder", ["lagrangian", "hamiltonian"])
@pytest.mark.parametrize("given", ["potential", "potential_grad"])
def test_potential_and_its_gradient_come_together(builder, given):
    # a potential without its gradient used to drop the force silently: the
    # oscillator below stood still at x = 1 instead of reaching cos(1)
    halves = {"potential": lambda x: 0.5 * float(x[0] ** 2),
              "potential_grad": lambda x: np.array([x[0]])}
    missing = "potential_grad" if given == "potential" else "potential"
    with pytest.raises(StructureError, match=f"has no {missing}: give potential and"):
        getattr(systems, f"quadratic_{builder}")(lambda x: np.eye(1), **{given: halves[given]})


def test_lagrangian_hands_out_a_read_only_copy_of_the_mass_matrix():
    M = np.diag([1.0, 2.0])
    lag = systems.quadratic_lagrangian(lambda x: M)
    hess = lag.hess_yy(np.zeros(1), np.ones(2))
    assert np.array_equal(hess, M)
    with pytest.raises(ValueError, match="read-only"):
        hess[0, 0] = 5.0
    assert M.flags.writeable  # the caller's own array is left as it was


def _stacked_hess_xi(source, M, dM, L, H, x, xi):
    """hess_xi as one ``np.hstack`` of its x- and xi-columns: for the closed
    form from the LU factors of M against ``np.eye``, for the Legendre
    transform from ``dgesv`` at H's inverse point y = dH/dxi."""
    m = xi.size
    if source == "legendre":
        y = H.grad_xi(x, xi)
        rhs = np.hstack([-L.hess_yx(x, y), np.eye(m)])
        return dgesv(L.hess_yy(x, y), rhs, overwrite_b=1)[2]
    lu, piv, _ = dgetrf(M(x))
    w = dgetrs(lu, piv, xi)[0]
    inverse = dgetrs(lu, piv, np.eye(m))[0]
    if dM is None:
        return np.hstack([np.zeros((m, x.size)), inverse])
    return np.hstack([-inverse @ np.einsum("aij,j->ia", dM(x), w), inverse])


@pytest.mark.parametrize("with_dM", [True, False], ids=["dM", "no-dM"])
@pytest.mark.parametrize("source", ["closed", "legendre"])
def test_hess_xi_is_the_stacked_form_bitwise_and_fresh(source, with_dM):
    M, dM = systems.rolling_disc_mass(1.1, 0.9, 1.05, 1.2)
    dM = dM if with_dM else None
    L = systems.quadratic_lagrangian(M, dM)
    rng = np.random.default_rng(5)
    H = (systems.quadratic_hamiltonian(M, dM) if source == "closed" else
         legendre_transform(L, [(rng.standard_normal(1), rng.standard_normal(4))]))
    for _ in range(4):
        x, xi = rng.standard_normal(1), rng.standard_normal(4)
        expected = _stacked_hess_xi(source, M, dM, L, H, x, xi)
        first = H.hess_xi(x, xi)
        assert first.tobytes() == expected.tobytes() and first.shape == (4, 5)
        first[...] = np.nan  # a caller's edit reaches neither a later call nor a memo
        assert H.hess_xi(x, xi).tobytes() == expected.tobytes()
