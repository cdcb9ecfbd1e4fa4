import numpy as np
import pytest

from diracmech import (
    AffineConstraint,
    BasePointMismatchError,
    CanonicalDirac,
    Chart,
    ConstraintError,
    GeneralLocalDirac,
    LinearConstraint,
    OmegaGraphDirac,
    PiGraphDirac,
    PontryaginPoint,
    SkewAlgebroid,
    StructureError,
    TimeExtendedDirac,
    VelocityPair,
    induce,
    integrate,
    lagrangian_problem,
    pairing,
    project_initial,
    solve_rate,
)
from diracmech.checks import isotropy_check
from diracmech.linalg import annihilator, max_principal_angle
from diracmech.errors import EvaluationError
from diracmech.systems import (
    build_problem,
    build_system,
    quadratic_lagrangian,
    rolling_disc_algebroid,
    rolling_disc_lagrangian,
    so3_algebroid,
)

from conftest import (
    make_frame_algebroid,
    make_general_local,
    make_random_omega,
    make_random_pigraph,
    scale_dual,
    scale_fiber,
    with_entry,
)


OFF_SUPPORT = r"^\(x, xi\) is not in the phase support: residual \[1\.\]$"


def _off_support():
    """(structure, x) with x^A = 1 on its support coordinate: the canonical
    structure on R^2 induced by x^1 = 0, and its clock extension."""
    dirac = induce(CanonicalDirac(2), LinearConstraint(base=(0,)))
    return [(dirac, np.array([1.0, 0.5])),
            (TimeExtendedDirac(dirac), np.array([3.0, 1.0, 0.5]))]


def member_from_basis(dirac, x, xi, coeffs):
    basis = dirac.basis_matrix_at(x, xi)
    return PontryaginPoint.from_fiber_vector(x, xi, basis @ coeffs)


def canonical_like_omega(n):
    return OmegaGraphDirac(
        Chart(n, n),
        rho=lambda x: np.eye(n),
        cform=lambda x: np.zeros((n, n, n)),
    )


class TestPairing:
    def test_vanishes_against_zero_covector_part(self):
        a = PontryaginPoint([0.0], [0.0], [1.7], [2.2], [0.0], [0.0])
        b = PontryaginPoint([0.0], [0.0], [-3.0], [0.4], [1.0], [2.0])
        assert pairing(a, b) == pytest.approx(0.5 * (1.0 * 1.7 + 2.0 * 2.2))
        assert pairing(a, a) == 0.0

    def test_quadratic_form_value(self):
        p = PontryaginPoint([0.0], [0.0], [1.0], [4.0], [2.0], [3.0])
        assert pairing(p, p) == pytest.approx(14.0)

    def test_isotropy_of_graph_subspace(self, disc_pi):
        rng = np.random.default_rng(0)
        x, xi = rng.standard_normal(1), rng.standard_normal(4)
        points = disc_pi.basis_at(x, xi)
        for i, a in enumerate(points):
            for b in points[i:]:
                assert abs(pairing(a, b)) <= 1e-12

    def test_base_point_mismatch_raises(self):
        a = PontryaginPoint([0.0], [0.0], [1.0], [0.0], [0.0], [0.0])
        b = PontryaginPoint([1.0], [0.0], [1.0], [0.0], [0.0], [0.0])
        with pytest.raises(BasePointMismatchError):
            pairing(a, b)


class TestResidual:
    def test_canonical_member(self, canonical1):
        p = PontryaginPoint([0.2], [0.5], [2.0], [-5.0], [5.0], [2.0])
        assert np.allclose(canonical1.residual(p), [0.0, 0.0], atol=0)

    def test_induced_rolling_disc_member(self, disc_induced):
        rng = np.random.default_rng(1)
        phi = rng.standard_normal(1)
        xi = rng.standard_normal(4)
        y1, y2, p = 0.3, -1.1, 0.8
        s, c = np.sin(phi[0]), np.cos(phi[0])
        point = PontryaginPoint(
            phi, xi, [y1],
            [y2 * xi[2] * s - y2 * xi[3] * c - p,
             -y1 * xi[2] * s + y1 * xi[3] * c,
             0.37, -2.0],
            [p], [y1, y2, 0.0, 0.0],
        )
        assert np.max(np.abs(disc_induced.residual(point))) <= 1e-12

    def test_zero_fiber_point_is_member(self, disc_pi):
        p = PontryaginPoint([0.3], [1.0, 2.0, 3.0, 4.0],
                            np.zeros(1), np.zeros(4), np.zeros(1), np.zeros(4))
        assert np.allclose(disc_pi.residual(p), 0.0, atol=0)


class TestBasis:
    def test_canonical_defining_equations(self, canonical1):
        points = canonical1.basis_at(np.zeros(1), np.zeros(1))
        assert len(points) == 2
        for p in points:
            assert np.allclose(p.xdot - p.y, 0.0, atol=1e-12)
            assert np.allclose(p.xidot + p.p, 0.0, atol=1e-12)

    def test_induced_rolling_disc_dimension(self, disc_induced):
        rng = np.random.default_rng(2)
        basis = disc_induced.basis_matrix_at(rng.standard_normal(1), rng.standard_normal(4))
        assert basis.shape == (10, 5)

    def test_omega_graph_matches_canonical(self, canonical1):
        omega = canonical_like_omega(1)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x, xi = rng.standard_normal(1), rng.standard_normal(1)
            a = canonical1.basis_matrix_at(x, xi)
            b = omega.basis_matrix_at(x, xi)
            assert max_principal_angle(a, b) <= 1e-10

    def test_phase_precondition_enforced(self):
        # off the support x^1 = 0 of a base constraint, clocked or not
        for dirac, x in _off_support():
            with pytest.raises(ConstraintError, match=OFF_SUPPORT):
                dirac.basis_at(x, np.array([0.5, -1.0]))

    def test_rank_deficiency_reports_numeric_rank(self):
        # etahat with a repeated row cannot define a maximal subspace
        broken = GeneralLocalDirac(
            Chart(1, 1),
            lambda x: (np.zeros((0, 2)), np.array([[1.0, -1.0], [1.0, -1.0]]), np.zeros((0, 2))),
        )
        with pytest.raises(StructureError, match="numeric rank"):
            broken.basis_at(np.zeros(1), np.zeros(1))

    def test_isotropy_reports_rank_deficiency_and_points_off_the_support(self, monkeypatch):
        # the isotropy check and ``isotropy_violation`` share the rank and
        # dimension rule of ``basis_matrix_at``, and its messages
        broken = GeneralLocalDirac(
            Chart(1, 1),
            lambda x: (np.zeros((0, 2)), np.array([[1.0, -1.0], [1.0, -1.0]]), np.zeros((0, 2))),
        )
        rank = r"^pointwise subspace has dimension 3, expected 2 \(numeric rank 1\)$"
        for violation in (lambda: broken.isotropy_violation(np.zeros(1), np.zeros(1)),
                          lambda: isotropy_check(broken)):
            with pytest.raises(StructureError, match=rank):
                violation()
        for dirac, x in _off_support():
            with pytest.raises(ConstraintError, match=OFF_SUPPORT):
                dirac.isotropy_violation(x, np.zeros(2))
            # a later probe off the support fails the whole check
            on = dirac.project_support(x)
            points = iter([(on, np.zeros(2))] * 3 + [(x, np.zeros(2))])
            monkeypatch.setattr(dirac, "sample_phase_point", lambda rng: next(points))
            with pytest.raises(ConstraintError, match=OFF_SUPPORT):
                isotropy_check(dirac, probes=4)


class TestVelocityResidual:
    def test_rolling_disc_graph_pair(self, disc_pi):
        pair = VelocityPair([0.7], [3.0], [3.0, 1.0, 0.0, 0.0])
        assert np.allclose(disc_pi.velocity_residual(pair), 0.0, atol=0)

    def test_canonical_pair(self, canonical1):
        pair = VelocityPair([0.0], [2.5], [2.5])
        assert np.allclose(canonical1.velocity_residual(pair), 0.0, atol=0)

    def test_anchor_mismatch_detected(self, disc_pi):
        pair = VelocityPair([0.7], [1.0], [0.0, 0.0, 0.0, 0.0])
        assert np.allclose(disc_pi.velocity_residual(pair), [1.0], atol=0)


class TestCore:
    def test_pi_graph_core_is_anchor_transpose_graph(self, random_pigraph):
        rng = np.random.default_rng(4)
        n, m = 2, 3
        for _ in range(5):
            x = rng.standard_normal(n)
            core = random_pigraph.core_at(x)
            rho = random_pigraph.algebroid.anchor(x)
            # oracle: annihilator of the anchor graph {(rho y, y)}, which is
            # spanned by the columns (p, xidot) = (e_a, -rho^T e_a)
            expected = np.vstack([np.eye(n), -rho.T])
            oracle = annihilator(np.hstack([(rho @ np.eye(m)).T, np.eye(m)]))
            assert max_principal_angle(expected, oracle) <= 1e-10
            assert core.shape[1] == n
            assert max_principal_angle(core, expected) <= 1e-10

    def test_canonical_core_direction(self, canonical1):
        core = canonical1.core_at(np.zeros(1))
        expected = np.array([[1.0], [-1.0]])
        assert max_principal_angle(core, expected) <= 1e-12

    def test_induced_core_is_annihilator_of_velocities(self, disc_induced):
        x = np.array([0.4])
        core = disc_induced.core_at(x)
        assert core.shape[1] == 3
        vel = disc_induced.velocity_space(x)
        assert vel.shape[1] == 2
        ann = annihilator(np.hstack([vel[:1].T, vel[1:].T]))
        assert max_principal_angle(core, ann) <= 1e-8


class TestPhase:
    def test_pi_graph_phase_is_everything(self, disc_pi):
        ok, res = disc_pi.phase_membership(np.array([2.0]), np.array([1.0, -1.0, 0.0, 9.0]))
        assert ok and res.size == 0

    def test_support_is_the_base_equation(self):
        # the phase equations are the selectors' x^A = 0, at any xi
        for dirac, x in _off_support():
            ok, res = dirac.phase_membership(x, np.array([0.5, -1.0]))
            assert not ok and np.array_equal(res, [1.0])
            ok, res = dirac.phase_membership(dirac.project_support(x), np.array([0.5, -1.0]))
            assert ok and np.array_equal(res, [0.0])

    def test_phase_residual_evaluates_the_phase_once(self, monkeypatch):
        # the clock extension defines no phase of its own: the shifted
        # support gives the base's values, with a zero clock column in P
        (dirac, x), (clocked, tx) = _off_support()
        assert "_phase" not in vars(TimeExtendedDirac)
        value, P = dirac._phase(x)
        assert np.array_equal(value, [1.0]) and np.array_equal(P, np.eye(1, 4))
        clocked_value, clocked_P = clocked._phase(tx)
        assert np.array_equal(clocked_value, value)
        assert np.array_equal(clocked_P, np.hstack([np.zeros((1, 1)), P]))
        for structure, at in ((dirac, x), (clocked, tx)):
            calls = []
            phase = structure._phase
            monkeypatch.setattr(structure, "_phase", lambda x: calls.append(1) or phase(x))
            assert np.array_equal(structure.phase_residual(at, np.array([0.5, -1.0])), value)
            assert len(calls) == 1

    def test_sample_phase_point_is_a_projected_normal_x_and_a_normal_xi(self):
        for dirac, _ in _off_support():
            n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
            rng, twin = np.random.default_rng(0), np.random.default_rng(0)
            for _ in range(3):
                x, xi = dirac.sample_phase_point(rng)
                x_ref = dirac.project_support(twin.standard_normal(n))
                xi_ref = twin.standard_normal(m)
                assert x.tobytes() == x_ref.tobytes() and xi.tobytes() == xi_ref.tobytes()
                assert dirac.phase_membership(x, xi)[0]

    def test_wrong_length_xi_or_y_is_an_evaluation_error(self):
        dirac = induce(CanonicalDirac(2), LinearConstraint(base=(0,)))
        for check in (dirac.phase_residual, dirac.phase_membership):
            with pytest.raises(EvaluationError, match=r"^xi has length 1, expected 2$"):
                check([0.0, 1.0], [1.0])
        pair = VelocityPair([0.0, 1.0], [0.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(EvaluationError, match=r"^y has length 3, expected 2$"):
            dirac.velocity_residual(pair)

    def test_induced_rolling_disc_unconstrained_phase(self, disc_induced):
        rng = np.random.default_rng(5)
        for _ in range(5):
            ok, _ = disc_induced.phase_membership(rng.standard_normal(1),
                                                  rng.standard_normal(4))
            assert ok


class TestInvariants:
    @pytest.mark.parametrize("builder", [
        lambda: PiGraphDirac(make_random_pigraph(seed=1)),
        lambda: CanonicalDirac(2),
        lambda: canonical_like_omega(2),
    ], ids=["pi-graph", "canonical", "omega-graph"])
    def test_isotropy_and_dimension(self, builder):
        dirac = builder()
        rng = np.random.default_rng(6)
        n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
        for _ in range(50):
            x, xi = dirac.sample_phase_point(rng)
            points = dirac.basis_at(x, xi)
            assert len(points) == n + m
            for i, a in enumerate(points):
                for b in points[i:]:
                    assert abs(pairing(a, b)) <= 1e-10

    def test_homothety_invariance(self, disc_induced, random_pigraph):
        rng = np.random.default_rng(7)
        for dirac in (disc_induced, random_pigraph):
            n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
            x, xi = dirac.sample_phase_point(rng)
            member = member_from_basis(dirac, x, xi, rng.standard_normal(n + m))
            assert np.max(np.abs(dirac.residual(member))) <= 1e-10
            for t in (0.0, 0.5, 2.0, -1.0):
                assert np.max(np.abs(dirac.residual(scale_fiber(member, t)))) <= 1e-9
                assert np.max(np.abs(dirac.residual(scale_dual(member, t)))) <= 1e-9

    def test_pairing_vanishes_on_members(self, disc_induced):
        rng = np.random.default_rng(8)
        for _ in range(10):
            x, xi = disc_induced.sample_phase_point(rng)
            member = member_from_basis(disc_induced, x, xi, rng.standard_normal(5))
            assert abs(pairing(member, member)) <= 1e-10

    def test_canonical_three_ways(self):
        canonical = CanonicalDirac(2)
        pi = PiGraphDirac(canonical.algebroid)
        omega = canonical_like_omega(2)
        rng = np.random.default_rng(9)
        for _ in range(10):
            x, xi = rng.standard_normal(2), rng.standard_normal(2)
            a = canonical.basis_matrix_at(x, xi)
            b = pi.basis_matrix_at(x, xi)
            c = omega.basis_matrix_at(x, xi)
            assert max_principal_angle(a, b) <= 1e-10
            assert max_principal_angle(a, c) <= 1e-10

    def test_core_equals_annihilator_on_probes(self, random_pigraph, disc_induced):
        rng = np.random.default_rng(10)
        for dirac in (random_pigraph, disc_induced):
            n = dirac.chart.base_dim
            for _ in range(20):
                x = dirac.project_support(rng.standard_normal(n))
                core = dirac.core_at(x)
                vel = dirac.velocity_space(x)
                ann = annihilator(np.hstack([vel[:n].T, vel[n:].T]))
                assert max_principal_angle(core, ann) <= 1e-8


class TestPiGraph:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unpinned_blocks_are_the_plain_graph(self, seed):
        algebroid = make_random_pigraph(seed=seed)
        dirac = PiGraphDirac(algebroid)
        n, m = algebroid.chart.base_dim, algebroid.chart.fiber_dim
        x = np.random.default_rng(seed).standard_normal(n)
        rho, c = algebroid.anchor(x), algebroid.structure(x)
        eta, etahat, zeta, offset = dirac.local_form(x)
        assert np.array_equal(eta, np.hstack([np.zeros((m, n)), np.eye(m)]))
        assert np.array_equal(etahat, np.hstack([np.eye(n), -rho]))
        assert np.array_equal(zeta, np.hstack([rho.T, np.eye(m)]))
        assert offset is None
        terms, drift = dirac.structure_terms(x)
        assert np.array_equal(terms, c) and drift is None

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_canonical_is_the_trivial_algebroid_graph(self, dim):
        eye, zero = np.eye(dim), np.zeros((dim, dim))
        x = np.random.default_rng(dim).standard_normal(dim)
        eta, etahat, zeta, offset = CanonicalDirac(dim).local_form(x)
        assert np.array_equal(eta, np.hstack([zero, eye]))
        assert np.array_equal(etahat, np.hstack([eye, -eye]))
        assert np.array_equal(zeta, np.hstack([eye, eye]))
        assert offset is None


    def test_embed_fiber_converts_only_what_is_not_float(self, disc_induced):
        # no fiber pinned: a float64 vector is its own embedding, an int one converts
        free = CanonicalDirac(2)
        y = np.array([1.0, 2.0])
        assert free.embed_fiber(y) is y
        embedded = free.embed_fiber(np.array([1, 2]))
        assert embedded.dtype == np.float64 and embedded.tolist() == [1.0, 2.0]
        # the disc pins fibers 2 and 3 to zero; the free ones are copied in
        embedded = disc_induced.embed_fiber(np.array([1, 2]))
        assert embedded.dtype == np.float64 and embedded.tolist() == [1.0, 2.0, 0.0, 0.0]


class TestTimeExtension:
    @pytest.mark.parametrize("base", [
        lambda: CanonicalDirac(1),
        lambda: PiGraphDirac(make_random_pigraph(seed=3)),
    ], ids=["canonical", "pi-graph"])
    def test_unconstrained_bases_build_lagrangian_problems(self, base):
        ext = TimeExtendedDirac(base())
        n, m = ext.chart.base_dim, ext.chart.fiber_dim
        lag = quadratic_lagrangian(lambda x: np.eye(m))
        problem = lagrangian_problem(ext, lag)
        assert problem.state_dim == n + m
        rate, _, _ = solve_rate(problem, 0.0, np.ones(n + m))
        assert rate[0] == pytest.approx(1.0)

    def test_keeps_the_base_selectors_past_the_clock(self, disc_pi):
        base = induce(disc_pi, AffineConstraint(fixed=1, fiber=(3,), base=(0,)))
        ext = TimeExtendedDirac(base)
        assert ext.zero_fiber == (3,) and ext.fixed_fiber == 1
        assert ext.zero_base == (1,) and ext.free_fiber == base.free_fiber
        assert np.array_equal(ext.project_support([0.5, 0.7]), [0.5, 0.0])

    def test_dimension_gains_clock_direction(self, canonical1):
        ext = TimeExtendedDirac(canonical1)
        assert ext.chart.base_dim == 2 and ext.chart.fiber_dim == 1
        basis = ext.basis_matrix_at(np.zeros(2), np.zeros(1))
        assert basis.shape == (6, 3)

    def test_members_have_unit_clock_speed(self, canonical1):
        ext = TimeExtendedDirac(canonical1)
        x, xi = np.array([0.3, 1.0]), np.array([0.5])
        J, const = ext.membership_system(x, xi)
        particular, *_ = np.linalg.lstsq(J, -const, rcond=None)
        member = PontryaginPoint.from_fiber_vector(x, xi, particular)
        assert member.xdot[0] == pytest.approx(1.0)
        assert np.max(np.abs(ext.residual(member))) <= 1e-12

    def test_clock_momentum_is_core_direction(self, canonical1):
        ext = TimeExtendedDirac(canonical1)
        core = ext.core_at(np.zeros(2))
        # directions (p0, p1, xidot): p0 free, (p1, xidot) tied as in the base
        assert core.shape[1] == 2
        lifted = np.zeros((3, 1))
        lifted[0, 0] = 1.0
        assert max_principal_angle(np.hstack([core, lifted]), core) <= 1e-10


class TestGeneralLocal:
    def test_velocity_splitting_validates(self):
        local = GeneralLocalDirac.from_velocity_splitting(
            Chart(1, 2),
            eta=lambda x: np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            etahat=lambda x: np.array([[1.0, -np.sin(x[0]), -2.0]]),
            structure=lambda x: np.array([[[0.0, 0.0], [x[0], 1.0]],
                                          [[-x[0], -1.0], [0.0, 0.0]]]),
        )
        local.validate([np.zeros(1), np.array([0.7]), np.array([-1.2])])

    def test_rank_deficient_zeta_rejected(self):
        local = GeneralLocalDirac(
            Chart(1, 2),
            lambda x: (np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                       np.array([[1.0, -1.0, 0.0]]),
                       np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])),
        )
        with pytest.raises(StructureError, match="zeta"):
            local.validate([np.zeros(1)])

    def test_singular_splitting_is_a_structure_error(self):
        # [eta; etahat] repeats a row: zeta would invert a singular matrix
        local = GeneralLocalDirac.from_velocity_splitting(
            Chart(1, 2),
            eta=lambda x: np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            etahat=lambda x: np.array([[0.0, 1.0, 0.0]]),
        )
        for use in (local.validate, local.local_form):
            with pytest.raises(StructureError, match=r"linear isomorphism at x=\[0"):
                use([0])

    @pytest.mark.parametrize("etahat, message", [
        (np.array([[1.0, np.nan, 0.0]]), r"etahat has non-finite entry at index \(0, 1\)"),
        (np.array([[1.0, -1.0, 0.0, 0.0]]),
         r"etahat has shape \(1, 4\), expected 2-D with 3 columns"),
    ], ids=["nan", "one-column-too-wide"])
    def test_bad_block_is_named(self, etahat, message):
        # before the membership rows, the SVD of the velocity space or a
        # numpy broadcast would fail without naming the block
        local = GeneralLocalDirac(
            Chart(1, 2),
            lambda x: (np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), etahat,
                       np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])),
        )
        for use in (local.local_form, local.velocity_space):
            with pytest.raises(EvaluationError, match=message):
                use(np.zeros(1))
        with pytest.raises(EvaluationError, match=message):
            local.membership_system(np.zeros(1), np.ones(2))

    def test_each_user_field_is_evaluated_once_per_membership_system(self):
        calls = {}

        def counted(name, fn):
            def field(x):
                calls[name] = calls.get(name, 0) + 1
                return fn(x)
            return field

        canonical_blocks = (np.array([[0.0, 1.0]]), np.array([[1.0, -1.0]]), np.array([[1.0, 1.0]]))
        structures = {
            "blocks": GeneralLocalDirac(Chart(1, 1), counted("blocks", lambda x: canonical_blocks)),
            "splitting": GeneralLocalDirac.from_velocity_splitting(
                Chart(1, 1), counted("eta", lambda x: canonical_blocks[0]),
                counted("etahat", lambda x: canonical_blocks[1])),
            "omega-graph": OmegaGraphDirac(Chart(1, 1), rho=counted("rho", lambda x: np.eye(1)),
                                           cform=counted("cform", lambda x: np.zeros((1, 1, 1)))),
        }
        expected = {"blocks": {"blocks": 1}, "splitting": {"eta": 1, "etahat": 1},
                    "omega-graph": {"rho": 1, "cform": 1}}
        for name, dirac in structures.items():
            for x in (0.3, -1.2):
                calls.clear()
                dirac.membership_system(np.array([x]), np.array([0.5]))
                assert calls == expected[name], name

    @pytest.mark.parametrize("builder, message", [
        (lambda: GeneralLocalDirac.from_velocity_splitting(
            Chart(1, 1), eta=lambda x: np.array([[0.0, 1.0]]),
            etahat=lambda x: np.array([[1.0, -1.0]]), structure=lambda x: np.zeros((2, 2, 1))),
         r"^structure functions have 2 rows, eta has 1$"),
        (lambda: OmegaGraphDirac(Chart(2, 2), rho=lambda x: np.eye(2),
                                 cform=lambda x: np.zeros((1, 1, 2))),
         r"^structure functions have 1 rows, eta has 2$"),
        (lambda: OmegaGraphDirac(Chart(2, 2), rho=lambda x: np.eye(2),
                                 cform=lambda x: np.zeros((2, 2, 1))),
         r"^structure has shape \(2, 2, 1\), expected \(r, r, 2\)$"),
        (lambda: OmegaGraphDirac(Chart(2, 2), rho=lambda x: np.ones((2, 1)),
                                 cform=lambda x: np.zeros((2, 2, 2))),
         r"^rho has shape \(2, 1\), expected \(2, 2\)$"),
    ], ids=["general-local-rank", "omega-graph-rank", "omega-graph-fiber", "omega-graph-rho"])
    def test_fields_of_the_wrong_shape_are_evaluation_errors(self, builder, message):
        # named, before numpy's matmul meets the mismatch
        dirac = builder()
        with pytest.raises(EvaluationError, match=message):
            dirac.membership_system(np.zeros(dirac.chart.base_dim), np.ones(dirac.chart.fiber_dim))


def _lopsided(shape):
    """Coefficient field with c[0, 1, 0] = 1 and no antisymmetric partner."""
    c = np.zeros(shape)
    c[0, 1, 0] = 1.0
    return lambda x: c


@pytest.mark.parametrize("builder", [
    lambda: OmegaGraphDirac(Chart(2, 2), rho=lambda x: np.eye(2),
                            cform=_lopsided((2, 2, 2))),
    lambda: GeneralLocalDirac.from_velocity_splitting(
        Chart(1, 2),
        eta=lambda x: np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        etahat=lambda x: np.array([[1.0, -1.0, 0.0]]),
        structure=_lopsided((2, 2, 2)),
    ),
], ids=["cform", "general-local"])
def test_user_coefficients_must_be_antisymmetric(builder):
    dirac = builder()
    with pytest.raises(StructureError, match="antisymmetric"):
        dirac.membership_system(np.zeros(dirac.chart.base_dim),
                                np.ones(dirac.chart.fiber_dim))


class TestConstantBlocks:
    @pytest.mark.parametrize("builder, names", [
        (lambda: CanonicalDirac(2), ("eta",)),
        (lambda: PiGraphDirac(make_random_pigraph(seed=3)), ("eta",)),
        (lambda: canonical_like_omega(2), ("eta",)),
        (lambda: induce(PiGraphDirac(make_random_pigraph(seed=3)),
                        LinearConstraint(fiber=(2,))), ("eta",)),
    ], ids=["canonical", "pi-graph", "omega-graph", "induced"])
    def test_constant_blocks_are_shared_and_read_only(self, builder, names):
        dirac = builder()
        rng = np.random.default_rng(11)
        lf1, lf2 = (dirac.local_form(rng.standard_normal(2)) for _ in range(2))
        for name in names:
            block = getattr(lf1, name)
            assert block is getattr(lf2, name)
            with pytest.raises(ValueError):
                block[...] = 0.0

    def test_anchor_blocks_are_fresh_copies(self):
        for dirac in (PiGraphDirac(make_random_pigraph(seed=3)),
                      canonical_like_omega(2),
                      induce(PiGraphDirac(make_random_pigraph(seed=3)),
                             LinearConstraint(fiber=(2,)))):
            x = np.array([0.4, -0.7])
            for name in ("etahat", "zeta"):
                first = getattr(dirac.local_form(x), name)
                expected = first.copy()
                first[...] = np.nan
                assert np.array_equal(getattr(dirac.local_form(x), name), expected)

    @pytest.mark.parametrize("constrain", [
        lambda dirac: dirac,
        lambda dirac: induce(dirac, LinearConstraint(fiber=(2,))),
        lambda dirac: induce(dirac, AffineConstraint(fixed=0, fiber=(2,))),
    ], ids=["pi-graph", "linear-induced", "affine-induced"])
    def test_one_anchor_evaluation_per_membership_system(self, constrain):
        algebroid = make_random_pigraph(seed=3)
        calls = []

        def anchor(x):
            calls.append(x)
            return algebroid.anchor(x)

        dirac = constrain(PiGraphDirac(
            SkewAlgebroid(algebroid.chart, anchor, algebroid.structure)))
        assert calls == []  # induction evaluates no field
        dirac.membership_system(np.array([0.4, -0.7]), np.array([1.0, 2.0, 3.0]))
        assert len(calls) == 1

    @pytest.mark.parametrize("constrain", [
        lambda dirac: dirac,
        lambda dirac: induce(dirac, LinearConstraint(fiber=(2,))),
        lambda dirac: induce(dirac, AffineConstraint(fixed=0, fiber=(2,))),
    ], ids=["pi-graph", "linear-induced", "affine-induced"])
    def test_one_structure_evaluation_per_membership_system(self, constrain):
        algebroid = make_random_pigraph(seed=3)
        calls = []

        def structure(x):
            calls.append(x)
            return algebroid.structure(x)

        dirac = constrain(PiGraphDirac(
            SkewAlgebroid(algebroid.chart, algebroid.anchor, structure)))
        assert calls == []  # induction evaluates no field
        dirac.membership_system(np.array([0.4, -0.7]), np.array([1.0, 2.0, 3.0]))
        assert len(calls) == 1



def reference_membership(dirac, x, xi):
    """The membership rows (J, const) written out block by block from the
    local form and the structure terms, in the order of w = (xdot, xidot, p, y)."""
    n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
    lf = dirac.local_form(x)
    q = lf.etahat.shape[0]
    J = np.zeros((n + m, 2 * (n + m)))
    const = np.zeros(n + m)
    J[:q, :n] = lf.etahat[:, :n]
    J[:q, 2 * n + m:] = lf.etahat[:, n:]
    if lf.offset is not None:
        const[:q] = -lf.offset
    J[q:, n + m:2 * n + m] = lf.zeta[:, :n]
    J[q:, n:n + m] = lf.zeta[:, n:]
    c, drift = dirac.structure_terms(x)
    if c is not None:
        mix = np.einsum("abj,j->ab", c, xi) @ lf.eta
        J[q:, :n] += mix[:, :n]
        J[q:, 2 * n + m:] += mix[:, n:]
    if drift is not None:
        const[q:] += drift @ xi
    return J, const


class TestMembershipReference:
    """The x-dependent membership rows are bitwise the block-by-block formula,
    signed zeros included."""

    @pytest.mark.parametrize("builder", [
        lambda: PiGraphDirac(rolling_disc_algebroid()),
        lambda: PiGraphDirac(rolling_disc_algebroid(1.3), zero_fiber=(2, 3)),
        lambda: PiGraphDirac(rolling_disc_algebroid(), zero_fiber=(2,), fixed_fiber=3),
        lambda: PiGraphDirac(rolling_disc_algebroid(), zero_fiber=(1, 3), zero_base=(0,)),
        lambda: PiGraphDirac(make_frame_algebroid(5, 3)),
        lambda: PiGraphDirac(make_frame_algebroid(5, 3), zero_fiber=(1,)),
        lambda: PiGraphDirac(make_frame_algebroid(5, 3), zero_fiber=(2,), fixed_fiber=0),
        lambda: PiGraphDirac(make_frame_algebroid(5, 3), zero_base=(1,)),
        lambda: make_random_omega(seed=4),
        lambda: make_general_local(PiGraphDirac(make_random_pigraph(seed=4))),
        lambda: TimeExtendedDirac(PiGraphDirac(rolling_disc_algebroid(), zero_fiber=(2, 3))),
    ], ids=["disc", "disc-zero-fibers", "disc-fixed-fiber", "disc-base-support", "frame",
            "frame-zero-fiber", "frame-fixed-fiber", "frame-base-support", "omega-graph",
            "general-local", "clocked-disc"])
    def test_rows_are_the_block_formula_bitwise(self, builder):
        dirac = builder()
        assert not dirac.x_independent  # the rows come from the kernel at every call
        rng = np.random.default_rng(7)
        n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
        for _ in range(5):
            x, xi = rng.standard_normal(n), rng.standard_normal(m)
            J, const = dirac.membership_system(x, xi)
            J_ref, const_ref = reference_membership(dirac, x, xi)
            assert J.tobytes() == J_ref.tobytes() and J.shape == J_ref.shape
            assert const.tobytes() == const_ref.tobytes()


def _counted(algebroid, calls):
    """``algebroid`` with its anchor and structure fields logged into ``calls``."""
    def field(name, fn):
        def logged(x):
            calls[name] += 1
            return fn(x)
        return logged

    return SkewAlgebroid(algebroid.chart, field("anchor", algebroid.anchor),
                         field("structure", algebroid.structure), algebroid.name)


def _log_fields(algebroid, calls):
    """Log the instance's anchor and structure fields into ``calls``, keeping
    its x-independence."""
    for name in calls:
        fn = getattr(algebroid, f"_{name}_fn")

        def logged(x, name=name, fn=fn):
            calls[name] += 1
            return fn(x)

        setattr(algebroid, f"_{name}_fn", logged)


class TestTabulation:
    """Structures with x-independent coefficients tabulate their membership rows."""

    @pytest.mark.parametrize("builder, expected", [
        (lambda: PiGraphDirac(so3_algebroid()), True),
        (lambda: CanonicalDirac(2), True),
        (lambda: TimeExtendedDirac(PiGraphDirac(so3_algebroid())), True),
        (lambda: TimeExtendedDirac(CanonicalDirac(1)), True),
        (lambda: induce(CanonicalDirac(2), LinearConstraint(base=(0,))), True),
        (lambda: induce(CanonicalDirac(2), LinearConstraint(fiber=(1,))), True),
        (lambda: TimeExtendedDirac(induce(CanonicalDirac(2), LinearConstraint(base=(0,)))), True),
        (lambda: SkewAlgebroid.trivial(Chart(2, 2)), True),
        (lambda: PiGraphDirac(make_random_pigraph(seed=3)), False),
        (lambda: induce(PiGraphDirac(rolling_disc_algebroid()),
                        LinearConstraint(fiber=(2, 3))), False),
        (lambda: TimeExtendedDirac(PiGraphDirac(make_random_pigraph(seed=3))), False),
        # constant fields are never guessed: only the trivial constructor says so
        (lambda: PiGraphDirac(SkewAlgebroid(Chart(2, 2), lambda x: np.eye(2),
                                            lambda x: np.zeros((2, 2, 2)))), False),
        (lambda: SkewAlgebroid(Chart(2, 2), lambda x: np.eye(2),
                               lambda x: np.zeros((2, 2, 2))), False),
    ], ids=["point-base", "canonical", "clocked-point-base", "clocked-canonical",
            "base-induced-canonical", "fiber-induced-canonical",
            "clocked-base-induced-canonical", "trivial-algebroid", "pi-graph",
            "rolling-disc", "clocked-pi-graph", "hand-built-trivial-graph",
            "hand-built-trivial-algebroid"])
    def test_x_independence_is_a_fact_of_the_representation(self, builder, expected):
        owner = builder()
        assert owner.x_independent is expected
        with pytest.raises(AttributeError):
            owner.x_independent = not expected

    def test_trivial_algebroid_needs_equal_dimensions(self):
        with pytest.raises(ValueError, match="base_dim == fiber_dim"):
            SkewAlgebroid.trivial(Chart(2, 3))

    def test_point_base_evaluates_its_fields_m_plus_one_times(self):
        calls = {"anchor": 0, "structure": 0}
        dirac = PiGraphDirac(_counted(so3_algebroid(), calls))
        lag = quadratic_lagrangian(lambda x: np.diag([1.0, 2.0, 3.0]))
        traj = integrate(lagrangian_problem(dirac, lag), np.array([0.3, -0.2, 0.9]),
                         0.0, 0.1, 0.01)
        assert len(traj) == 11  # ten rk4 steps
        assert calls == {"anchor": 4, "structure": 4}

    def test_induced_canonical_evaluates_its_fields_m_plus_one_times(self):
        calls = {"anchor": 0, "structure": 0}
        dirac = induce(CanonicalDirac(2), LinearConstraint(fiber=(1,)))
        _log_fields(dirac.algebroid, calls)
        lag = quadratic_lagrangian(lambda x: np.eye(2))
        traj = integrate(lagrangian_problem(dirac, lag), np.array([0.3, -0.2, 0.9]),
                         0.0, 0.1, 0.01)
        assert len(traj) == 11  # ten rk4 steps
        assert calls == {"anchor": 3, "structure": 3}

    def test_clocked_catalog_oscillator_evaluates_its_fields_m_plus_one_times(self):
        # the clock extension tabulates through the trivial algebroid it extends
        calls = {"anchor": 0, "structure": 0}
        bundle = build_system("forced_oscillator_timedep")
        _log_fields(bundle.dirac.clock_base.algebroid, calls)
        problem = build_problem(bundle, "lagrangian")
        state0 = project_initial(problem, np.array([0.0, 1.0, 0.0]))
        traj = integrate(problem, state0, 0.0, 1.0, 0.01)
        assert len(traj) == 101  # a hundred rk4 steps
        assert calls == {"anchor": 2, "structure": 2}

    def test_rolling_disc_evaluates_its_fields_once_per_assembly(self, assemblies):
        calls = {"anchor": 0, "structure": 0}
        dirac = induce(PiGraphDirac(_counted(rolling_disc_algebroid(), calls)),
                       LinearConstraint(fiber=(2, 3)))
        problem = lagrangian_problem(dirac, rolling_disc_lagrangian())
        integrate(problem, np.array([0.0, 1.0, 2.0]), 0.0, 0.1, 0.01)
        assert len(assemblies) > 11
        assert calls == {"anchor": len(assemblies), "structure": len(assemblies)}

    @pytest.mark.parametrize("structure, error, message", [
        (lambda c: np.where(c == 1.0, np.nan, c), EvaluationError,
         r"structure has non-finite entry at index \(0, 1, 2\)"),
        (lambda c: np.abs(c), StructureError,
         r"structure functions: not antisymmetric in the first two indices, "
         r"c\[0,1,2\] \+ c\[1,0,2\] = 2\.000e\+00"),
    ], ids=["nan", "not-antisymmetric"])
    def test_bad_point_base_field_raises_on_first_call(self, structure, error, message):
        so3 = so3_algebroid()
        bad = structure(so3.structure(np.zeros(0)))
        dirac = PiGraphDirac(SkewAlgebroid(so3.chart, so3.anchor, lambda x: bad))
        xi = np.array([1.0, -2.0, 0.5])
        with pytest.raises(error, match=message) as direct:
            dirac._kernel(np.zeros(0), xi)
        for _ in range(2):  # a failed first use leaves no table behind
            with pytest.raises(error) as tabulated:
                dirac.membership_system(np.zeros(0), xi)
            assert str(tabulated.value) == str(direct.value)
            assert dirac._table is None


def _disc_going_bad(field, bad):
    """The rolling-disc algebroid whose ``field`` returns ``bad(value)`` once
    the steering angle passes 0.05, which a run from phi = 0 at unit
    steering rate reaches at t = 0.05."""
    disc = rolling_disc_algebroid()
    fields = {"anchor": disc.anchor, "structure": disc.structure}
    good = fields[field]
    fields[field] = lambda x: bad(good(x)) if x[0] > 0.05 else good(x)
    return SkewAlgebroid(disc.chart, fields["anchor"], fields["structure"], disc.name)


_SYMMETRIC = np.zeros((4, 4, 4))
_SYMMETRIC[0, 1, 2] = _SYMMETRIC[1, 0, 2] = 0.5


class TestXDependentFieldErrors:
    """A field of the rolling disc that goes bad during a run stops it with
    the error class and exact message that name the bad entry."""

    @pytest.mark.parametrize("field, bad, error, message", [
        ("structure", lambda c: with_entry(c, (1, 0, 3), np.nan), EvaluationError,
         "structure has non-finite entry at index (1, 0, 3)"),
        ("anchor", lambda rho: with_entry(rho, (0, 2), np.inf), EvaluationError,
         "anchor has non-finite entry at index (0, 2)"),
        ("structure", lambda c: c + _SYMMETRIC, StructureError,
         "structure functions: not antisymmetric in the first two indices, "
         "c[0,1,2] + c[1,0,2] = 1.000e+00"),
        ("anchor", lambda rho: rho.T, EvaluationError,
         "anchor has shape (4, 1), expected (1, 4)"),
    ], ids=["nan", "inf", "not-antisymmetric", "anchor-shape"])
    def test_field_going_bad_in_a_run(self, field, bad, error, message):
        dirac = induce(PiGraphDirac(_disc_going_bad(field, bad)),
                       LinearConstraint(fiber=(2, 3)))
        problem = lagrangian_problem(dirac, rolling_disc_lagrangian())
        with pytest.raises(error) as raised:
            integrate(problem, np.array([0.0, 1.0, 2.0]), 0.0, 0.1, 0.01)
        assert str(raised.value) == message

    def test_non_finite_base_point_in_the_state(self):
        dirac = induce(PiGraphDirac(rolling_disc_algebroid()), LinearConstraint(fiber=(2, 3)))
        problem = lagrangian_problem(dirac, rolling_disc_lagrangian())
        with pytest.raises(EvaluationError) as raised:
            integrate(problem, np.array([np.nan, 1.0, 2.0]), 0.0, 0.1, 0.01)
        assert str(raised.value) == "base point component 0 is not finite"

    @pytest.mark.parametrize("clocked", [False, True], ids=["disc", "clock-extended"])
    @pytest.mark.parametrize("x, message", [
        ([np.nan], "base point component {last} is not finite"),
        ([0.1, 0.2], "base point has shape ({wrong},), chart expects ({n},)"),
    ], ids=["nan", "wrong-length"])
    def test_structure_terms_checks_its_base_point(self, clocked, x, message):
        # the clock extension checks its whole point, the clock coordinate too
        dirac = induce(PiGraphDirac(rolling_disc_algebroid()), LinearConstraint(fiber=(2, 3)))
        if clocked:
            dirac, x = TimeExtendedDirac(dirac), [0.0] + x
        n = dirac.chart.base_dim
        with pytest.raises(EvaluationError) as raised:
            dirac.structure_terms(np.array(x))
        assert str(raised.value) == message.format(last=len(x) - 1, wrong=len(x), n=n)
