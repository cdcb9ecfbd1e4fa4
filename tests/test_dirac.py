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
    VelocityPair,
    induce,
    pairing,
    scale_dual,
    scale_fiber,
    time_extend,
)
from diracmech.linalg import annihilator, max_principal_angle

from conftest import make_random_pigraph


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

    def test_phase_precondition_enforced(self, disc_pi):
        local = GeneralLocalDirac.from_velocity_splitting(
            Chart(1, 1),
            eta=lambda x: np.array([[0.0, 1.0]]),
            etahat=lambda x: np.array([[1.0, -1.0]]),
            phase=lambda x, xi: np.array([xi[0]]),
        )
        with pytest.raises(ConstraintError):
            local.basis_at(np.zeros(1), np.ones(1))

    def test_rank_deficiency_reports_numeric_rank(self):
        # etahat with a repeated row cannot define a maximal subspace
        broken = GeneralLocalDirac(
            Chart(1, 1),
            eta=lambda x: np.zeros((0, 2)),
            etahat=lambda x: np.array([[1.0, -1.0], [1.0, -1.0]]),
            zeta=lambda x: np.zeros((0, 2)),
        )
        with pytest.raises(StructureError, match="numeric rank"):
            broken.basis_at(np.zeros(1), np.zeros(1))


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

    def test_general_local_base_equation(self):
        local = GeneralLocalDirac.from_velocity_splitting(
            Chart(2, 2),
            eta=lambda x: np.hstack([np.zeros((2, 2)), np.eye(2)]),
            etahat=lambda x: np.hstack([np.eye(2), -np.eye(2)]),
            phase=lambda x, xi: np.array([x[1]]),
        )
        ok, _ = local.phase_membership(np.array([1.0, 0.0]), np.zeros(2))
        assert ok
        ok, _ = local.phase_membership(np.array([1.0, 0.5]), np.zeros(2))
        assert not ok

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
        pi = canonical.as_pi_graph()
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


class TestTimeExtension:
    def test_dimension_gains_clock_direction(self, canonical1):
        ext = time_extend(canonical1)
        assert ext.chart.base_dim == 2 and ext.chart.fiber_dim == 1
        basis = ext.basis_matrix_at(np.zeros(2), np.zeros(1))
        assert basis.shape == (6, 3)

    def test_members_have_unit_clock_speed(self, canonical1):
        ext = time_extend(canonical1)
        x, xi = np.array([0.3, 1.0]), np.array([0.5])
        J, const = ext.membership_system(x, xi)
        particular, *_ = np.linalg.lstsq(J, -const, rcond=None)
        member = PontryaginPoint.from_fiber_vector(x, xi, particular)
        assert member.xdot[0] == pytest.approx(1.0)
        assert np.max(np.abs(ext.residual(member))) <= 1e-12

    def test_clock_momentum_is_core_direction(self, canonical1):
        ext = time_extend(canonical1)
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
            eta=lambda x: np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            etahat=lambda x: np.array([[1.0, -1.0, 0.0]]),
            zeta=lambda x: np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]),
        )
        with pytest.raises(StructureError, match="zeta"):
            local.validate([np.zeros(1)])


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
        (lambda: CanonicalDirac(2), ("eta", "etahat", "zeta")),
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
