import numpy as np
import pytest

from diracmech import (
    AffineConstraint,
    CanonicalDirac,
    Chart,
    ConstraintError,
    LinearConstraint,
    OmegaGraphDirac,
    PiGraphDirac,
    PontryaginPoint,
    SkewAlgebroid,
    StructureError,
    TimeExtendedDirac,
    check_integrability,
    induce,
    pointwise_induce,
)
from diracmech.constraints import INTEGRABILITY_PROBES, INTEGRABILITY_SEED
from diracmech.linalg import max_principal_angle
from diracmech.systems import rolling_disc_algebroid

from conftest import make_frame_algebroid, make_random_pigraph


def particular_member(dirac, x, xi):
    J, const = dirac.membership_system(x, xi)
    w, *_ = np.linalg.lstsq(J, -const, rcond=None)
    return w


class TestInduce:
    def test_rolling_disc_matches_published_equations(self, disc_induced):
        # the defining equations pin y3, y4 and couple the momentum rates
        rng = np.random.default_rng(0)
        phi, xi = rng.standard_normal(1), rng.standard_normal(4)
        y1, y2, p = -0.4, 1.7, 0.2
        s, c = np.sin(phi[0]), np.cos(phi[0])
        member = PontryaginPoint(
            phi, xi, [y1],
            [y2 * xi[2] * s - y2 * xi[3] * c - p,
             -y1 * xi[2] * s + y1 * xi[3] * c,
             5.0, -5.0],
            [p], [y1, y2, 0.0, 0.0],
        )
        assert np.max(np.abs(disc_induced.residual(member))) <= 1e-12
        # breaking a pinned fiber coordinate must show in the residual
        bad = PontryaginPoint(phi, xi, member.xdot, member.xidot, member.p,
                              [y1, y2, 1e-3, 0.0])
        assert np.max(np.abs(disc_induced.residual(bad))) >= 1e-4

    def test_empty_constraint_reproduces_base(self, disc_pi):
        trivial = induce(disc_pi, LinearConstraint())
        rng = np.random.default_rng(1)
        for _ in range(5):
            x, xi = rng.standard_normal(1), rng.standard_normal(4)
            assert max_principal_angle(
                trivial.basis_matrix_at(x, xi), disc_pi.basis_matrix_at(x, xi)
            ) <= 1e-10

    def test_canonical_with_coordinate_plane(self):
        base = CanonicalDirac(2)
        constraint = LinearConstraint(fiber=(1,))
        induced = induce(base, constraint)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x, xi = rng.standard_normal(2), rng.standard_normal(2)
            closed = induced.basis_matrix_at(x, xi)
            oracle = pointwise_induce(base, constraint, x, xi)
            assert max_principal_angle(closed, oracle) <= 1e-9

    def test_matrix_form_rejected_in_closed_form(self, disc_pi):
        W = LinearConstraint(matrix=lambda x: np.zeros((1, 5)))
        with pytest.raises(ConstraintError, match="pointwise"):
            induce(disc_pi, W)

    def test_omega_base_rejected(self):
        omega = OmegaGraphDirac(Chart(1, 1), rho=lambda x: np.eye(1),
                                cform=lambda x: np.zeros((1, 1, 1)))
        with pytest.raises(ConstraintError, match="graph base"):
            induce(omega, LinearConstraint(fiber=(0,)))


class TestPointwiseInduce:
    def test_oracle_agrees_with_closed_form(self, disc_pi, disc_induced):
        constraint = LinearConstraint(fiber=(2, 3))
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, xi = rng.standard_normal(1), rng.standard_normal(4)
            closed = disc_induced.basis_matrix_at(x, xi)
            oracle = pointwise_induce(disc_pi, constraint, x, xi)
            assert max_principal_angle(closed, oracle) <= 1e-9

    def test_full_constraint_returns_base_subspace(self, disc_pi):
        rng = np.random.default_rng(4)
        x, xi = rng.standard_normal(1), rng.standard_normal(4)
        oracle = pointwise_induce(disc_pi, LinearConstraint(), x, xi)
        assert max_principal_angle(oracle, disc_pi.basis_matrix_at(x, xi)) <= 1e-10

    def test_zero_fiber_constraint_on_canonical(self):
        # pinning the whole fiber leaves the core plus the base-velocity zero set
        base = CanonicalDirac(1)
        constraint = LinearConstraint(fiber=(0,))
        subspace = pointwise_induce(base, constraint, np.zeros(1), np.zeros(1))
        assert subspace.shape == (4, 2)
        # members have xdot = y = 0: only (xidot, p) directions survive
        assert np.max(np.abs(subspace[0])) <= 1e-12
        assert np.max(np.abs(subspace[3])) <= 1e-12

    def test_matrix_constraint_must_stay_inside_velocities(self, disc_pi):
        # a kernel direction with xdot independent of y is not admissible
        W = LinearConstraint(matrix=lambda x: np.array([[0.0, 1.0, 0.0, 0.0, 0.0]]))
        with pytest.raises(ConstraintError, match="velocity bundle"):
            pointwise_induce(disc_pi, W, np.zeros(1), np.zeros(4))

    def test_matrix_constraint_equivalent_to_selectors(self, disc_pi):
        # kernel of W = {(xdot, y) : y3 = y4 = 0, xdot = rho y}
        def W(x):
            rows = np.zeros((3, 5))
            rows[0, 3] = 1.0
            rows[1, 4] = 1.0
            rows[2, 0] = 1.0
            rows[2, 1] = -1.0  # xdot - y1 = 0 (the anchor relation)
            return rows

        constraint = LinearConstraint(matrix=W)
        adapted = LinearConstraint(fiber=(2, 3))
        rng = np.random.default_rng(5)
        x, xi = rng.standard_normal(1), rng.standard_normal(4)
        a = pointwise_induce(disc_pi, constraint, x, xi)
        b = pointwise_induce(disc_pi, adapted, x, xi)
        assert max_principal_angle(a, b) <= 1e-9

    def test_off_support_probe_rejected(self):
        base = PiGraphDirac(make_random_pigraph(seed=3))
        constraint = LinearConstraint(fiber=(0,), base=(1,))
        with pytest.raises(ConstraintError, match="support"):
            pointwise_induce(base, constraint, np.array([0.3, 0.4]), np.zeros(3))


class TestInduceAffine:
    def test_model_subspace_matches_linear_induction(self, disc_pi):
        affine = induce(disc_pi, AffineConstraint(fixed=1, fiber=(2, 3)))
        linear = induce(disc_pi, LinearConstraint(fiber=(1, 2, 3)))
        rng = np.random.default_rng(6)
        for _ in range(5):
            x, xi = rng.standard_normal(1), rng.standard_normal(4)
            # the kernels of the linearized systems are the model subspaces
            a = affine.basis_matrix_at(x, xi)
            b = linear.basis_matrix_at(x, xi)
            assert max_principal_angle(a, b) <= 1e-10

    def test_affine_constraint_is_a_linear_constraint_with_a_fixed_index(self, disc_pi):
        affine = AffineConstraint(fixed=1, fiber=(3, 2), base=(0,))
        assert isinstance(affine, LinearConstraint) and affine.is_adapted
        assert (affine.fixed, affine.fiber, affine.base) == (1, (2, 3), (0,))
        assert LinearConstraint(fiber=(1,)).fixed is None
        x, xi = np.zeros(1), np.ones(4)
        with pytest.raises(ConstraintError, match="pointwise_induce expects a LinearConstraint"):
            pointwise_induce(disc_pi, AffineConstraint(fixed=1), x, xi)

    @pytest.mark.parametrize("constraint, message", [
        ((2, 3), "induce expects a LinearConstraint or an AffineConstraint"),
        (LinearConstraint(matrix=lambda x: np.zeros((1, 5))), "only supported pointwise"),
    ], ids=["not-a-constraint", "matrix"])
    def test_induce_rejects(self, disc_pi, constraint, message):
        with pytest.raises(ConstraintError, match=message):
            induce(disc_pi, constraint)

    def test_second_fixed_index_rejected(self, disc_pi):
        affine = induce(disc_pi, AffineConstraint(fixed=1, fiber=(3,)))
        with pytest.raises(ConstraintError, match="different fiber index"):
            induce(affine, AffineConstraint(fixed=2))

    @pytest.mark.parametrize("first, second", [
        (LinearConstraint(fiber=(2, 3)), AffineConstraint(fixed=2)),
        (AffineConstraint(fixed=1), LinearConstraint(fiber=(1,))),
    ], ids=["fixed-on-a-zero-pin", "zero-pin-on-the-fixed"])
    def test_fixed_and_zero_pin_of_one_index_rejected(self, disc_pi, first, second):
        with pytest.raises(ConstraintError, match="also marked zero"):
            induce(induce(disc_pi, first), second)

    def test_affine_member_has_unit_coordinate(self, disc_pi):
        affine = induce(disc_pi, AffineConstraint(fixed=1, fiber=(2, 3)))
        x, xi = np.array([0.3]), np.array([0.1, 0.2, 0.3, 0.4])
        w = particular_member(affine, x, xi)
        member = PontryaginPoint.from_fiber_vector(x, xi, w)
        assert member.y[1] == pytest.approx(1.0)
        assert np.max(np.abs(affine.residual(member))) <= 1e-12

    def test_time_extension_equals_affine_clock_constraint(self):
        # extend a graph structure by the clock, and compare against pinning
        # an extra fiber coordinate to one on the enlarged bundle
        base_alg = make_random_pigraph(seed=11, base_dim=1, fiber_dim=2)
        extended = TimeExtendedDirac(PiGraphDirac(base_alg))

        chart = Chart(2, 3)

        def anchor(x):
            rho = np.zeros((2, 3))
            rho[0, 0] = 1.0
            rho[1, 1:] = base_alg.anchor(x[1:])[0]
            return rho

        def structure(x):
            c = np.zeros((3, 3, 3))
            c[1:, 1:, 1:] = base_alg.structure(x[1:])
            return c

        enlarged = SkewAlgebroid(chart, anchor, structure)
        affine = induce(PiGraphDirac(enlarged), AffineConstraint(fixed=0))

        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.standard_normal(2)
            xi = rng.standard_normal(2)
            xi_aff = np.concatenate([[rng.standard_normal()], xi])
            # map members of the extension into the enlarged picture
            w = particular_member(extended, x, xi)
            kernel = extended.basis_matrix_at(x, xi)
            member = PontryaginPoint.from_fiber_vector(
                x, xi, w + kernel @ rng.standard_normal(kernel.shape[1]))
            lifted = PontryaginPoint(
                x, xi_aff,
                member.xdot,
                np.concatenate([[rng.standard_normal()], member.xidot]),
                member.p,
                np.concatenate([[1.0], member.y]),
            )
            assert np.max(np.abs(affine.residual(lifted))) <= 1e-10
            # and members of the affine structure project back
            w2 = particular_member(affine, x, xi_aff)
            kernel2 = affine.basis_matrix_at(x, xi_aff)
            member2 = PontryaginPoint.from_fiber_vector(
                x, xi_aff, w2 + kernel2 @ rng.standard_normal(kernel2.shape[1]))
            projected = PontryaginPoint(
                x, xi, member2.xdot, member2.xidot[1:], member2.p, member2.y[1:])
            assert np.max(np.abs(extended.residual(projected))) <= 1e-10


class TestIntegrability:
    def test_rolling_disc_fails_second_condition(self, disc_induced):
        report = check_integrability(disc_induced)
        assert report.cond1 is True
        assert report.cond2 is False
        assert not report.is_dirac_lie
        witness = report.structure_witness
        phi = witness["x"][0]
        assert witness["entry"][2] in (2, 3)
        assert abs(witness["value"]) == pytest.approx(
            abs(np.sin(phi)) if witness["entry"][2] == 2 else abs(np.cos(phi))
        )

    def test_unconstrained_lie_algebroid_closes(self, disc_pi):
        report = check_integrability(induce(disc_pi, LinearConstraint()))
        assert report.cond1 and report.cond2 and report.is_dirac_lie

    def test_canonical_flat_distribution_closes(self):
        base = CanonicalDirac(3)
        report = check_integrability(induce(base, LinearConstraint(fiber=(2,))))
        assert report.is_dirac_lie

    def test_anchor_condition_violation_witnessed(self):
        # anchor drives the support-transverse coordinate: condition 1 fails
        chart = Chart(2, 3)
        alg = SkewAlgebroid(chart, lambda x: np.array([[1.0, 0.0, 0.0],
                                                       [1.0, 0.0, 0.0]]),
                            lambda x: np.zeros((3, 3, 3)))
        induced = induce(PiGraphDirac(alg), LinearConstraint(fiber=(2,), base=(1,)))
        report = check_integrability(induced)
        assert report.cond1 is False
        assert report.cond2 is True
        assert report.anchor_witness["entry"] == (1, 0)

    @pytest.mark.parametrize("eps, closes", [(5e-10, True), (2e-9, False)])
    def test_structure_condition_holds_to_the_integrability_tolerance(self, eps, closes):
        # a bundle of Lie algebras (zero anchor) whose bracket [e0, e1] = eps e2
        # leaves the kept fibers by eps, either side of INTEGRABILITY_TOL = 1e-9
        def structure(x):
            c = np.zeros((3, 3, 3))
            c[0, 1, 2], c[1, 0, 2] = eps, -eps
            return c

        alg = SkewAlgebroid(Chart(1, 3), lambda x: np.zeros((1, 3)), structure)
        report = check_integrability(induce(PiGraphDirac(alg), LinearConstraint(fiber=(2,))))
        assert report.cond1 is True
        assert report.cond2 is closes
        assert report.structure_violation == eps

    @pytest.mark.parametrize("algebroid, constraint", [
        (rolling_disc_algebroid(), LinearConstraint(fiber=(2, 3))),
        (rolling_disc_algebroid(), LinearConstraint(fiber=(3,))),
        (rolling_disc_algebroid(), LinearConstraint()),
        (make_frame_algebroid(0, 3), LinearConstraint(fiber=(2,), base=(1,))),
        (make_frame_algebroid(1, 4), LinearConstraint(fiber=(0, 3), base=(0, 2))),
    ], ids=["disc-slips", "disc-one-slip", "disc-free", "frame3", "frame4"])
    def test_witnesses_match_the_loop_reference(self, algebroid, constraint):
        induced = induce(PiGraphDirac(algebroid), constraint)
        free, removed = induced.free_fiber, induced.zero_fiber
        # the per-entry loops over the same probes; strict > keeps the first maximum
        rng = np.random.default_rng(INTEGRABILITY_SEED)
        best = {"anchor": (0.0, None), "structure": (0.0, None)}
        for _ in range(INTEGRABILITY_PROBES):
            x = rng.standard_normal(algebroid.chart.base_dim)
            x[list(induced.zero_base)] = 0.0
            rho, c = algebroid.anchor(x), algebroid.structure(x)
            entries = [("anchor", (a, i), rho[a, i])
                       for a in induced.zero_base for i in free]
            entries += [("structure", (i, j, k), c[i, j, k])
                        for i in free for j in free for k in removed]
            for key, entry, value in entries:
                if abs(value) > best[key][0]:
                    best[key] = (abs(value), {"entry": entry, "x": x.copy(),
                                              "value": float(value)})
        report = check_integrability(induced)
        for key in ("anchor", "structure"):
            violation, witness = best[key]
            assert getattr(report, f"{key}_violation") == violation
            got = getattr(report, f"{key}_witness")
            if witness is None:
                assert got is None
            else:
                assert got["entry"] == witness["entry"]
                assert got["value"] == witness["value"]
                assert np.array_equal(got["x"], witness["x"])
        if constraint.base:
            assert report.anchor_violation > 0.0 and report.structure_violation > 0.0

    def test_non_lie_base_rejected(self):
        # generic constant antisymmetric structure functions violate Jacobi
        chart = Chart(0, 3)
        rng = np.random.default_rng(12)
        raw = rng.standard_normal((3, 3, 3))
        c = raw - np.swapaxes(raw, 0, 1)
        alg = SkewAlgebroid(chart, lambda x: np.zeros((0, 3)), lambda x, c=c: c)
        induced = induce(PiGraphDirac(alg), LinearConstraint(fiber=(2,)))
        with pytest.raises(StructureError, match="Jacobi"):
            check_integrability(induced)

    def test_affine_constraint_rejected(self, disc_pi):
        affine = induce(disc_pi, AffineConstraint(fixed=1, fiber=(2, 3)))
        with pytest.raises(ConstraintError, match="linear"):
            check_integrability(affine)


class TestStructuralProperties:
    def test_projection_invariance(self, disc_pi, disc_induced):
        # phase projection unchanged, velocity projection equals the constraint
        rng = np.random.default_rng(8)
        n = 1
        for _ in range(10):
            x, xi = rng.standard_normal(1), rng.standard_normal(4)
            ok_base, _ = disc_pi.phase_membership(x, xi)
            ok_ind, _ = disc_induced.phase_membership(x, xi)
            assert ok_base == ok_ind
            basis = disc_induced.basis_matrix_at(x, xi)
            rho = disc_pi.algebroid.anchor(x)
            for k in range(basis.shape[1]):
                xdot, y = basis[:n, k], basis[2 * n + 4:, k]
                assert np.max(np.abs(y[2:])) <= 1e-10
                assert np.max(np.abs(xdot - rho @ y)) <= 1e-10
            vel_dim = np.linalg.matrix_rank(np.vstack([basis[:n], basis[2 * n + 4:]]))
            assert vel_dim == 2

    def test_induction_idempotent(self, disc_pi):
        constraint = LinearConstraint(fiber=(2, 3))
        once = induce(disc_pi, constraint)
        twice = induce(once, constraint)
        rng = np.random.default_rng(9)
        for _ in range(5):
            x, xi = rng.standard_normal(1), rng.standard_normal(4)
            assert max_principal_angle(
                once.basis_matrix_at(x, xi), twice.basis_matrix_at(x, xi)
            ) <= 1e-10
