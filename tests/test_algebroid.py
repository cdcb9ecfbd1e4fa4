import itertools
import warnings

import numpy as np
import pytest

from diracmech import (
    CanonicalDirac,
    Chart,
    EvaluationError,
    LinearConstraint,
    PiGraphDirac,
    Section,
    SkewAlgebroid,
    StructureError,
    basis_sections,
    check_integrability,
    induce,
)
from diracmech import fd
from diracmech.algebroid import _antisymmetric, _as_base_point, _check_finite
from diracmech.checks import jacobi_check
from diracmech.systems import rolling_disc_algebroid, so3_algebroid

from conftest import make_frame_algebroid, make_random_pigraph, smooth_section, with_entry


def identity_algebroid(n):
    chart = Chart(n, n)
    return SkewAlgebroid(chart, lambda x: np.eye(n), lambda x: np.zeros((n, n, n)))


class TestAnchor:
    def test_rolling_disc_projects_first_fiber_direction(self, disc):
        for phi in (0.0, 1.3, -2.2):
            assert np.array_equal(disc.anchor(np.array([phi])), [[1.0, 0.0, 0.0, 0.0]])

    def test_identity_anchor(self):
        assert np.array_equal(identity_algebroid(3).anchor(np.zeros(3)), np.eye(3))

    def test_point_base_gives_empty_matrix(self, so3):
        assert so3.anchor(np.zeros(0)).shape == (0, 3)

    def test_nonfinite_anchor_reports_index(self):
        chart = Chart(1, 2)
        bad = SkewAlgebroid(chart, lambda x: np.array([[np.nan, 1.0]]),
                            lambda x: np.zeros((2, 2, 2)))
        with pytest.raises(EvaluationError, match=r"\(0, 0\)"):
            bad.anchor(np.zeros(1))

    def test_nonfinite_base_point_rejected(self, disc):
        with pytest.raises(EvaluationError):
            disc.anchor(np.array([np.inf]))


class TestStructure:
    def test_rolling_disc_entries(self, disc):
        phi = 0.9
        c = disc.structure(np.array([phi]))
        expected = np.zeros((4, 4, 4))
        expected[0, 1, 3] = np.cos(phi)
        expected[0, 1, 2] = -np.sin(phi)
        expected[1, 0, 3] = -np.cos(phi)
        expected[1, 0, 2] = np.sin(phi)
        assert np.allclose(c, expected, atol=0)

    def test_canonical_structure_vanishes(self):
        assert not identity_algebroid(2).structure(np.zeros(2)).any()

    def test_so3_matches_cross_product_table(self, so3):
        # brute-force oracle: [e_i, e_j] must equal the cross product e_i x e_j
        c = so3.structure(np.zeros(0))
        eye = np.eye(3)
        for i in range(3):
            for j in range(3):
                assert np.allclose(c[i, j], np.cross(eye[i], eye[j]), atol=0)

    def test_antisymmetry_is_exact(self, disc):
        rng = np.random.default_rng(0)
        for _ in range(10):
            c = disc.structure(rng.standard_normal(1))
            assert np.array_equal(c, -np.swapaxes(c, 0, 1))

    def test_user_structure_must_be_antisymmetric(self):
        chart = Chart(0, 2)
        c = np.zeros((2, 2, 2))
        c[0, 1, 0] = 1.0  # missing the antisymmetric partner
        bad = SkewAlgebroid(chart, lambda x: np.zeros((0, 2)), lambda x, c=c: c)
        with pytest.raises(StructureError, match="antisymmetric"):
            bad.structure(np.zeros(0))


class TestLargeFiniteEntries:
    """The finiteness tests cannot overflow: entries of 1e308 pass without a
    warning, and a non-finite entry among them is still named."""

    @staticmethod
    def _quiet(fn, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return fn(*args)

    def test_anchor(self):
        rho = np.array([[1e308, -1e308]])
        big = SkewAlgebroid(Chart(1, 2), lambda x: rho, lambda x: np.zeros((2, 2, 2)))
        assert np.array_equal(self._quiet(big.anchor, np.zeros(1)), rho)
        J, _ = self._quiet(PiGraphDirac(big).membership_system, np.zeros(1), np.ones(2))
        assert np.array_equal(J[0, 4:], [-1e308, 1e308])  # the velocity row on y
        bad = SkewAlgebroid(Chart(1, 2), lambda x: np.array([[1e308, np.inf]]),
                            lambda x: np.zeros((2, 2, 2)))
        with pytest.raises(EvaluationError) as raised:
            self._quiet(bad.anchor, np.zeros(1))
        assert str(raised.value) == "anchor has non-finite entry at index (0, 1)"

    def test_structure(self):
        c = np.zeros((2, 2, 2))
        c[0, 1], c[1, 0] = (1e308, -1e308), (-1e308, 1e308)
        assert self._quiet(_check_finite, "structure", c) is c
        with pytest.raises(EvaluationError) as raised:
            self._quiet(_check_finite, "structure", with_entry(c, (1, 0, 1), -np.inf))
        assert str(raised.value) == "structure has non-finite entry at index (1, 0, 1)"
        # antisymmetrising halves before combining, so a pair +-a stays
        # finite for every finite a
        big = SkewAlgebroid(Chart(0, 2), lambda x: np.zeros((0, 2)), lambda x: 0.8 * c)
        assert np.array_equal(self._quiet(big.structure, np.zeros(0)), 0.8 * c)
        assert np.array_equal(self._quiet(_antisymmetric, "structure", c), c)
        symmetric = np.zeros((2, 2, 2))
        symmetric[0, 1, 0] = symmetric[1, 0, 0] = 1e308
        with pytest.raises(StructureError) as raised:
            self._quiet(_antisymmetric, "structure", symmetric)
        assert str(raised.value) == ("structure: not antisymmetric in the first two indices, "
                                     "c[0,1,0] + c[1,0,0] = inf")

    def test_base_point(self, disc):
        x = np.array([1e308, -1e308])
        assert self._quiet(_as_base_point, Chart(2, 1), x) is x
        self._quiet(disc.structure, np.array([1e308]))
        with pytest.raises(EvaluationError) as raised:
            self._quiet(_as_base_point, Chart(2, 1), np.array([1e308, -np.inf]))
        assert str(raised.value) == "base point component 1 is not finite"


class TestBracket:
    def test_rolling_disc_basis_bracket(self, disc):
        e = basis_sections(disc.chart)
        out = disc.bracket(e[0], e[1], np.array([0.0]))
        assert np.allclose(out, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_bracket_with_itself_vanishes(self, disc):
        X = smooth_section(3, 4, 1)
        assert np.allclose(disc.bracket(X, X, np.array([0.4])), 0.0, atol=1e-12)

    def test_so3_reproduces_cross_product(self, so3):
        e = basis_sections(so3.chart)
        x = np.zeros(0)
        eye = np.eye(3)
        for i in range(3):
            for j in range(3):
                out = so3.bracket(e[i], e[j], x)
                assert np.allclose(out, np.cross(eye[i], eye[j]), atol=1e-12)

    def test_antisymmetry_on_random_sections(self):
        alg = make_random_pigraph(seed=9)
        rng = np.random.default_rng(1)
        X = smooth_section(10, 3, 2)
        Y = smooth_section(11, 3, 2)
        for _ in range(10):
            x = rng.standard_normal(2)
            lhs = alg.bracket(X, Y, x) + alg.bracket(Y, X, x)
            assert np.max(np.abs(lhs)) <= 1e-10

    def test_leibniz_rule(self):
        alg = make_random_pigraph(seed=5)
        rng = np.random.default_rng(2)
        X = smooth_section(20, 3, 2)
        Y = smooth_section(21, 3, 2)

        def f(x):
            return float(np.sin(x[0]) + 0.5 * x[1] ** 2)

        def fY(x):
            return f(x) * Y(x)

        fy_section = Section(fY, name="fY")
        for _ in range(10):
            x = rng.standard_normal(2)
            lhs = alg.bracket(X, fy_section, x)
            anchor_term = float(alg.anchor(x) @ X(x) @ fd.jacobian(f, x))
            rhs = f(x) * alg.bracket(X, Y, x) + anchor_term * Y(x)
            assert np.max(np.abs(lhs - rhs)) <= 1e-6

    def test_poisson_bracket_characterization(self):
        # independent oracle for the coordinate bracket formula: the bracket of
        # the fiber-linear functions of X and Y under the linear bivector must
        # be the fiber-linear function of [X, Y]
        alg = make_random_pigraph(seed=5)
        n, m = 2, 3
        X = smooth_section(30, m, n)
        Y = smooth_section(31, m, n)
        rng = np.random.default_rng(3)

        def linear_fn(section):
            def f(z):
                return float(section(z[:n]) @ z[n:])
            return f

        fX, fY = linear_fn(X), linear_fn(Y)
        for _ in range(10):
            x = rng.standard_normal(n)
            xi = rng.standard_normal(m)
            z = np.concatenate([x, xi])
            P = alg.linear_bivector(x, xi)
            gX = fd.jacobian(fX, z)
            gY = fd.jacobian(fY, z)
            numeric = float(gX @ P @ gY)
            coordinate = float(alg.bracket(X, Y, x) @ xi)
            assert abs(numeric - coordinate) <= 1e-6 * (1.0 + abs(coordinate))


class TestJacobiator:
    def test_canonical_constant_sections(self):
        alg = identity_algebroid(2)
        e = basis_sections(alg.chart)
        out = alg.jacobiator(e[0], e[1], e[0], np.zeros(2))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_rolling_disc_is_lie_on_probes(self, disc):
        e = basis_sections(disc.chart)
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal(1)
            for (i, j, k) in ((0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 3)):
                out = disc.jacobiator(e[i], e[j], e[k], x)
                worst = max(worst, float(np.max(np.abs(out))))
        assert worst <= 1e-6

    def test_so3_jacobi_identity(self, so3):
        e = basis_sections(so3.chart)
        out = so3.jacobiator(e[0], e[1], e[2], np.zeros(0))
        assert np.max(np.abs(out)) <= 1e-12


def section_jacobi_violation(alg, points):
    """Largest Section-based Jacobiator entry over basis triples i < j < k."""
    e = basis_sections(alg.chart)
    return max(
        (float(np.max(np.abs(alg.jacobiator(X, Y, Z, x))))
         for x in points for X, Y, Z in itertools.combinations(e, 3)),
        default=0.0,
    )


def broken_top():
    rng = np.random.default_rng(12)
    raw = rng.standard_normal((3, 3, 3))
    c = raw - np.swapaxes(raw, 0, 1)
    return SkewAlgebroid(Chart(0, 3), lambda x: np.zeros((0, 3)), lambda x: c)


class TestClosedFormJacobiator:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("base_dim", [0, 1, 2])
    @pytest.mark.parametrize("fiber_dim", [3, 4])
    def test_matches_section_jacobiator(self, seed, base_dim, fiber_dim):
        alg = make_random_pigraph(seed=seed, base_dim=base_dim, fiber_dim=fiber_dim)
        rng = np.random.default_rng(seed)
        points = [rng.standard_normal(base_dim) for _ in range(2)]
        oracle = section_jacobi_violation(alg, points)
        assert oracle > 0.1
        closed = alg.basis_jacobi_violation(points)
        assert abs(closed - oracle) <= 1e-6 * (1.0 + oracle)

    @pytest.mark.parametrize("alg", [
        so3_algebroid(), rolling_disc_algebroid(), CanonicalDirac(2).algebroid,
    ], ids=["so3", "disc", "canonical"])
    def test_catalog_is_lie(self, alg):
        rng = np.random.default_rng(3)
        points = [rng.standard_normal(alg.chart.base_dim) for _ in range(5)]
        assert alg.basis_jacobi_violation(points) == 0.0
        assert section_jacobi_violation(alg, points) <= 1e-6

    def test_broken_top_matches_section_jacobiator(self):
        alg = broken_top()
        closed = alg.basis_jacobi_violation([np.zeros(0)])
        assert closed == pytest.approx(3.3432124503504577, rel=1e-12)
        assert closed == pytest.approx(section_jacobi_violation(alg, [np.zeros(0)]), rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lie_algebroid_with_varying_structure_reads_its_floor(self, seed):
        # one difference level of c: about 1e-9 here, where the nested
        # Section-based differences read up to about 4e-7
        alg = make_frame_algebroid(seed, 4)
        rng = np.random.default_rng(seed)
        points = [rng.standard_normal(4) for _ in range(10)]
        assert alg.basis_jacobi_violation(points) <= 1e-8

    def test_jacobi_check_cost_on_the_disc(self, monkeypatch):
        def no_bracket(*args, **kwargs):
            raise AssertionError("the closed form must not build brackets")

        monkeypatch.setattr(SkewAlgebroid, "bracket", no_bracket)
        calls = []
        disc = rolling_disc_algebroid()
        structure = disc._structure_fn

        def counted(x):
            calls.append(1)
            return structure(x)

        disc._structure_fn = counted
        report = jacobi_check(disc, probes=20)
        assert report["passed"] and report["max_violation"] == 0.0
        # c at x and at x +- h on the one-dimensional base
        assert len(calls) == 3 * 20
        check_integrability(induce(PiGraphDirac(disc), LinearConstraint(fiber=(2, 3))))

    def test_overflowing_structure_raises(self):
        c = 1e200 * broken_top().structure(np.zeros(0))
        alg = SkewAlgebroid(Chart(0, 3), lambda x: np.zeros((0, 3)), lambda x: c)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(EvaluationError):
                jacobi_check(alg)


class TestLinearBivector:
    def test_rolling_disc_slot(self, disc):
        P = disc.linear_bivector(np.array([0.0]), np.array([0.0, 0.0, 0.0, 1.0]))
        assert P.shape == (5, 5)
        assert np.isclose(P[1, 2], 1.0)  # dual-fiber block, (1,2) entry = R cos phi
        assert np.isclose(P[1, 0], 1.0)  # dual/base block carries the anchor
        assert np.allclose(P, -P.T, atol=0)

    def test_zero_data_gives_zero_matrix(self):
        chart = Chart(1, 2)
        alg = SkewAlgebroid(chart, lambda x: np.zeros((1, 2)),
                            lambda x: np.zeros((2, 2, 2)))
        P = alg.linear_bivector(np.zeros(1), np.zeros(2))
        assert not P.any()

    def test_canonical_block_form(self):
        # with vanishing structure and identity anchor the matrix is the
        # constant inverse-symplectic block form
        alg = identity_algebroid(2)
        P = alg.linear_bivector(np.zeros(2), np.ones(2))
        expected = np.block([[np.zeros((2, 2)), -np.eye(2)],
                             [np.eye(2), np.zeros((2, 2))]])
        assert np.allclose(P, expected, atol=0)

    def test_homogeneity_in_dual_fiber(self):
        alg = make_random_pigraph(seed=8)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2)
        xi = rng.standard_normal(3)
        P1 = alg.linear_bivector(x, xi)
        P2 = alg.linear_bivector(x, 2.0 * xi)
        assert np.allclose(P2[2:, 2:], 2.0 * P1[2:, 2:], atol=1e-12)
        assert np.allclose(P2[:2, 2:], P1[:2, 2:], atol=0)
        assert np.allclose(P2, -P2.T, atol=0)


class TestSection:
    def test_analytic_jacobian_checked_against_differences(self):
        # the test helper's analytic Jacobian agrees with central differences
        good = smooth_section(1, 3, 2)
        for x in (np.zeros(2), np.ones(2)):
            numeric = fd.jacobian(good, x)
            scale = 1.0 + np.max(np.abs(numeric))
            assert np.max(np.abs(good.jacobian_at(x) - numeric)) <= 1e-6 * scale
