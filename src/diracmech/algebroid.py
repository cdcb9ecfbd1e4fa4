"""Skew and Lie algebroids over a single coordinate chart.

An algebroid on a rank-m vector bundle over an n-dimensional base is stored
through two smooth fields evaluated at base points x:

* ``anchor(x)``    -- an (n, m) matrix sending fiber vectors to base velocities,
* ``structure(x)`` -- an (m, m, m) array of structure functions, where
  ``structure(x)[i, j, k]`` is the e_k-component of the bracket of the basis
  sections e_i and e_j; it is antisymmetric in (i, j).

The base may be zero-dimensional (a point), which is the Lie-algebra case:
the anchor is then a (0, m) matrix and all base derivatives vanish.
It and the tangent algebroid that ``SkewAlgebroid.trivial`` builds are the
ones whose fields do not vary with x (``x_independent``).
"""

import numpy as np

from . import fd
from .errors import EvaluationError, StructureError

STRUCTURE_ANTISYM_TOL = 1e-12
# supplied section Jacobians against central differences, relative to 1 + max|J|
JACOBIAN_CHECK_RTOL = 1e-6
# largest basis Jacobiator entry (``basis_jacobi_violation``) of a Lie algebroid;
# set for the nested differences of ``jacobiator``, well above the closed form's
# floor of about 1e-9 on structure functions that vary with x
JACOBI_TOL = 1e-6


# the checks below call array methods, not np.all, np.max, np.swapaxes or
# np.atleast_1d, whose dispatch shows in a disc step; none may overflow
def _as_base_point(chart, x):
    x = np.asarray(x, dtype=float).reshape(-1) if np.ndim(x) == 0 else np.asarray(x, dtype=float)
    if x.shape != (chart.base_dim,):
        raise EvaluationError(
            f"base point has shape {x.shape}, chart expects ({chart.base_dim},)"
        )
    if not np.isfinite(x).all():
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        raise EvaluationError(f"base point component {bad} is not finite")
    return x


def _check_finite(name, arr):
    arr = np.asarray(arr, dtype=float)
    if not np.isfinite(arr).all():
        flat = int(np.flatnonzero(~np.isfinite(arr.ravel()))[0])
        idx = tuple(int(k) for k in np.unravel_index(flat, arr.shape))
        raise EvaluationError(f"{name} has non-finite entry at index {idx}")
    return arr


def _antisymmetric(name, c):
    """Exact antisymmetric part of c in its first two indices.

    Raises StructureError naming the worst entry when c is not
    antisymmetric there to within 2 * STRUCTURE_ANTISYM_TOL.  c is halved
    before its pairs are combined, so no finite entry overflows.
    """
    half = 0.5 * c
    halft = half.swapaxes(0, 1)
    sym = np.abs(half + halft)
    if sym.max(initial=0.0) > STRUCTURE_ANTISYM_TOL:
        i, j, k = np.unravel_index(int(np.argmax(sym)), sym.shape)
        raise StructureError(
            f"{name}: not antisymmetric in the first two indices, "
            f"c[{i},{j},{k}] + c[{j},{i},{k}] = {float(c[i, j, k]) + float(c[j, i, k]):.3e}"
        )
    return half - halft


class Chart:
    """Coordinate chart of a vector bundle: n base and m fiber coordinates."""

    def __init__(self, base_dim, fiber_dim, base_labels=None, fiber_labels=None):
        if base_dim < 0:
            raise ValueError("base_dim must be >= 0")
        if fiber_dim < 1:
            raise ValueError("fiber_dim must be >= 1")
        self.base_dim = int(base_dim)
        self.fiber_dim = int(fiber_dim)
        self.base_labels = tuple(base_labels) if base_labels else tuple(
            f"x{a + 1}" for a in range(self.base_dim)
        )
        self.fiber_labels = tuple(fiber_labels) if fiber_labels else tuple(
            f"y{i + 1}" for i in range(self.fiber_dim)
        )
        if len(self.base_labels) != self.base_dim:
            raise ValueError("base label count does not match base_dim")
        if len(self.fiber_labels) != self.fiber_dim:
            raise ValueError("fiber label count does not match fiber_dim")

    @property
    def dual_labels(self):
        return tuple(f"xi{i + 1}" for i in range(self.fiber_dim))

    def __repr__(self):
        return f"Chart(base_dim={self.base_dim}, fiber_dim={self.fiber_dim})"


class Section:
    """Section of the bundle: component functions x -> R^m.

    An analytic Jacobian (m, n) may be supplied; otherwise central finite
    differences with relative step ``fd_rel`` are used.  Derived sections
    (like brackets of finite-differenced sections) should use the coarser
    second-level step.
    """

    def __init__(self, fn, jacobian=None, name="", fd_rel=fd.REL_FIRST):
        self._fn = fn
        self._jac = jacobian
        self.name = name
        self.fd_rel = fd_rel

    def __call__(self, x):
        return _check_finite(f"section {self.name or '<anonymous>'}", self._fn(np.asarray(x, dtype=float)))

    def jacobian_at(self, x):
        x = np.asarray(x, dtype=float)
        if self._jac is not None:
            return _check_finite(f"jacobian of section {self.name}", self._jac(x))
        return _check_finite(
            f"finite-difference jacobian of section {self.name}",
            fd.jacobian(self._fn, x, rel=self.fd_rel),
        )

    def check_jacobian(self, points):
        """Verify a supplied Jacobian against central differences at probe points."""
        if self._jac is None:
            return
        for x in points:
            jn = fd.jacobian(self._fn, np.asarray(x, dtype=float))
            ja = self._jac(np.asarray(x, dtype=float))
            scale = 1.0 + np.max(np.abs(jn))
            if np.max(np.abs(ja - jn)) > JACOBIAN_CHECK_RTOL * scale:
                raise StructureError(
                    f"analytic Jacobian of section {self.name or '<anonymous>'} "
                    f"deviates from finite differences at x={np.asarray(x)}"
                )

    @staticmethod
    def constant(values, name=""):
        v = np.asarray(values, dtype=float)
        return Section(
            lambda x, v=v: v.copy(),
            jacobian=lambda x, v=v: np.zeros((v.size, np.asarray(x).size)),
            name=name or "const",
        )


def basis_sections(chart):
    """The m coordinate basis sections e_1 .. e_m as constant Sections."""
    eye = np.eye(chart.fiber_dim)
    return [Section.constant(eye[i], name=f"e{i + 1}") for i in range(chart.fiber_dim)]


class SkewAlgebroid:
    """Skew algebroid given by anchor and structure-function fields.

    Parameters
    ----------
    chart : Chart
    anchor : callable
        x -> (n, m) array.
    structure : callable
        x -> (m, m, m) array, ``structure(x)[i, j, k]`` the e_k-component of
        [e_i, e_j].  Checked antisymmetric in (i, j) to 1e-12 and exactly
        antisymmetrized before use.
    """

    def __init__(self, chart, anchor, structure, name=""):
        self.chart = chart
        self.name = name
        self._anchor_fn = anchor
        self._structure_fn = structure
        self._x_independent = chart.base_dim == 0

    @classmethod
    def trivial(cls, chart, name=""):
        """The tangent algebroid: identity anchor, zero structure, n = m."""
        n = chart.base_dim
        if chart.fiber_dim != n:
            raise ValueError(f"the trivial algebroid needs base_dim == fiber_dim, got {chart}")
        algebroid = cls(chart, lambda x: np.eye(n), lambda x: np.zeros((n, n, n)), name)
        algebroid._x_independent = True
        return algebroid

    @property
    def x_independent(self):
        """Whether the fields are the same at every x; never guessed from values."""
        return self._x_independent

    def anchor(self, x):
        """Anchor matrix rho(x) of shape (n, m); ``_anchor`` takes a checked x."""
        return self._anchor(_as_base_point(self.chart, x))

    def _anchor(self, x):
        n, m = self.chart.base_dim, self.chart.fiber_dim
        rho = _check_finite("anchor", self._anchor_fn(x))
        if rho.shape != (n, m):
            raise EvaluationError(f"anchor has shape {rho.shape}, expected ({n}, {m})")
        return rho

    def structure(self, x):
        """Structure array c(x) (m, m, m), exactly antisymmetrized; ``_structure`` takes a checked x."""
        return self._structure(_as_base_point(self.chart, x))

    def _structure(self, x):
        m = self.chart.fiber_dim
        c = _check_finite("structure", self._structure_fn(x))
        if c.shape != (m, m, m):
            raise EvaluationError(f"structure has shape {c.shape}, expected ({m}, {m}, {m})")
        return _antisymmetric("structure functions", c)

    def bracket(self, X, Y, x):
        """Bracket [X, Y] at x.

        [X,Y]^k = rho^a_i X^i d_a Y^k - rho^a_j Y^j d_a X^k + c^k_{ij} X^i Y^j.
        """
        x = _as_base_point(self.chart, x)
        rho = self._anchor(x)
        c = self._structure(x)
        xv, yv = X(x), Y(x)
        dx = X.jacobian_at(x)
        dy = Y.jacobian_at(x)
        out = dy @ (rho @ xv) - dx @ (rho @ yv) + np.einsum("ijk,i,j->k", c, xv, yv)
        return _check_finite("bracket", out)

    def bracket_section(self, X, Y, name=""):
        """The bracket [X, Y] as a Section (second-level difference step)."""
        return Section(
            lambda x: self.bracket(X, Y, x),
            name=name or f"[{X.name},{Y.name}]",
            fd_rel=fd.REL_SECOND,
        )

    def jacobiator(self, X, Y, Z, x):
        """[X,[Y,Z]] + [Y,[Z,X]] + [Z,[X,Y]] at x; small norm indicates Lie behavior."""
        terms = (
            self.bracket(X, self.bracket_section(Y, Z), x)
            + self.bracket(Y, self.bracket_section(Z, X), x)
            + self.bracket(Z, self.bracket_section(X, Y), x)
        )
        return terms

    def basis_jacobi_violation(self, points):
        """Largest basis Jacobiator entry at the points, in closed form.

        For constant basis sections [e_l, [e_i, e_j]]^q is
        rho^a_l d_a c_ij^q + c_lp^q c_ij^p, so the cyclic sum over (i, j, k)
        needs one central difference of c (none on a point base).  Triples
        with a repeated index vanish exactly, since c is exactly antisymmetric.
        Each distinct point (by its bytes) is evaluated once, in order.
        """
        m = self.chart.fiber_dim
        worst = 0.0
        distinct = {x.tobytes(): x for x in (_as_base_point(self.chart, p) for p in points)}
        for x in distinct.values():
            c = self._structure(x)
            dc = fd.jacobian(lambda z: self.structure(z).ravel(), x).reshape(m, m, m, -1)
            # t[l, i, j] = [e_l, [e_i, e_j]]
            t = (np.einsum("al,ijqa->lijq", self._anchor(x), dc)
                 + np.einsum("lpq,ijp->lijq", c, c))
            jac = _check_finite(
                "Jacobiator", t + np.einsum("jkiq->ijkq", t) + np.einsum("kijq->ijkq", t)
            )
            worst = max(worst, float(np.max(np.abs(jac))))
        return worst

    def linear_bivector(self, x, xi):
        """Matrix of the associated linear bivector on the dual bundle.

        Row/column order is (base block, dual-fiber block); the (a, b) base
        block vanishes, the base/dual block is -rho, and the dual/dual block
        is c^k_{ij} xi_k.
        """
        x = _as_base_point(self.chart, x)
        xi = np.asarray(xi, dtype=float).reshape(-1)
        n, m = self.chart.base_dim, self.chart.fiber_dim
        if xi.shape != (m,):
            raise EvaluationError(f"dual fiber point has shape {xi.shape}, expected ({m},)")
        rho = self._anchor(x)
        c = self._structure(x)
        pi = np.zeros((n + m, n + m))
        pi[:n, n:] = -rho
        pi[n:, :n] = rho.T
        pi[n:, n:] = np.einsum("ijk,k->ij", c, xi)
        return pi
