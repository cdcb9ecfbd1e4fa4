"""Linear (almost) Dirac structures on the dual bundle.

A structure is represented pointwise inside the Pontryagin bundle over the
dual: a point carries coordinates (x, xi, xdot, xidot, p, y) where (x, xi)
is the dual-bundle base point and (xdot, xidot, p, y) the fiber part.  The
fiber part is stacked in the fixed order

    w = (xdot [n], xidot [m], p [n], y [m]),

used by every kernel computation here.

Every representation reduces to a local form.  ``local_form(x)`` returns
its coordinate blocks at a base point as a ``LocalForm`` value:

* velocity coordinates ``eta`` (rank r) and complementary equations
  ``etahat`` acting on (xdot, y),
* dual coordinates ``zeta`` (r rows) acting on (p, xidot),
* the affine ``offset`` of the etahat rows (None for linear structures).

The structure functions c[a, b, j] (antisymmetric in a, b) and the affine
drift coefficients on xi come from a separate method, ``structure_terms(x)
-> (c, drift)``, each None when it vanishes: they cost more than the
blocks, and the velocity residual, velocity space and core never read
them.  The phase equations cutting the supported subset of the dual
bundle are the ``_phase`` hook.

Membership in the structure is the vanishing of

    etahat(x) (xdot, y) - offset(x),
    zeta(x) (p, xidot) + c(x)[eta(x)(xdot, y), xi] + drift(x) xi,

together with the phase equations at (x, xi).  These rows are linear in w
and are assembled in one place, ``DiracAlgebroid.membership_system``, as
(J, const) with residual J w + const.  The Euler-Lagrange, Hamilton and
control dynamics (``dynamics``, ``problems``) only fill the slots of w.
"""

from typing import NamedTuple

import numpy as np

from . import fd, linalg
from .algebroid import (
    Chart,
    SkewAlgebroid,
    _antisymmetric,
    _as_base_point,
    _check_finite,
)
from .errors import (
    BasePointMismatchError,
    ConstraintError,
    EvaluationError,
    StructureError,
)

PHASE_TOL = 1e-9
BASE_MATCH_TOL = 1e-12


class PontryaginPoint:
    """Point (x, xi, xdot, xidot, p, y) of the Pontryagin bundle over the dual."""

    __slots__ = ("x", "xi", "xdot", "xidot", "p", "y")

    def __init__(self, x, xi, xdot, xidot, p, y):
        self.x = np.asarray(x, dtype=float).reshape(-1)
        self.xi = np.asarray(xi, dtype=float).reshape(-1)
        self.xdot = np.asarray(xdot, dtype=float).reshape(-1)
        self.xidot = np.asarray(xidot, dtype=float).reshape(-1)
        self.p = np.asarray(p, dtype=float).reshape(-1)
        self.y = np.asarray(y, dtype=float).reshape(-1)
        n, m = self.x.size, self.xi.size
        if self.xdot.size != n or self.p.size != n:
            raise EvaluationError("xdot/p length does not match the base dimension")
        if self.xidot.size != m or self.y.size != m:
            raise EvaluationError("xidot/y length does not match the fiber dimension")
        for name in self.__slots__:
            v = getattr(self, name)
            if not np.all(np.isfinite(v)):
                raise EvaluationError(f"coordinate block '{name}' has non-finite entries")

    def fiber_vector(self):
        """Fiber part stacked in the order (xdot, xidot, p, y)."""
        return np.concatenate([self.xdot, self.xidot, self.p, self.y])

    @staticmethod
    def from_fiber_vector(x, xi, w):
        x = np.asarray(x, dtype=float).reshape(-1)
        xi = np.asarray(xi, dtype=float).reshape(-1)
        n, m = x.size, xi.size
        w = np.asarray(w, dtype=float).reshape(-1)
        if w.size != 2 * (n + m):
            raise EvaluationError("fiber vector length does not match 2(n+m)")
        return PontryaginPoint(
            x, xi, w[:n], w[n:n + m], w[n + m:2 * n + m], w[2 * n + m:]
        )

    def __repr__(self):
        return (
            f"PontryaginPoint(x={self.x}, xi={self.xi}, xdot={self.xdot}, "
            f"xidot={self.xidot}, p={self.p}, y={self.y})"
        )


class VelocityPair:
    """Element (x, xdot, y) of the velocity bundle TM (+) E."""

    __slots__ = ("x", "xdot", "y")

    def __init__(self, x, xdot, y):
        self.x = np.asarray(x, dtype=float).reshape(-1)
        self.xdot = np.asarray(xdot, dtype=float).reshape(-1)
        self.y = np.asarray(y, dtype=float).reshape(-1)
        if self.xdot.size != self.x.size:
            raise EvaluationError("xdot length does not match the base dimension")
        for name in self.__slots__:
            if not np.all(np.isfinite(getattr(self, name))):
                raise EvaluationError(f"coordinate block '{name}' has non-finite entries")


def pairing(p1, p2, tol=BASE_MATCH_TOL):
    """Symmetric pairing of two Pontryagin points over the same base point.

    Returns (p1 . xdot2 + y1 . xidot2 + p2 . xdot1 + y2 . xidot1) / 2; the
    self-pairing is p . xdot + y . xidot.
    """
    if p1.x.size != p2.x.size or p1.xi.size != p2.xi.size:
        raise BasePointMismatchError("points live over charts of different dimensions")
    if np.max(np.abs(p1.x - p2.x), initial=0.0) > tol or np.max(
        np.abs(p1.xi - p2.xi), initial=0.0
    ) > tol:
        raise BasePointMismatchError("pairing requires a common (x, xi) base point")
    return 0.5 * (
        float(p1.p @ p2.xdot) + float(p1.y @ p2.xidot)
        + float(p2.p @ p1.xdot) + float(p2.y @ p1.xidot)
    )


def scale_fiber(point, t):
    """First homothety: scale (xdot, xidot, p, y) by t, keeping (x, xi)."""
    return PontryaginPoint(
        point.x, point.xi, t * point.xdot, t * point.xidot, t * point.p, t * point.y
    )


def scale_dual(point, s):
    """Second homothety: scale (xi, xidot, p) by s, keeping (x, xdot, y)."""
    return PontryaginPoint(
        point.x, s * point.xi, point.xdot, s * point.xidot, s * point.p, point.y
    )


class LocalForm(NamedTuple):
    """Coordinate blocks of a local form at one base point (see module docs)."""

    eta: np.ndarray
    etahat: np.ndarray
    zeta: np.ndarray
    offset: np.ndarray | None = None


class DiracAlgebroid:
    """Common behavior of all representations, driven by the local form.

    A representation overrides ``local_form(x)``, which returns the blocks,
    and, where they do not vanish, ``structure_terms(x)``, which gives the
    structure terms only membership reads, and the phase hook
    ``_phase(x, xi)``.

    Every structure carries the adapted selectors of the constraints it was
    induced by: ``zero_fiber`` (fiber indices pinned to y = 0),
    ``zero_base`` (base indices of the support x = 0) and ``fixed_fiber``
    (the fiber index pinned to y = 1, or None).  They are empty except on
    ``InducedDirac``; ``free_fiber`` lists the fiber indices left free.
    """

    kind = "abstract"

    def __init__(self, chart, zero_fiber=(), zero_base=(), fixed_fiber=None):
        self.chart = chart
        self.zero_fiber = tuple(zero_fiber)
        self.zero_base = tuple(zero_base)
        self.fixed_fiber = fixed_fiber
        pinned = set(self.zero_fiber) | ({fixed_fiber} - {None})
        self.free_fiber = tuple(i for i in range(chart.fiber_dim) if i not in pinned)
        self._free = np.array(self.free_fiber, dtype=int)
        self._support = np.array(self.zero_base, dtype=int)
        # the pinned fiber values, None when every fiber index is free
        self._pinned_fiber = None
        if pinned:
            self._pinned_fiber = np.zeros(chart.fiber_dim)
            if fixed_fiber is not None:
                self._pinned_fiber[fixed_fiber] = 1.0

    def embed_fiber(self, y_free):
        """Fiber vector with components ``y_free`` at ``free_fiber``, the pinned ones set."""
        if self._pinned_fiber is None:
            return np.asarray(y_free, dtype=float)
        y = self._pinned_fiber.copy()
        y[self._free] = y_free
        return y

    def local_form(self, x):
        """The blocks (eta, etahat, zeta, offset) at base point x."""
        raise NotImplementedError

    def structure_terms(self, x):
        """(structure functions (r, r, m), affine drift (r, m) on xi) at x.

        Either is None when it vanishes.
        """
        return None, None

    def _phase(self, x, xi):
        """Phase equations at a checked (x, xi): the support equations x^A = 0."""
        return x[self._support]

    # -- membership ----------------------------------------------------------

    def membership_system(self, x, xi):
        """Linear system (J, const): membership residual is J w + const."""
        x = _as_base_point(self.chart, x)
        xi = np.asarray(xi, dtype=float).reshape(-1)
        m = self.chart.fiber_dim
        if xi.size != m:
            raise EvaluationError(f"xi has length {xi.size}, expected {m}")
        return self._membership(x, xi)

    def _membership(self, x, xi):
        """``membership_system`` for an (x, xi) the caller has already checked."""
        n, m = self.chart.base_dim, self.chart.fiber_dim
        lf = self.local_form(x)
        q = lf.etahat.shape[0]
        if q + lf.zeta.shape[0] != n + m:
            raise StructureError(
                f"local form has {q} + {lf.zeta.shape[0]} rows, expected n + m = {n + m}"
            )
        J = np.zeros((n + m, 2 * (n + m)))
        const = np.zeros(n + m)
        # velocity rows act on (xdot, y)
        J[:q, :n] = lf.etahat[:, :n]
        J[:q, 2 * n + m:] = lf.etahat[:, n:]
        if lf.offset is not None:
            const[:q] = -lf.offset
        # momentum rows act on (p, xidot) plus the structure term through eta
        J[q:, n + m:2 * n + m] = lf.zeta[:, :n]
        J[q:, n:n + m] = lf.zeta[:, n:]
        c, drift = self.structure_terms(x)
        if c is not None:
            mix = np.einsum("abj,j->ab", c, xi) @ lf.eta
            J[q:, :n] += mix[:, :n]
            J[q:, 2 * n + m:] += mix[:, n:]
        if drift is not None:
            const[q:] += drift @ xi
        return J, const

    def residual(self, point):
        """Defining-constraint values at a Pontryagin point; zero on members."""
        J, const = self.membership_system(point.x, point.xi)
        return J @ point.fiber_vector() + const

    # -- pointwise subspaces ---------------------------------------------------

    def basis_matrix_at(self, x, xi):
        """Orthonormal kernel basis (columns) of the linearized membership system."""
        ok, res = self.phase_membership(x, xi)
        if not ok:
            raise ConstraintError(
                f"(x, xi) is not in the phase support: residual {res}"
            )
        J, _ = self.membership_system(x, xi)
        basis = linalg.null_space(J)
        expected = self.chart.base_dim + self.chart.fiber_dim
        if basis.shape[1] != expected:
            raise StructureError(
                f"pointwise subspace has dimension {basis.shape[1]}, expected "
                f"{expected} (numeric rank {linalg.numeric_rank(J)})"
            )
        return basis

    def basis_at(self, x, xi):
        """Kernel basis as PontryaginPoint directions at (x, xi)."""
        basis = self.basis_matrix_at(x, xi)
        return [
            PontryaginPoint.from_fiber_vector(x, xi, basis[:, k])
            for k in range(basis.shape[1])
        ]

    def isotropy_violation(self, x, xi):
        """Largest |pairing| of two basis vectors of the subspace at (x, xi).

        The pairing matches the (xdot, xidot) half of one fiber vector with
        the (p, y) half of the other, so the basis B pairs as (G + G^T)/2
        with G = B[:n+m]^T B[n+m:].
        """
        basis = self.basis_matrix_at(x, xi)
        half = self.chart.base_dim + self.chart.fiber_dim
        gram = basis[:half].T @ basis[half:]
        return float(np.max(np.abs(0.5 * (gram + gram.T))))

    def velocity_residual(self, pair):
        """etahat rows at a velocity pair; zero iff the pair is admissible."""
        x = _as_base_point(self.chart, pair.x)
        lf = self.local_form(x)
        out = lf.etahat @ np.concatenate([pair.xdot, pair.y])
        if lf.offset is not None:
            out = out - lf.offset
        return out

    def velocity_space(self, x):
        """Orthonormal columns spanning the (model) velocity fiber at x."""
        x = _as_base_point(self.chart, x)
        return linalg.null_space(self.local_form(x).etahat)

    def core_at(self, x):
        """Orthonormal columns (p, xidot) spanning the core fiber at x."""
        x = _as_base_point(self.chart, x)
        zeta = self.local_form(x).zeta
        core = linalg.null_space(zeta)
        n, m = self.chart.base_dim, self.chart.fiber_dim
        r = zeta.shape[0]
        if core.shape[1] != n + m - r:
            raise StructureError(
                f"core has dimension {core.shape[1]}, expected {n + m - r} "
                f"(numeric rank {linalg.numeric_rank(zeta)})"
            )
        return core

    # -- phase support -----------------------------------------------------------

    def phase_residual(self, x, xi):
        x = _as_base_point(self.chart, x)
        xi = np.asarray(xi, dtype=float).reshape(-1)
        return self._phase(x, xi)

    def phase_membership(self, x, xi, tol=PHASE_TOL):
        """(bool, residual): whether (x, xi) satisfies the phase equations."""
        res = self.phase_residual(x, xi)
        return bool(np.max(np.abs(res), initial=0.0) <= tol), res

    def project_support(self, x):
        """Project a base point onto the base support x^A = 0."""
        x = np.array(x, dtype=float).reshape(-1)
        x[self._support] = 0.0
        return x

    def phase_point(self, x):
        """Some xi with (x, xi) in the phase support (zero if unconstrained)."""
        x = _as_base_point(self.chart, x)
        m = self.chart.fiber_dim
        xi0 = np.zeros(m)
        res0 = self.phase_residual(x, xi0)
        if res0.size == 0:
            return xi0
        B = fd.jacobian(lambda z: self.phase_residual(x, z), xi0)
        sol, *_ = np.linalg.lstsq(B, -res0, rcond=None)
        xi = xi0 + sol
        ok, res = self.phase_membership(x, xi)
        if not ok:
            raise ConstraintError(
                f"no dual point found on the phase support at x={x}: residual {res}"
            )
        return xi

    def sample_phase_point(self, rng, scale=1.0):
        """Random (x, xi) on the phase support."""
        n, m = self.chart.base_dim, self.chart.fiber_dim
        x = self.project_support(scale * rng.standard_normal(n))
        xi0 = self.phase_point(x)
        res0 = self.phase_residual(x, xi0)
        if res0.size:
            B = fd.jacobian(lambda z: self.phase_residual(x, z), xi0)
            K = linalg.null_space(B)
            xi = xi0 + K @ (scale * rng.standard_normal(K.shape[1]))
        else:
            xi = scale * rng.standard_normal(m)
        return x, xi


def _constant(block):
    """Read-only float copy of an x-independent local-form block."""
    block = np.array(block, dtype=float)
    block.flags.writeable = False
    return block


class PiGraphDirac(DiracAlgebroid):
    """Graph of the linear bivector of a skew algebroid.

    Membership equations: xdot = rho(x) y and, for each j,
    xidot_j - c^k_{ij}(x) y^i xi_k + rho^a_j(x) p_a = 0.  The phase support
    is the whole dual bundle.
    """

    kind = "pi_graph"

    def __init__(self, algebroid):
        super().__init__(algebroid.chart)
        self.algebroid = algebroid
        n, m = self.chart.base_dim, self.chart.fiber_dim
        # eta is constant; etahat and zeta are copies of constant templates
        # with the anchor filled in
        self._eta = _constant(np.hstack([np.zeros((m, n)), np.eye(m)]))
        self._etahat = _constant(np.hstack([np.eye(n), np.zeros((n, m))]))

    def local_form(self, x):
        n = self.chart.base_dim
        rho = self.algebroid.anchor(x)
        etahat = self._etahat.copy()
        etahat[:, n:] = -rho
        zeta = self._eta.copy()
        zeta[:, :n] = rho.T
        return LocalForm(self._eta, etahat, zeta)

    def structure_terms(self, x):
        return self.algebroid.structure(x), None


class OmegaGraphDirac(DiracAlgebroid):
    """Graph of a linear 2-form on the dual bundle.

    Fields: ``rho(x)`` of shape (m, n) and a coefficient field ``cform(x)``
    of shape (n, n, m), antisymmetric in its first two indices.  Membership
    equations: y = rho(x) xdot and, for each a,
    p_a - cform[a, b, k] xi_k xdot^b + rho^i_a xidot_i = 0.
    """

    kind = "omega_graph"

    def __init__(self, chart, rho, cform):
        super().__init__(chart)
        n, m = chart.base_dim, chart.fiber_dim
        self._rho = rho
        self._cform = cform
        # eta is constant; etahat and zeta are copies of constant templates
        # with rho filled in
        self._eta = _constant(np.hstack([np.eye(n), np.zeros((n, m))]))
        self._etahat = _constant(np.hstack([np.zeros((m, n)), np.eye(m)]))

    def local_form(self, x):
        n, m = self.chart.base_dim, self.chart.fiber_dim
        rho = _check_finite("rho", self._rho(x))
        if rho.shape != (m, n):
            raise EvaluationError(f"rho has shape {rho.shape}, expected ({m}, {n})")
        etahat = self._etahat.copy()
        etahat[:, :n] = -rho
        zeta = self._eta.copy()
        zeta[:, n:] = rho.T
        return LocalForm(self._eta, etahat, zeta)

    def structure_terms(self, x):
        n, m = self.chart.base_dim, self.chart.fiber_dim
        c = _check_finite("cform", self._cform(x))
        if c.shape != (n, n, m):
            raise EvaluationError(f"cform has shape {c.shape}, expected ({n}, {n}, {m})")
        return -_antisymmetric("cform", c), None


class CanonicalDirac(DiracAlgebroid):
    """Canonical structure on the dual of a tangent bundle (requires n = m).

    Membership equations: xdot = y, xidot = -p.
    """

    kind = "canonical"

    def __init__(self, dim, base_labels=None):
        chart = Chart(dim, dim, base_labels=base_labels)
        super().__init__(chart)
        eye = np.eye(dim)
        self._form = LocalForm(
            eta=_constant(np.hstack([np.zeros((dim, dim)), eye])),
            etahat=_constant(np.hstack([eye, -eye])),
            zeta=_constant(np.hstack([eye, eye])),
        )

    def local_form(self, x):
        return self._form

    def as_pi_graph(self):
        """The same structure as the graph of the trivial algebroid bivector."""
        n = self.chart.base_dim
        algebroid = SkewAlgebroid(
            self.chart,
            anchor=lambda x: np.eye(n),
            structure=lambda x: np.zeros((n, n, n)),
            name="canonical",
        )
        return PiGraphDirac(algebroid)


class GeneralLocalDirac(DiracAlgebroid):
    """User-supplied local form (velocity/dual coordinate maps plus structure).

    ``eta`` (r rows) and ``etahat`` act on (xdot, y); ``zeta`` (r rows) acts
    on (p, xidot); ``structure(x)`` has shape (r, r, m), antisymmetric in
    its first two indices; ``phase`` evaluates affine equations
    a(x) + B(x) xi.  ``membership_system`` assembles membership, and with
    it every formalism's dynamics, from these maps.  The rank r is taken
    from the evaluated matrix shapes and verified numerically through the
    kernel-dimension check of ``basis_at``.
    """

    kind = "general_local"

    def __init__(self, chart, eta, etahat, zeta, structure=None, phase=None):
        super().__init__(chart)
        self._blocks = (eta, etahat, zeta)
        self._structure = structure
        self._phase_eqs = phase

    def local_form(self, x):
        return LocalForm(*(np.asarray(block(x), dtype=float) for block in self._blocks))

    def structure_terms(self, x):
        if self._structure is None:
            return None, None
        m = self.chart.fiber_dim
        c = _check_finite("structure", self._structure(x))
        if c.ndim != 3 or c.shape[0] != c.shape[1] or c.shape[2] != m:
            raise EvaluationError(f"structure has shape {c.shape}, expected (r, r, {m})")
        return _antisymmetric("local-form structure functions", c), None

    def _phase(self, x, xi):
        if self._phase_eqs is None:
            return np.zeros(0)
        return np.asarray(self._phase_eqs(x, xi), dtype=float).reshape(-1)

    @classmethod
    def from_velocity_splitting(cls, chart, eta, etahat, structure=None, phase=None):
        """Build the dual map from the velocity splitting.

        The stacked map T = [eta; etahat] must be invertible; ``zeta`` is
        the first r rows of inv(T).T, which makes the pointwise subspaces
        isotropic by construction.
        """
        def zeta(x):
            e = np.asarray(eta(x), float)
            T = np.vstack([e, np.asarray(etahat(x), float)])
            return np.linalg.inv(T).T[:e.shape[0]]

        return cls(chart, eta, etahat, zeta, structure, phase)

    def validate(self, probe_points, tol=1e-10):
        """Check invertibility, the rank of zeta, isotropy and kernel dimension.

        [eta; etahat] must be a linear isomorphism, and zeta must have full
        row rank with as many rows as eta, at every probe point.
        """
        for x in probe_points:
            x = np.asarray(x, dtype=float).reshape(-1)
            eta, etahat, zeta, _ = self.local_form(x)
            T = np.vstack([eta, etahat])
            if linalg.numeric_rank(T) != T.shape[0] or T.shape[0] != T.shape[1]:
                raise StructureError("eta/etahat do not form a linear isomorphism")
            if zeta.shape[0] != eta.shape[0] or linalg.numeric_rank(zeta) != eta.shape[0]:
                raise StructureError(
                    f"zeta must have full row rank {eta.shape[0]}, the row count of eta"
                )
            if self.isotropy_violation(x, self.phase_point(x)) > tol:
                raise StructureError(f"pointwise subspace at x={x} is not isotropic")


class InducedDirac(DiracAlgebroid):
    """Structure induced from a bivector graph by adapted constraints.

    Built from a skew algebroid together with index selectors: base indices
    A with x^A = 0 (the support), constrained fiber indices with y = 0, and
    optionally one distinguished fiber index pinned to y = 1 (the affine
    case).  Membership equations in the adapted coordinates:

        x^A = 0 (phase),
        xdot = rho(x)[:, free] y_free (+ rho(x)[:, fixed] in the affine case),
        y_constrained = 0 (and y_fixed = 1),
        for each free kappa:
            xidot_kappa + rho^a_kappa p_a
            - c^j_{iota kappa} y^iota xi_j (- c^j_{fixed kappa} xi_j) = 0,

    while the xidot components of the constrained indices stay free.
    """

    kind = "induced"

    def __init__(self, algebroid, zero_fiber=(), zero_base=(), fixed_fiber=None):
        n, m = algebroid.chart.base_dim, algebroid.chart.fiber_dim
        zero_fiber = tuple(sorted(set(int(i) for i in zero_fiber)))
        zero_base = tuple(sorted(set(int(a) for a in zero_base)))
        if any(i < 0 or i >= m for i in zero_fiber):
            raise ConstraintError(f"fiber selector out of range for fiber_dim={m}")
        if any(a < 0 or a >= n for a in zero_base):
            raise ConstraintError(f"base selector out of range for base_dim={n}")
        if fixed_fiber is not None:
            fixed_fiber = int(fixed_fiber)
            if fixed_fiber < 0 or fixed_fiber >= m:
                raise ConstraintError("fixed fiber index out of range")
            if fixed_fiber in zero_fiber:
                raise ConstraintError("fixed fiber index also marked zero")
        super().__init__(algebroid.chart, zero_fiber, zero_base, fixed_fiber)
        self.algebroid = algebroid
        free = self._free
        constrained = np.setdiff1d(np.arange(m), free)
        # eta is constant; etahat and zeta are copies of constant templates
        # with the anchor filled in
        self._eta = _constant(np.eye(n + m)[n + free])
        self._etahat = _constant(np.eye(n + m)[np.r_[np.arange(n), n + constrained]])
        if fixed_fiber is not None:
            # etahat row of the selector y_fixed = 1
            self._fixed_row = n + int(np.searchsorted(constrained, fixed_fiber))

    def local_form(self, x):
        n = self.chart.base_dim
        free = self._free
        rho = self.algebroid.anchor(x)
        etahat = self._etahat.copy()
        etahat[:n, n + free] = -rho[:, free]
        zeta = self._eta.copy()
        zeta[:, :n] = rho[:, free].T
        offset = None
        if self.fixed_fiber is not None:
            offset = np.zeros(etahat.shape[0])
            offset[:n] = rho[:, self.fixed_fiber]
            offset[self._fixed_row] = 1.0
        return LocalForm(self._eta, etahat, zeta, offset)

    def structure_terms(self, x):
        c = self.algebroid.structure(x)
        drift = None if self.fixed_fiber is None else c[self._free, self.fixed_fiber, :]
        return c[np.ix_(self._free, self._free)], drift


class TimeExtendedDirac(DiracAlgebroid):
    """Affine extension by a clock coordinate with unit speed.

    The base gains a leading coordinate t with the equation tdot = 1; its
    conjugate momentum slot stays free (a new core direction).  All other
    data of the underlying structure is kept, evaluated at the original
    base coordinates.
    """

    kind = "time_extended"

    def __init__(self, base):
        chart = Chart(
            base.chart.base_dim + 1,
            base.chart.fiber_dim,
            base_labels=("clock",) + base.chart.base_labels,
            fiber_labels=base.chart.fiber_labels,
        )
        super().__init__(chart)
        self.base = base
        self._clock_row = _constant(np.eye(1, chart.base_dim + chart.fiber_dim))

    def local_form(self, x):
        eta, etahat, zeta, offset = self.base.local_form(x[1:])
        if offset is None:
            offset = np.zeros(etahat.shape[0])
        return LocalForm(
            _clocked(eta),
            np.vstack([self._clock_row, _clocked(etahat)]),
            _clocked(zeta),
            np.concatenate([[1.0], offset]),
        )

    def structure_terms(self, x):
        return self.base.structure_terms(x[1:])

    def _phase(self, x, xi):
        return self.base._phase(x[1:], xi)

    def project_support(self, x):
        x = np.array(x, dtype=float).reshape(-1)
        x[1:] = self.base.project_support(x[1:])
        return x


def _clocked(block):
    """Base rows with a zero column for the clock slot in front."""
    return np.hstack([np.zeros((block.shape[0], 1)), block])


def time_extend(dirac):
    """Extend a structure by a unit-speed clock coordinate."""
    return TimeExtendedDirac(dirac)
