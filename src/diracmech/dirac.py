"""Linear (almost) Dirac structures on the dual bundle.

A structure is represented pointwise inside the Pontryagin bundle over the
dual: a point carries coordinates (x, xi, xdot, xidot, p, y) where (x, xi)
is the dual-bundle base point and (xdot, xidot, p, y) the fiber part.  The
fiber part is stacked in the fixed order

    w = (xdot [n], xidot [m], p [n], y [m]),

used by every kernel computation here.

Every representation reduces to a local form: bivector graphs
(``PiGraphDirac``, and ``CanonicalDirac`` over it), general local forms
(``GeneralLocalDirac``, and the 2-form graph ``OmegaGraphDirac`` over it)
and clock extensions.  ``local_form(x)`` returns its coordinate blocks at a
base point as a ``LocalForm`` value:

* velocity coordinates ``eta`` (rank r) and complementary equations
  ``etahat`` acting on (xdot, y),
* dual coordinates ``zeta`` (r rows) acting on (p, xidot),
* the affine ``offset`` of the etahat rows (None for linear structures).

The structure functions c[a, b, j] (antisymmetric in a, b) and the affine
drift coefficients on xi come from a separate method, ``structure_terms(x)
-> (c, drift)``, each None when it vanishes: they cost more than the
blocks, and the velocity residual, velocity space and core never read
them.  The phase equations cutting the supported subset of the dual
bundle are the support equations x^A = 0 of the selectors ``zero_base``,
whose Jacobian P over (x, xi) is constant unit rows (``_phase``).

Membership in the structure is the vanishing of

    etahat(x) (xdot, y) - offset(x),
    zeta(x) (p, xidot) + c(x)[eta(x)(xdot, y), xi] + drift(x) xi,

together with the phase equations at (x, xi).  These rows are linear in w
and are written in one place, the kernel ``DiracAlgebroid._kernel``, as
(J, const) with residual J w + const; ``membership_system`` returns them.
The Euler-Lagrange, Hamilton and control dynamics (``dynamics``,
``problems``) only fill the slots of w.

(J, const) is affine in xi, with coefficients that depend on x alone.  A
structure whose coefficients do not depend on x either (``x_independent``)
tabulates them at its first membership call from m + 1 kernel evaluations,
so its user fields are evaluated m + 1 times then and never again there;
every other structure (the rolling disc) evaluates and checks them once
per call, with one check of x for all of them in ``_kernel``.  A graph
takes the fact from its algebroid, a clock extension from its base.
"""

from typing import NamedTuple

import numpy as np
from numpy.linalg import svd

from . import linalg
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
# largest pairing of two basis vectors of an isotropic pointwise subspace
ISOTROPY_TOL = 1e-10


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


def pairing(p1, p2):
    """Symmetric pairing of two Pontryagin points over the same base point.

    Returns (p1 . xdot2 + y1 . xidot2 + p2 . xdot1 + y2 . xidot1) / 2; the
    self-pairing is p . xdot + y . xidot.
    """
    if p1.x.size != p2.x.size or p1.xi.size != p2.xi.size:
        raise BasePointMismatchError("points live over charts of different dimensions")
    if np.max(np.abs(np.concatenate([p1.x - p2.x, p1.xi - p2.xi])), initial=0.0) > BASE_MATCH_TOL:
        raise BasePointMismatchError("pairing requires a common (x, xi) base point")
    return 0.5 * (
        float(p1.p @ p2.xdot) + float(p1.y @ p2.xidot)
        + float(p2.p @ p1.xdot) + float(p2.y @ p1.xidot)
    )


class LocalForm(NamedTuple):
    """Coordinate blocks of a local form at one base point (see module docs)."""

    eta: np.ndarray
    etahat: np.ndarray
    zeta: np.ndarray
    offset: np.ndarray | None = None


class DiracAlgebroid:
    """Common behavior of all representations, driven by the local form.

    A representation overrides ``_local_form(x)``, which returns the blocks,
    and, where they do not vanish, ``_structure_terms(x)``, the structure
    terms only membership reads, both at a checked x (``local_form`` and
    ``structure_terms`` check it).
    ``x_independent`` defaults to a point base; graphs read it from their
    algebroid, clock extensions from their base.  ``clock_base`` is the
    structure a clock extension extends, and None on every other structure.

    Every structure carries the adapted selectors of the constraints it was
    induced by: ``zero_fiber`` (fiber indices pinned to y = 0),
    ``zero_base`` (base indices of the support x = 0) and ``fixed_fiber``
    (the fiber index pinned to y = 1, or None).  Only ``PiGraphDirac`` takes
    them, and ``TimeExtendedDirac`` keeps its base's; ``free_fiber`` lists
    the fiber indices left free.  The support equations x^A = 0 are the
    phase equations of every structure.

    Each pinned fiber index has one selector row y^i = value in the
    membership, right after the n velocity rows: ``pinned_fiber`` lists the
    pinned indices in the order of those rows and ``pinned_values`` their
    values, and ``rate_rows`` selects the membership rows a rate solve
    keeps, every row but the selector rows.
    """

    clock_base = None

    def __init__(self, chart, zero_fiber=(), zero_base=(), fixed_fiber=None):
        self.chart = chart
        n, m = chart.base_dim, chart.fiber_dim
        self.zero_fiber = tuple(zero_fiber)
        self.zero_base = tuple(zero_base)
        self.fixed_fiber = fixed_fiber
        pinned = sorted(set(self.zero_fiber) | ({fixed_fiber} - {None}))
        self.pinned_fiber = tuple(pinned)
        self.pinned_values = np.array([float(i == fixed_fiber) for i in pinned])
        free = self.free_fiber = tuple(i for i in range(m) if i not in pinned)
        # slices where they can be: a view, on a 6x12 J, costs about 0.3 us
        # per call against 2-2.6 us for an index array
        self.rate_rows = np.r_[0:n, n + len(pinned):n + m] if pinned else slice(None)
        self._free = (slice(free[0], free[-1] + 1) if free and free[-1] - free[0] == len(free) - 1
                      else np.array(free, dtype=int))
        self._support = np.array(self.zero_base, dtype=int)
        # Jacobian over (x, xi) of the support equations x^A = 0
        self._support_rows = _constant(np.eye(n + m)[self._support])
        # the fiber vector with the pinned values set; when every fiber index
        # is free, embedding is the float conversion itself, bound once
        if pinned:
            self._pinned_fiber = np.zeros(m)
            self._pinned_fiber[pinned] = self.pinned_values
        else:
            self.embed_fiber = linalg.floats
        # the columns of w = (xdot, xidot, p, y) among (xdot, y, p, xidot)
        self._w_columns = np.r_[0:n, n + m + n:2 * (n + m), n + m:n + m + n, n:n + m]
        # (J0, J_k, c0, c_k) of an x-independent structure, built on first use
        self._table = None

    @property
    def x_independent(self):
        """Whether the local form and structure terms are the same at every x:
        by default only on a point base (a Lie algebra), which has no x."""
        return self.chart.base_dim == 0

    def embed_fiber(self, y_free):
        """Fiber vector with components ``y_free`` at ``free_fiber``, the pinned
        ones set: a float64 ``y_free`` itself when no fiber is pinned."""
        y = self._pinned_fiber.copy()
        y[self._free] = y_free
        return y

    def local_form(self, x):
        """The blocks (eta, etahat, zeta, offset) at base point x."""
        return self._local_form(_as_base_point(self.chart, x))

    def structure_terms(self, x):
        """(structure functions (r, r, m), affine drift (r, m) on xi) at
        base point x; either is None when it vanishes."""
        return self._structure_terms(_as_base_point(self.chart, x))

    def _structure_terms(self, x):
        return None, None

    def _phase(self, x):
        """(values, Jacobian over (x, xi)) of the phase equations at a checked
        x: the support equations x^A = 0 and their constant unit rows."""
        return x[self._support], self._support_rows

    # -- membership ----------------------------------------------------------

    def membership_system(self, x, xi):
        """Linear system (J, const): membership residual is J w + const."""
        return self._membership(*self._point(x, xi))

    def _point(self, x, xi):
        """(x, xi) checked: a finite base point of the chart and an xi of length m."""
        x = _as_base_point(self.chart, x)
        xi = np.asarray(xi, dtype=float).reshape(-1)
        m = self.chart.fiber_dim
        if xi.size != m:
            raise EvaluationError(f"xi has length {xi.size}, expected {m}")
        return x, xi

    def _membership(self, x, xi):
        """``membership_system`` at an xi of length m and an unchecked x.

        ``problems`` passes the raw slices of a state; ``_kernel`` checks x
        once per evaluation.  An x-independent structure tabulates (J0,
        J_k, c0, c_k) on its first call, from the kernel at xi = 0 and at
        the unit vectors, and reads no x after that.
        """
        table = self._table
        if table is None:
            if not self.x_independent:
                return self._kernel(x, xi)
            J0, c0 = self._kernel(x, np.zeros(xi.size))
            units = [self._kernel(x, e) for e in np.eye(xi.size)]
            table = self._table = (J0, np.stack([J - J0 for J, _ in units], axis=-1),
                                   c0, np.stack([c - c0 for _, c in units], axis=-1))
        J0, T, c0, D = table
        return J0 + T @ xi, c0 + D @ xi

    def _kernel(self, x, xi):
        """The membership rows (J, const) at (x, xi), from the local form; checks x once."""
        n = self.chart.base_dim
        N = n + self.chart.fiber_dim
        x = _as_base_point(self.chart, x)
        eta, etahat, zeta, offset = self._local_form(x)
        q = len(etahat)
        if q + len(zeta) != N:
            raise StructureError(f"local form has {q} + {len(zeta)} rows, expected n + m = {N}")
        # the rows are written with their columns in local-form order, (xdot, y)
        # then (p, xidot), and taken into the order of w at the end
        K = np.zeros((N, 2 * N))
        K[:q, :N] = etahat
        K[q:, N:] = zeta
        c, drift = self._structure_terms(x)
        if c is not None:
            if len(c) != len(eta):
                raise EvaluationError(f"structure functions have {len(c)} rows, eta has {len(eta)}")
            K[q:, :N] += np.einsum("abj,j->ab", c, xi) @ eta
        const = np.zeros(N)
        if offset is not None:
            const[:q] = -offset
        if drift is not None:
            const[q:] += drift @ xi
        return K.take(self._w_columns, axis=1), const

    def residual(self, point):
        """Defining-constraint values at a Pontryagin point; zero on members."""
        J, const = self.membership_system(point.x, point.xi)
        return J @ point.fiber_vector() + const

    # -- pointwise subspaces ---------------------------------------------------

    def basis_matrix_at(self, x, xi):
        """Orthonormal kernel basis (columns) of the linearized membership system."""
        return self._bases([self._point(x, xi)])[0].T

    def _bases(self, points):
        """Row bases (len(points), n + m, 2(n + m)) of the membership kernels
        at checked points (x, xi), from one SVD of the stacked rows; the first
        point off the phase support raises ConstraintError, then the first
        kernel of the wrong dimension StructureError."""
        half = self.chart.base_dim + self.chart.fiber_dim
        stack = np.empty((len(points), half, 2 * half))
        for k, (x, xi) in enumerate(points):
            res = self._phase(x)[0]
            if not _on_support(res):
                raise ConstraintError(f"(x, xi) is not in the phase support: residual {res}")
            stack[k] = self._membership(x, xi)[0]
        _, s, vh = svd(stack)
        for rank in linalg.ranks(s):
            if rank != half:
                raise StructureError(
                    f"pointwise subspace has dimension {2 * half - rank}, expected "
                    f"{half} (numeric rank {rank})"
                )
        return vh[:, half:]

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
        return self._isotropy_violation([self._point(x, xi)])

    def _isotropy_violation(self, points):
        """Largest ``isotropy_violation`` over checked points (x, xi), 0.0 for
        none: one SVD and one stacked product for all of them."""
        rows = self._bases(points)
        half = rows.shape[1]
        gram = rows[:, :, :half] @ rows[:, :, half:].transpose(0, 2, 1)
        return float(np.max(np.abs(0.5 * (gram + gram.transpose(0, 2, 1))), initial=0.0))

    def velocity_residual(self, pair):
        """etahat rows at a velocity pair; zero iff the pair is admissible."""
        m = self.chart.fiber_dim
        if pair.y.size != m:
            raise EvaluationError(f"y has length {pair.y.size}, expected {m}")
        lf = self.local_form(pair.x)
        out = lf.etahat @ np.concatenate([pair.xdot, pair.y])
        if lf.offset is not None:
            out = out - lf.offset
        return out

    def velocity_space(self, x):
        """Orthonormal columns spanning the (model) velocity fiber at x."""
        return linalg.null_space(self.local_form(x).etahat)

    def core_at(self, x):
        """Orthonormal columns (p, xidot) spanning the core fiber at x."""
        return self._core(self.local_form(x).zeta)

    def _core(self, zeta):
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
        """Support equation values x^A at (x, xi), checked as in ``membership_system``."""
        return self._phase(self._point(x, xi)[0])[0]

    def phase_membership(self, x, xi):
        """(bool, residual): whether (x, xi) satisfies the phase equations."""
        res = self.phase_residual(x, xi)
        return _on_support(res), res

    def project_support(self, x):
        """Project a base point onto the base support x^A = 0."""
        x = np.array(x, dtype=float).reshape(-1)
        x[self._support] = 0.0
        return x

    def sample_phase_point(self, rng):
        """Random (x, xi) on the phase support, as float arrays of lengths n and
        m: a standard normal x projected onto the base support, then a standard
        normal xi, which the support leaves free."""
        n, m = self.chart.base_dim, self.chart.fiber_dim
        return self.project_support(rng.standard_normal(n)), rng.standard_normal(m)


def _on_support(res):
    """Whether phase values ``res`` vanish to within PHASE_TOL."""
    return bool(np.max(np.abs(res), initial=0.0) <= PHASE_TOL)


def _constant(block):
    """Read-only float copy of a constant block."""
    block = np.array(block, dtype=float)
    block.flags.writeable = False
    return block


class PiGraphDirac(DiracAlgebroid):
    """Graph of the linear bivector of a skew algebroid, under adapted constraints.

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

    while the xidot components of the constrained indices stay free.  With
    no selectors this is the plain graph, xdot = rho(x) y and
    xidot_j - c^k_{ij}(x) y^i xi_k + rho^a_j(x) p_a = 0 on the whole dual
    bundle.
    """

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
        # eta is constant; etahat and zeta are copies of constant templates
        # with the anchor filled in; the selector rows follow the n velocity rows
        eye = np.eye(n + m)
        self._eta = _constant(eye[n:][self._free])
        self._etahat = _constant(eye[list(range(n)) + [n + i for i in self.pinned_fiber]])
        free = self._free
        # the free block of c as one index
        self._free_block = (free, free) if isinstance(free, slice) else np.ix_(free, free)
        if fixed_fiber is not None:
            # etahat row of the selector y_fixed = 1
            self._fixed_row = n + self.pinned_fiber.index(fixed_fiber)

    @property
    def x_independent(self):
        return self.algebroid.x_independent

    def _local_form(self, x):
        n = self.chart.base_dim
        rho = self.algebroid._anchor(x)
        free_rho = rho[:, self._free]
        etahat = self._etahat.copy()
        etahat[:n, n:][:, self._free] = -free_rho
        zeta = self._eta.copy()
        zeta[:, :n] = free_rho.T
        offset = None
        if self.fixed_fiber is not None:
            offset = np.zeros(etahat.shape[0])
            offset[:n] = rho[:, self.fixed_fiber]
            offset[self._fixed_row] = 1.0
        return LocalForm(self._eta, etahat, zeta, offset)

    def _structure_terms(self, x):
        c = self.algebroid._structure(x)
        drift = None if self.fixed_fiber is None else c[self._free, self.fixed_fiber, :]
        return c[self._free_block], drift


class CanonicalDirac(PiGraphDirac):
    """Canonical structure on the dual of a tangent bundle: xdot = y, xidot = -p.

    The graph of the x-independent trivial algebroid, so it and every
    structure induced from it tabulate their membership rows.
    """

    def __init__(self, dim, base_labels=None):
        super().__init__(SkewAlgebroid.trivial(Chart(dim, dim, base_labels), name="canonical"))


class GeneralLocalDirac(DiracAlgebroid):
    """User-supplied local form (velocity/dual coordinate maps plus structure).

    ``blocks(x)`` returns (eta, etahat, zeta) in one call: ``eta`` (r rows)
    and ``etahat`` act on (xdot, y), ``zeta`` (r rows) on (p, xidot).
    ``structure(x)`` has shape (r, r, m), antisymmetric in its first two
    indices.  The form is supported on the whole dual bundle, and
    ``membership_system`` assembles membership, and with it every
    formalism's dynamics, from these maps.  The rank r is taken from the
    evaluated matrix shapes and verified numerically through the
    kernel-dimension check of ``basis_at``.
    """

    def __init__(self, chart, blocks, structure=None):
        super().__init__(chart)
        self._blocks = blocks
        self._structure = structure

    def _local_form(self, x):
        width = self.chart.base_dim + self.chart.fiber_dim
        return LocalForm(*(_block(name, value, width)
                           for name, value in zip(("eta", "etahat", "zeta"), self._blocks(x))))

    def _structure_terms(self, x):
        if self._structure is None:
            return None, None
        m = self.chart.fiber_dim
        c = _check_finite("structure", self._structure(x))
        if c.ndim != 3 or c.shape[0] != c.shape[1] or c.shape[2] != m:
            raise EvaluationError(f"structure has shape {c.shape}, expected (r, r, {m})")
        return _antisymmetric("local-form structure functions", c), None

    @staticmethod
    def from_velocity_splitting(chart, eta, etahat, structure=None):
        """Build the dual map from the velocity splitting.

        The stacked map T = [eta; etahat] must be invertible; ``zeta`` is
        the first r rows of inv(T).T, which makes the pointwise subspaces
        isotropic by construction.  A singular T raises StructureError.
        ``eta`` and ``etahat`` are evaluated once per point.
        """
        width = chart.base_dim + chart.fiber_dim

        def blocks(x):
            e, eh = _block("eta", eta(x), width), _block("etahat", etahat(x), width)
            return e, eh, np.linalg.inv(_isomorphism(e, eh, x)).T[:len(e)]

        return GeneralLocalDirac(chart, blocks, structure)

    def validate(self, probe_points):
        """Check invertibility, the rank of zeta, isotropy and kernel dimension.

        [eta; etahat] must be a linear isomorphism, and zeta must have full
        row rank with as many rows as eta, at every probe point.
        """
        for x in probe_points:
            x = np.asarray(x, dtype=float).reshape(-1)
            eta, etahat, zeta, _ = self.local_form(x)
            _isomorphism(eta, etahat, x)
            if zeta.shape[0] != eta.shape[0] or linalg.numeric_rank(zeta) != eta.shape[0]:
                raise StructureError(
                    f"zeta must have full row rank {eta.shape[0]}, the row count of eta"
                )
            if self.isotropy_violation(x, np.zeros(self.chart.fiber_dim)) > ISOTROPY_TOL:
                raise StructureError(f"pointwise subspace at x={x} is not isotropic")


def _block(name, value, width):
    """``value`` as a finite 2-D local-form block with ``width`` columns."""
    value = _check_finite(name, value)
    if value.ndim != 2 or value.shape[1] != width:
        raise EvaluationError(f"{name} has shape {value.shape}, expected 2-D with {width} columns")
    return value


def _isomorphism(eta, etahat, x):
    """The stacked map [eta; etahat] at x, which must be a linear isomorphism."""
    T = np.vstack([eta, etahat])
    if T.shape[0] != T.shape[1] or linalg.numeric_rank(T) != T.shape[0]:
        raise StructureError(f"eta/etahat do not form a linear isomorphism at x={x}")
    return T


class OmegaGraphDirac(GeneralLocalDirac):
    """Graph of a linear 2-form on the dual bundle: a general local form.

    Fields: ``rho(x)`` of shape (m, n) and a coefficient field ``cform(x)``
    of shape (n, n, m), antisymmetric in its first two indices.  Membership
    equations: y = rho(x) xdot and, for each a,
    p_a - cform[a, b, k] xi_k xdot^b + rho^i_a xidot_i = 0, i.e. the blocks
    eta = (1, 0), etahat = (-rho, 1), zeta = (1, rho^T) and structure -cform.
    """

    def __init__(self, chart, rho, cform):
        n, m = chart.base_dim, chart.fiber_dim
        eta = _constant(np.eye(n, n + m))  # shared; etahat and zeta are fresh

        def blocks(x):
            r = _check_finite("rho", rho(x))
            if r.shape != (m, n):
                raise EvaluationError(f"rho has shape {r.shape}, expected ({m}, {n})")
            return eta, np.hstack([-r, np.eye(m)]), np.hstack([eta[:, :n], r.T])

        super().__init__(chart, blocks, lambda x: -_check_finite("cform", cform(x)))


class TimeExtendedDirac(DiracAlgebroid):
    """Affine extension by a clock coordinate with unit speed.

    The base gains a leading coordinate t with the equation tdot = 1; its
    conjugate momentum slot stays free (a new core direction).  All other
    data of the underlying structure is kept, evaluated at the original
    base coordinates, and so are its selectors, the base indices shifted
    past the clock, which give it its base's phase equations.
    ``clock_base`` is the extended structure.
    """

    def __init__(self, base):
        chart = Chart(
            base.chart.base_dim + 1,
            base.chart.fiber_dim,
            base_labels=("clock",) + base.chart.base_labels,
            fiber_labels=base.chart.fiber_labels,
        )
        super().__init__(chart, base.zero_fiber, tuple(a + 1 for a in base.zero_base),
                         base.fixed_fiber)
        self.clock_base = base
        self._clock_row = _constant(np.eye(1, chart.base_dim + chart.fiber_dim))

    @property
    def x_independent(self):
        # the base is evaluated at x[1:]; the clock coordinate is never read
        return self.clock_base.x_independent

    def _local_form(self, x):
        eta, etahat, zeta, offset = self.clock_base._local_form(x[1:])
        if offset is None:
            offset = np.zeros(etahat.shape[0])
        return LocalForm(
            _clocked(eta),
            np.vstack([self._clock_row, _clocked(etahat)]),
            _clocked(zeta),
            np.concatenate([[1.0], offset]),
        )

    def _structure_terms(self, x):
        return self.clock_base._structure_terms(x[1:])


def _clocked(block):
    """Base rows with a zero column for the clock slot in front."""
    return np.hstack([np.zeros((block.shape[0], 1)), block])
