"""Inducing new Dirac structures from velocity constraints.

Adapted-coordinate constraints (index selectors with x^A = 0 on the base
and y^I = 0 on the fiber) admit a closed-form induced structure on
bivector-graph bases.  An ``AffineConstraint`` is a ``LinearConstraint``
that also pins one fiber index to 1 (``fixed``, None on a linear one), so
``induce`` reads the selector triple (``fiber``, ``base``, ``fixed``) of
either without telling them apart: it merges it with the selectors the
base structure carries (every structure exposes ``zero_fiber``,
``zero_base`` and ``fixed_fiber``), and ``PiGraphDirac`` checks the merged
selectors.  A general matrix form W(x), whose kernel on (xdot, y) is the
constraint subspace, is supported through the pointwise assembly only,
which doubles as an independent oracle for the closed form and reads the
constraint objects, never a structure's selectors.
"""

from typing import NamedTuple

import numpy as np

from . import linalg
from .algebroid import JACOBI_TOL
from .dirac import PiGraphDirac
from .errors import ConstraintError, StructureError

CONTAINMENT_TOL = 1e-8
# integrability verdicts: random support points, the entry size that counts
# as a violation, and the probe seed
INTEGRABILITY_PROBES = 20
INTEGRABILITY_TOL = 1e-9
INTEGRABILITY_SEED = 11


class LinearConstraint:
    """Linear velocity constraint.

    Adapted form: ``fiber`` lists fiber indices with y = 0 and ``base``
    lists base indices with x = 0 (the support).  General form: ``matrix``
    maps x to a (codim, n+m) array whose kernel on (xdot, y) is the
    constraint subspace, which must lie inside the velocity bundle.
    ``fixed`` is None: no fiber index is pinned to 1.
    """

    fixed = None

    def __init__(self, fiber=(), base=(), matrix=None):
        self.fiber = tuple(sorted(set(int(i) for i in fiber)))
        self.base = tuple(sorted(set(int(a) for a in base)))
        self.matrix = matrix
        if matrix is not None and (self.fiber or ()):  # mixed forms are ambiguous
            raise ConstraintError("give either index selectors or a matrix, not both")

    @property
    def is_adapted(self):
        return self.matrix is None


class AffineConstraint(LinearConstraint):
    """Affine velocity constraint in adapted form.

    The adapted linear constraint of ``fiber`` and ``base`` with one more
    fiber coordinate, ``fixed``, pinned to 1.
    """

    def __init__(self, fixed, fiber=(), base=()):
        super().__init__(fiber, base)
        self.fixed = int(fixed)
        if self.fixed in self.fiber:
            raise ConstraintError("the fixed index cannot also be pinned to zero")


def induce(dirac, constraint):
    """Closed-form induced structure of an adapted constraint on a graph base.

    ``constraint`` is a ``LinearConstraint`` in adapted form or an
    ``AffineConstraint``; its selectors join those the base already carries.
    """
    if not isinstance(constraint, LinearConstraint):
        raise ConstraintError("induce expects a LinearConstraint or an AffineConstraint")
    if not constraint.is_adapted:
        raise ConstraintError(
            "general matrix constraints are only supported pointwise; "
            "use pointwise_induce"
        )
    fixed = dirac.fixed_fiber if constraint.fixed is None else constraint.fixed
    if dirac.fixed_fiber not in (None, fixed):
        raise ConstraintError("base structure already pins a different fiber index")
    if not isinstance(dirac, PiGraphDirac):
        raise ConstraintError(
            f"closed-form induction needs a bivector-graph base (got {type(dirac).__name__})"
        )
    return PiGraphDirac(dirac.algebroid, zero_fiber=dirac.zero_fiber + constraint.fiber,
                        zero_base=dirac.zero_base + constraint.base, fixed_fiber=fixed)


def _constraint_space_at(dirac, constraint, x):
    """Columns spanning the constrained velocity subspace at x."""
    n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
    if constraint.is_adapted:
        vel = dirac.velocity_space(x)
        if constraint.fiber:
            rows = np.zeros((len(constraint.fiber), n + m))
            for k, i in enumerate(constraint.fiber):
                rows[k, n + i] = 1.0
            return linalg.intersect_span_with_kernel(vel, rows)
        return vel
    W = np.atleast_2d(np.asarray(constraint.matrix(x), dtype=float))
    if W.shape[1] != n + m:
        raise ConstraintError(f"constraint matrix has {W.shape[1]} columns, expected {n + m}")
    V = linalg.null_space(W)
    # the kernel must itself consist of admissible velocity pairs
    from .dirac import VelocityPair

    for k in range(V.shape[1]):
        pair = VelocityPair(x, V[:n, k], V[n:, k])
        res = dirac.velocity_residual(pair)
        if np.max(np.abs(res), initial=0.0) > CONTAINMENT_TOL:
            raise ConstraintError(
                f"kernel of the constraint matrix leaves the velocity bundle at x={x}"
            )
    return V


def pointwise_induce(dirac, constraint, x, xi):
    """Pointwise induced subspace at (x, xi), as fiber-vector columns.

    Intersects the pointwise subspace of the base structure with the
    preimage of the constrained velocity subspace and appends the embedded
    annihilator of the constraint; the assembled span must have dimension
    n + m.  Serves as the independent oracle for ``induce``.
    """
    if not isinstance(constraint, LinearConstraint) or constraint.fixed is not None:
        raise ConstraintError("pointwise_induce expects a LinearConstraint")
    n, m = dirac.chart.base_dim, dirac.chart.fiber_dim
    x = np.asarray(x, dtype=float).reshape(-1)
    if constraint.base:
        if np.max(np.abs(x[list(constraint.base)]), initial=0.0) > 1e-12:
            raise ConstraintError("probe point is off the constraint support")
    B = dirac.basis_matrix_at(x, xi)
    V = _constraint_space_at(dirac, constraint, x)

    # directions of the base structure whose velocity part stays inside V
    vel_rows = np.zeros((n + m, 2 * (n + m)))
    vel_rows[:n, :n] = np.eye(n)
    vel_rows[n:, 2 * n + m:] = np.eye(m)
    complement = linalg.null_space(V.T).T  # rows annihilating V
    tilde = (
        linalg.intersect_span_with_kernel(B, complement @ vel_rows)
        if complement.size
        else B
    )

    # annihilator of V under p . xdot + xidot . y, embedded in the core slots
    ann = linalg.annihilator(np.hstack([V[:n].T, V[n:].T]))  # columns (p, xidot)
    embedded = np.zeros((2 * (n + m), ann.shape[1]))
    embedded[n + m:2 * n + m] = ann[:n]
    embedded[n:n + m] = ann[n:]

    span = linalg.orthonormal_span(np.hstack([tilde, embedded]))
    if span.shape[1] != n + m:
        raise StructureError(
            f"induced pointwise subspace has dimension {span.shape[1]}, expected "
            f"{n + m} (rank bookkeeping failed)"
        )
    return span


class IntegrabilityReport(NamedTuple):
    """Verdicts of the two coordinate integrability conditions."""

    cond1: bool
    cond2: bool
    anchor_violation: float
    anchor_witness: dict | None
    structure_violation: float
    structure_witness: dict | None

    @property
    def is_dirac_lie(self):
        return self.cond1 and self.cond2

    def as_dict(self):
        return dict(self._asdict(), dirac_lie=self.is_dirac_lie)


def _largest_entry(xs, blocks, indices):
    """(largest |entry|, witness) of the blocks taken at the probes xs.

    ``indices`` maps each block axis to global indices.  The witness is the
    first maximal entry in probe-then-C order, None when every entry is zero.
    """
    stacked = np.array(blocks)
    if not stacked.any():
        return 0.0, None
    flat = int(np.argmax(np.abs(stacked)))
    probe, *entry = np.unravel_index(flat, stacked.shape)
    value = float(stacked.flat[flat])
    return abs(value), {
        "entry": tuple(int(idx[e]) for idx, e in zip(indices, entry)),
        "x": xs[probe].copy(),
        "value": value,
    }


def check_integrability(induced):
    """Test whether a bivector-graph structure closes under the ambient bracket.

    Condition 1: anchor rows of the support-transverse base directions
    vanish on the constrained fiber indices' complement.  Condition 2: the
    structure functions carry no component along the removed fiber
    directions when both lower indices are free.  Both are evaluated on
    random probe points of the support; the largest violating entry is
    reported.  Requires a linear constraint over a bivector graph whose
    algebroid passes a Jacobi test.
    """
    if not isinstance(induced, PiGraphDirac):
        raise ConstraintError("integrability checks need a bivector-graph structure")
    if induced.fixed_fiber is not None:
        raise ConstraintError("integrability checks cover linear constraints only")
    algebroid = induced.algebroid
    free = list(induced.free_fiber)
    removed = list(induced.zero_fiber)
    base_idx = list(induced.zero_base)
    rng = np.random.default_rng(INTEGRABILITY_SEED)
    xs = rng.standard_normal((INTEGRABILITY_PROBES, induced.chart.base_dim))
    xs[:, base_idx] = 0.0

    jac_max = algebroid.basis_jacobi_violation(xs[:5])
    if jac_max > JACOBI_TOL:
        raise StructureError(
            f"base algebroid fails the Jacobi test (violation {jac_max:.3e}); "
            "integrability verdicts are only meaningful over Lie algebroids"
        )

    anchor_violation, anchor_witness = _largest_entry(
        xs, [algebroid.anchor(x)[np.ix_(base_idx, free)] for x in xs], (base_idx, free))
    structure_violation, structure_witness = _largest_entry(
        xs, [algebroid.structure(x)[np.ix_(free, free, removed)] for x in xs],
        (free, free, removed))
    return IntegrabilityReport(
        cond1=bool(anchor_violation <= INTEGRABILITY_TOL),
        cond2=bool(structure_violation <= INTEGRABILITY_TOL),
        anchor_violation=anchor_violation,
        anchor_witness=anchor_witness,
        structure_violation=structure_violation,
        structure_witness=structure_witness,
    )
