"""Dense subspace helpers: kernels, spans, annihilators, principal angles,
and the per-stage path's ``floats`` (float64 conversion), ``identity``,
``zeros`` and ``last_point`` (the single-slot memo of the last point).

Subspaces are represented by matrices whose *columns* form an orthonormal
basis.  Rank decisions use singular values with the relative threshold
``RANK_RCOND * sigma_max``.
"""

import functools

import numpy as np
import scipy.linalg

RANK_RCOND = 1e-9
_FLOAT = np.dtype(float)


def floats(a, flat=False):
    """``a`` as a float64 array, flattened when ``flat``: ``a`` itself when it
    already is one, so the solver's own arrays pass without a conversion."""
    if type(a) is np.ndarray and a.dtype is _FLOAT and (not flat or a.ndim == 1):
        return a
    a = np.asarray(a, dtype=float)
    return a.reshape(-1) if flat else a


@functools.lru_cache(maxsize=8)
def identity(m):
    """The m x m identity, read-only and built once per size."""
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


@functools.lru_cache(maxsize=8)
def zeros(*shape):
    """The zero array of ``shape``, read-only and built once per shape."""
    zero = np.zeros(shape)
    zero.flags.writeable = False
    return zero


def last_point(compute):
    """``compute(x)`` or ``compute(x, xi)`` memoised on the bytes of the last point, converted
    to float64 arrays first (x alone, or the pair), key and value replaced as one
    tuple: a compute that raises keeps no entry, and float64 arrays pass as they are."""
    last = [(None, None)]

    def at(x, xi=None):
        x = x if type(x) is np.ndarray and x.dtype is _FLOAT else np.asarray(x, dtype=float)
        if xi is None:
            key = x.tobytes()
        else:
            xi = xi if type(xi) is np.ndarray and xi.dtype is _FLOAT else np.asarray(xi, dtype=float)
            key = (x.tobytes(), xi.tobytes())
        entry = last[0]
        if entry[0] != key:
            entry = last[0] = (key, compute(x) if xi is None else compute(x, xi))
        return entry[1]

    return at


def null_space(a, scale=None):
    """Orthonormal basis (columns) of the kernel of ``a``.

    ``scale`` overrides the reference magnitude for the rank decision; by
    default the largest singular value of ``a`` itself is used.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] == 0:
        return np.eye(a.shape[1])
    _, s, vh = np.linalg.svd(a)
    return vh[int(ranks(s, scale)):].conj().T


def numeric_rank(a):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0
    return int(ranks(np.linalg.svd(a, compute_uv=False)))


def ranks(s, ref=None):
    """Numeric ranks from descending singular values ``s`` (..., k), each
    relative to its own largest value, or to the magnitude ``ref`` when given."""
    return np.sum(s > (s[..., :1] if ref is None else ref) * RANK_RCOND, axis=-1)


def orthonormal_span(columns):
    """Orthonormal basis (columns) of the column span of ``columns``."""
    m = np.atleast_2d(np.asarray(columns, dtype=float))
    if m.shape[1] == 0:
        return m.reshape(m.shape[0], 0)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :int(ranks(s))]


def annihilator(vectors_rows):
    """Kernel of the pairing with the given row vectors."""
    return null_space(np.atleast_2d(np.asarray(vectors_rows, dtype=float)))


def intersect_span_with_kernel(span_cols, constraint_rows):
    """Columns spanning {v in col-span : constraint_rows @ v = 0}.

    The rank decision for the restricted constraints is taken relative to
    the scale of the constraint matrix itself, so constraints that vanish
    identically on the span (pure roundoff products) cut nothing.
    """
    b = np.asarray(span_cols, dtype=float)
    c = np.atleast_2d(np.asarray(constraint_rows, dtype=float))
    if b.shape[1] == 0 or c.shape[0] == 0:
        return b
    scale = np.linalg.norm(c, 2)
    alpha = null_space(c @ b, scale=scale if scale > 0 else None)
    return orthonormal_span(b @ alpha)


def max_principal_angle(a_cols, b_cols):
    """Largest principal angle (radians) between two column spans, 0.0 when
    either is empty."""
    a = np.atleast_2d(np.asarray(a_cols, dtype=float))
    b = np.atleast_2d(np.asarray(b_cols, dtype=float))
    if a.shape[1] == 0 or b.shape[1] == 0:
        return 0.0
    return float(scipy.linalg.subspace_angles(a, b)[0])

