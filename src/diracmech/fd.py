"""Central finite differences with coordinate-scaled steps.

First derivatives use step h_i = REL_FIRST * max(1, |x_i|).  Second
derivatives obtained by differencing a numerical gradient use the coarser
outer step REL_SECOND * max(1, |x_i|) to balance the noise of the inner
difference; differencing an analytic gradient keeps the first-order step.
"""

import numpy as np

REL_FIRST = 1e-6
REL_SECOND = 1e-4


def steps(x, rel=REL_FIRST):
    x = np.asarray(x, dtype=float)
    return rel * np.maximum(1.0, np.abs(x))


def jacobian(f, x, rel=REL_FIRST):
    """Central-difference Jacobian, shape (len(f), len(x)).

    A scalar f gives its gradient, shape (len(x),), when x is not empty.
    """
    x = np.asarray(x, dtype=float)
    h = steps(x, rel)
    cols = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h[i]
        fp = np.asarray(f(x + e), dtype=float)
        fm = np.asarray(f(x - e), dtype=float)
        cols.append((fp - fm) / (2.0 * h[i]))
    if not cols:
        probe = np.atleast_1d(np.asarray(f(x), dtype=float))
        return np.zeros((probe.size, 0))
    return np.stack(cols, axis=-1)
