"""Implicit phase dynamics and Euler-Lagrange residuals.

Given a Dirac structure in local form and a Lagrangian L(x, y) or a
Hamiltonian H(x, xi), the generators below evaluate the defining equations
of the induced dynamics as residual vectors.  Each one fills the slots of
a Pontryagin point (x, xi, xdot, xidot, p, y) and returns the structure's
membership residual there (``DiracAlgebroid.residual``):

* Euler-Lagrange: momenta slots are filled with xi = dL/dy,
  p = -dL/dx, and the total derivative of dL/dy expanded by the chain rule
  with the rate unknowns (xdot, ydot);
* Hamilton: fiber slots are filled with y = dH/dxi, p = dH/dx, the rates
  (xdot, xidot) staying free;
* control stationarity: for a parametrized velocity constraint y = f(x, u)
  with running cost L(x, u), the costate slots use p = xi df/dx - dL/dx and
  the controls must satisfy xi df/du = dL/du.

No regularity of the Lagrangian is assumed; degeneracy is the solver's
business.  L, H and the control system enter only through their partials.
Each class keeps one table that maps every partial to its central-difference
fallback, and binds each partial once, at construction, to the user's
analytic callable when one is supplied and to its fallback otherwise;
``validate`` holds each supplied callable to that same fallback, in shape
and value, at the probe points.

For a hyperregular Lagrangian, ``legendre_transform`` builds the dual
Hamiltonian by inverting the fiber derivative numerically, once per phase
point: H, dH/dx, dH/dxi and the Jacobian ``hess_xi`` of dH/dxi share one
memoised inverse, and ``hess_xi`` is exact from the fiber Hessian there.
Its Newton steps and ``hess_xi`` call LAPACK ``dgesv`` directly, and a
singular fiber Hessian or a non-finite step moves on to the next start.
The Hamiltonian problem on an induced structure takes its pinned rows
from ``hess_xi``, and the control problem the (x, u)-columns of its
stationarity Jacobian from the second partials ``f_u_xu`` and
``cost_u_xu``.
"""

import functools
import math

import numpy as np
from scipy.linalg.lapack import dgesv

from . import fd
from .algebroid import _check_finite
from .dirac import PontryaginPoint
from .errors import EvaluationError, HyperregularityError, StructureError
from .linalg import _FLOAT, floats, identity, last_point
from .solver import CONDITION_LIMIT

GRADIENT_CHECK_RTOL = 1e-5
# Newton inversion of the fiber derivative: residual tolerance relative to
# 1 + max|xi|, iterations per start, and seeded random starts after y = 0
INVERSION_TOL = 1e-12
INVERSION_MAX_ITER = 50
INVERSION_MULTISTART = 8
INVERSION_SEED = 0


def _pair(state):
    a, b = state
    return np.asarray(a, dtype=float).reshape(-1), np.asarray(b, dtype=float).reshape(-1)


def _over_point(partial, a, b, rel):
    """Central-difference Jacobian of ``partial(a, b)`` over the stacked point (a, b)."""
    return fd.jacobian(lambda s: partial(s[:a.size], s[a.size:]),
                       np.concatenate([a.reshape(-1), b.reshape(-1)]), rel=rel)


class _Partials:
    """A function of a point (a, b) with optional analytic partials.

    Each subclass declares ``_FALLBACKS``, the one table of the partials it
    offers, each mapped to its central-difference fallback: a function of
    (self, a, b) that differences the function (or a lower partial) there.
    ``_VECTORS`` names the partials returned flat, and ``_KIND`` and
    ``_POINT`` name the class and the point's two arguments in errors.  At
    construction every partial is bound once on the instance, to the
    supplied analytic callable or else to its fallback, wrapped to take
    float arrays (lists too) and return a float array; ``validate`` holds
    each supplied callable, shape first, to the same wrapper around the
    very fallback it replaces.
    """

    def __init__(self, name, probes, **analytic):
        self.name = name
        self._analytic = {label: fn for label, fn in analytic.items() if fn is not None}
        for label, fallback in self._FALLBACKS.items():
            setattr(self, label, self._wrap(
                label, self._analytic.get(label, functools.partial(fallback, self))))
        if probes is not None:
            self.validate(probes)

    def _wrap(self, label, fn):
        """``fn`` on float arrays, returning a float array, flat for a vector partial."""
        flat = label in self._VECTORS

        def partial(a, b):
            # float64 ndarrays, the solver's own, pass without a conversion
            if type(a) is not np.ndarray or a.dtype is not _FLOAT:
                a = np.asarray(a, dtype=float)
            if type(b) is not np.ndarray or b.dtype is not _FLOAT:
                b = np.asarray(b, dtype=float)
            value = fn(a, b)
            if type(value) is not np.ndarray or value.dtype is not _FLOAT:
                value = np.asarray(value, dtype=float)
            return value.reshape(-1) if flat and value.ndim != 1 else value

        return partial

    def _outer_step(self, label):
        """Relative step for differencing partial ``label``: coarse if that is a fallback too."""
        return fd.REL_FIRST if label in self._analytic else fd.REL_SECOND

    def validate(self, probes):
        """Raise StructureError where a supplied partial differs from its fallback."""
        checks = [(label, getattr(self, label),
                  self._wrap(label, functools.partial(self._FALLBACKS[label], self)))
                 for label in self._analytic]
        for a, b in probes:
            for label, analytic, fallback in checks:
                numeric, value = fallback(a, b), analytic(a, b)
                bound = GRADIENT_CHECK_RTOL * (1.0 + np.max(np.abs(numeric), initial=0.0))
                if value.shape != numeric.shape:
                    fault = f"has shape {value.shape}, its fallback {numeric.shape},"
                elif np.max(np.abs(value - numeric), initial=0.0) > bound:
                    fault = "deviates from finite differences"
                else:
                    continue
                at = ", ".join(f"{k}={np.asarray(v, dtype=float)}"
                               for k, v in zip(self._POINT, (a, b)))
                raise StructureError(f"analytic {label} of {self._KIND} "
                                     f"{self.name or '<anonymous>'} {fault} at ({at})")


class Lagrangian(_Partials):
    """Scalar field L(x, y) on the velocity bundle with first and second partials.

    Its partials, for n base and m fiber coordinates: ``grad_x`` (n,),
    ``grad_y`` (m,), ``hess_yy`` = d(grad_y)/dy (m, m) and ``hess_yx`` =
    d(grad_y)/dx (m, n).  Missing analytic partials fall back to central
    finite differences (nested for second derivatives).  When analytic
    partials and probe points are both given, the partials are validated
    against those fallbacks at registration.
    """

    _KIND, _POINT = "Lagrangian", ("x", "y")
    _VECTORS = ("grad_x", "grad_y")
    _FALLBACKS = {
        "grad_x": lambda self, x, y: fd.jacobian(lambda z: self._fn(z, y), x),
        "grad_y": lambda self, x, y: fd.jacobian(lambda z: self._fn(x, z), y),
        "hess_yy": lambda self, x, y: fd.jacobian(lambda z: self.grad_y(x, z), y,
                                                  rel=self._outer_step("grad_y")),
        "hess_yx": lambda self, x, y: fd.jacobian(lambda z: self.grad_y(z, y), x,
                                                  rel=self._outer_step("grad_y")),
    }

    def __init__(self, fn, grad_x=None, grad_y=None, hess_yy=None, hess_yx=None,
                 name="", probes=None):
        self._fn = fn
        super().__init__(name, probes, grad_x=grad_x, grad_y=grad_y, hess_yy=hess_yy,
                         hess_yx=hess_yx)

    def __call__(self, x, y):
        return float(self._fn(floats(x), floats(y)))

    def momentum_rate(self, x, y, xdot, ydot):
        """Total time derivative of dL/dy along the given rates."""
        return self.hess_yx(x, y) @ np.asarray(xdot, float) + self.hess_yy(x, y) @ np.asarray(ydot, float)

    def energy(self, x, y):
        """y . dL/dy - L, the fiber Euler derivative minus the value."""
        x, y = floats(x), floats(y)
        return float(y @ self.grad_y(x, y)) - float(self._fn(x, y))


class Hamiltonian(_Partials):
    """Scalar field H(x, xi) on the dual bundle with first partials and dH/dxi's Jacobian.

    Its partials: ``grad_x`` (n,), ``grad_xi`` (m,) and ``hess_xi``, the
    Jacobian of dH/dxi over the state (x, xi), shape (m, n + m).  As for
    ``Lagrangian``, missing analytic partials fall back to central finite
    differences, and supplied ones are validated at ``probes``.
    """

    _KIND, _POINT = "Hamiltonian", ("x", "xi")
    _VECTORS = ("grad_x", "grad_xi")
    _FALLBACKS = {
        "grad_x": lambda self, x, xi: fd.jacobian(lambda z: self._fn(z, xi), x),
        "grad_xi": lambda self, x, xi: fd.jacobian(lambda z: self._fn(x, z), xi),
        "hess_xi": lambda self, x, xi: _over_point(self.grad_xi, x, xi,
                                                   self._outer_step("grad_xi")),
    }

    def __init__(self, fn, grad_x=None, grad_xi=None, hess_xi=None, name="",
                 probes=None):
        self._fn = fn
        super().__init__(name, probes, grad_x=grad_x, grad_xi=grad_xi, hess_xi=hess_xi)

    def __call__(self, x, xi):
        return float(self._fn(floats(x), floats(xi)))


class ControlSystem(_Partials):
    """Parametrized velocity constraint y = f(x, u) with running cost L(x, u).

    Its partials, for q controls: ``f_x`` (m, n), ``f_u`` (m, q),
    ``cost_x`` (n,) and ``cost_u`` (q,), and the second partials
    ``f_u_xu`` and ``cost_u_xu``, the Jacobians of f_u and cost_u over the
    stacked (x, u), shapes (m, q, n + q) and (q, n + q).
    """

    _KIND, _POINT = "control system", ("x", "u")
    _VECTORS = ("cost_x", "cost_u")
    _FALLBACKS = {
        "f_x": lambda self, x, u: fd.jacobian(lambda z: self._f(z, u), x),
        "f_u": lambda self, x, u: fd.jacobian(lambda z: self._f(x, z), u),
        "cost_x": lambda self, x, u: fd.jacobian(lambda z: self._cost(z, u), x),
        "cost_u": lambda self, x, u: fd.jacobian(lambda z: self._cost(x, z), u),
        "f_u_xu": lambda self, x, u: _over_point(self.f_u, x, u, self._outer_step("f_u")),
        "cost_u_xu": lambda self, x, u: _over_point(self.cost_u, x, u,
                                                    self._outer_step("cost_u")),
    }

    def __init__(self, f, cost, f_x=None, f_u=None, cost_x=None, cost_u=None,
                 control_dim=1, name="", probes=None, f_u_xu=None, cost_u_xu=None):
        if control_dim < 1:
            raise EvaluationError("control dimension must be >= 1")
        self._f = f
        self._cost = cost
        self.control_dim = int(control_dim)
        super().__init__(name, probes, f_x=f_x, f_u=f_u, cost_x=cost_x, cost_u=cost_u,
                         f_u_xu=f_u_xu, cost_u_xu=cost_u_xu)

    def f(self, x, u):
        return _check_finite("control field", self._f(np.asarray(x, float), np.asarray(u, float))).reshape(-1)

    def cost(self, x, u):
        return float(self._cost(np.asarray(x, float), np.asarray(u, float)))

    def hamiltonian(self, x, u, xi):
        """xi . f(x, u) - L(x, u), the control-parametrized Hamiltonian."""
        return float(np.asarray(xi, float) @ self.f(x, u)) - self.cost(x, u)


def el_residual(dirac, lagrangian, state, rate):
    """Implicit Euler-Lagrange residual at (state, rate).

    state = (x, y), rate = (xdot, ydot).  Returns the pair (rows, phase):
    the n+m membership rows (velocity rows first, momentum rows after) and
    the phase residual of the Legendre image, which constrains states only.
    """
    x, y = _pair(state)
    xdot, ydot = _pair(rate)
    xi = lagrangian.grad_y(x, y)
    point = PontryaginPoint(x, xi, xdot, lagrangian.momentum_rate(x, y, xdot, ydot),
                            -lagrangian.grad_x(x, y), y)
    return dirac.residual(point), dirac.phase_residual(x, xi)


def hamilton_residual(dirac, hamiltonian, state, rate):
    """Implicit phase-dynamics residual at (state, rate).

    state = (x, xi), rate = (xdot, xidot).  The phase residual at (x, xi)
    is reported alongside, not folded into the rows.
    """
    x, xi = _pair(state)
    xdot, xidot = _pair(rate)
    point = PontryaginPoint(x, xi, xdot, xidot, hamiltonian.grad_x(x, xi),
                            hamiltonian.grad_xi(x, xi))
    return dirac.residual(point), dirac.phase_residual(x, xi)


def invert_vertical_derivative(lagrangian, x, xi):
    """Solve dL/dy(x, y) = xi for y by Newton iteration with multistart fallback."""
    x = np.asarray(x, dtype=float).reshape(-1)
    xi = np.asarray(xi, dtype=float).reshape(-1)
    scale = 1.0 + float(abs(xi).max(initial=0.0))

    def newton(y):
        for _ in range(INVERSION_MAX_ITER):
            g = lagrangian.grad_y(x, y) - xi
            if math.sqrt(g.dot(g)) <= INVERSION_TOL * scale:
                return y
            _, _, step, info = dgesv(lagrangian.hess_yy(x, y), -g, overwrite_b=1)
            if info:
                return None
            size = math.sqrt(step.dot(step))
            # the square of a finite step may overflow: only then look closer
            if not math.isfinite(size) and not np.isfinite(step).all():
                return None
            y = y + step
            if size <= 1e-14 * (1.0 + math.sqrt(y.dot(y))):
                g = lagrangian.grad_y(x, y) - xi
                return y if math.sqrt(g.dot(g)) <= INVERSION_TOL * scale else None
        return None

    y = newton(np.zeros(xi.size))
    if y is not None:
        return y
    # seeded only once the zero start has failed
    rng = np.random.default_rng(INVERSION_SEED)
    for _ in range(INVERSION_MULTISTART):
        y = newton(scale * rng.standard_normal(xi.size))
        if y is not None:
            return y
    raise HyperregularityError(
        f"vertical derivative could not be inverted at x={x}, xi={xi}", x=x, xi=xi
    )


def legendre_transform(lagrangian, probes, name=""):
    """Hamiltonian of a hyperregular Lagrangian, H(x, xi) = xi . y* - L(x, y*).

    ``probes`` is a sequence of (x, y) points on which hyperregularity is
    verified at construction (a fiber Hessian of condition number at most
    ``solver.CONDITION_LIMIT``, round-trip through the vertical
    derivative).  The returned Hamiltonian solves the inverse
    map y*(x, xi) by Newton iteration once per point: the last inverse is
    memoised on the bytes of (x, xi), so H and every partial at one point
    share it (a failed inversion is not kept).  The partials use the
    stationarity of the defining supremum, so dH/dxi is the inverse map
    itself and dH/dx = -dL/dx at the inverse point, and the Jacobian of
    dH/dxi over (x, xi) is exact from the fiber Hessians at y*:
    [-Lyy^-1 Lyx, Lyy^-1].
    """
    def solve(x, xi):
        y = invert_vertical_derivative(lagrangian, *_pair((x, xi)))
        y.flags.writeable = False
        return y

    inverse = last_point(solve)

    for x, y in probes:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        H = lagrangian.hess_yy(x, y)
        # the rate solve's relative rule; an absolute determinant would
        # reject a well-conditioned Hessian of small scale
        sigma = np.linalg.svd(H, compute_uv=False) if np.all(np.isfinite(H)) else np.zeros(1)
        if sigma.size and not 0.0 < sigma[0] <= CONDITION_LIMIT * sigma[-1]:
            raise HyperregularityError(
                f"fiber Hessian is singular at probe x={x}, y={y}", x=x
            )
        back = inverse(x, lagrangian.grad_y(x, y))
        if np.linalg.norm(back - y) > 1e-8 * (1.0 + np.linalg.norm(y)):
            raise HyperregularityError(
                f"vertical derivative is not invertible near x={x}, y={y}", x=x
            )

    def fn(x, xi):
        y = inverse(x, xi)
        return float(np.asarray(xi, float) @ y) - lagrangian(x, y)

    def grad_xi(x, xi):
        return inverse(x, xi).copy()

    def grad_x(x, xi):
        return -lagrangian.grad_x(x, inverse(x, xi))

    def hess_xi(x, xi):
        y = inverse(x, xi)
        n, m = x.size, y.size
        rhs = np.empty((m, n + m), order="F")  # fresh: dgesv solves into it in place
        rhs[:, :n] = -lagrangian.hess_yx(x, y)
        rhs[:, n:] = identity(m)
        _, _, jac, info = dgesv(lagrangian.hess_yy(x, y), rhs, overwrite_b=1)
        if info:
            raise HyperregularityError(
                f"fiber Hessian is singular at x={x}, xi={xi}", x=x, xi=xi
            )
        return jac

    return Hamiltonian(fn, grad_x=grad_x, grad_xi=grad_xi, hess_xi=hess_xi,
                       name=name or f"legendre({lagrangian.name})")


def nonholonomic_el_residual(algebroid, constraint, lagrangian, state, rate):
    """Constrained Euler-Lagrange residual evaluated directly in adapted form.

    Row order matches ``el_residual`` on the induced structure: base
    velocity rows, fiber constraint rows (including the unit row in the
    affine case), then the retained momentum rows.  The support equations
    x^A = 0 form the phase channel.  ``constraint`` is a ``LinearConstraint``
    in adapted form, whose ``fixed`` index (an ``AffineConstraint``'s) is
    pinned to 1.
    """
    from .constraints import LinearConstraint

    x, y = _pair(state)
    xdot, ydot = _pair(rate)
    m = algebroid.chart.fiber_dim
    if not isinstance(constraint, LinearConstraint):
        raise EvaluationError("constraint must be linear or affine")
    if not constraint.is_adapted:
        raise EvaluationError("adapted-coordinate constraint required")
    zero, base, fixed = constraint.fiber, constraint.base, constraint.fixed
    removed = sorted(set(zero) | ({fixed} if fixed is not None else set()))
    free = [i for i in range(m) if i not in removed]

    rho = algebroid.anchor(x)
    c = algebroid.structure(x)
    grad_y = lagrangian.grad_y(x, y)
    grad_x = lagrangian.grad_x(x, y)
    xidot = lagrangian.momentum_rate(x, y, xdot, ydot)

    vel = xdot - rho[:, free] @ y[free]
    if fixed is not None:
        vel = vel - rho[:, fixed]
    fiber_rows = np.array([y[i] - (1.0 if i == fixed else 0.0) for i in removed])
    mom = np.empty(len(free))
    for k, kappa in enumerate(free):
        coupling = float(y[free] @ (c[free, kappa, :] @ grad_y))
        drift = float(c[fixed, kappa, :] @ grad_y) if fixed is not None else 0.0
        mom[k] = xidot[kappa] - coupling - drift - rho[:, kappa] @ grad_x
    phase = x[list(base)] if base else np.zeros(0)
    return np.concatenate([vel, fiber_rows, mom]), phase


def pmp_residual(system, dirac, state, rate):
    """Control-parametrized phase-dynamics residual with stationarity channel.

    state = (x, u, xi), rate = (xdot, xidot).  Returns the pair (rows,
    stationarity): the membership rows, with y = f(x, u) and p = xi . df/dx
    - dL/dx, and the block xi . df/du - dL/du, which vanishes exactly on
    critical controls.
    """
    x, u, xi = (np.asarray(v, dtype=float).reshape(-1) for v in state)
    xdot, xidot = _pair(rate)
    p = system.f_x(x, u).T @ xi - system.cost_x(x, u)
    point = PontryaginPoint(x, xi, xdot, xidot, p, system.f(x, u))
    stationarity = system.f_u(x, u).T @ xi - system.cost_u(x, u)
    return dirac.residual(point), stationarity
