"""Built-in example systems for the command line and the demos.

Each system packages the structure (with its default constraint applied
where one exists; it carries the chart), a Lagrangian with analytic
partials, and, when available in closed form, the matching Hamiltonian.
"""

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .algebroid import Chart, SkewAlgebroid
from .constraints import LinearConstraint, induce
from .dirac import CanonicalDirac, PiGraphDirac, TimeExtendedDirac, _constant
from .dynamics import ControlSystem, Hamiltonian, Lagrangian, legendre_transform
from .errors import HyperregularityError, ScenarioError, StructureError
from .linalg import identity, last_point, zeros
from .problems import hamiltonian_problem, lagrangian_problem, pmp_problem


def _check_potential(potential, potential_grad, name):
    """Raise StructureError unless ``potential`` and ``potential_grad`` come
    together: either one alone would drop U or its force from the dynamics."""
    if (potential is None) != (potential_grad is None):
        missing = "potential_grad" if potential_grad is None else "potential"
        raise StructureError(f"quadratic system {name or '<anonymous>'} has no {missing}: "
                             "give potential and potential_grad together")


def quadratic_lagrangian(mass_matrix, mass_matrix_diff=None, potential=None,
                         potential_grad=None, name=""):
    """L(x, y) = y . M(x) y / 2 - U(x) with analytic partials.

    ``mass_matrix_diff(x)`` returns the stacked derivatives dM/dx^a with
    shape (n, m, m); omit it for constant mass matrices.  ``potential`` and
    ``potential_grad`` come together or not at all.  L and its partials
    share one (M, dM) per base point, memoised on the bytes of x; ``hess_yy``
    hands out that M, read-only.  Without ``mass_matrix_diff``, ``hess_yx``
    is one shared read-only zero array per shape, and so is ``grad_x`` when
    there is no potential either.
    """
    _check_potential(potential, potential_grad, name)

    def evaluate(x):
        M = np.array(mass_matrix(x), dtype=float)
        M.flags.writeable = False
        return M, None if mass_matrix_diff is None else np.asarray(mass_matrix_diff(x), dtype=float)

    matrices = last_point(evaluate)

    def fn(x, y):
        u = potential(x) if potential is not None else 0.0
        return 0.5 * float(y @ (matrices(x)[0] @ y)) - u

    def grad_x(x, y):
        if mass_matrix_diff is None and potential is None:
            return zeros(x.size)
        g = np.zeros(x.size)
        if mass_matrix_diff is not None:
            g += 0.5 * np.einsum("aij,i,j->a", matrices(x)[1], y, y)
        if potential_grad is not None:
            g -= np.asarray(potential_grad(x), dtype=float)
        return g

    def grad_y(x, y):
        return matrices(x)[0] @ y

    def hess_yy(x, y):
        return matrices(x)[0]

    def hess_yx(x, y):
        if mass_matrix_diff is None:
            return zeros(y.size, x.size)
        return np.einsum("aij,j->ia", matrices(x)[1], y)

    return Lagrangian(fn, grad_x=grad_x, grad_y=grad_y, hess_yy=hess_yy,
                      hess_yx=hess_yx, name=name)


def quadratic_hamiltonian(mass_matrix, mass_matrix_diff=None, potential=None,
                          potential_grad=None, name=""):
    """H(x, xi) = xi . M(x)^-1 xi / 2 + U(x), the closed-form partner.

    H and its partials share one LU factorisation of M per point, memoised
    on the bytes of (x, xi) with w = M^-1 xi (bitwise what
    ``np.linalg.solve(M, xi)`` gives), and ``grad_x`` and ``hess_xi`` one
    dM there.  ``hess_xi`` is exact, [-M^-1 (dM/dx) w, M^-1], with zero
    x-columns without ``mass_matrix_diff``.  ``potential`` and
    ``potential_grad`` come together or not at all; with neither and without
    ``mass_matrix_diff``, ``grad_x`` is one shared read-only zero array.
    """
    _check_potential(potential, potential_grad, name)

    def factor(x, xi):  # float64 arrays, from last_point
        x = x.reshape(-1)
        lu, piv, info = dgetrf(np.asarray(mass_matrix(x), dtype=float))
        if info:
            raise HyperregularityError(f"mass matrix is singular at x={x}, xi={xi}", x=x, xi=xi)
        w = dgetrs(lu, piv, xi.reshape(-1))[0]
        w.flags.writeable = False
        dM = None if mass_matrix_diff is None else np.asarray(mass_matrix_diff(x), dtype=float)
        return lu, piv, w, dM

    factored = last_point(factor)

    def fn(x, xi):
        u = potential(x) if potential is not None else 0.0
        return 0.5 * float(xi @ factored(x, xi)[2]) + u

    def grad_xi(x, xi):
        return factored(x, xi)[2].copy()

    def grad_x(x, xi):
        if mass_matrix_diff is None and potential is None:
            return zeros(x.size)
        g = np.zeros(x.size)
        if mass_matrix_diff is not None:
            _, _, w, dM = factored(x, xi)
            g -= 0.5 * np.einsum("aij,i,j->a", dM, w, w)
        if potential_grad is not None:
            g += np.asarray(potential_grad(x), dtype=float)
        return g

    def hess_xi(x, xi):
        lu, piv, w, dM = factored(x, xi)
        n, m = x.size, w.size
        inverse = dgetrs(lu, piv, identity(m))[0]  # solved into a copy of the identity
        jac = np.zeros((m, n + m))
        jac[:, n:] = inverse
        if dM is not None:
            jac[:, :n] = -inverse @ np.einsum("aij,j->ia", dM, w)
        return jac

    return Hamiltonian(fn, grad_x=grad_x, grad_xi=grad_xi, hess_xi=hess_xi, name=name)


# -- rolling disc -------------------------------------------------------------

def rolling_disc_algebroid(R=1.0):
    """Rank-4 reduction of a vertical disc rolling without slipping.

    Base coordinate: the steering angle phi.  Fiber basis: steering rate,
    rolling rate along the contact direction, and the two translational
    slip generators; the nonzero brackets couple the first two into the
    slips.
    """
    chart = Chart(1, 4, base_labels=("phi",))

    def anchor(x):
        return np.array([[1.0, 0.0, 0.0, 0.0]])

    def structure(x):
        phi = x[0]
        rc, rs = R * np.cos(phi), R * np.sin(phi)
        c = np.zeros((4, 4, 4))
        c[0, 1, 3] = rc
        c[0, 1, 2] = -rs
        c[1, 0, 3] = -rc
        c[1, 0, 2] = rs
        return c

    return SkewAlgebroid(chart, anchor, structure, name="rolling_disc")


def rolling_disc_mass(m=1.0, R=1.0, J1=1.0, J2=1.0):
    def mass_matrix(x):
        phi = x[0]
        c, s = np.cos(phi), np.sin(phi)
        return np.array([
            [J1, 0.0, 0.0, 0.0],
            [0.0, m * R * R + J2, m * R * c, m * R * s],
            [0.0, m * R * c, m, 0.0],
            [0.0, m * R * s, 0.0, m],
        ])

    def mass_matrix_diff(x):
        phi = x[0]
        c, s = np.cos(phi), np.sin(phi)
        d = np.zeros((1, 4, 4))
        d[0, 1, 2] = -m * R * s
        d[0, 1, 3] = m * R * c
        d[0, 2, 1] = -m * R * s
        d[0, 3, 1] = m * R * c
        return d

    return mass_matrix, mass_matrix_diff


def rolling_disc_lagrangian(m=1.0, R=1.0, J1=1.0, J2=1.0):
    mm, dmm = rolling_disc_mass(m, R, J1, J2)
    return quadratic_lagrangian(mm, dmm, name="rolling_disc")


def so3_algebroid(labels=None):
    """The rotation algebra: point base, cross-product structure constants."""
    chart = Chart(0, 3, fiber_labels=labels)
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0

    return SkewAlgebroid(
        chart,
        anchor=lambda x: np.zeros((0, 3)),
        structure=lambda x: eps,
        name="so3",
    )


class SystemBundle:
    """Everything a scenario needs for one named system.

    ``angle_bases`` are base indices, and so state indices: every
    formalism's state starts with the base coordinates.
    """

    def __init__(self, name, dirac, lagrangian=None, closed_hamiltonian=None,
                 control=None, angle_bases=()):
        self.name = name
        self.dirac = dirac
        self.lagrangian = lagrangian
        self.closed_hamiltonian = closed_hamiltonian
        self.control = control
        self.angle_bases = tuple(angle_bases)

    def hamiltonian(self, source="legendre", seed=0):
        """Hamiltonian for the phase formalism.

        ``source`` is "legendre" (numerical transform of the Lagrangian,
        validated on random probes) or "closed" (the stored closed form);
        any other raises ScenarioError.
        """
        if source not in ("legendre", "closed"):
            raise ScenarioError(f"unknown Hamiltonian source '{source}': "
                                "expected 'legendre' or 'closed'")
        if source == "closed":
            if self.closed_hamiltonian is None:
                raise ScenarioError(f"system {self.name} has no closed-form Hamiltonian")
            return self.closed_hamiltonian
        if self.lagrangian is None:
            raise ScenarioError(f"system {self.name} has no Lagrangian")
        rng = np.random.default_rng(seed)
        n, m = self.dirac.chart.base_dim, self.dirac.chart.fiber_dim
        probes = [(rng.standard_normal(n), rng.standard_normal(m)) for _ in range(5)]
        return legendre_transform(self.lagrangian, probes)


def _resolve_constraint(override):
    if override is None:
        return None
    fiber = tuple(int(i) - 1 for i in override.get("fiber", ()))
    base = tuple(int(a) - 1 for a in override.get("base", ()))
    if any(i < 0 for i in fiber) or any(a < 0 for a in base):
        raise ScenarioError("constraint indices are 1-based and must be positive")
    if not fiber and not base:
        raise ScenarioError("an empty constraint override pins nothing: "
                            "give at least one fiber or base index")
    return LinearConstraint(fiber=fiber, base=base)


def _quadratic_system(name, base, constraint, spec, label=None, angle_bases=()):
    """The bundle of L = y . M(x) y / 2 - U(x) and its closed-form H on
    ``base``, induced by ``constraint`` when one is given; ``spec`` is
    (mass_matrix, mass_matrix_diff, potential, potential_grad) and ``label``
    names L and H (default ``name``)."""
    label = label or name
    dirac = induce(base, constraint) if constraint else base
    return SystemBundle(name, dirac, lagrangian=quadratic_lagrangian(*spec, name=label),
                        closed_hamiltonian=quadratic_hamiltonian(*spec, name=label),
                        angle_bases=angle_bases)


def _build_canonical_particle(params, constraint):
    mass = params["mass"]
    return _quadratic_system("canonical_particle", CanonicalDirac(2), constraint,
                             (lambda x: mass * np.eye(2), None, None, None),
                             label="free_particle")


def _build_harmonic_oscillator(params, constraint):
    mass, spring = params["mass"], params["spring"]
    spec = (lambda x: np.array([[mass]]), None,
            lambda x: 0.5 * spring * float(x[0] ** 2),
            lambda x: np.array([spring * x[0]]))
    return _quadratic_system("harmonic_oscillator", CanonicalDirac(1), constraint, spec)


def _build_rolling_disc(params, constraint):
    m, R, J1, J2 = params["m"], params["R"], params["J1"], params["J2"]
    return _quadratic_system("rolling_disc", PiGraphDirac(rolling_disc_algebroid(R)),
                             constraint or LinearConstraint(fiber=(2, 3)),
                             rolling_disc_mass(m, R, J1, J2) + (None, None),
                             angle_bases=(0,))


def _build_euler_top(params, constraint):
    J = np.array([params["J1"], params["J2"], params["J3"]])
    return _quadratic_system("euler_top", PiGraphDirac(so3_algebroid()), constraint,
                             (lambda x: np.diag(J), None, None, None))


def _build_forced_oscillator(params, constraint):
    mass, k0, eps, omega = params["mass"], params["k0"], params["eps"], params["omega"]
    if constraint is not None:
        raise ScenarioError("forced_oscillator_timedep takes no constraint")
    dirac = TimeExtendedDirac(CanonicalDirac(1, base_labels=("x",)))

    def stiffness(t):
        return k0 * (1.0 + eps * np.sin(omega * t))

    def stiffness_dot(t):
        return k0 * eps * omega * np.cos(omega * t)

    def potential(x):
        t, q = x
        return 0.5 * stiffness(t) * q ** 2

    def potential_grad(x):
        t, q = x
        return np.array([0.5 * stiffness_dot(t) * q ** 2, stiffness(t) * q])

    lag = quadratic_lagrangian(lambda x: np.array([[mass]]), None, potential,
                               potential_grad, name="forced_oscillator")
    return SystemBundle("forced_oscillator_timedep", dirac, lagrangian=lag)


def _build_lqr(params, constraint):
    qw, rw = params["q"], params["r"]
    if constraint is not None:
        raise ScenarioError("lqr_pmp takes no constraint")
    # the constant partials, built once and read-only
    f_x, f_u, f_u_xu, cost_u_xu = map(_constant, (np.zeros((1, 1)), np.eye(1),
                                                  np.zeros((1, 1, 2)), [[0.0, rw]]))
    control = ControlSystem(
        f=lambda x, u: np.array([u[0]]),
        cost=lambda x, u: 0.5 * (qw * float(x[0] ** 2) + rw * float(u[0] ** 2)),
        f_x=lambda x, u: f_x,
        f_u=lambda x, u: f_u,
        cost_x=lambda x, u: np.array([qw * x[0]]),
        cost_u=lambda x, u: np.array([rw * u[0]]),
        control_dim=1,
        name="scalar_lqr",
        f_u_xu=lambda x, u: f_u_xu,
        cost_u_xu=lambda x, u: cost_u_xu,
    )
    return SystemBundle("lqr_pmp", CanonicalDirac(1, base_labels=("x",)), control=control)


class SystemSpec:
    def __init__(self, name, description, params, builder, formalisms,
                 initial_doc):
        self.name = name
        self.description = description
        self.params = dict(params)
        self.builder = builder
        self.formalisms = tuple(formalisms)
        self.initial_doc = dict(initial_doc)


CATALOG = {
    spec.name: spec
    for spec in [
        SystemSpec(
            "canonical_particle",
            "free motion on a flat two-dimensional configuration space",
            {"mass": 1.0},
            _build_canonical_particle,
            ("lagrangian", "hamiltonian"),
            {"lagrangian": "x1, x2, y1, y2", "hamiltonian": "x1, x2, xi1, xi2"},
        ),
        SystemSpec(
            "harmonic_oscillator",
            "one-dimensional linear oscillator",
            {"mass": 1.0, "spring": 1.0},
            _build_harmonic_oscillator,
            ("lagrangian", "hamiltonian"),
            {"lagrangian": "x1, y1", "hamiltonian": "x1, xi1"},
        ),
        SystemSpec(
            "rolling_disc",
            "vertical disc rolling without slipping, reduced over the plane "
            "translations and the rolling angle to a rank-4 bundle over the "
            "steering circle; the no-slip constraint pins the two slip "
            "generators",
            {"m": 1.0, "R": 1.0, "J1": 1.0, "J2": 1.0},
            _build_rolling_disc,
            ("lagrangian", "hamiltonian"),
            {"lagrangian": "phi, y1 (steering rate), y2 (rolling rate)",
             "hamiltonian": "phi, xi1, xi2, xi3, xi4"},
        ),
        SystemSpec(
            "euler_top",
            "free rigid body reduced to the rotation algebra (point base)",
            {"J1": 1.0, "J2": 2.0, "J3": 3.0},
            _build_euler_top,
            ("lagrangian", "hamiltonian"),
            {"lagrangian": "y1, y2, y3 (body angular velocity)",
             "hamiltonian": "xi1, xi2, xi3 (body angular momentum)"},
        ),
        SystemSpec(
            "forced_oscillator_timedep",
            "oscillator with periodically modulated stiffness on the "
            "clock-extended phase space",
            {"mass": 1.0, "k0": 1.0, "eps": 0.3, "omega": 2.0},
            _build_forced_oscillator,
            ("lagrangian",),
            {"lagrangian": "x, y (the clock coordinate is prepended automatically)"},
        ),
        SystemSpec(
            "lqr_pmp",
            "scalar linear-quadratic control problem in stationarity form",
            {"q": 1.0, "r": 1.0},
            _build_lqr,
            ("pmp",),
            {"pmp": "x, u, xi"},
        ),
    ]
}


def build_system(name, params=None, constraint_override=None):
    if name not in CATALOG:
        raise KeyError(f"unknown system '{name}'")
    spec = CATALOG[name]
    merged = dict(spec.params)
    for key, value in (params or {}).items():
        if key not in merged:
            raise ScenarioError(f"unknown parameter '{key}' for system {name}")
        merged[key] = float(value)
    constraint = _resolve_constraint(constraint_override)
    return spec.builder(merged, constraint)


def build_problem(bundle, formalism, hamiltonian_source="legendre", seed=0):
    """Implicit problem for the requested formalism."""
    if formalism == "lagrangian":
        if bundle.lagrangian is None:
            raise ScenarioError(f"system {bundle.name} has no Lagrangian formalism")
        return lagrangian_problem(bundle.dirac, bundle.lagrangian)
    if formalism == "hamiltonian":
        return hamiltonian_problem(bundle.dirac, bundle.hamiltonian(hamiltonian_source, seed))
    if formalism == "pmp":
        if bundle.control is None:
            raise ScenarioError(f"system {bundle.name} has no control formalism")
        return pmp_problem(bundle.control, bundle.dirac)
    raise ScenarioError(f"unknown formalism '{formalism}'")
