import numpy as np
import pytest

from diracmech import (
    CanonicalDirac,
    Chart,
    GeneralLocalDirac,
    Hamiltonian,
    Lagrangian,
    LinearConstraint,
    OmegaGraphDirac,
    PiGraphDirac,
    PontryaginPoint,
    Section,
    SkewAlgebroid,
    induce,
    problems,
)
from diracmech.linalg import last_point
from diracmech.systems import (
    quadratic_hamiltonian,
    rolling_disc_algebroid,
    rolling_disc_lagrangian,
    rolling_disc_mass,
    so3_algebroid,
)


@pytest.fixture
def disc():
    return rolling_disc_algebroid()


@pytest.fixture
def disc_pi(disc):
    return PiGraphDirac(disc)


@pytest.fixture
def disc_induced(disc_pi):
    return induce(disc_pi, LinearConstraint(fiber=(2, 3)))


@pytest.fixture
def disc_lagrangian():
    return rolling_disc_lagrangian()


@pytest.fixture
def disc_hamiltonian():
    return quadratic_hamiltonian(*rolling_disc_mass(), name="rolling_disc")


def clocked_lagrangian(lag):
    """``lag`` on the clock-extended base (t, x); it does not depend on t."""

    def hess_yx(x, y):
        return np.hstack([np.zeros((y.size, 1)), lag.hess_yx(x[1:], y)])

    return Lagrangian(lambda x, y: lag(x[1:], y),
                      grad_x=lambda x, y: np.concatenate([[0.0], lag.grad_x(x[1:], y)]),
                      grad_y=lambda x, y: lag.grad_y(x[1:], y),
                      hess_yy=lambda x, y: lag.hess_yy(x[1:], y),
                      hess_yx=hess_yx, name=f"clocked-{lag.name}")


def clocked_hamiltonian(ham):
    """``ham`` on the clock-extended base (t, x), with ``hess_xi`` left to differences."""
    return Hamiltonian(lambda x, xi: ham(x[1:], xi),
                       grad_x=lambda x, xi: np.concatenate([[0.0], ham.grad_x(x[1:], xi)]),
                       grad_xi=lambda x, xi: ham.grad_xi(x[1:], xi),
                       name=f"clocked-{ham.name}")


@pytest.fixture
def assemblies(monkeypatch):
    """The states, in order, at which every problem built after this fixture
    assembles its parts, logged by wrapping ``problems.last_point``."""
    states = []

    def logged_last_point(assemble):
        def logged(state):
            states.append(state.copy())
            return assemble(state)

        return last_point(logged)

    monkeypatch.setattr(problems, "last_point", logged_last_point)
    return states


@pytest.fixture
def so3():
    return so3_algebroid()


@pytest.fixture
def canonical1():
    return CanonicalDirac(1)


def make_random_pigraph(seed=0, base_dim=2, fiber_dim=3):
    """Smooth random algebroid: trigonometric anchor and structure fields."""
    rng = np.random.default_rng(seed)
    a_coef = rng.normal(size=(base_dim, fiber_dim))
    a_freq = rng.normal(size=(base_dim, fiber_dim, base_dim))
    c_coef = rng.normal(size=(fiber_dim, fiber_dim, fiber_dim))
    c_freq = rng.normal(size=(fiber_dim, fiber_dim, fiber_dim, base_dim))

    def anchor(x):
        return a_coef * np.sin(a_freq @ x + 1.0)

    def structure(x):
        raw = c_coef * np.cos(c_freq @ x)
        return raw - np.swapaxes(raw, 0, 1)

    chart = Chart(base_dim, fiber_dim)
    return SkewAlgebroid(chart, anchor, structure, name=f"random{seed}")


def make_frame_algebroid(seed, n):
    """The tangent bundle in the frame f_i = A(x)_i^a d_a: Lie, with x-dependent c."""
    rng = np.random.default_rng(seed)
    K = 0.3 * rng.normal(size=(n, n))
    W = rng.normal(size=(n, n, n))

    def frame(x):
        return np.eye(n) + K * np.sin(W @ x)

    def structure(x):
        a = frame(x)
        da = (K * np.cos(W @ x))[:, :, None] * W  # da[i, l, b] = d_b A_i^l
        # [f_i, f_j] = (f_i A_j^l - f_j A_i^l) d_l, in the frame f
        v = np.einsum("ib,jlb->ijl", a, da) - np.einsum("jb,ilb->ijl", a, da)
        return v @ np.linalg.inv(a)

    return SkewAlgebroid(Chart(n, n), lambda x: frame(x).T, structure, name=f"frame{seed}")


def make_random_omega(seed=0, base_dim=2, fiber_dim=3):
    """Graph of a random linear 2-form: trigonometric rho and cform fields."""
    rng = np.random.default_rng(seed)
    r_coef = rng.normal(size=(fiber_dim, base_dim))
    r_freq = rng.normal(size=(fiber_dim, base_dim, base_dim))
    c_coef = rng.normal(size=(base_dim, base_dim, fiber_dim))
    c_freq = rng.normal(size=(base_dim, base_dim, fiber_dim, base_dim))

    def cform(x):
        raw = c_coef * np.cos(c_freq @ x)
        return raw - np.swapaxes(raw, 0, 1)

    return OmegaGraphDirac(Chart(base_dim, fiber_dim),
                           rho=lambda x: r_coef * np.sin(r_freq @ x + 1.0), cform=cform)


def make_general_local(pi):
    """``pi``'s local form and structure functions as a ``GeneralLocalDirac``."""
    return GeneralLocalDirac(
        pi.chart,
        lambda x: pi.local_form(x)[:3],
        structure=lambda x: pi.structure_terms(x)[0],
    )


@pytest.fixture
def random_pigraph():
    return PiGraphDirac(make_random_pigraph(seed=42))


def smooth_section(seed, fiber_dim, base_dim):
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=(fiber_dim,))
    freq = rng.normal(size=(fiber_dim, base_dim))
    shift = rng.normal(size=(fiber_dim,))

    def fn(x):
        return coef * np.sin(freq @ x + shift)

    def jac(x):
        return (coef * np.cos(freq @ x + shift))[:, None] * freq

    return Section(fn, jacobian=jac, name=f"smooth{seed}")


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


def with_entry(arr, index, value):
    """A copy of ``arr`` with ``arr[index] = value``."""
    arr = arr.copy()
    arr[index] = value
    return arr
