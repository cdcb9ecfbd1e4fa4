import numpy as np

from diracmech import fd
from diracmech.dynamics import Lagrangian


def test_steps_scale_with_coordinate_magnitude():
    x = np.array([0.0, 1.0, -2000.0])
    h = fd.steps(x)
    assert h[0] == 1e-6
    assert h[1] == 1e-6
    assert h[2] == 2000.0 * 1e-6


def test_gradient_of_smooth_scalar():
    def f(x):
        return np.sin(x[0]) * x[1] ** 2

    x = np.array([0.4, -1.3])
    g = fd.jacobian(f, x)
    assert g.shape == (2,)
    expected = np.array([np.cos(0.4) * 1.69, np.sin(0.4) * -2.6])
    assert np.max(np.abs(g - expected)) <= 1e-9


def test_jacobian_shape_and_empty_domain():
    def f(x):
        return np.array([x[0] + x[1], x[0] * x[1], x[1] ** 2])

    J = fd.jacobian(f, np.array([2.0, 3.0]))
    assert J.shape == (3, 2)
    assert np.max(np.abs(J - [[1, 1], [3, 2], [0, 6]])) <= 1e-8

    empty = fd.jacobian(lambda x: np.array([1.0, 2.0]), np.zeros(0))
    assert empty.shape == (2, 0)


def test_hessian_nested_versus_analytic_gradient():
    def f(x, y):
        return np.cos(y[0]) + y[0] ** 2 * y[1]

    def grad(x, y):
        return np.array([-np.sin(y[0]) + 2 * y[0] * y[1], y[0] ** 2])

    x, y = np.zeros(0), np.array([0.7, -0.2])
    expected = np.array([[-np.cos(0.7) - 0.4, 1.4], [1.4, 0.0]])
    nested = Lagrangian(f).hess_yy(x, y)
    direct = Lagrangian(f, grad_y=grad).hess_yy(x, y)
    assert np.max(np.abs(nested - expected)) <= 1e-6
    assert np.max(np.abs(direct - expected)) <= 1e-9
