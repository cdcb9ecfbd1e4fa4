import numpy as np

from diracmech import linalg


def test_null_space_orthonormal():
    A = np.array([[1.0, 1.0, 0.0]])
    N = linalg.null_space(A)
    assert N.shape == (3, 2)
    assert np.max(np.abs(A @ N)) <= 1e-12
    assert np.max(np.abs(N.T @ N - np.eye(2))) <= 1e-12


def test_null_space_of_empty_row_matrix_is_identity():
    assert np.array_equal(linalg.null_space(np.zeros((0, 4))), np.eye(4))


def test_numeric_rank_relative_threshold():
    A = np.diag([1.0, 1e-6, 1e-12])
    assert linalg.numeric_rank(A) == 2  # 1e-12 is below 1e-9 * sigma_max


def test_intersection_ignores_roundoff_constraints():
    # a constraint matrix whose restriction to the span is pure noise must
    # cut nothing; with unit-scale rows the noise stays below threshold
    span = np.eye(4)[:, :3]
    rows = np.zeros((1, 4))
    rows[0, 3] = 1.0  # annihilates the span exactly
    noisy = rows + 1e-15 * np.ones((1, 4))
    out = linalg.intersect_span_with_kernel(span, noisy)
    assert out.shape[1] == 3


def test_intersection_cuts_genuine_constraints():
    span = np.eye(4)[:, :3]
    rows = np.array([[1.0, -1.0, 0.0, 0.0]])
    out = linalg.intersect_span_with_kernel(span, rows)
    assert out.shape[1] == 2
    assert np.max(np.abs(rows @ out)) <= 1e-12


def test_principal_angles_detect_rotation():
    a = np.eye(3)[:, :1]
    theta = 0.3
    b = np.array([[np.cos(theta)], [np.sin(theta)], [0.0]])
    assert abs(linalg.max_principal_angle(a, b) - theta) <= 1e-12


def test_annihilator_pairs_to_zero():
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((2, 5))
    ann = linalg.annihilator(vectors)
    assert ann.shape[1] == 3
    assert np.max(np.abs(vectors @ ann)) <= 1e-12


def test_zero_matrix_has_rank_zero():
    # every singular value is 0, and none exceeds 1e-9 * 0
    zero = np.zeros((2, 3))
    assert linalg.numeric_rank(zero) == 0
    kernel = linalg.null_space(zero)
    assert kernel.shape == (3, 3)
    assert np.max(np.abs(kernel.T @ kernel - np.eye(3))) <= 1e-12
    assert linalg.orthonormal_span(zero).shape == (2, 0)


def test_empty_matrices():
    assert linalg.numeric_rank(np.zeros((0, 3))) == 0
    assert linalg.null_space(np.zeros((2, 0))).shape == (0, 0)
    assert linalg.orthonormal_span(np.zeros((0, 2))).shape == (0, 0)
    assert linalg.orthonormal_span(np.zeros((3, 0))).shape == (3, 0)
    assert linalg.ranks(np.zeros((4, 0))).tolist() == [0, 0, 0, 0]


def test_null_space_scale_overrides_the_reference():
    A = np.diag([1e-3, 1e-13])
    # relative to its own sigma_max 1e-3, 1e-13 is below 1e-9 * 1e-3 ...
    assert linalg.null_space(A).shape == (2, 1)
    # ... but not below 1e-9 * 1e-6, and a scale of 1e6 cuts both
    assert linalg.null_space(A, scale=1e-6).shape == (2, 0)
    assert linalg.null_space(A, scale=1e6).shape == (2, 2)
    assert linalg.ranks(np.array([1e-3, 1e-13]), 1e-6) == 2
