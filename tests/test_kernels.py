import numpy as np
import pytest

from ccselect.errors import (
    DegenerateDataError,
    InvalidDataError,
    InvalidLabelError,
    InvalidParameterError,
)
from ccselect.kernels import (
    KernelSpec,
    center,
    centered_response,
    median_bandwidth,
    weighted_gaussian_gram,
    weighted_linear_gram,
)


def test_gram_identical_points_give_unit_entry():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 3.0]])
    K = weighted_gaussian_gram(X, np.array([0.3, 0.8]), 1.5).entries
    assert K[0, 1] == 1.0
    assert np.all(np.diag(K) == 1.0)


def test_gram_single_sample():
    K = weighted_gaussian_gram(np.array([[3.0, -1.0]]), np.ones(2), 1.0)
    assert K.entries.shape == (1, 1)
    assert K.entries[0, 0] == 1.0


def test_gram_zero_weights_collapse_to_all_ones():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 4))
    K = weighted_gaussian_gram(X, np.zeros(4), 2.0).entries
    assert np.array_equal(K, np.ones((6, 6)))


def test_gram_two_point_value():
    # exp(-(2 - 0)^2 / (2 * 2)) = exp(-1), computed directly from the formula
    X = np.array([[0.0], [2.0]])
    K = weighted_gaussian_gram(X, np.array([1.0]), np.sqrt(2.0)).entries
    assert K[0, 1] == pytest.approx(0.36787944117144233, abs=1e-15)
    assert K[0, 1] == K[1, 0]


def test_gram_exactly_symmetric_and_in_unit_interval():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((25, 7))
    w = rng.uniform(0, 1, 7)
    K = weighted_gaussian_gram(X, w, 1.3).entries
    assert np.array_equal(K, K.T)
    assert np.all(K > 0) and np.all(K <= 1.0)


def test_gram_positive_semidefinite_on_random_instances():
    rng = np.random.default_rng(2)
    for n in (5, 20, 50):
        X = rng.standard_normal((n, 6))
        w = rng.uniform(0, 1, 6)
        K = weighted_gaussian_gram(X, w, 0.9).entries
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() >= -1e-8


def test_gram_masking_equivalence_with_binary_weights():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((15, 8))
    mask = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=float)
    active = np.flatnonzero(mask)
    K_masked = weighted_gaussian_gram(X, mask, 1.1).entries
    K_sub = weighted_gaussian_gram(X[:, active], np.ones(active.size), 1.1).entries
    assert np.max(np.abs(K_masked - K_sub)) <= 1e-12


def test_gram_permutation_invariance():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((12, 5))
    w = rng.uniform(0, 1, 5)
    perm = rng.permutation(5)
    K1 = weighted_gaussian_gram(X, w, 1.4).entries
    K2 = weighted_gaussian_gram(X[:, perm], w[perm], 1.4).entries
    assert np.max(np.abs(K1 - K2)) <= 1e-14


def test_gram_input_validation():
    X = np.array([[0.0, np.nan]])
    with pytest.raises(InvalidDataError):
        weighted_gaussian_gram(X, np.array([1.0, 1.0]), 1.0)
    with pytest.raises(InvalidParameterError):
        weighted_gaussian_gram(np.ones((2, 2)), np.ones(2), 0.0)
    with pytest.raises(InvalidDataError):
        weighted_gaussian_gram(np.ones((2, 2)), np.array([1.0, np.inf]), 1.0)


def test_center_all_ones_to_zero():
    from ccselect.kernels import GramMatrix

    K = GramMatrix(np.ones((4, 4)))
    C = center(K)
    assert C.centered
    assert np.max(np.abs(C.entries)) <= 1e-15


def test_center_identity_two_by_two():
    from ccselect.kernels import GramMatrix

    C = center(GramMatrix(np.eye(2))).entries
    # hand computation of H K H with H = I - (1/2) 1 1^T
    assert np.allclose(C, np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-15)


def test_center_row_and_column_sums_vanish():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 4))
    K = weighted_gaussian_gram(X, np.ones(4), 1.0)
    C = center(K)
    n = C.n
    assert np.max(np.abs(C.entries.sum(axis=0))) <= 1e-10 * n
    assert np.max(np.abs(C.entries.sum(axis=1))) <= 1e-10 * n
    assert np.array_equal(C.entries, C.entries.T)


def test_center_exactly_symmetric_and_equal_to_h_m_h():
    from ccselect.kernels import GramMatrix

    rng = np.random.default_rng(7)
    A = rng.standard_normal((50, 50))
    M = A + A.T + 3.0
    C = center(GramMatrix(M)).entries
    assert np.array_equal(C, C.T)
    H = np.eye(50) - np.full((50, 50), 1.0 / 50)
    assert np.max(np.abs(C - H @ M @ H)) <= 1e-12


def test_center_is_idempotent():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((10, 3))
    K = weighted_gaussian_gram(X, np.ones(3), 1.0)
    once = center(K)
    twice = center(once)
    assert twice is once


def test_response_gram_regression():
    spec = KernelSpec(input_kernel="linear", response_kernel="linear")
    (Y,) = centered_response(np.array([1.0, -1.0]), spec)
    assert np.allclose(Y, np.array([[1.0], [-1.0]]))
    assert np.allclose(Y @ Y.T, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_response_gram_one_hot_binary():
    spec = KernelSpec(input_kernel="linear", response_kernel="one_hot_delta",
                      num_classes=2)
    (Y,) = centered_response(np.array([0, 1]), spec)
    # one-hot rows (1,0), (0,1) centered column-wise
    assert np.allclose(Y, np.array([[0.5, -0.5], [-0.5, 0.5]]))
    assert np.allclose(Y @ Y.T, np.array([[0.5, -0.5], [-0.5, 0.5]]))


def test_response_gram_constant_response_is_zero():
    spec = KernelSpec(input_kernel="linear", response_kernel="linear")
    (Y,) = centered_response(np.full(5, 3.7), spec)
    assert np.max(np.abs(Y)) == 0.0


def test_response_gram_is_already_centered():
    from ccselect.kernels import GramMatrix

    rng = np.random.default_rng(7)
    spec = KernelSpec(input_kernel="linear", response_kernel="one_hot_delta",
                      num_classes=3)
    (Y,) = centered_response(rng.integers(0, 3, 20), spec)
    assert np.max(np.abs(Y.mean(axis=0))) <= 1e-15
    G = Y @ Y.T
    recentered = center(GramMatrix(G, centered=False))
    assert np.max(np.abs(recentered.entries - G)) <= 1e-10


def test_response_gram_label_out_of_range():
    spec = KernelSpec(input_kernel="linear", response_kernel="one_hot_delta",
                      num_classes=2)
    with pytest.raises(InvalidLabelError):
        centered_response(np.array([0, 2]), spec)


def test_kernel_spec_validation():
    with pytest.raises(InvalidParameterError):
        KernelSpec(input_kernel="gaussian", bandwidth=-1.0)
    with pytest.raises(InvalidParameterError):
        KernelSpec(input_kernel="linear", response_kernel="one_hot_delta",
                   num_classes=1)
    with pytest.raises(InvalidParameterError):
        KernelSpec(input_kernel="cubic", bandwidth=1.0)


def test_median_bandwidth_single_pair():
    X = np.array([[0.0], [2.0]])
    assert median_bandwidth(X) == pytest.approx(np.sqrt(2.0))


def test_median_bandwidth_three_collinear_points():
    # pairwise distances {1, 1, 2}, median 1
    X = np.array([[0.0], [1.0], [2.0]])
    assert median_bandwidth(X) == pytest.approx(1.0 / np.sqrt(2.0))


def test_median_bandwidth_scales_with_data():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((20, 3))
    s1 = median_bandwidth(X)
    s2 = median_bandwidth(3.5 * X)
    assert s2 == pytest.approx(3.5 * s1, rel=1e-12)


def test_median_bandwidth_identical_points_error():
    with pytest.raises(DegenerateDataError):
        median_bandwidth(np.ones((5, 2)))


def test_median_bandwidth_subsample_is_deterministic():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((300, 2))
    s1 = median_bandwidth(X, max_points=100)
    s2 = median_bandwidth(X, max_points=100)
    assert s1 == s2
    assert s1 > 0


def test_weighted_linear_gram_matches_weighted_inner_products():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((8, 3))
    w = rng.uniform(0, 1, 3)
    K = weighted_linear_gram(X, w).entries
    Z = X * w
    assert np.allclose(K, Z @ Z.T)
    assert np.array_equal(K, K.T)
