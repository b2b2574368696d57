import numpy as np
import pytest

from oracles import central_difference_gradient, traced_peak_bytes, vector_rel_error

from ccselect.dataio import LabeledDataset
from ccselect.errors import InvalidParameterError
from ccselect.kernels import KernelSpec
from ccselect.objective import (
    ObjectiveConfig,
    exact_objective,
    low_rank_equivalent_value,
    low_rank_objective,
    soft_penalty_objective,
)
from ccselect.optimizer import dataset_response
from ccselect.random_features import LinearFeatureMap, draw_map


def make_regression(n=20, d=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    ds = LabeledDataset(X, y, "regression")
    return X, dataset_response(ds)


GAUSS = KernelSpec(bandwidth=1.5)


def test_exact_objective_zero_weights_closed_form():
    X, resp = make_regression(seed=1)
    n = X.shape[0]
    cfg = ObjectiveConfig(epsilon=0.3, m=2)
    value = exact_objective(X, resp, np.zeros(X.shape[1]), cfg, GAUSS).value
    expected = float(np.sum(resp**2)) / (n * cfg.epsilon)
    assert value == pytest.approx(expected, rel=1e-12)


def test_exact_objective_two_sample_example():
    # w = 0, y = (1, -1), eps = 0.5: value = ||y||^2 / (n eps) = 2 / 1 = 2
    X = np.array([[0.0], [1.0]])
    ds = LabeledDataset(X, np.array([1.0, -1.0]), "regression")
    resp = dataset_response(ds)
    cfg = ObjectiveConfig(epsilon=0.5, m=1)
    value = exact_objective(X, resp, np.zeros(1), cfg, GAUSS).value
    assert value == pytest.approx(2.0, rel=1e-12)


def test_exact_objective_positive_for_nonzero_response():
    X, resp = make_regression(seed=2)
    cfg = ObjectiveConfig(epsilon=0.05, m=3)
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = rng.uniform(0, 1, X.shape[1])
        assert exact_objective(X, resp, w, cfg, GAUSS).value > 0


def test_exact_objective_masking_equivalence():
    X, resp = make_regression(n=18, d=7, seed=4)
    cfg = ObjectiveConfig(epsilon=0.2, m=3)
    mask = np.array([1, 0, 1, 0, 0, 1, 0], dtype=float)
    active = np.flatnonzero(mask)
    full = exact_objective(X, resp, mask, cfg, GAUSS, compute_gradient=False).value
    sub = exact_objective(X[:, active], resp, np.ones(active.size),
                          ObjectiveConfig(epsilon=0.2, m=3), GAUSS,
                          compute_gradient=False).value
    assert abs(full - sub) / abs(sub) <= 1e-10


def test_exact_objective_response_scaling():
    X, _ = make_regression(n=15, d=3, seed=5)
    rng = np.random.default_rng(6)
    y = rng.standard_normal(15)
    c = -2.5
    resp1 = dataset_response(LabeledDataset(X, y, "regression"))
    resp2 = dataset_response(LabeledDataset(X, c * y, "regression"))
    cfg = ObjectiveConfig(epsilon=0.1, m=2)
    # small grid of weight vectors; scaling y by c multiplies every value by
    # c^2 and therefore cannot change the argmin
    grid = [np.array(t, dtype=float) for t in
            [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0), (0.5, 0.5, 0.5), (1, 0, 1)]]
    v1 = [exact_objective(X, resp1, w, cfg, GAUSS, compute_gradient=False).value
          for w in grid]
    v2 = [exact_objective(X, resp2, w, cfg, GAUSS, compute_gradient=False).value
          for w in grid]
    assert np.allclose(np.array(v2), c**2 * np.array(v1), rtol=1e-10)
    assert int(np.argmin(v1)) == int(np.argmin(v2))


def test_exact_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for seed in range(5):
        X, resp = make_regression(n=16, d=5, seed=10 + seed)
        cfg = ObjectiveConfig(epsilon=0.25, m=2)
        w = rng.uniform(0.05, 0.95, 5)
        grad = exact_objective(X, resp, w, cfg, GAUSS).gradient_w
        fd = central_difference_gradient(
            lambda wv: exact_objective(X, resp, wv, cfg, GAUSS,
                                       compute_gradient=False).value, w)
        assert vector_rel_error(grad, fd) <= 1e-5


def test_exact_gradient_zero_at_zero_weight():
    X, resp = make_regression(seed=8)
    cfg = ObjectiveConfig(epsilon=0.2, m=2)
    w = np.array([0.5, 0.0, 0.7, 0.0, 0.3, 0.9])
    grad = exact_objective(X, resp, w, cfg, GAUSS).gradient_w
    assert grad[1] == 0.0 and grad[3] == 0.0


def test_soft_penalty_reduces_to_exact_when_lambda_zero():
    X, resp = make_regression(seed=9)
    w = np.full(6, 0.4)
    cfg0 = ObjectiveConfig(epsilon=0.2, m=3, lambda1=0.0)
    a = soft_penalty_objective(X, resp, w, cfg0, GAUSS)
    b = exact_objective(X, resp, w, cfg0, GAUSS)
    assert a.value == b.value
    assert np.array_equal(a.gradient_w, b.gradient_w)


def test_soft_penalty_additivity():
    X, resp = make_regression(seed=10)
    cfg = ObjectiveConfig(epsilon=0.2, m=3, lambda1=1.0)
    w_tight = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])  # sums to m
    assert soft_penalty_objective(X, resp, w_tight, cfg, GAUSS).value == pytest.approx(
        exact_objective(X, resp, w_tight, cfg, GAUSS).value)
    w_over = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])  # sums to m + 2
    assert soft_penalty_objective(X, resp, w_over, cfg, GAUSS).value == pytest.approx(
        exact_objective(X, resp, w_over, cfg, GAUSS).value + 2.0, rel=1e-12)


def test_low_rank_zero_weights_core_vanishes():
    X, resp = make_regression(seed=15)
    cfg = ObjectiveConfig(epsilon=0.2, m=3, num_random_features=32)
    fmap = draw_map(X.shape[1], 32, 1.5, seed=0)
    value = low_rank_objective(X, resp, np.zeros(X.shape[1]), cfg, fmap,
                               compute_gradient=False).value
    assert abs(value) <= 1e-20


def test_low_rank_linear_map_reproduces_exact_objective():
    X, resp = make_regression(n=25, d=6, seed=16)
    n = X.shape[0]
    cfg = ObjectiveConfig(epsilon=0.2, m=3)
    w = np.random.default_rng(17).uniform(0, 1, 6)
    lin_kernel = KernelSpec(input_kernel="linear")
    exact = exact_objective(X, resp, w, cfg, lin_kernel,
                            compute_gradient=False).value
    core = low_rank_objective(X, resp, w, cfg, LinearFeatureMap(6),
                              compute_gradient=False).value
    recovered = low_rank_equivalent_value(core, resp, cfg.epsilon, n)
    assert abs(recovered - exact) / exact <= 1e-8


def test_low_rank_gradient_matches_finite_differences():
    X, resp = make_regression(n=15, d=4, seed=18)
    cfg = ObjectiveConfig(epsilon=0.3, m=2, num_random_features=48)
    fmap = draw_map(4, 48, 1.5, seed=5)
    w = np.random.default_rng(19).uniform(0.1, 0.9, 4)
    grad = low_rank_objective(X, resp, w, cfg, fmap).gradient_w
    fd = central_difference_gradient(
        lambda wv: low_rank_objective(X, resp, wv, cfg, fmap,
                                      compute_gradient=False).value, w)
    assert vector_rel_error(grad, fd) <= 1e-5


@pytest.mark.parametrize("features", ["narrow", "wide", "linear"])
def test_low_rank_gradient_matches_finite_differences_three_classes(features):
    # D < n solves on the D side, D > n through the push-through identity
    rng = np.random.default_rng(21)
    n, d = 15, 4
    X = rng.standard_normal((n, d))
    resp = dataset_response(
        LabeledDataset(X, rng.integers(0, 3, n), "classification"))
    assert resp.shape == (n, 3)
    fmap = {
        "narrow": draw_map(d, 8, 1.5, seed=8),
        "wide": draw_map(d, 40, 1.5, seed=9),
        "linear": LinearFeatureMap(d),
    }[features]
    cfg = ObjectiveConfig(epsilon=0.3, m=2, num_random_features=fmap.num_features)
    w = rng.uniform(0.1, 0.9, d)
    grad = low_rank_objective(X, resp, w, cfg, fmap).gradient_w
    fd = central_difference_gradient(
        lambda wv: low_rank_objective(X, resp, wv, cfg, fmap,
                                      compute_gradient=False).value, w)
    assert vector_rel_error(grad, fd) <= 1e-5


def test_low_rank_wide_map_uses_identical_mathematics():
    # D > n takes the small-side solve; values must agree with the D x D route
    X, resp = make_regression(n=12, d=4, seed=19)
    cfg = ObjectiveConfig(epsilon=0.2, m=2, num_random_features=64)
    fmap = draw_map(4, 64, 1.5, seed=6)
    w = np.full(4, 0.6)
    core = low_rank_objective(X, resp, w, cfg, fmap, compute_gradient=False).value
    V = fmap.centered_embed(X, w)
    E = V.T @ V + 12 * cfg.epsilon * np.eye(64)
    T = V.T @ resp
    direct = -float(np.sum(T * np.linalg.solve(E, T)))
    assert core == pytest.approx(direct, rel=1e-10)


def test_low_rank_evaluation_holds_one_n_by_d_buffer():
    # V is the one n x D array; theta is recomputed in row blocks of about
    # 8 MB for the gradient
    n, d, D = 6000, 10, 512
    X, resp = make_regression(n=n, d=d, seed=22)
    cfg = ObjectiveConfig(epsilon=0.1, m=3, variant="low_rank", num_random_features=D)
    fmap = draw_map(d, D, 1.5, seed=10)
    w = np.full(d, 0.3)
    peak = traced_peak_bytes(lambda: low_rank_objective(X, resp, w, cfg, fmap))
    assert peak <= 1.5 * 8 * n * D


def test_low_rank_gaussian_tracks_exact_objective():
    X, resp = make_regression(n=40, d=5, seed=20)
    cfg = ObjectiveConfig(epsilon=0.2, m=3, num_random_features=4096)
    fmap = draw_map(5, 4096, 1.5, seed=7)
    w = np.full(5, 0.5)
    core = low_rank_objective(X, resp, w, cfg, fmap, compute_gradient=False).value
    approx = low_rank_equivalent_value(core, resp, cfg.epsilon, 40)
    exact = exact_objective(X, resp, w, cfg, GAUSS, compute_gradient=False).value
    assert abs(approx - exact) / exact <= 0.05


def test_objective_config_validation():
    with pytest.raises(InvalidParameterError):
        ObjectiveConfig(epsilon=0.0, m=2)
    with pytest.raises(InvalidParameterError):
        ObjectiveConfig(epsilon=0.1, m=0)
    with pytest.raises(InvalidParameterError):
        ObjectiveConfig(epsilon=0.1, m=2, variant="newton")
    with pytest.raises(InvalidParameterError):
        ObjectiveConfig(epsilon=0.1, m=2, lambda1=-0.5)
    with pytest.raises(InvalidParameterError):
        ObjectiveConfig(epsilon=0.1, m=2, num_random_features=0)

