import numpy as np
import pytest

from oracles import central_difference_gradient, vector_rel_error

from ccselect import random_features
from ccselect.errors import InvalidParameterError
from ccselect.kernels import center, weighted_gaussian_gram
from ccselect.random_features import LinearFeatureMap, centered_embed, draw_map, embed


def test_draw_map_is_deterministic():
    a = draw_map(4, 64, 1.2, seed=42)
    b = draw_map(4, 64, 1.2, seed=42)
    assert np.array_equal(a.frequencies, b.frequencies)
    assert np.array_equal(a.phases, b.phases)
    c = draw_map(4, 64, 1.2, seed=43)
    assert not np.array_equal(a.frequencies, c.frequencies)


def test_draw_map_frequency_variance():
    fmap = draw_map(1, 100_000, 1.0, seed=0)
    assert float(np.var(fmap.frequencies)) == pytest.approx(1.0, abs=0.02)


def test_draw_map_bandwidth_scaling():
    a = draw_map(2, 20_000, 1.0, seed=1)
    b = draw_map(2, 20_000, 2.0, seed=1)
    assert np.std(b.frequencies) == pytest.approx(np.std(a.frequencies) / 2.0,
                                                  rel=1e-12)


def test_draw_map_validation():
    with pytest.raises(InvalidParameterError):
        draw_map(3, 0, 1.0, seed=0)
    with pytest.raises(InvalidParameterError):
        draw_map(3, 16, -1.0, seed=0)


def test_embed_zero_weights_gives_identical_rows():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((7, 3))
    fmap = draw_map(3, 32, 1.0, seed=3)
    U = embed(fmap, X, np.zeros(3))
    assert np.all(U == U[0])
    assert np.allclose(U[0], fmap.scale * np.cos(fmap.phases))


def test_embed_row_norm_bound():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((20, 5)) * 3.0
    fmap = draw_map(5, 17, 0.7, seed=5)
    U = embed(fmap, X, rng.uniform(0, 1, 5))
    norms = np.sum(U * U, axis=1)
    assert np.all(norms <= 2.0 + 1e-12)


def test_embed_expectation_matches_kernel():
    # Monte-Carlo over independent maps: E[z(x)^T z(x')] equals the Gaussian
    # kernel of the weighted points
    sigma = 1.3
    w = np.array([0.8, 0.4])
    x = np.array([[0.5, -1.0], [1.2, 0.3]])
    target = np.exp(-np.sum((w * (x[0] - x[1])) ** 2) / (2 * sigma**2))
    vals = []
    for seed in range(200):
        fmap = draw_map(2, 64, sigma, seed=seed)
        U = embed(fmap, x, w)
        vals.append(float(U[0] @ U[1]))
    assert np.mean(vals) == pytest.approx(target, abs=0.02)


def test_centered_embed_zero_weights_vanish():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((9, 4))
    fmap = draw_map(4, 24, 1.1, seed=7)
    V = centered_embed(fmap, X, np.zeros(4))
    assert np.max(np.abs(V)) <= 1e-15


def test_centered_embed_column_means_vanish():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((30, 4))
    fmap = draw_map(4, 50, 1.1, seed=9)
    V = centered_embed(fmap, X, rng.uniform(0, 1, 4))
    assert np.max(np.abs(V.mean(axis=0))) <= 1e-12


def test_gram_approximation_error_decreases_with_dimension():
    rng = np.random.default_rng(10)
    n, d = 40, 5
    X = rng.standard_normal((n, d))
    w = np.full(d, 0.6)
    sigma = 1.4
    G = center(weighted_gaussian_gram(X, w, sigma)).entries
    medians = []
    for D in (64, 256, 1024, 4096):
        errs = []
        for seed in range(20):
            V = centered_embed(draw_map(d, D, sigma, seed=seed), X, w)
            errs.append(float(np.max(np.abs(V @ V.T - G))))
        medians.append(float(np.median(errs)))
    assert all(a > b for a, b in zip(medians, medians[1:]))


def test_gram_approximation_error_at_large_dimension():
    # D = 4096, n = 100, d = 10: max-norm error <= 0.08 for >= 95% of seeds
    rng = np.random.default_rng(11)
    n, d, D = 100, 10, 4096
    X = rng.standard_normal((n, d))
    w = np.full(d, 0.5)
    sigma = 2.0
    G = center(weighted_gaussian_gram(X, w, sigma)).entries
    hits = 0
    for seed in range(50):
        V = centered_embed(draw_map(d, D, sigma, seed=seed), X, w)
        if np.max(np.abs(V @ V.T - G)) <= 0.08:
            hits += 1
    assert hits >= 48  # 0.95 * 50, with 1-seed slack


def test_embed_derivative_matches_finite_differences():
    rng = np.random.default_rng(12)
    n, d, D = 8, 3, 16
    X = rng.standard_normal((n, d))
    fmap = draw_map(d, D, 0.9, seed=13)
    w = rng.uniform(0.1, 0.9, d)
    for k in (1, 3):
        # the contraction weights C = A S^T arrive as their two factors
        A = rng.standard_normal((n, k))
        S = rng.standard_normal((D, k))
        C = A @ S.T

        def contracted(wv):
            return float(np.sum(C * embed(fmap, X, wv)))

        grad = fmap.grad_contract(X, w, A, S)
        fd = central_difference_gradient(contracted, w, h=1e-6)
        assert vector_rel_error(grad, fd) <= 1e-6


def _full_theta_contraction(fmap, X, w, A, S):
    # d(embed)_ir / d w_l = -scale * sin(theta_ir) * F[r, l] * X[i, l]
    sin_theta = np.sin((X * w) @ fmap.frequencies.T + fmap.phases)
    C = A @ S.T
    return -fmap.scale * np.einsum("ir,ir,rl,il->l", C, sin_theta,
                                   fmap.frequencies, X)


def test_grad_contract_over_row_blocks_matches_full_theta():
    d, D = 3, 2048
    rows = random_features._BLOCK_BYTES // (8 * D)
    fmap = draw_map(d, D, 1.1, seed=15)
    rng = np.random.default_rng(16)
    w = rng.uniform(0.1, 0.9, d)
    for n in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
        X = rng.standard_normal((n, d))
        for k in (1, 3):
            A = rng.standard_normal((n, k))
            S = rng.standard_normal((D, k))
            expected = _full_theta_contraction(fmap, X, w, A, S)
            got = fmap.grad_contract(X, w, A, S)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_linear_feature_map_is_exact_factorization():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((10, 4))
    w = rng.uniform(0, 1, 4)
    lin = LinearFeatureMap(4)
    U = lin.embed(X, w)
    assert np.allclose(U, X * w)
    assert lin.num_features == 4
