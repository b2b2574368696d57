"""Objective variants for conditional-covariance feature selection.

All variants score a weight vector w in [0, 1]^d through the regularized
quadratic form

    Q(w) = Tr[Y^T (G_w + n * eps * I)^(-1) Y],

where G_w is the centered Gram matrix of the weighted inputs and Y the
centered response matrix. ``exact`` evaluates Q directly; ``soft_penalty``
adds lambda1 * (1^T w - m); ``low_rank`` replaces the Gram matrix by a rank-D
feature factorization and works on the rescaled, constant-shifted form of Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import InvalidParameterError, NumericalError
from .kernels import (
    GramMatrix,
    KernelSpec,
    _check_integer,
    _check_weights,
    center,
    center_rows,
    weighted_gaussian_gram,
    weighted_linear_gram,
)

VARIANTS = ("exact", "soft_penalty", "low_rank")


@dataclass(frozen=True)
class ObjectiveConfig:
    """Hyperparameters shared by the objective variants.

    epsilon: ridge level eps > 0 (the matrix regularizer is n * eps * I).
    m: target number of selected features.
    lambda1: weight of the soft cardinality penalty (soft_penalty variant).
    num_random_features: rank D of the feature factorization (low_rank).
    seed: controls the random feature draw and any init perturbation.
    """

    epsilon: float
    m: int
    variant: str = "exact"
    lambda1: float = 1.0
    num_random_features: int = 2048
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidParameterError(f"unknown objective variant {self.variant!r}")
        if not np.isfinite(self.epsilon) or self.epsilon <= 0:
            raise InvalidParameterError(f"epsilon must be positive, got {self.epsilon}")
        if _check_integer(self.m, "m") < 1:
            raise InvalidParameterError(f"m must be >= 1, got {self.m}")
        if not (0 <= self.lambda1 < np.inf):
            raise InvalidParameterError("lambda1 must be finite and nonnegative")
        if _check_integer(self.num_random_features, "num_random_features") < 1:
            raise InvalidParameterError("num_random_features must be >= 1")
        if not (0 <= _check_integer(self.seed, "seed") < 2**64):
            raise InvalidParameterError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class ObjectiveValue:
    """Objective value with its gradient (None when not requested)."""

    value: float
    gradient_w: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise NumericalError(f"objective value is not finite: {self.value}")
        if self.gradient_w is not None and not np.all(np.isfinite(self.gradient_w)):
            raise NumericalError("objective gradient has non-finite entries")


def _input_grams(X: np.ndarray, w: np.ndarray, kernel: KernelSpec):
    """Uncentered and centered Gram matrices of the weighted inputs."""
    if kernel.input_kernel == "gaussian":
        K = weighted_gaussian_gram(X, w, kernel.bandwidth)
    else:
        K = weighted_linear_gram(X, w)
    return K, center(K)


def _factor_ridge(G: np.ndarray, n: int, epsilon: float):
    A = G + (n * epsilon) * np.eye(n)
    try:
        return cho_factor(A, lower=True, check_finite=False)
    except LinAlgError as exc:  # not reachable for finite inputs and eps > 0
        raise NumericalError(f"ridge matrix factorization failed: {exc}") from exc


def _dk_contraction(K: GramMatrix, M: np.ndarray, X: np.ndarray, w: np.ndarray,
                    kernel: KernelSpec) -> np.ndarray:
    """d-vector with entries sum_ij dK_ij/dw_l * M_ij for symmetric M.

    Gaussian: dK_ij/dw_l = -K_ij * w_l * (x_il - x_jl)^2 / sigma^2; expanding
    the square reduces the sum to two O(n^2 d) contractions.
    Linear: dK_ij/dw_l = 2 w_l x_il x_jl.
    """
    if kernel.input_kernel == "gaussian":
        P = K.entries * M
        s = P.sum(axis=1)
        t1 = (X * X).T @ s
        t2 = np.sum(X * (P @ X), axis=0)
        sigma = kernel.bandwidth
        return -(2.0 * w / (sigma * sigma)) * (t1 - t2)
    MX = M @ X
    return 2.0 * w * np.sum(X * MX, axis=0)


def exact_objective(X: np.ndarray, Y: np.ndarray, w: np.ndarray,
                    cfg: ObjectiveConfig, kernel: KernelSpec, *,
                    compute_gradient: bool = True) -> ObjectiveValue:
    """Q(w) = Tr[Y^T (G_w + n eps I)^(-1) Y] via a Cholesky solve.

    The gradient reuses the factorization: with B = A^(-1) Y and C the
    column-centered B,

        dQ/dw_l = -sum_ij dK_ij/dw_l * (C C^T)_ij,

    which costs O(n^2 d) for all coordinates together.
    """
    X = np.asarray(X, dtype=np.float64)
    w = _check_weights(w, X.shape[1])
    n = X.shape[0]
    K, G = _input_grams(X, w, kernel)
    factor = _factor_ridge(G.entries, n, cfg.epsilon)
    B = cho_solve(factor, Y, check_finite=False)
    value = float(np.sum(Y * B))
    if not compute_gradient:
        return ObjectiveValue(value)
    C = center_rows(B)
    M = C @ C.T
    grad = -_dk_contraction(K, M, X, w, kernel)
    return ObjectiveValue(value, gradient_w=grad)


def soft_penalty_objective(X: np.ndarray, Y: np.ndarray, w: np.ndarray,
                           cfg: ObjectiveConfig, kernel: KernelSpec, *,
                           compute_gradient: bool = True) -> ObjectiveValue:
    """Exact objective plus the soft cardinality penalty lambda1 (1^T w - m)."""
    base = exact_objective(X, Y, w, cfg, kernel,
                           compute_gradient=compute_gradient)
    w = _check_weights(w, np.asarray(X).shape[1])
    value = base.value + cfg.lambda1 * (float(w.sum()) - cfg.m)
    grad = None
    if compute_gradient:
        grad = base.gradient_w + cfg.lambda1
    return ObjectiveValue(value, gradient_w=grad)


def low_rank_objective(X: np.ndarray, Y: np.ndarray, w: np.ndarray,
                       cfg: ObjectiveConfig, features, *,
                       compute_gradient: bool = True) -> ObjectiveValue:
    """Rescaled objective through a rank-D feature factorization.

    With V_w the column-centered feature matrix of the weighted inputs,
    the Woodbury identity turns Q into

        (||Y||_F^2 - Tr[Y^T V_w (V_w^T V_w + n eps I_D)^(-1) V_w^T Y]) / (n eps),

    and after multiplying by n*eps and dropping the constant the value
    minimized here is core(w) = -Tr[Y^T V_w (V_w^T V_w + n eps I_D)^(-1) V_w^T Y].
    The map is frozen for the lifetime of an optimization run, so the value
    is a deterministic function of w.
    """
    X = np.asarray(X, dtype=np.float64)
    w = _check_weights(w, X.shape[1])
    n = X.shape[0]
    V = features.centered_embed(X, w)
    D = V.shape[1]
    ne = n * cfg.epsilon
    T = V.T @ Y
    try:
        # The Gram matrices are symmetric, so each one's transpose is the same
        # matrix in Fortran order, which LAPACK factors in place.
        if D <= n:
            E = V.T @ V
            E.flat[::D + 1] += ne
            factor = cho_factor(E.T, lower=True, overwrite_a=True, check_finite=False)
            S = cho_solve(factor, T, check_finite=False)
        else:
            # Push-through identity: (V^T V + c I)^(-1) V^T = V^T (V V^T + c I)^(-1);
            # solving on the smaller side gives the same S exactly.
            F = V @ V.T
            F.flat[::n + 1] += ne
            factor = cho_factor(F.T, lower=True, overwrite_a=True, check_finite=False)
            S = V.T @ cho_solve(factor, Y, check_finite=False)
    except LinAlgError as exc:
        raise NumericalError(f"low-rank system factorization failed: {exc}") from exc
    value = -float(np.sum(T * S))
    if not compute_gradient:
        return ObjectiveValue(value)
    # d core / d V = 2 (V S - Y) S^T; the map contracts its centered form
    # from the n x k and D x k factors, so no n x D matrix is formed.
    A = center_rows(V @ S - Y)
    grad = 2.0 * features.grad_contract(X, w, A, S)
    return ObjectiveValue(value, gradient_w=grad)


def low_rank_equivalent_value(core_value: float, Y: np.ndarray,
                              epsilon: float, n: int) -> float:
    """Undo the low-rank rescaling: (||Y||_F^2 + core) / (n eps) estimates Q."""
    return (float(np.sum(Y * Y)) + core_value) / (n * epsilon)
