"""Kernel evaluation on weighted inputs, Gram centering, centred responses.

The input kernel acts on coordinate-weighted points w ⊙ x, so a Gaussian
entry is exp(-sum_l w_l^2 (x_il - x_jl)^2 / (2 sigma^2)) and a binary weight
vector reproduces plain subset selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import (
    DegenerateDataError,
    InvalidDataError,
    InvalidLabelError,
    InvalidParameterError,
)

INPUT_KERNELS = ("gaussian", "linear")
RESPONSE_KERNELS = ("linear", "one_hot_delta")

# Above this sample count the bandwidth heuristic works on a seeded subsample.
MEDIAN_HEURISTIC_MAX_POINTS = 5000


@dataclass(frozen=True)
class KernelSpec:
    """Input/response kernel choice with their parameters.

    input_kernel: "gaussian" (requires bandwidth > 0) or "linear".
    response_kernel: "linear" for real responses, "one_hot_delta" for
    class labels (requires num_classes >= 2).
    """

    input_kernel: str = "gaussian"
    bandwidth: float | None = None
    response_kernel: str = "linear"
    num_classes: int | None = None

    def __post_init__(self):
        if self.input_kernel not in INPUT_KERNELS:
            raise InvalidParameterError(f"unknown input kernel {self.input_kernel!r}")
        if self.response_kernel not in RESPONSE_KERNELS:
            raise InvalidParameterError(
                f"unknown response kernel {self.response_kernel!r}"
            )
        if self.input_kernel == "gaussian":
            if self.bandwidth is None or not np.isfinite(self.bandwidth) or self.bandwidth <= 0:
                raise InvalidParameterError("gaussian kernel requires bandwidth > 0")
        if self.response_kernel == "one_hot_delta":
            if self.num_classes is None or self.num_classes < 2:
                raise InvalidParameterError("one_hot_delta requires num_classes >= 2")


@dataclass(frozen=True)
class GramMatrix:
    """An n x n kernel matrix plus a flag recording whether it is centered."""

    entries: np.ndarray
    centered: bool = False

    @property
    def n(self) -> int:
        return self.entries.shape[0]


class ResponseData(NamedTuple):
    """Centered response matrix Y (n x k); its Gram Y Y^T is never formed."""

    y_mat: np.ndarray


def _check_matrix(X: np.ndarray, name: str = "X") -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise InvalidDataError(f"{name} must be a non-empty 2-d array, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InvalidDataError(f"{name} contains non-finite entries")
    return X


def _check_weights(w: np.ndarray, d: int) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64).ravel()
    if w.shape[0] != d:
        raise InvalidDataError(f"weight vector has length {w.shape[0]}, expected {d}")
    if not np.all(np.isfinite(w)):
        raise InvalidDataError("weight vector contains non-finite entries")
    return w


def _symmetrize(K: np.ndarray) -> np.ndarray:
    """Mirror the upper triangle so K[i, j] == K[j, i] bit for bit."""
    return np.triu(K) + np.triu(K, 1).T


def weighted_gaussian_gram(X: np.ndarray, w: np.ndarray, sigma: float) -> GramMatrix:
    """Gaussian Gram matrix of the weighted points w ⊙ x_i.

    Entry (i, j) is exp(-||w ⊙ (x_i - x_j)||^2 / (2 sigma^2)). Each unordered
    pair is computed once, so the result is exactly symmetric with unit
    diagonal.
    """
    X = _check_matrix(X)
    w = _check_weights(w, X.shape[1])
    if not np.isfinite(sigma) or sigma <= 0:
        raise InvalidParameterError(f"sigma must be positive, got {sigma}")
    n = X.shape[0]
    if n == 1:
        return GramMatrix(np.ones((1, 1)))
    Z = X * w
    sq = squareform(pdist(Z, "sqeuclidean"))
    K = np.exp(-sq / (2.0 * sigma * sigma))
    np.fill_diagonal(K, 1.0)
    return GramMatrix(K)


def weighted_linear_gram(X: np.ndarray, w: np.ndarray) -> GramMatrix:
    """Linear Gram matrix <w ⊙ x_i, w ⊙ x_j> of the weighted points."""
    X = _check_matrix(X)
    w = _check_weights(w, X.shape[1])
    Z = X * w
    K = _symmetrize(Z @ Z.T)
    return GramMatrix(K)


def center_in_place(M: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Overwrite a symmetric M with H M H = M - (a_i + a_j), a = r - mean(r)/2.

    r holds the row means of M. ``scratch`` is an n x n buffer that receives
    a_i + a_j; that sum is the same float in either order, so the result is
    exactly symmetric.
    """
    r = M.mean(axis=1)
    a = r - 0.5 * r.mean()
    scratch[...] = a
    scratch += a[:, None]
    M -= scratch
    return M


def center(K: GramMatrix) -> GramMatrix:
    """Conjugate the symmetric K by H = I - (1/n) 11^T: subtract row, column and grand means.

    Runs in O(n^2); idempotent, so an already-centered input is returned as is.
    """
    if K.centered:
        return K
    M = K.entries
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidDataError(f"Gram matrix must be square, got shape {M.shape}")
    C = np.array(M, dtype=np.float64)
    return GramMatrix(center_in_place(C, np.empty_like(C)), centered=True)


def center_rows(B: np.ndarray) -> np.ndarray:
    """Apply H = I - (1/n) 11^T on the left: subtract each column's mean."""
    return B - B.mean(axis=0, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer labels in {0, ..., num_classes-1}."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise InvalidDataError("labels must be a 1-d array")
    if not np.issubdtype(labels.dtype, np.integer):
        as_int = labels.astype(np.int64)
        if not np.array_equal(as_int, labels):
            raise InvalidLabelError("class labels must be integers")
        labels = as_int
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise InvalidLabelError(
            f"labels must lie in [0, {num_classes - 1}], got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    Y = np.zeros((labels.shape[0], num_classes))
    Y[np.arange(labels.shape[0]), labels] = 1.0
    return Y


def centered_response(y: np.ndarray, spec: KernelSpec) -> ResponseData:
    """Build the centered response matrix Y (n x k), the factor of G_Y = Y Y^T.

    Real responses use the linear kernel on the response directly; class
    labels are one-hot encoded first (the delta kernel is the linear kernel
    on one-hot vectors). Columns of Y are centered to exact zero mean, which
    makes G_Y centered by construction. The objectives read only Y, so the
    n x n response Gram is not built.
    """
    y = np.asarray(y)
    if spec.response_kernel == "linear":
        Y = np.asarray(y, dtype=np.float64)
        if Y.ndim == 1:
            Y = Y[:, None]
        if Y.ndim != 2:
            raise InvalidDataError("response must be a vector or 2-d array")
        if not np.all(np.isfinite(Y)):
            raise InvalidDataError("response contains non-finite entries")
    else:
        Y = one_hot(y, spec.num_classes)
    return ResponseData(center_rows(Y))


def median_bandwidth(X: np.ndarray, *, max_points: int = MEDIAN_HEURISTIC_MAX_POINTS,
                     subsample_seed: int = 0) -> float:
    """Median pairwise distance scaled by 1/sqrt(2).

    All n(n-1)/2 pairs are used up to ``max_points`` samples; beyond that a
    seeded uniform subsample of ``max_points`` rows keeps the cost bounded.
    An even pair count takes the mean of the two central order statistics.
    """
    X = _check_matrix(X)
    n = X.shape[0]
    if n < 2:
        raise DegenerateDataError("median bandwidth needs at least two samples")
    if n > max_points:
        rng = np.random.default_rng(subsample_seed)
        idx = rng.choice(n, size=max_points, replace=False)
        X = X[np.sort(idx)]
    dists = pdist(X, "euclidean")
    med = float(np.median(dists))
    if med <= 0.0:
        raise DegenerateDataError(
            "median pairwise distance is zero; data too degenerate for the "
            "bandwidth heuristic"
        )
    return med / np.sqrt(2.0)
