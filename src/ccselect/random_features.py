"""Random Fourier feature maps for the Gaussian kernel.

A map z with E[z(x)^T z(x')] = exp(-||x - x'||^2 / (2 sigma^2)) built from
cosines with random frequencies and phases; used to approximate the centered
Gram matrix by a rank-D factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .kernels import center_rows

# Row-block size in bytes for the gradient contraction's theta buffer.
_BLOCK_BYTES = 2**23


@dataclass(frozen=True)
class RandomFeatureMap:
    """Frozen cosine feature map: row i of embed() is

        sqrt(2/D) * cos(frequencies @ (w ⊙ x_i) + phases)

    frequencies: (D, d), rows i.i.d. N(0, sigma^-2 I); phases: (D,) uniform
    on [0, 2pi). Identical seeds produce identical maps.
    """

    frequencies: np.ndarray
    phases: np.ndarray
    scale: float

    @property
    def num_features(self) -> int:
        return self.frequencies.shape[0]

    def centered_embed(self, X: np.ndarray, w: np.ndarray) -> np.ndarray:
        return centered_embed(self, X, w)

    def grad_contract(self, X: np.ndarray, w: np.ndarray, A: np.ndarray,
                      S: np.ndarray) -> np.ndarray:
        """Return the d-vector sum_{i,r} (A S^T)[i,r] * d(embed)[i,r] / d w_l.

        A is n x k and S is D x k. With
        d(embed)_ir / d w_l = -scale * sin(theta_ir) * frequencies[r, l] * X[i, l],
        the sum is -scale * sum_k A[:, k]^T (X ∘ (sin(theta) (S[:, k] ∘ frequencies))),
        which never forms the n x D product A S^T. theta is recomputed over
        row blocks of about _BLOCK_BYTES, so no n x D array is allocated.
        """
        weighted = [S[:, k, None] * self.frequencies for k in range(A.shape[1])]
        rows = min(X.shape[0], max(1, _BLOCK_BYTES // (8 * self.num_features)))
        block = np.empty((rows, self.num_features))
        total = np.zeros(X.shape[1])
        for start in range(0, X.shape[0], rows):
            Xb = X[start:start + rows]
            Ab = A[start:start + rows]
            theta = np.matmul(Xb * w, self.frequencies.T, out=block[:Xb.shape[0]])
            theta += self.phases
            sin_theta = np.sin(theta, out=theta)
            for k, SF in enumerate(weighted):
                total += Ab[:, k] @ (Xb * (sin_theta @ SF))
        return -self.scale * total


@dataclass(frozen=True)
class LinearFeatureMap:
    """Exact feature map for the linear kernel: embed(X, w) = X * w.

    With D = d the factorization K_w = U_w U_w^T is exact, which makes the
    low-rank objective agree with the exact one up to rounding.
    """

    num_features: int

    def embed(self, X: np.ndarray, w: np.ndarray) -> np.ndarray:
        return X * w

    def centered_embed(self, X: np.ndarray, w: np.ndarray) -> np.ndarray:
        return center_rows(self.embed(X, w))

    def grad_contract(self, X: np.ndarray, w: np.ndarray, A: np.ndarray,
                      S: np.ndarray) -> np.ndarray:
        # dU_ir/dw_l = X_il when r == l, else 0, so the sum is
        # sum_{i,k} A_ik X_il S_lk.
        return np.sum((A.T @ X) * S.T, axis=0)


def draw_map(d: int, D: int, sigma: float, seed: int) -> RandomFeatureMap:
    """Draw a D-feature cosine map for inputs of dimension d.

    Frequency rows are i.i.d. N(0, sigma^-2 I_d); phases are i.i.d. uniform
    on [0, 2pi). Deterministic for a fixed seed.
    """
    if D < 1:
        raise InvalidParameterError(f"number of random features must be >= 1, got {D}")
    if d < 1:
        raise InvalidParameterError(f"input dimension must be >= 1, got {d}")
    if not np.isfinite(sigma) or sigma <= 0:
        raise InvalidParameterError(f"sigma must be positive, got {sigma}")
    rng = np.random.default_rng(seed)
    freqs = rng.standard_normal((D, d)) / sigma
    phases = rng.uniform(0.0, 2.0 * np.pi, size=D)
    return RandomFeatureMap(frequencies=freqs, phases=phases, scale=float(np.sqrt(2.0 / D)))


def embed(feature_map: RandomFeatureMap, X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """n x D matrix U_w with rows scale * cos(frequencies @ (w ⊙ x_i) + phases)."""
    X = np.asarray(X, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64).ravel()
    # Work in place on the one n x D buffer, so no further n x D array is
    # allocated.
    U = (X * w) @ feature_map.frequencies.T
    U += feature_map.phases
    np.cos(U, out=U)
    U *= feature_map.scale
    return U


def centered_embed(feature_map: RandomFeatureMap, X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V_w = (I - 11^T/n) U_w; columns have exactly zero mean."""
    V = embed(feature_map, X, w)
    V -= V.mean(axis=0, keepdims=True)
    return V
