"""Seeded generators for the three synthetic selection benchmarks.

Every dataset has d = 10 columns; only the first 3 or 4 carry signal. Feature
indices are 0-based, so the true sets are {0..3}, {0..2} and {0..3}.
"""

from __future__ import annotations

import numpy as np

from .dataio import LabeledDataset
from .errors import InvalidParameterError, NumericalError
from .kernels import _check_integer

KINDS = ("binary_ring", "xor_4class", "additive_regression")

NUM_FEATURES = 10
SHELL_LOW, SHELL_HIGH = 9.0, 16.0
XOR_MIX_COVARIANCE = 0.5  # covariance reading of "0.5 I"; recorded in metadata
_MAX_DRAWS_PER_POINT = 100_000


def generate(kind: str, n: int, seed: int) -> LabeledDataset:
    """Run the generator ``kind`` for n samples under ``seed``."""
    if kind not in KINDS:
        raise InvalidParameterError(f"unknown generator kind {kind!r}")
    if _check_integer(n, "n") < 1:
        raise InvalidParameterError("n must be >= 1")
    if not (0 <= _check_integer(seed, "seed") < 2**64):
        raise InvalidParameterError("seed must fit in an unsigned 64-bit integer")
    if kind == "binary_ring":
        return gen_binary_ring(n, seed)
    if kind == "xor_4class":
        return gen_xor_4class(n, seed)
    return gen_additive_regression(n, seed)


def _sample_shell(rng: np.random.Generator, count: int) -> np.ndarray:
    """4-d standard normals conditioned on the squared norm lying in [9, 16].

    Rejection sampling in deterministic chunks; the acceptance probability
    is about 0.058, so the draw cap is never reached in practice.
    """
    collected: list[np.ndarray] = []
    have = 0
    drawn = 0
    cap = _MAX_DRAWS_PER_POINT * count
    while have < count:
        chunk = max(512, int((count - have) / 0.05) + 1)
        if drawn + chunk > cap:
            raise NumericalError("rejection sampling exceeded its draw cap")
        drawn += chunk
        Z = rng.standard_normal((chunk, 4))
        sq = np.sum(Z * Z, axis=1)
        keep = Z[(sq >= SHELL_LOW) & (sq <= SHELL_HIGH)]
        if keep.shape[0]:
            collected.append(keep)
            have += keep.shape[0]
    return np.vstack(collected)[:count]


def gen_binary_ring(n: int, seed: int) -> LabeledDataset:
    """Binary task: class +1 lives on a 4-d spherical shell, class -1 is noise.

    Classes are exactly balanced (the first ceil(n/2) samples are +1 before
    the seeded row shuffle). Features 4..9 are standard normal for both
    classes; for class -1 all 10 features are.
    """
    if n < 2:
        raise InvalidParameterError("binary_ring needs n >= 2")
    rng = np.random.default_rng(seed)
    n_pos = (n + 1) // 2
    n_neg = n - n_pos
    ring = _sample_shell(rng, n_pos)
    pos_noise = rng.standard_normal((n_pos, NUM_FEATURES - 4))
    X_pos = np.hstack([ring, pos_noise])
    X_neg = rng.standard_normal((n_neg, NUM_FEATURES))
    X = np.vstack([X_pos, X_neg])
    y = np.concatenate([np.ones(n_pos, dtype=np.int64),
                        -np.ones(n_neg, dtype=np.int64)])
    perm = rng.permutation(n)
    return LabeledDataset(
        X[perm], y[perm], "classification",
        true_features=(0, 1, 2, 3),
        meta={"kind": "binary_ring", "seed": int(seed)},
    )


_XOR_TUPLES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def gen_xor_4class(n: int, seed: int) -> LabeledDataset:
    """4-way XOR: classes are antipodal corner pairs of the cube {-1, 1}^3.

    The 8 corners are grouped by (v1*v3, v2*v3); class i draws from the
    even mixture of N(v, 0.5 I_3) and N(-v, 0.5 I_3) with v = (t1, t2, 1).
    Seven standard normal noise features complete the 10 columns. No single
    feature is marginally informative about the class.
    """
    if n < 4:
        raise InvalidParameterError("xor_4class needs n >= 4")
    rng = np.random.default_rng(seed)
    labels = np.arange(n, dtype=np.int64) % 4
    reps = np.array([(t1, t2, 1.0) for t1, t2 in _XOR_TUPLES])
    signs = rng.integers(0, 2, size=n) * 2 - 1
    centers = signs[:, None] * reps[labels]
    first3 = centers + np.sqrt(XOR_MIX_COVARIANCE) * rng.standard_normal((n, 3))
    noise = rng.standard_normal((n, NUM_FEATURES - 3))
    X = np.hstack([first3, noise])
    perm = rng.permutation(n)
    return LabeledDataset(
        X[perm], labels[perm], "classification",
        true_features=(0, 1, 2),
        meta={"kind": "xor_4class", "seed": int(seed),
              "mixture_covariance": XOR_MIX_COVARIANCE},
    )


def gen_additive_regression(n: int, seed: int) -> LabeledDataset:
    """Additive nonlinear regression on the first four of ten normal features.

    y = -2 sin(2 x0) + max(x1, 0) + x2 + exp(-x3) + noise, noise ~ N(0, 1).
    """
    if n < 1:
        raise InvalidParameterError("additive_regression needs n >= 1")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, NUM_FEATURES))
    noise = rng.standard_normal(n)
    y = (-2.0 * np.sin(2.0 * X[:, 0]) + np.maximum(X[:, 1], 0.0)
         + X[:, 2] + np.exp(-X[:, 3]) + noise)
    return LabeledDataset(
        X, y, "regression",
        true_features=(0, 1, 2, 3),
        meta={"kind": "additive_regression", "seed": int(seed)},
    )
