"""Exhaustive subset search: ground truth for the continuous relaxation.

Feasible only for small d; guarded at one million candidate subsets.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from .dataio import LabeledDataset
from .errors import InvalidParameterError, NumericalError, SubsetGuardError
from .kernels import INPUT_KERNELS, _check_matrix, center_in_place, median_bandwidth
from .optimizer import dataset_response

SUBSET_GUARD = 10**6


@dataclass(frozen=True)
class SubsetScore:
    """A feature subset together with its quadratic-form score."""

    subset: tuple[int, ...]
    score: float


class _SubsetScorer:
    """Q at the binary mask of size-m subsets, scored one after another.

    Both input kernels are additive over features: the Gaussian exponent is
    -sum_{l in S} (x_il - x_jl)^2 / (2 sigma^2) and the linear kernel is
    sum_{l in S} x_il x_jl. The partial sums over a subset's first m-1
    features live in m-1 reused n x n buffers, and a subset recomputes only
    the levels from its first index that differs from the previous subset's,
    so lexicographic order shares the longest prefixes. Working memory is
    (m+1) n x n floats whatever d is.
    """

    def __init__(self, dataset: LabeledDataset, m: int, epsilon: float,
                 sigma: float | None, input_kernel: str):
        X = _check_matrix(dataset.X)
        if input_kernel not in INPUT_KERNELS:
            raise InvalidParameterError(f"unknown input kernel {input_kernel!r}")
        if not np.isfinite(epsilon) or epsilon <= 0:
            raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
        self.gaussian = input_kernel == "gaussian"
        if self.gaussian:
            if sigma is None:
                sigma = median_bandwidth(X)
            if not np.isfinite(sigma) or sigma <= 0:
                raise InvalidParameterError("gaussian kernel requires bandwidth > 0")
            # Columns scaled so that a term (z_il - z_jl)^2 carries the 1/(2 sigma^2).
            X = X / (math.sqrt(2.0) * sigma)
        self.columns = np.ascontiguousarray(X.T)
        self.y_mat = np.asfortranarray(dataset_response(dataset).y_mat)
        n = X.shape[0]
        self.ridge = n * epsilon
        self.prefix = [np.empty((n, n)) for _ in range(m - 1)]
        self.work = np.empty((n, n))
        self.diagonal = self.work.reshape(-1)[::n + 1]
        self.scratch = np.empty((n, n))
        self.previous = (-1,) * m

    def _add_term(self, feature: int, base: np.ndarray | None, out: np.ndarray) -> None:
        """out = base + (kernel term of one feature); no base means zero."""
        x = self.columns[feature]
        out[...] = x
        if self.gaussian:
            out -= x[:, None]
            np.square(out, out=out)
            if base is None:
                np.negative(out, out=out)
            else:
                np.subtract(base, out, out=out)
        else:
            out *= x[:, None]
            if base is not None:
                out += base

    def score(self, subset: tuple[int, ...]) -> float:
        """Q at the binary mask of an increasing tuple of m column indices."""
        levels = len(self.prefix)
        first = 0
        while first < levels and self.previous[first] == subset[first]:
            first += 1
        for level in range(first, levels):
            base = self.prefix[level - 1] if level else None
            self._add_term(subset[level], base, self.prefix[level])
        self.previous = subset
        work = self.work
        self._add_term(subset[-1], self.prefix[-1] if levels else None, work)
        if self.gaussian:
            np.exp(work, out=work)
        center_in_place(work, self.scratch)
        self.diagonal += self.ridge
        # work is symmetric, so its transpose is the same matrix in Fortran
        # order, which LAPACK factors in place.
        factor, info = dpotrf(work.T, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise NumericalError(f"ridge matrix factorization failed: info={info}")
        # Q = Tr[Y^T (L L^T)^(-1) Y] = ||L^(-1) Y||_F^2
        Z, _ = dtrtrs(factor, self.y_mat, lower=1)
        value = float(np.vdot(Z, Z))
        if not np.isfinite(value):
            raise NumericalError(f"objective value is not finite: {value}")
        return value


def subset_score(dataset: LabeledDataset, subset, epsilon: float, *,
                 sigma: float | None = None,
                 input_kernel: str = "gaussian") -> float:
    """Score one subset of distinct column indices at its binary mask."""
    d = dataset.d
    try:
        indices = tuple(sorted(operator.index(i) for i in subset))
    except TypeError as exc:
        raise InvalidParameterError(f"subset must hold integer indices: {exc}") from exc
    if not indices:
        raise InvalidParameterError("subset must hold at least one index")
    if indices[0] < 0 or indices[-1] >= d:
        raise InvalidParameterError(f"subset indices must lie in [0, {d - 1}], got {indices}")
    if len(set(indices)) != len(indices):
        raise InvalidParameterError(f"subset has a repeated index: {indices}")
    scorer = _SubsetScorer(dataset, len(indices), epsilon, sigma, input_kernel)
    return scorer.score(indices)


def exhaustive_argmin(dataset: LabeledDataset, m: int, epsilon: float, *,
                      sigma: float | None = None,
                      input_kernel: str = "gaussian",
                      guard: int = SUBSET_GUARD) -> tuple[SubsetScore, list[SubsetScore]]:
    """Evaluate every size-m subset and return the minimizer plus the table.

    Subsets are enumerated in lexicographic order; score ties keep the
    lexicographically smallest subset. Refuses to run when C(d, m) exceeds
    the guard.
    """
    d = dataset.d
    if not (1 <= m <= d):
        raise InvalidParameterError(f"m must lie in [1, {d}], got {m}")
    count = math.comb(d, m)
    if count > guard:
        raise SubsetGuardError(
            f"C({d}, {m}) = {count} subsets exceeds the guard of {guard}"
        )
    scorer = _SubsetScorer(dataset, m, epsilon, sigma, input_kernel)
    table: list[SubsetScore] = []
    best: SubsetScore | None = None
    for subset in combinations(range(d), m):
        entry = SubsetScore(subset=subset, score=scorer.score(subset))
        table.append(entry)
        if best is None or entry.score < best.score:
            best = entry
    return best, table
