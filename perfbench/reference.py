"""Independent NumPy reference for the selection criterion and output checks.

Q(w) = Tr[Y^T (H K_w H + n eps I)^(-1) Y] with K_w a dense Gaussian Gram of
the weighted points built by broadcasting, H = I - 11^T/n as an explicit
matrix, Y = H y, and np.linalg.solve for the inverse. Nothing here calls
ccselect, so a fault in its kernels, centering or Cholesky path shows as a
mismatch.
"""

from __future__ import annotations

import numpy as np

# Relative agreement required between ccselect and the reference. The ridge
# n*eps*I keeps every system here far from singular, so rounding differences
# between a Cholesky and an LU solve stay many orders of magnitude below it.
RTOL = 1e-8


def sq_distances(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dense matrix of squared distances between the weighted rows w * x_i.

    Accumulates w_l^2 (x_il - x_jl)^2 one column at a time by broadcasting;
    columns with zero weight add exactly nothing and are skipped.
    """
    n = X.shape[0]
    out = np.zeros((n, n))
    for col, wl in zip(X.T, w):
        if wl != 0.0:
            out += (wl * wl) * (col[:, None] - col[None, :]) ** 2
    return out


def median_bandwidth(X: np.ndarray) -> float:
    """Median of all pairwise distances, divided by sqrt(2)."""
    sq = sq_distances(X, np.ones(X.shape[1]))
    iu = np.triu_indices(X.shape[0], k=1)
    return float(np.median(np.sqrt(sq[iu]))) / np.sqrt(2.0)


def q_value(X: np.ndarray, y: np.ndarray, w: np.ndarray, sigma: float,
            epsilon: float) -> float:
    """Q(w) for a real response vector y."""
    n = X.shape[0]
    K = np.exp(-sq_distances(X, w) / (2.0 * sigma * sigma))
    H = np.eye(n) - np.full((n, n), 1.0 / n)
    G = H @ K @ H
    Y = H @ y.reshape(n, -1)
    return float(np.trace(Y.T @ np.linalg.solve(G + n * epsilon * np.eye(n), Y)))


def response_energy(y: np.ndarray) -> float:
    """||H y||_F^2, the Frobenius energy of the centred response."""
    yc = y - y.mean()
    return float(yc @ yc)


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def median_of(values) -> float:
    """Median by sorting: the middle value, or the mean of the two middle ones."""
    s = sorted(values)
    k = len(s) // 2
    return float(s[k]) if len(s) % 2 else (s[k - 1] + s[k]) / 2.0


def median_rank(ranking, planted) -> float:
    """Median 1-based position of the planted features in a ranking."""
    ranking = list(ranking)
    return median_of([ranking.index(f) + 1 for f in planted])


def selection_problems(result, d: int, m: int | None) -> list[str]:
    """Properties every selection result must have, as a list of violations.

    ``m`` is the sum cap of the feasible set; None for the soft-penalty
    variant, whose feasible set is the box alone.
    """
    problems = []
    w = np.asarray(result.final_weights)
    if w.shape != (d,) or np.any(w < -1e-9) or np.any(w > 1.0 + 1e-9):
        problems.append("final weights leave [0, 1]")
    if m is not None and float(w.sum()) > m + 1e-9:
        problems.append(f"final weights sum to {w.sum()} > m={m}")
    trace = result.objective_trace
    if any(b > a for a, b in zip(trace, trace[1:])):
        problems.append("objective_trace increases")
    if sorted(result.ranking) != list(range(d)):
        problems.append("ranking is not a permutation of range(d)")
    return problems
