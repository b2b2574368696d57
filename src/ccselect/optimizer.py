"""Projected gradient descent over the relaxed feature-weight set.

The feasible region is the capped box-simplex {w : 0 <= w_i <= 1,
sum(w) <= m}. Optimization starts from the uniform vector (m/d) * 1, takes
monotone Armijo-backtracked gradient steps, and finally rounds the weights to
the m largest coordinates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dataio import LabeledDataset, canonical_class_labels
from .errors import InvalidDataError, InvalidParameterError
from .kernels import (
    KernelSpec,
    _check_integer,
    _check_matrix,
    center_rows,
    median_bandwidth,
    one_hot,
)
from .objective import (
    ObjectiveConfig,
    exact_objective,
    low_rank_equivalent_value,
    low_rank_objective,
    soft_penalty_objective,
)
from .random_features import LinearFeatureMap, draw_map

_BISECTION_TOL = 1e-12
_MIN_STEP = 1e-18
# Armijo backtracking: first trial step, step shrink factor and the
# sufficient-decrease constant.
_INIT_STEP = 1.0
_ARMIJO_BETA = 0.5
_ARMIJO_C = 1e-4


@dataclass(frozen=True)
class OptimizerConfig:
    """Projected gradient descent settings."""

    max_iters: int = 1000
    rel_tol: float = 1e-6

    def __post_init__(self):
        if _check_integer(self.max_iters, "max_iters") < 1:
            raise InvalidParameterError("max_iters must be >= 1")
        if not (self.rel_tol > 0):
            raise InvalidParameterError("rel_tol must be positive")


@dataclass
class SelectionResult:
    """Final weights, ranking and per-iteration objective values of one run."""

    final_weights: np.ndarray
    ranking: tuple[int, ...]
    selected: tuple[int, ...]
    objective_trace: list[float]
    trace_estimate: float
    sigma: float
    converged: bool
    iterations: int
    seed: int
    config: dict

    def __post_init__(self):
        if set(self.selected) != set(self.ranking[: len(self.selected)]):
            raise InvalidDataError("selected must equal the top of the ranking")

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "seed": self.seed,
            "sigma": self.sigma,
            "converged": self.converged,
            "iterations": self.iterations,
            "final_weights": [float(v) for v in self.final_weights],
            "ranking": [int(j) for j in self.ranking],
            "selected": [int(j) for j in self.selected],
            "objective_trace": [float(v) for v in self.objective_trace],
            "trace_estimate": float(self.trace_estimate),
        }


def project(v: np.ndarray, m: int) -> np.ndarray:
    """Euclidean projection onto {w : 0 <= w_i <= 1, sum(w) <= m}.

    Clip to the box first; if the sum cap is still violated, bisect on the
    shift tau >= 0 with sum_i clip(v_i - tau, 0, 1) = m (the sum is
    continuous and non-increasing in tau) to absolute tolerance 1e-12.
    """
    v = np.asarray(v, dtype=np.float64)
    clipped = np.clip(v, 0.0, 1.0)
    if clipped.sum() <= m:
        return clipped
    lo, hi = 0.0, float(v.max())
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid, 0.0, 1.0).sum() > m:
            lo = mid
        else:
            hi = mid
    return np.clip(v - hi, 0.0, 1.0)


def round_to_subset(w: np.ndarray, m: int) -> tuple[int, ...]:
    """Indices of the m largest weights, ties going to the lower index.

    Returned in ascending index order (the set of selected features).
    """
    w = np.asarray(w, dtype=np.float64)
    if not (1 <= _check_integer(m, "m") <= w.shape[0]):
        raise InvalidParameterError(f"m must lie in [1, {w.shape[0]}], got {m}")
    order = ranking_from_weights(w)
    return tuple(sorted(order[:m]))


def ranking_from_weights(w: np.ndarray) -> tuple[int, ...]:
    """All feature indices ordered by descending weight, ties by index."""
    w = np.asarray(w, dtype=np.float64)
    return tuple(int(j) for j in np.argsort(-w, kind="stable"))


def dataset_response(dataset: LabeledDataset) -> np.ndarray:
    """Centered response matrix Y (n x k): one-hot classes or the response itself.

    The delta kernel on class labels is the linear kernel on one-hot vectors,
    and centered columns make G_Y = Y Y^T centered; G_Y is never formed.
    """
    if dataset.task == "classification":
        labels, classes = canonical_class_labels(dataset.y)
        if len(classes) < 2:
            raise InvalidParameterError(
                f"classification needs at least two classes, got {len(classes)}")
        Y = one_hot(labels, len(classes))
    else:
        y = np.asarray(dataset.y, dtype=np.float64)
        Y = _check_matrix(y[:, None] if y.ndim == 1 else y, "response")
    return center_rows(Y)


def _prepare(dataset: LabeledDataset, sigma: float | None, input_kernel: str):
    """Checked X, centered Y and validated input kernel; sigma defaults to the median heuristic."""
    X = _check_matrix(dataset.X)
    if input_kernel == "gaussian" and sigma is None:
        sigma = median_bandwidth(X)
    kernel = KernelSpec(input_kernel=input_kernel, bandwidth=sigma)
    return X, dataset_response(dataset), kernel


def _descend(w, evaluate, projector, opt: OptimizerConfig):
    """Monotone PGD: returns (w, trace, converged, iterations).

    trace[-1] is the objective value at the returned w. A descent that finds
    no Armijo step down to _MIN_STEP has stalled and is not converged.

    No point is evaluated twice in a row: a candidate whose bytes equal the
    last point evaluated (a projected step back onto the current vertex, or a
    rejected candidate that clips to the same point at a smaller step) reuses
    its value. Bytes, not values, are compared, so -0.0 and 0.0 stay distinct.
    """
    current = evaluate(w)
    last_key, last = w.tobytes(), current
    trace = [current.value]
    step = _INIT_STEP
    converged = False
    iterations = 0
    for _ in range(opt.max_iters):
        accepted = None
        s = step
        while s >= _MIN_STEP:
            w_new = projector(w - s * current.gradient_w)
            key = w_new.tobytes()
            if key != last_key:
                last_key, last = key, evaluate(w_new)
            candidate = last
            delta = w_new - w
            if candidate.value <= current.value - (_ARMIJO_C / s) * float(delta @ delta):
                accepted = (w_new, candidate, s)
                break
            s *= _ARMIJO_BETA
        if accepted is None:
            break
        iterations += 1
        w_new, candidate, s = accepted
        decrease = current.value - candidate.value
        rel = decrease / max(abs(current.value), 1e-300)
        w, current = w_new, candidate
        trace.append(current.value)
        step = min(_INIT_STEP, s / _ARMIJO_BETA)
        if rel < opt.rel_tol:
            converged = True
            break
    return w, trace, converged, iterations


def optimize(dataset: LabeledDataset, cfg: ObjectiveConfig,
             opt: OptimizerConfig | None = None, *,
             sigma: float | None = None,
             input_kernel: str = "gaussian") -> SelectionResult:
    """Run the relaxed selection problem to a ranked feature list.

    sigma defaults to the median-distance bandwidth heuristic on the data.
    The exact and low-rank variants project onto the capped box-simplex each
    step; the soft-penalty variant only clips to the box. Identical inputs
    and seeds reproduce the result bit for bit.
    """
    opt = opt or OptimizerConfig()
    if cfg.m > dataset.d:
        raise InvalidParameterError(f"m={cfg.m} exceeds the feature count {dataset.d}")
    X, Y, kernel = _prepare(dataset, sigma, input_kernel)
    n, d = X.shape
    classification = dataset.task == "classification"

    # Each variant's projector, objective and reading of Q off the descent's
    # last value, which was taken at the final w.
    if cfg.variant == "exact":
        projector = lambda v: project(v, cfg.m)  # noqa: E731
        evaluate = lambda wv: exact_objective(X, Y, wv, cfg, kernel)  # noqa: E731
        read_q = lambda v, w: v  # noqa: E731
    elif cfg.variant == "soft_penalty":
        projector = lambda v: np.clip(v, 0.0, 1.0)  # noqa: E731
        evaluate = lambda wv: soft_penalty_objective(X, Y, wv, cfg, kernel)  # noqa: E731
        read_q = lambda v, w: v - cfg.lambda1 * (float(w.sum()) - cfg.m)  # noqa: E731
    else:
        projector = lambda v: project(v, cfg.m)  # noqa: E731
        if input_kernel == "gaussian":
            feature_map = draw_map(d, cfg.num_random_features, kernel.bandwidth, cfg.seed)
        else:
            feature_map = LinearFeatureMap(d)
        evaluate = lambda wv: low_rank_objective(X, Y, wv, cfg, feature_map)  # noqa: E731
        read_q = lambda v, w: low_rank_equivalent_value(v, Y, cfg.epsilon, n)  # noqa: E731

    # The float sum of d copies of m/d can exceed m, so the start is projected.
    w = projector(np.full(d, cfg.m / d))
    w, trace, converged, iterations = _descend(w, evaluate, projector, opt)
    trace_estimate = cfg.epsilon * read_q(trace[-1], w)

    ranking = ranking_from_weights(w)
    result = SelectionResult(
        final_weights=w,
        ranking=ranking,
        selected=round_to_subset(w, cfg.m),
        objective_trace=trace,
        trace_estimate=float(trace_estimate),
        sigma=float("nan") if kernel.bandwidth is None else float(kernel.bandwidth),
        converged=converged,
        iterations=iterations,
        seed=cfg.seed,
        config={
            "objective": asdict(cfg),
            "optimizer": asdict(opt),
            "input_kernel": input_kernel,
            "response_kernel": "one_hot_delta" if classification else "linear",
            "num_classes": Y.shape[1] if classification else None,
        },
    )
    return result

