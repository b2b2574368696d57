"""Median-rank benchmark harness over the synthetic generators.

For each (sample size, trial) cell a fresh dataset is generated from a
derived seed, each method produces a full feature ranking, and the median
rank of the known true features is recorded; per-size means over trials make
up the report. A Pearson-correlation filter is included as a baseline.
"""

from __future__ import annotations

import csv
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataio import LabeledDataset
from .errors import InvalidDataError, InvalidParameterError
from .kernels import _check_integer
from .objective import ObjectiveConfig
from .optimizer import dataset_response, optimize
from .synthdata import KINDS, generate

METHOD_VARIANTS = {
    "ccm-exact": "exact",
    "ccm-soft": "soft_penalty",
    "ccm-lowrank": "low_rank",
}
METHODS = tuple(METHOD_VARIANTS) + ("pearson",)

TASK_BY_KIND = {
    "binary_ring": "classification",
    "xor_4class": "classification",
    "additive_regression": "regression",
}
EPSILON_BY_TASK = {"classification": 0.001, "regression": 0.1}

DEFAULT_SIZES = tuple(range(10, 101, 10))


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from arbitrary parts (Python's hash() is salted)."""
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def median_rank(ranking, true_features) -> float:
    """Median 1-based position of the true features within a ranking."""
    positions = {feat: pos + 1 for pos, feat in enumerate(ranking)}
    try:
        ranks = [positions[feat] for feat in true_features]
    except KeyError as exc:
        raise InvalidDataError(f"true feature {exc} missing from the ranking") from None
    return float(np.median(ranks))


def pearson_baseline(dataset: LabeledDataset, m: int | None = None) -> tuple[int, ...]:
    """Rank features by absolute Pearson correlation with the response.

    Classification uses the maximum absolute correlation against the one-hot
    class indicators. Constant columns get correlation 0 and therefore sink
    to the bottom of the ranking.
    """
    X = np.asarray(dataset.X, dtype=np.float64)
    if m is not None and not (1 <= _check_integer(m, "m") <= X.shape[1]):
        raise InvalidParameterError(f"m={m} out of range for d={X.shape[1]}")
    Yc = dataset_response(dataset)
    Xc = X - X.mean(axis=0)
    xnorm = np.sqrt(np.sum(Xc * Xc, axis=0))
    ynorm = np.sqrt(np.sum(Yc * Yc, axis=0))
    denom = np.outer(xnorm, ynorm)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(denom > 0.0, (Xc.T @ Yc) / np.where(denom > 0, denom, 1.0), 0.0)
    scores = np.max(np.abs(corr), axis=1)
    return tuple(int(j) for j in np.argsort(-scores, kind="stable"))


@dataclass
class BenchmarkReport:
    """Per-trial median ranks plus per-size means for each method."""

    kind: str
    sizes: tuple[int, ...]
    trials: int
    methods: tuple[str, ...]
    master_seed: int
    epsilon: float
    rows: list[dict] = field(default_factory=list)
    means: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def mean_median_rank(self, method: str, size: int) -> float:
        return self.means[method][size]

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": self.kind,
            "sizes": list(self.sizes),
            "trials": self.trials,
            "methods": list(self.methods),
            "master_seed": self.master_seed,
            "epsilon": self.epsilon,
            "config": self.config,
            "means": {
                method: {str(size): self.means[method][size] for size in self.sizes}
                for method in self.methods
            },
            "rows": self.rows,
        }

    def write_json(self, path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def write_csv(self, path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "size", "trial", "median_rank"])
            for row in self.rows:
                writer.writerow([row["method"], row["size"], row["trial"],
                                 format(row["median_rank"], ".17g")])


def run_method(method: str, dataset: LabeledDataset, epsilon: float,
               seed: int) -> tuple[int, ...]:
    """Produce a full feature ranking for one method on one dataset."""
    if dataset.num_true is None:
        raise InvalidDataError("benchmark dataset must declare its true features")
    if method == "pearson":
        return pearson_baseline(dataset, dataset.num_true)
    try:
        variant = METHOD_VARIANTS[method]
    except KeyError:
        raise InvalidParameterError(f"unknown method {method!r}") from None
    cfg = ObjectiveConfig(epsilon=epsilon, m=dataset.num_true, variant=variant, seed=seed)
    return optimize(dataset, cfg).ranking


def _run_cell(payload):
    kind, size, trial, methods, epsilon, master_seed = payload
    dataset_seed = derive_seed(master_seed, kind, size, trial)
    dataset = generate(kind, size, dataset_seed)
    out = {}
    for method in methods:
        method_seed = derive_seed(master_seed, kind, size, trial, method)
        ranking = run_method(method, dataset, epsilon, method_seed)
        out[method] = median_rank(ranking, dataset.true_features)
    return size, trial, dataset_seed, out


def run_benchmark(kind: str, sizes=DEFAULT_SIZES, trials: int = 10,
                  methods=("ccm-exact", "pearson"), master_seed: int = 0,
                  epsilon: float | None = None, jobs: int = 1) -> BenchmarkReport:
    """Run the median-rank protocol and aggregate a report.

    epsilon defaults to 0.001 for the classification generators and 0.1 for
    the regression one. Cells are independent work items; with jobs > 1 they
    run in a process pool and are aggregated by key, so the report does not
    depend on execution order. Any failing cell aborts the whole report.
    """
    if kind not in KINDS:
        raise InvalidParameterError(f"unknown generator kind {kind!r}")
    sizes = tuple(_check_integer(s, "size") for s in sizes)
    if not sizes or any(s < 4 for s in sizes):
        raise InvalidParameterError("sizes must be >= 4 for all generators")
    if _check_integer(trials, "trials") < 1:
        raise InvalidParameterError("trials must be >= 1")
    if _check_integer(jobs, "jobs") < 1:
        raise InvalidParameterError("jobs must be >= 1")
    methods = tuple(methods)
    for method in methods:
        if method not in METHODS:
            raise InvalidParameterError(f"unknown method {method!r}")
    if epsilon is None:
        epsilon = EPSILON_BY_TASK[TASK_BY_KIND[kind]]
    payloads = [(kind, size, trial, methods, epsilon, master_seed)
                for size in sizes for trial in range(trials)]
    results = {}
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for size, trial, dseed, cell in pool.map(_run_cell, payloads):
                results[(size, trial)] = (dseed, cell)
    else:
        for payload in payloads:
            size, trial, dseed, cell = _run_cell(payload)
            results[(size, trial)] = (dseed, cell)

    rows = []
    for size in sizes:
        for trial in range(trials):
            dseed, cell = results[(size, trial)]
            for method in methods:
                rows.append({
                    "method": method, "size": size, "trial": trial,
                    "median_rank": cell[method], "dataset_seed": dseed,
                })
    means = {
        method: {
            size: float(np.mean([
                row["median_rank"] for row in rows
                if row["method"] == method and row["size"] == size
            ]))
            for size in sizes
        }
        for method in methods
    }
    return BenchmarkReport(
        kind=kind, sizes=sizes, trials=trials, methods=methods,
        master_seed=master_seed, epsilon=epsilon, rows=rows, means=means,
        config={"jobs": jobs},
    )
