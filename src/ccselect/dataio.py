"""Dataset container, CSV ingestion, standardization, result serialization.

Feature indices are 0-based everywhere in this package. CSV files are
comma-separated with a header row and no quoting of numerics; floats are
emitted with 17 significant digits so a save/load round trip is exact.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    CsvParseError,
    DegenerateDataError,
    InvalidDataError,
    InvalidLabelError,
    InvalidParameterError,
)

TASKS = ("regression", "classification")


@dataclass
class LabeledDataset:
    """Feature matrix plus response and bookkeeping.

    y holds real responses for regression and raw class values for
    classification (canonicalized lazily via :func:`canonical_class_labels`).
    true_features, when known (synthetic data), are 0-based column indices.
    """

    X: np.ndarray
    y: np.ndarray
    task: str
    true_features: tuple[int, ...] | None = None
    feature_names: list[str] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2:
            raise InvalidDataError(f"X must be 2-d, got shape {self.X.shape}")
        self.y = np.asarray(self.y)
        if self.y.shape[0] != self.X.shape[0]:
            raise InvalidDataError("X and y disagree on the sample count")
        if self.task not in TASKS:
            raise InvalidParameterError(f"unknown task {self.task!r}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def num_true(self) -> int | None:
        return None if self.true_features is None else len(self.true_features)


def canonical_class_labels(y) -> tuple[np.ndarray, list]:
    """Map arbitrary class values to {0, ..., k-1} by first appearance.

    Returns the integer labels and the class values in class-index order.
    A NaN label raises: NaN equals no class, not even another NaN.
    """
    labels = np.empty(len(y), dtype=np.int64)
    classes: list = []
    index: dict = {}
    for i, v in enumerate(y):
        key = v.item() if isinstance(v, np.generic) else v
        if isinstance(key, float) and key != key:
            raise InvalidLabelError(f"class label at position {i} is NaN")
        if key not in index:
            index[key] = len(classes)
            classes.append(key)
        labels[i] = index[key]
    return labels, classes


def _parse_label_column(header: list[str], label_column) -> int:
    if isinstance(label_column, int):
        idx = label_column
    else:
        text = str(label_column)
        if text in header:
            return header.index(text)
        try:
            idx = int(text)
        except ValueError:
            raise InvalidParameterError(
                f"label column {label_column!r} not found in header {header}"
            ) from None
    if not (-len(header) <= idx < len(header)):
        raise InvalidParameterError(f"label column index {idx} out of range")
    return idx % len(header)


def load_csv(path, label_column, task: str) -> LabeledDataset:
    """Load a dataset from a headered CSV file.

    Classification labels are mapped to {0, ..., k-1} in order of first
    appearance. Missing or non-numeric feature cells raise with their
    row/column location; no imputation is attempted.
    """
    if task not in TASKS:
        raise InvalidParameterError(f"unknown task {task!r}")
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DegenerateDataError(f"{path} is empty") from None
        label_idx = _parse_label_column(header, label_column)
        feature_cols = [j for j in range(len(header)) if j != label_idx]
        if not feature_cols:
            raise InvalidDataError(f"{path} has no feature columns")
        rows: list[list[float]] = []
        raw_labels: list[str] = []
        for line_no, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(header):
                raise CsvParseError(
                    f"expected {len(header)} fields, got {len(record)}", row=line_no
                )
            parsed = []
            for j in feature_cols:
                cell = record[j].strip()
                if cell == "":
                    raise CsvParseError("missing value", row=line_no, column=header[j])
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise CsvParseError(
                        f"non-numeric feature value {cell!r}",
                        row=line_no, column=header[j],
                    ) from None
            label_cell = record[label_idx].strip()
            if label_cell == "":
                raise CsvParseError("missing label", row=line_no,
                                    column=header[label_idx])
            rows.append(parsed)
            raw_labels.append(label_cell)
    if not rows:
        raise DegenerateDataError(f"{path} has a header but no data rows")
    X = np.array(rows, dtype=np.float64)
    feature_names = [header[j] for j in feature_cols]
    if task == "regression":
        try:
            y = np.array([float(v) for v in raw_labels])
        except ValueError as exc:
            raise CsvParseError(f"non-numeric regression label: {exc}") from None
        return LabeledDataset(X, y, task, feature_names=feature_names)
    labels, _ = canonical_class_labels(raw_labels)
    return LabeledDataset(X, labels, task, feature_names=feature_names)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def save_dataset_csv(dataset: LabeledDataset, path) -> None:
    """Write the dataset as a headered CSV (features then a 'label' column)."""
    path = Path(path)
    names = dataset.feature_names or [f"feature_{j}" for j in range(dataset.d)]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["label"])
        for i in range(dataset.n):
            row = [_fmt(v) for v in dataset.X[i]]
            label = dataset.y[i]
            if dataset.task == "classification" and float(label).is_integer():
                row.append(str(int(label)))
            else:
                row.append(_fmt(label))
            writer.writerow(row)


def standardize(dataset: LabeledDataset) -> LabeledDataset:
    """Return the dataset with each non-constant column at mean 0, sample std 1.

    The std uses the n-1 denominator. Constant columns are left as they are.
    """
    X = dataset.X
    mean = X.mean(axis=0)
    std = X.std(axis=0, ddof=1) if dataset.n > 1 else np.zeros(dataset.d)
    constant = std <= 0.0
    out = X.copy()
    active = ~constant
    out[:, active] = (X[:, active] - mean[active]) / std[active]
    return LabeledDataset(
        out, dataset.y.copy(), dataset.task,
        true_features=dataset.true_features,
        feature_names=dataset.feature_names,
        meta=dict(dataset.meta),
    )


def save_result(result, path, format: str = "json") -> None:
    """Serialize a SelectionResult as JSON or as (feature_index, weight, rank) CSV."""
    path = Path(path)
    if format == "json":
        payload = {"schema_version": 1, **result.to_dict()}
        with path.open("w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    elif format == "csv":
        rank_of = {feat: pos + 1 for pos, feat in enumerate(result.ranking)}
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["feature_index", "weight", "rank"])
            for j, weight in enumerate(result.final_weights):
                writer.writerow([j, _fmt(weight), rank_of[j]])
    else:
        raise InvalidParameterError(f"unknown result format {format!r}")
