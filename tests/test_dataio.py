import json

import numpy as np
import pytest

from ccselect.dataio import (
    LabeledDataset,
    canonical_class_labels,
    load_csv,
    save_dataset_csv,
    save_result,
    standardize,
)
from ccselect.errors import (
    CsvParseError,
    DegenerateDataError,
    InvalidLabelError,
    InvalidParameterError,
)
from ccselect.synthdata import gen_additive_regression, gen_binary_ring


def test_label_mapping_by_first_appearance(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("f0,f1,label\n1,2,a\n3,4,b\n5,6,a\n")
    ds = load_csv(path, "label", "classification")
    assert np.array_equal(ds.y, [0, 1, 0])
    assert ds.feature_names == ["f0", "f1"]


def test_label_column_by_index(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("y,f0\n1.5,2\n2.5,3\n")
    ds = load_csv(path, 0, "regression")
    assert np.allclose(ds.y, [1.5, 2.5])
    assert ds.X.shape == (2, 1)


def test_header_only_file_is_an_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("f0,f1,label\n")
    with pytest.raises(DegenerateDataError):
        load_csv(path, "label", "regression")


def test_non_numeric_cell_reports_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n1,2,0\n1,oops,1\n")
    with pytest.raises(CsvParseError) as err:
        load_csv(path, "label", "classification")
    assert err.value.row == 3
    assert err.value.column == "f1"


def test_missing_value_is_an_error(tmp_path):
    path = tmp_path / "missing.csv"
    path.write_text("f0,f1,label\n1,,0\n")
    with pytest.raises(CsvParseError):
        load_csv(path, "label", "classification")


def test_unknown_label_column(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("f0,label\n1,0\n")
    with pytest.raises(InvalidParameterError):
        load_csv(path, "target", "regression")


def test_round_trip_regression(tmp_path):
    ds = gen_additive_regression(50, 13)
    path = tmp_path / "reg.csv"
    save_dataset_csv(ds, path)
    back = load_csv(path, "label", "regression")
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


def test_round_trip_classification(tmp_path):
    ds = gen_binary_ring(60, 14)
    path = tmp_path / "cls.csv"
    save_dataset_csv(ds, path)
    back = load_csv(path, "label", "classification")
    assert np.array_equal(back.X, ds.X)
    labels_orig, classes_orig = canonical_class_labels(ds.y)
    labels_back, _ = canonical_class_labels(back.y)
    assert np.array_equal(labels_orig, labels_back)


def test_standardize_two_point_column():
    ds = LabeledDataset(np.array([[0.0], [2.0]]), np.array([0.0, 1.0]),
                        "regression")
    out = standardize(ds)
    # mean 1, sample std sqrt(2): (0,2) -> (-0.7071..., +0.7071...)
    assert np.allclose(out.X[:, 0], [-1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_standardize_leaves_constant_columns_untouched():
    X = np.column_stack([np.full(4, 7.0), np.arange(4.0)])
    ds = LabeledDataset(X, np.zeros(4), "regression")
    out = standardize(ds)
    assert np.array_equal(out.X[:, 0], X[:, 0])
    assert abs(out.X[:, 1].mean()) <= 1e-12
    assert out.X[:, 1].std(ddof=1) == pytest.approx(1.0)


def test_standardize_is_idempotent():
    rng = np.random.default_rng(15)
    ds = LabeledDataset(rng.normal(3, 2, (30, 4)), rng.normal(size=30),
                        "regression")
    once = standardize(ds)
    twice = standardize(once)
    assert np.max(np.abs(twice.X - once.X)) <= 1e-12


def test_canonical_class_labels_first_appearance():
    labels, classes = canonical_class_labels(np.array([5, 2, 5, 9, 2]))
    assert np.array_equal(labels, [0, 1, 0, 2, 1])
    assert classes == [5, 2, 9]


def test_nan_class_label_is_refused():
    from ccselect.objective import ObjectiveConfig
    from ccselect.optimizer import optimize

    y = np.array([0.0, 1.0, np.nan, np.nan, 1.0, 0.0])
    with pytest.raises(InvalidLabelError):
        canonical_class_labels(y)
    X = np.random.default_rng(0).standard_normal((6, 3))
    ds = LabeledDataset(X, y, "classification")
    with pytest.raises(InvalidLabelError):
        optimize(ds, ObjectiveConfig(epsilon=0.001, m=1))


def test_save_result_json_and_csv(tmp_path):
    from ccselect.objective import ObjectiveConfig
    from ccselect.optimizer import optimize

    ds = gen_additive_regression(30, 21)
    result = optimize(ds, ObjectiveConfig(epsilon=0.1, m=4))
    json_path = tmp_path / "result.json"
    save_result(result, json_path, "json")
    payload = json.loads(json_path.read_text())
    assert payload["schema_version"] == 1
    assert payload["ranking"][: len(payload["selected"])]
    assert len(payload["final_weights"]) == 10
    assert payload["seed"] == 0
    assert payload["config"]["objective"]["epsilon"] == 0.1

    csv_path = tmp_path / "result.csv"
    save_result(result, csv_path, "csv")
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "feature_index,weight,rank"
    assert len(lines) == 11

    with pytest.raises(InvalidParameterError):
        save_result(result, tmp_path / "x.bin", "parquet")
