import numpy as np
import pytest

from ccselect.bench import (
    derive_seed,
    median_rank,
    pearson_baseline,
    run_benchmark,
)
from ccselect.dataio import LabeledDataset
from ccselect.errors import InvalidDataError, InvalidParameterError
from ccselect.synthdata import gen_xor_4class


def test_median_rank_optimum_is_half_m_plus_one():
    ranking = (3, 1, 4, 0, 2)
    assert median_rank(ranking, {3, 1, 4}) == 2.0  # (m + 1) / 2 with m = 3


def test_median_rank_examples():
    ranking = tuple(range(10))
    assert median_rank(ranking, {0, 1, 2, 3}) == 2.5
    assert median_rank(ranking, {0, 9}) == 5.5


def test_median_rank_requires_known_features():
    with pytest.raises(Exception):
        median_rank((0, 1, 2), {5})


def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(0, "binary_ring", 10, 0)
    b = derive_seed(0, "binary_ring", 10, 0)
    c = derive_seed(0, "binary_ring", 10, 1)
    assert a == b
    assert a != c
    assert 0 <= a < 2**64


def test_pearson_puts_linear_signal_first():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((200, 5))
    ds = LabeledDataset(X, X[:, 0].copy(), "regression")
    ranking = pearson_baseline(ds)
    assert ranking[0] == 0


def test_pearson_noise_ranks_below_signal_across_seeds():
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((1000, 2))
        ds = LabeledDataset(X, X[:, 0].copy(), "regression")
        if pearson_baseline(ds)[0] == 0:
            wins += 1
    assert wins == 20


def test_pearson_constant_feature_ranks_last():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((100, 3))
    X[:, 1] = 4.2
    ds = LabeledDataset(X, X[:, 0].copy(), "regression")
    ranking = pearson_baseline(ds)
    assert ranking[-1] == 1


def test_pearson_classification_uses_one_hot_columns():
    rng = np.random.default_rng(2)
    n = 300
    labels = rng.integers(0, 3, n)
    X = rng.standard_normal((n, 4))
    X[:, 2] += 2.0 * (labels == 1)  # informative about one class only
    ds = LabeledDataset(X, labels, "classification", num_classes=3)
    assert pearson_baseline(ds)[0] == 2


def test_pearson_rejects_non_finite_response():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 3))
    y = X[:, 0].copy()
    y[4] = np.nan
    with pytest.raises(InvalidDataError):
        pearson_baseline(LabeledDataset(X, y, "regression"))


def test_run_benchmark_small_and_deterministic():
    kwargs = dict(sizes=(10, 20), trials=2, methods=("ccm-exact", "pearson"),
                  master_seed=5)
    r1 = run_benchmark("additive_regression", **kwargs)
    r2 = run_benchmark("additive_regression", **kwargs)
    assert r1.to_dict() == r2.to_dict()
    assert r1.epsilon == 0.1  # regression default
    assert len(r1.rows) == 2 * 2 * 2
    d, m = 10, 4
    for row in r1.rows:
        assert (m + 1) / 2 <= row["median_rank"] <= d - (m - 1) / 2
    for method in ("ccm-exact", "pearson"):
        for size in (10, 20):
            assert np.isfinite(r1.mean_median_rank(method, size))


def test_run_benchmark_classification_epsilon_default():
    report = run_benchmark("xor_4class", sizes=(12,), trials=1,
                           methods=("pearson",), master_seed=1)
    assert report.epsilon == 0.001


def test_run_benchmark_parallel_matches_serial():
    kwargs = dict(sizes=(10,), trials=2, methods=("pearson", "ccm-exact"),
                  master_seed=3)
    serial = run_benchmark("additive_regression", jobs=1, **kwargs)
    parallel = run_benchmark("additive_regression", jobs=2, **kwargs)
    assert serial.to_dict()["rows"] == parallel.to_dict()["rows"]


def test_run_benchmark_rejects_unknown_method():
    with pytest.raises(InvalidParameterError):
        run_benchmark("additive_regression", sizes=(10,), trials=1,
                      methods=("rfe",))
    with pytest.raises(InvalidParameterError):
        run_benchmark("mystery", sizes=(10,), trials=1)


@pytest.mark.parametrize("kwargs", [
    {"trials": 2.5}, {"jobs": 0}, {"jobs": -2}, {"jobs": 2.5}, {"sizes": (10.7,)},
])
def test_run_benchmark_rejects_non_integer_and_non_positive_counts(kwargs):
    # jobs values here are refused before any worker process starts
    with pytest.raises(InvalidParameterError):
        run_benchmark("additive_regression", **{"sizes": (10,), "trials": 1,
                                                "methods": ("pearson",), **kwargs})


def test_pearson_rejects_non_integer_m():
    ds = gen_xor_4class(12, 0)
    with pytest.raises(InvalidParameterError):
        pearson_baseline(ds, 2.5)


def test_report_files_are_deterministic(tmp_path):
    report = run_benchmark("xor_4class", sizes=(10,), trials=2,
                           methods=("pearson",), master_seed=9)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    report.write_csv(p1)
    report.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    report.write_json(j1)
    report.write_json(j2)
    assert j1.read_bytes() == j2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "method,size,trial,median_rank"


def test_xor_features_marginally_uninformative_for_pearson():
    # each XOR signal feature is marginally independent of the class, so the
    # correlation filter cannot separate signal from noise
    ds = gen_xor_4class(100, 31)
    ranking = pearson_baseline(ds)
    assert median_rank(ranking, ds.true_features) >= 2.0
