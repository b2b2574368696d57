import tracemalloc

import numpy as np
import pytest

from ccselect.dataio import LabeledDataset
from ccselect.errors import (
    InvalidDataError,
    InvalidParameterError,
    SelectionError,
    SubsetGuardError,
)
from ccselect.kernels import KernelSpec, median_bandwidth
from ccselect.objective import ObjectiveConfig, exact_objective
from ccselect.optimizer import dataset_response, optimize
from ccselect.oracle import exhaustive_argmin, subset_score
from ccselect.synthdata import gen_additive_regression, gen_xor_4class


def make_linear_dataset(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    return LabeledDataset(X, X[:, 0].copy(), "regression")


def test_single_subset_when_m_equals_d():
    ds = make_linear_dataset(20, 3, 0)
    best, table = exhaustive_argmin(ds, 3, 0.1)
    assert len(table) == 1
    assert best.subset == (0, 1, 2)


def test_linear_signal_feature_wins():
    ds = make_linear_dataset(50, 4, 1)
    best, table = exhaustive_argmin(ds, 1, 0.1)
    assert best.subset == (0,)
    assert len(table) == 4
    assert best.score == min(entry.score for entry in table)


def test_table_is_in_lexicographic_order():
    ds = make_linear_dataset(15, 4, 2)
    _, table = exhaustive_argmin(ds, 2, 0.1)
    subsets = [entry.subset for entry in table]
    assert subsets == sorted(subsets)
    assert len(subsets) == 6


def test_mask_score_equals_physical_submatrix_score():
    ds = make_linear_dataset(25, 6, 3)
    sigma = median_bandwidth(ds.X)
    subset = (1, 3, 4)
    masked = subset_score(ds, subset, 0.2, sigma=sigma)
    sub_ds_X = ds.X[:, list(subset)]
    resp = dataset_response(ds)
    cfg = ObjectiveConfig(epsilon=0.2, m=3)
    direct = exact_objective(sub_ds_X, resp, np.ones(3), cfg,
                             KernelSpec(bandwidth=sigma),
                             compute_gradient=False).value
    assert abs(masked - direct) / abs(direct) <= 1e-10


@pytest.mark.parametrize("generator", [gen_additive_regression, gen_xor_4class])
@pytest.mark.parametrize("input_kernel", ["gaussian", "linear"])
@pytest.mark.parametrize("m", [1, 3, 10])
def test_every_table_entry_equals_exact_objective_at_its_mask(generator, input_kernel, m):
    ds = generator(30, 5)
    d = ds.X.shape[1]
    assert m <= d
    sigma = median_bandwidth(ds.X) if input_kernel == "gaussian" else None
    resp = dataset_response(ds)
    cfg = ObjectiveConfig(epsilon=0.1, m=m)
    kernel = KernelSpec(input_kernel=input_kernel, bandwidth=sigma)
    _, table = exhaustive_argmin(ds, m, 0.1, sigma=sigma, input_kernel=input_kernel)
    for entry in table:
        mask = np.zeros(d)
        mask[list(entry.subset)] = 1.0
        direct = exact_objective(ds.X, resp, mask, cfg, kernel,
                                 compute_gradient=False).value
        assert abs(entry.score - direct) <= 1e-10 * abs(direct), entry.subset


def test_tied_subsets_keep_the_lexicographically_smallest():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((40, 5))
    X[:, 3] = X[:, 0]
    y = np.sin(X[:, 0]) + X[:, 1] + 0.05 * rng.standard_normal(40)
    ds = LabeledDataset(X, y, "regression")
    best, table = exhaustive_argmin(ds, 2, 0.1)
    scores = {entry.subset: entry.score for entry in table}
    assert scores[(0, 1)] == scores[(1, 3)]
    assert best.subset == (0, 1)
    assert best.score == min(scores.values())
    assert subset_score(ds, (3, 1), 0.1) == best.score


_BAD_ARGUMENTS = [
    ({"epsilon": 0.0}, InvalidParameterError),
    ({"epsilon": -1.0}, InvalidParameterError),
    ({"sigma": 0.0}, InvalidParameterError),
    ({"sigma": float("nan")}, InvalidParameterError),
    ({"input_kernel": "poly"}, InvalidParameterError),
    ({"nan_in_x": True}, InvalidDataError),
]


@pytest.mark.parametrize("entry_point", ["exhaustive_argmin", "subset_score"])
@pytest.mark.parametrize("bad,error", _BAD_ARGUMENTS)
def test_bad_arguments_raise_typed_errors(entry_point, bad, error):
    ds = make_linear_dataset(12, 4, 9)
    kwargs = dict(bad)
    if kwargs.pop("nan_in_x", False):
        X = ds.X.copy()
        X[2, 1] = np.nan
        ds = LabeledDataset(X, ds.y, "regression")
    epsilon = kwargs.pop("epsilon", 0.1)
    with pytest.raises(error):
        if entry_point == "exhaustive_argmin":
            exhaustive_argmin(ds, 2, epsilon, **kwargs)
        else:
            subset_score(ds, (0, 1), epsilon, **kwargs)


def _dataset_with_fault(fault):
    ds = make_linear_dataset(12, 4, 9)
    X, y, task = ds.X.copy(), ds.y.copy(), "regression"
    if fault == "nan_in_x":
        X[2, 1] = np.nan
    elif fault == "nan_in_y":
        y[3] = np.nan
    elif fault == "single_class":
        y, task = np.full(12, 7), "classification"
    return LabeledDataset(X, y, task)


_ENTRY_POINTS = {
    "optimize": lambda ds, kw: optimize(ds, ObjectiveConfig(epsilon=0.1, m=2), **kw),
    "subset_score": lambda ds, kw: subset_score(ds, (0, 1), 0.1, **kw),
    "exhaustive_argmin": lambda ds, kw: exhaustive_argmin(ds, 2, 0.1, **kw),
}


@pytest.mark.parametrize("fault,kwargs,error", [
    ("nan_in_x", {}, InvalidDataError),
    ("nan_in_y", {}, InvalidDataError),
    ("single_class", {}, InvalidParameterError),
    (None, {"sigma": 0.0}, InvalidParameterError),
    (None, {"sigma": -1.0}, InvalidParameterError),
    (None, {"sigma": float("nan")}, InvalidParameterError),
    (None, {"sigma": float("inf")}, InvalidParameterError),
    (None, {"input_kernel": "cubic"}, InvalidParameterError),
    (None, {"sigma": 1.0, "input_kernel": "linear"}, InvalidParameterError),
])
def test_entry_points_raise_the_same_error_class(fault, kwargs, error):
    ds = _dataset_with_fault(fault)
    raised = {}
    for name, call in _ENTRY_POINTS.items():
        with pytest.raises(SelectionError) as info:
            call(ds, kwargs)
        raised[name] = type(info.value)
    assert raised == dict.fromkeys(_ENTRY_POINTS, error)


@pytest.mark.parametrize("subset", [(0, 7), (5,), (-1,), (1, 1), (), (0.5,), (1.0, 2), 3])
def test_subset_score_rejects_malformed_subsets(subset):
    ds = make_linear_dataset(12, 5, 10)
    with pytest.raises(InvalidParameterError):
        subset_score(ds, subset, 0.1)


def test_exhaustive_search_memory_does_not_grow_with_d():
    n, d = 400, 30
    rng = np.random.default_rng(11)
    X = rng.standard_normal((n, d))
    ds = LabeledDataset(X, X[:, 0] + 0.1 * rng.standard_normal(n), "regression")
    tracemalloc.start()
    try:
        exhaustive_argmin(ds, 2, 0.1, sigma=3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Caching the d per-feature n x n terms alone would take 30 of them.
    assert peak < 8 * n * n * 8


def test_guard_refuses_large_enumerations():
    rng = np.random.default_rng(4)
    ds = LabeledDataset(rng.standard_normal((10, 50)),
                        rng.standard_normal(10), "regression")
    with pytest.raises(SubsetGuardError):
        exhaustive_argmin(ds, 10, 0.1)


def test_relaxed_solution_close_to_exhaustive_optimum():
    from ccselect.objective import ObjectiveConfig
    from ccselect.optimizer import optimize
    from ccselect.synthdata import gen_additive_regression

    ds = gen_additive_regression(100, 123)
    sigma = median_bandwidth(ds.X)
    cfg = ObjectiveConfig(epsilon=0.1, m=4)
    result = optimize(ds, cfg, sigma=sigma)
    best, _ = exhaustive_argmin(ds, 4, 0.1, sigma=sigma)
    rounded_score = subset_score(ds, result.selected, 0.1, sigma=sigma)
    assert rounded_score >= best.score - 1e-9
    assert rounded_score / best.score <= 1.1
