from functools import partial

import numpy as np
import pytest

from oracles import qp_project_oracle, traced_peak_bytes

from ccselect.dataio import LabeledDataset
from ccselect.errors import InvalidParameterError
from ccselect.kernels import KernelSpec, median_bandwidth
from ccselect.objective import (
    ObjectiveConfig,
    ObjectiveValue,
    exact_objective,
    low_rank_equivalent_value,
    low_rank_objective,
)
from ccselect.optimizer import (
    OptimizerConfig,
    _descend,
    dataset_response,
    optimize,
    project,
    ranking_from_weights,
    round_to_subset,
)
from ccselect.oracle import exhaustive_argmin
from ccselect.random_features import draw_map
from ccselect.synthdata import KINDS, generate


def test_project_leaves_feasible_points_alone():
    v = np.array([0.2, 0.9, 0.0])
    out = project(v, 2)
    assert np.array_equal(out, v)


def test_project_symmetric_two_coordinates():
    # argmin over the capped box-simplex puts both coordinates at m/2
    out = project(np.array([2.0, 2.0]), 1)
    assert np.allclose(out, [0.5, 0.5], atol=1e-10)


def test_project_box_clipping_suffices():
    out = project(np.array([0.9, 0.2, -0.5]), 2)
    assert np.allclose(out, [0.9, 0.2, 0.0], atol=1e-15)


def test_project_matches_qp_oracle():
    rng = np.random.default_rng(0)
    for _ in range(60):
        d = int(rng.integers(1, 21))
        m = int(rng.integers(1, d + 1))
        v = rng.normal(0, 2, d)
        ours = project(v, m)
        oracle = qp_project_oracle(v, m)
        assert np.max(np.abs(ours - oracle)) <= 1e-6
        assert np.all(ours >= 0) and np.all(ours <= 1)
        assert ours.sum() <= m + 1e-9


def test_project_is_non_expansive():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(2, 15))
        m = int(rng.integers(1, d + 1))
        u = rng.normal(0, 3, d)
        v = rng.normal(0, 3, d)
        pu, pv = project(u, m), project(v, m)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


def test_round_to_subset_examples():
    assert round_to_subset(np.array([0.9, 0.1, 0.5]), 2) == (0, 2)
    # tie at 0.5: the lower index wins
    assert round_to_subset(np.array([0.5, 0.5, 0.1]), 1) == (0,)
    assert round_to_subset(np.array([0.3, 0.3, 0.3]), 3) == (0, 1, 2)


@pytest.mark.parametrize("m", [-1, 0, 4, 2.5])
def test_round_to_subset_refuses_m_outside_one_to_d(m):
    with pytest.raises(InvalidParameterError):
        round_to_subset(np.array([0.9, 0.5, 0.1]), m)


def test_ranking_breaks_ties_by_index():
    assert ranking_from_weights(np.array([0.5, 0.7, 0.5])) == (1, 0, 2)


def test_optimizer_config_validation():
    with pytest.raises(InvalidParameterError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(InvalidParameterError):
        OptimizerConfig(rel_tol=0.0)


def make_linear_dataset(n, d, seed, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = X[:, 0] + noise * rng.standard_normal(n)
    return LabeledDataset(X, y, "regression")


def _exhaustive_with_m(m):
    return exhaustive_argmin(make_linear_dataset(12, 4, 9), m, 0.1)


_NON_INTEGER_COUNTS_AND_NON_FINITE_PENALTIES = {
    "m=4.0": partial(ObjectiveConfig, epsilon=0.1, m=4.0),
    "m=2.5": partial(ObjectiveConfig, epsilon=0.1, m=2.5),
    "num_random_features=8.5": partial(ObjectiveConfig, epsilon=0.1, m=2,
                                       num_random_features=8.5),
    "seed=1.5": partial(ObjectiveConfig, epsilon=0.1, m=2, variant="low_rank", seed=1.5),
    "lambda1=nan": partial(ObjectiveConfig, epsilon=0.1, m=2, lambda1=float("nan")),
    "lambda1=inf": partial(ObjectiveConfig, epsilon=0.1, m=2, lambda1=float("inf")),
    "max_iters=2.5": partial(OptimizerConfig, max_iters=2.5),
    "exhaustive m=2.0": partial(_exhaustive_with_m, 2.0),
}


@pytest.mark.parametrize("build", _NON_INTEGER_COUNTS_AND_NON_FINITE_PENALTIES.values(),
                         ids=_NON_INTEGER_COUNTS_AND_NON_FINITE_PENALTIES.keys())
def test_non_integer_counts_and_non_finite_penalties_are_rejected_up_front(build):
    with pytest.raises(InvalidParameterError):
        build()


def test_optimize_recovers_single_linear_feature():
    for seed in range(10):
        ds = make_linear_dataset(50, 5, seed)
        cfg = ObjectiveConfig(epsilon=0.1, m=1)
        result = optimize(ds, cfg)
        assert result.ranking[0] == 0, f"seed {seed} ranked {result.ranking}"


def test_optimize_trace_is_non_increasing():
    ds = make_linear_dataset(40, 6, 3, noise=0.5)
    for variant in ("exact", "low_rank", "soft_penalty"):
        cfg = ObjectiveConfig(epsilon=0.1, m=2, variant=variant,
                              num_random_features=128, lambda1=0.5)
        result = optimize(ds, cfg)
        trace = np.array(result.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12), variant


def test_optimize_is_deterministic():
    ds = make_linear_dataset(30, 5, 4, noise=0.3)
    cfg = ObjectiveConfig(epsilon=0.1, m=2, variant="low_rank",
                          num_random_features=64, seed=11)
    r1 = optimize(ds, cfg)
    r2 = optimize(ds, cfg)
    assert r1.to_dict() == r2.to_dict()
    assert np.array_equal(r1.final_weights, r2.final_weights)


def test_optimize_m_equals_d_selects_everything():
    ds = make_linear_dataset(25, 3, 5, noise=0.2)
    cfg = ObjectiveConfig(epsilon=0.1, m=3)
    result = optimize(ds, cfg)
    assert set(result.selected) == {0, 1, 2}


def test_optimize_stays_at_binary_local_minimum():
    # at w = (1, 0) the signal feature's gradient pushes against its cap and
    # the zeroed coordinate has an exactly zero gradient (squared-weight
    # convention), so gradient step + projection is a fixed point
    ds = make_linear_dataset(40, 2, 6)
    cfg = ObjectiveConfig(epsilon=0.1, m=1)
    w0 = np.array([1.0, 0.0])
    from ccselect.kernels import KernelSpec, median_bandwidth
    from ccselect.objective import exact_objective
    from ccselect.optimizer import dataset_response

    sigma = median_bandwidth(ds.X)
    grad = exact_objective(ds.X, dataset_response(ds), w0, cfg,
                           KernelSpec(bandwidth=sigma)).gradient_w
    assert grad[0] < 0 and grad[1] == 0.0


def _counting(evaluate):
    points = []

    def counted(w):
        points.append(w.tobytes())
        return evaluate(w)
    return counted, points


def test_descent_evaluates_a_fixed_point_once():
    # the projected step from the binary local minimum lands back on it, so
    # the accepted no-move step reuses the value taken there
    ds = make_linear_dataset(40, 2, 6)
    cfg = ObjectiveConfig(epsilon=0.1, m=1)
    w0 = np.array([1.0, 0.0])
    kernel = KernelSpec(bandwidth=median_bandwidth(ds.X))
    resp = dataset_response(ds)
    evaluate, points = _counting(lambda w: exact_objective(ds.X, resp, w, cfg, kernel))
    w, trace, converged, iterations = _descend(
        w0, evaluate, lambda v: project(v, 1), OptimizerConfig())
    assert points == [w0.tobytes()]
    assert iterations == 1 and converged is True
    assert len(trace) == 2 and trace[0] == trace[1]
    assert np.array_equal(w, w0)


@pytest.mark.parametrize("variant", ["exact", "soft_penalty", "low_rank"])
def test_optimize_never_evaluates_the_same_point_twice_in_a_row(variant, monkeypatch):
    import ccselect.optimizer as optimizer_module

    points = []
    for name in ("exact_objective", "soft_penalty_objective", "low_rank_objective"):
        def spy(X, Y, w, *args, _inner=getattr(optimizer_module, name), **kwargs):
            points.append(np.asarray(w).tobytes())
            return _inner(X, Y, w, *args, **kwargs)
        monkeypatch.setattr(optimizer_module, name, spy)
    for kind in KINDS:
        ds = generate(kind, 60, 5)
        epsilon = 0.1 if ds.task == "regression" else 0.001
        cfg = ObjectiveConfig(epsilon=epsilon, m=2, variant=variant,
                              num_random_features=256)
        start = len(points)
        optimize(ds, cfg)
        calls = points[start:]
        assert len(calls) >= 2, kind
        assert all(a != b for a, b in zip(calls, calls[1:])), kind


def test_rejected_candidate_clipped_to_one_vertex_is_evaluated_once():
    # from w = 0.5 the steps 1, 1/2, ..., 1/16 along +10 all clip to the
    # vertex 1.0, which is worse; 1/32 gives 0.8125 (worse), 1/64 0.65625
    # (better, accepted)
    def evaluate(w):
        return ObjectiveValue(float(np.sum((w - 0.6) ** 2)), gradient_w=np.full_like(w, -10.0))

    counted, points = _counting(evaluate)
    w, trace, converged, iterations = _descend(
        np.array([0.5]), counted, lambda v: np.clip(v, 0.0, 1.0),
        OptimizerConfig(max_iters=1))
    assert points == [np.array([x]).tobytes() for x in (0.5, 1.0, 0.8125, 0.65625)]
    assert iterations == 1 and converged is False
    assert w.tobytes() == np.array([0.65625]).tobytes()
    assert trace == [pytest.approx(0.01), pytest.approx(0.05625 ** 2)]


def test_negative_zero_from_the_projector_is_a_new_point():
    # -0.0 == 0.0, but the bytes differ: the candidate is evaluated and the
    # returned weights carry the projector's -0.0
    def evaluate(w):
        return ObjectiveValue(1.0, gradient_w=np.zeros_like(w))

    counted, points = _counting(evaluate)
    w, trace, converged, iterations = _descend(
        np.zeros(2), counted, lambda v: np.copysign(v, -1.0), OptimizerConfig())
    assert points == [np.zeros(2).tobytes(), np.full(2, -0.0).tobytes()]
    assert np.all(np.signbit(w)) and trace == [1.0, 1.0]
    assert iterations == 1 and converged is True


def test_descent_that_finds_no_step_is_not_converged():
    # the reported gradient points uphill, so every trial step raises the
    # value; starting at 0 keeps even the smallest steps representable
    def uphill(w):
        return ObjectiveValue(float(w.sum()), gradient_w=-np.ones_like(w))

    w, trace, converged, iterations = _descend(
        np.zeros(3), uphill, lambda v: v, OptimizerConfig())
    assert converged is False
    assert iterations == 0
    assert np.array_equal(w, np.zeros(3)) and trace == [0.0]


def test_optimize_soft_variant_only_clips_to_box():
    # with no penalty there is no cardinality pressure, so weights exceed m
    ds = make_linear_dataset(30, 4, 7, noise=0.1)
    cfg = ObjectiveConfig(epsilon=0.1, m=1, variant="soft_penalty", lambda1=0.0)
    result = optimize(ds, cfg)
    assert result.final_weights.sum() > 1.0
    assert np.all(result.final_weights <= 1.0)


def test_optimize_rejects_oversized_m():
    ds = make_linear_dataset(20, 3, 9)
    with pytest.raises(InvalidParameterError):
        optimize(ds, ObjectiveConfig(epsilon=0.1, m=4))


def test_optimize_perturbation_bounds():
    ds = make_linear_dataset(20, 3, 10)
    cfg = ObjectiveConfig(epsilon=0.1, m=1)
    with pytest.raises(InvalidParameterError):
        optimize(ds, cfg, init_perturbation=0.01)
    result = optimize(ds, cfg, init_perturbation=1e-3)
    assert result.ranking[0] == 0


def test_selection_result_reports_selected_as_top_of_ranking():
    ds = make_linear_dataset(40, 5, 11, noise=0.2)
    cfg = ObjectiveConfig(epsilon=0.1, m=2)
    result = optimize(ds, cfg)
    assert set(result.selected) == set(result.ranking[:2])
    assert result.trace_estimate == pytest.approx(
        cfg.epsilon * result.objective_trace[-1], rel=1e-9)


@pytest.mark.parametrize("variant", ["exact", "soft_penalty", "low_rank"])
def test_trace_estimate_equals_fresh_evaluation_at_final_weights(variant):
    # the estimate comes from the descent's last value; it must be the value
    # a fresh evaluation gives, without the soft-penalty term
    ds = make_linear_dataset(40, 5, 13, noise=0.3)
    cfg = ObjectiveConfig(epsilon=0.1, m=2, variant=variant, lambda1=0.5,
                          num_random_features=32, seed=3)
    result = optimize(ds, cfg)
    w = result.final_weights
    resp = dataset_response(ds)
    if variant == "low_rank":
        fmap = draw_map(5, 32, result.sigma, cfg.seed)
        core = low_rank_objective(ds.X, resp, w, cfg, fmap,
                                  compute_gradient=False).value
        fresh = cfg.epsilon * low_rank_equivalent_value(core, resp, cfg.epsilon, 40)
    else:
        fresh = cfg.epsilon * exact_objective(
            ds.X, resp, w, cfg, KernelSpec(bandwidth=result.sigma),
            compute_gradient=False).value
    assert result.trace_estimate == pytest.approx(fresh, rel=1e-12)


def test_low_rank_fit_allocates_no_n_by_n_array():
    # 16 MiB is under a quarter of one n x n float64 array (69 MiB). sigma is
    # given, so the O(n^2) pairwise distances of the bandwidth heuristic are
    # left out.
    n = 3000
    ds = make_linear_dataset(n, 5, 14, noise=0.3)
    cfg = ObjectiveConfig(epsilon=0.1, m=2, variant="low_rank",
                          num_random_features=64)
    limit = 16 * 2**20
    assert traced_peak_bytes(lambda: dataset_response(ds)) < limit
    assert traced_peak_bytes(lambda: optimize(ds, cfg, sigma=1.0)) < limit
