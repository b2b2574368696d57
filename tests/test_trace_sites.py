"""The benchmark tracer still finds every lookup site it wraps.

``perfbench/tracing.py`` replaces ccselect functions at the module attributes
through which the package looks them up, and silently skips an attribute that
no longer exists. A refactor that moves a lookup site would make that layer
read 0 in every traced benchmark run; this test runs small fits through the
tracer and fails instead.
"""

import numpy as np
from oracles import load_perfbench

import ccselect
from ccselect.dataio import LabeledDataset

EXPECTED_SPANS = (
    "kernels.weighted_gaussian_gram",
    "kernels.center",
    "kernels.median_bandwidth",
    "objective.cholesky",
    "objective.exact_objective",
    "objective.soft_penalty_objective",
    "objective.low_rank_objective",
    "random_features.draw_map",
    "random_features.centered_embed",
    "random_features.grad_contract",
    "optimizer.optimize",
    "optimizer.project",
    "oracle.exhaustive_argmin",
    "bench.pearson_baseline",
)
EXPECTED_COUNTERS = (
    "kernels.gram_bytes",
    "objective.cholesky_flops",
    "optimizer.iterations",
    "oracle.subsets",
)


def test_tracer_records_every_layer():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 5))
    ds = LabeledDataset(X, np.sin(X[:, 0]) + X[:, 1], "regression")
    tracer = load_perfbench("tracing").install(ccselect)
    try:
        for variant in ("exact", "soft_penalty", "low_rank"):
            cfg = ccselect.objective.ObjectiveConfig(
                epsilon=0.1, m=2, variant=variant, num_random_features=16)
            ccselect.optimizer.optimize(ds, cfg)
        ccselect.oracle.exhaustive_argmin(ds, 2, 0.1)
        ccselect.bench.pearson_baseline(ds, 2)
        calls, _, _ = tracer.layer_totals(0, len(tracer.start))
        counters = dict(tracer.counters)
    finally:
        tracer.close()
    assert [span for span in EXPECTED_SPANS if calls.get(span, 0) < 1] == []
    assert [name for name in EXPECTED_COUNTERS if not counters.get(name, 0) > 0] == []
