"""Acceptance suite: one test per release criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance is fixed here; seeds are frozen so the statistical
criteria are deterministic.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import central_difference_gradient, qp_project_oracle, vector_rel_error

from ccselect.bench import (
    EPSILON_BY_TASK,
    TASK_BY_KIND,
    derive_seed,
    run_benchmark,
)
from ccselect.dataio import LabeledDataset, save_result
from ccselect.kernels import KernelSpec, median_bandwidth
from ccselect.objective import (
    ObjectiveConfig,
    exact_objective,
    low_rank_equivalent_value,
    low_rank_objective,
    soft_penalty_objective,
)
from ccselect.optimizer import OptimizerConfig, dataset_response, optimize, project
from ccselect.oracle import exhaustive_argmin, subset_score
from ccselect.random_features import LinearFeatureMap, draw_map
from ccselect.synthdata import gen_additive_regression, generate


def report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} — {detail}")
    assert ok, f"{criterion}: {detail}"


def _random_instance(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 31))
    d = int(rng.integers(3, 9))
    X = rng.standard_normal((n, d))
    if seed % 2 == 0:
        ds = LabeledDataset(X, rng.standard_normal(n), "regression")
    else:
        k = int(rng.integers(2, 4))
        ds = LabeledDataset(X, rng.integers(0, k, n), "classification",
                            num_classes=k)
    eps = float(rng.uniform(0.05, 0.4))
    w = rng.uniform(0.05, 0.95, d)
    return ds, eps, w


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        ds, eps, w = _random_instance(1000 + seed)
        X = ds.X
        n, d = X.shape
        resp = dataset_response(ds)
        sigma = median_bandwidth(X)
        kern = KernelSpec(bandwidth=sigma)
        cfg = ObjectiveConfig(epsilon=eps, m=max(1, d // 2), lambda1=0.8,
                              num_random_features=32, seed=seed)
        fmap = draw_map(d, 32, sigma, seed=seed)

        checks = {
            "exact": (
                exact_objective(X, resp, w, cfg, kern).gradient_w,
                lambda wv: exact_objective(X, resp, wv, cfg, kern,
                                           compute_gradient=False).value),
            "soft_penalty": (
                soft_penalty_objective(X, resp, w, cfg, kern).gradient_w,
                lambda wv: soft_penalty_objective(X, resp, wv, cfg, kern,
                                                  compute_gradient=False).value),
            "low_rank": (
                low_rank_objective(X, resp, w, cfg, fmap).gradient_w,
                lambda wv: low_rank_objective(X, resp, wv, cfg, fmap,
                                              compute_gradient=False).value),
        }
        for name, (grad, value_fn) in checks.items():
            fd = central_difference_gradient(value_fn, w, h=1e-5)
            err = vector_rel_error(grad, fd)
            worst = max(worst, err)
            assert err <= 1e-5, (name, seed, err)

        # zero coordinates: the kernel depends on w through w^2, so the
        # analytic gradient there is exactly zero (plus lambda1 for the soft
        # penalty); the cosine feature map is linear in w, so the low-rank
        # gradient is checked against finite differences instead
        wz = w.copy()
        wz[0] = 0.0
        assert exact_objective(X, resp, wz, cfg, kern).gradient_w[0] == 0.0
        assert soft_penalty_objective(X, resp, wz, cfg, kern).gradient_w[0] == cfg.lambda1
        lr_grad = low_rank_objective(X, resp, wz, cfg, fmap).gradient_w
        lr_fd = central_difference_gradient(
            lambda wv: low_rank_objective(X, resp, wv, cfg, fmap,
                                          compute_gradient=False).value, wz)
        assert vector_rel_error(lr_grad, lr_fd) <= 1e-5

    elapsed = time.perf_counter() - t0
    report("1 gradient correctness",
           worst <= 1e-5 and elapsed <= 30.0,
           f"20 instances x 3 variants, worst rel err {worst:.2e}, "
           f"{elapsed:.1f}s (limit 30s)")


def test_criterion_2_projection_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 21))
        m = int(rng.integers(1, d + 1))
        v = rng.normal(0.0, 2.5, d)
        ours = project(v, m)
        oracle = qp_project_oracle(v, m)
        worst = max(worst, float(np.max(np.abs(ours - oracle))))
        u = rng.normal(0.0, 2.5, d)
        assert (np.linalg.norm(project(u, m) - ours)
                <= np.linalg.norm(u - v) + 1e-12)
    elapsed = time.perf_counter() - t0
    report("2 projection exactness",
           worst <= 1e-6 and elapsed <= 10.0,
           f"100 instances vs active-set QP oracle, worst gap {worst:.2e}, "
           f"non-expansive on all pairs, {elapsed:.1f}s (limit 10s)")


def test_criterion_3_woodbury_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    n, d = 50, 8
    X = rng.standard_normal((n, d))
    ds = LabeledDataset(X, rng.standard_normal(n), "regression")
    resp = dataset_response(ds)
    lin_kernel = KernelSpec(input_kernel="linear")
    lin_map = LinearFeatureMap(d)
    worst = 0.0
    for eps in (0.05, 0.1, 0.5):
        cfg = ObjectiveConfig(epsilon=eps, m=3)
        for w in (np.full(d, 0.4), rng.uniform(0, 1, d), np.ones(d)):
            exact = exact_objective(X, resp, w, cfg, lin_kernel,
                                    compute_gradient=False).value
            core = low_rank_objective(X, resp, w, cfg, lin_map,
                                      compute_gradient=False).value
            recovered = low_rank_equivalent_value(core, resp, eps, n)
            worst = max(worst, abs(recovered - exact) / abs(exact))
    elapsed = time.perf_counter() - t0
    report("3 woodbury exactness",
           worst <= 1e-8 and elapsed <= 5.0,
           f"exact linear feature map, worst rel diff {worst:.2e} "
           f"(limit 1e-8), {elapsed:.1f}s (limit 5s)")


def test_criterion_4_random_feature_fidelity():
    t0 = time.perf_counter()
    ds = gen_additive_regression(100, 2024)
    sigma = median_bandwidth(ds.X)
    resp = dataset_response(ds)
    cfg = ObjectiveConfig(epsilon=0.1, m=4, num_random_features=4096)
    w = np.full(10, 0.4)
    exact = exact_objective(ds.X, resp, w, cfg, KernelSpec(bandwidth=sigma),
                            compute_gradient=False).value
    hits = 0
    worst = 0.0
    for seed in range(50):
        fmap = draw_map(10, 4096, sigma, seed=seed)
        core = low_rank_objective(ds.X, resp, w, cfg, fmap,
                                  compute_gradient=False).value
        err = abs(low_rank_equivalent_value(core, resp, cfg.epsilon, 100)
                  - exact) / exact
        worst = max(worst, err)
        hits += err <= 0.05
    elapsed = time.perf_counter() - t0
    report("4 random-feature fidelity",
           hits >= 45 and elapsed <= 120.0,
           f"n=100 d=10 D=4096: {hits}/50 seeds within 5% "
           f"(worst {worst:.3f}), {elapsed:.1f}s (limit 120s)")


def test_criterion_5_synthetic_benchmark_reproduction():
    t0 = time.perf_counter()
    thresholds = {"binary_ring": 3.5, "xor_4class": 3.0,
                  "additive_regression": 3.5}
    details = []
    ok = True
    for kind, limit in thresholds.items():
        methods = ("ccm-exact", "pearson") if kind == "xor_4class" else ("ccm-exact",)
        rep = run_benchmark(kind, sizes=(10, 100), trials=10, methods=methods,
                            master_seed=0)
        at_100 = rep.mean_median_rank("ccm-exact", 100)
        at_10 = rep.mean_median_rank("ccm-exact", 10)
        ok &= at_100 <= limit
        ok &= at_100 <= at_10  # weak monotone-improvement sanity check
        details.append(f"{kind}: {at_100:.2f} (limit {limit})")
        if kind == "xor_4class":
            pearson_100 = rep.mean_median_rank("pearson", 100)
            ok &= pearson_100 >= 4.0
            details.append(f"pearson xor: {pearson_100:.2f} (>= 4)")
    elapsed = time.perf_counter() - t0
    report("5 synthetic benchmark", ok and elapsed <= 900.0,
           "; ".join(details) + f"; {elapsed:.1f}s (limit 900s)")


def test_criterion_6_relaxation_quality():
    t0 = time.perf_counter()
    ok = True
    details = []
    for kind in ("binary_ring", "xor_4class", "additive_regression"):
        eps = EPSILON_BY_TASK[TASK_BY_KIND[kind]]
        hits = 0
        worst = 0.0
        for trial in range(10):
            ds = generate(kind, 100, derive_seed(42, "relax", kind, trial))
            sigma = median_bandwidth(ds.X)
            result = optimize(ds, ObjectiveConfig(epsilon=eps, m=ds.num_true),
                              sigma=sigma)
            best, _ = exhaustive_argmin(ds, ds.num_true, eps, sigma=sigma)
            ratio = subset_score(ds, result.selected, eps, sigma=sigma) / best.score
            assert ratio >= 1.0 - 1e-9  # the exhaustive optimum is a lower bound
            worst = max(worst, ratio)
            hits += ratio <= 1.1
        ok &= hits >= 8
        details.append(f"{kind}: {hits}/10 within 1.1 (worst {worst:.3f})")
    elapsed = time.perf_counter() - t0
    report("6 relaxation quality", ok and elapsed <= 600.0,
           "; ".join(details) + f"; {elapsed:.1f}s (limit 600s)")


def test_criterion_7_empirical_consistency():
    t0 = time.perf_counter()
    sizes = (30, 60, 120, 240)
    fractions = []
    for n in sizes:
        eps = 0.1 * (100.0 / n) ** 0.25
        hits = 0
        for trial in range(20):
            ds = gen_additive_regression(n, derive_seed(1, "consistency", n, trial))
            best, _ = exhaustive_argmin(ds, 4, eps)
            hits += best.subset == (0, 1, 2, 3)
        fractions.append(hits / 20.0)
    monotone = all(a <= b for a, b in zip(fractions, fractions[1:]))
    elapsed = time.perf_counter() - t0
    report("7 empirical consistency",
           monotone and fractions[-1] >= 0.9 and elapsed <= 1200.0,
           f"argmin = true set fractions over n={list(sizes)}: {fractions}, "
           f"{elapsed:.1f}s (limit 1200s)")


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    ds = gen_additive_regression(60, 5)
    cfg = ObjectiveConfig(epsilon=0.1, m=4, variant="low_rank",
                          num_random_features=256, seed=9)
    paths = []
    for tag in ("a", "b"):
        result = optimize(ds, cfg, OptimizerConfig())
        path = tmp_path / f"result_{tag}.json"
        save_result(result, path, "json")
        paths.append(path)
    same_result = paths[0].read_bytes() == paths[1].read_bytes()

    reports = []
    for tag in ("a", "b"):
        rep = run_benchmark("xor_4class", sizes=(10, 20), trials=2,
                            methods=("ccm-exact", "pearson"), master_seed=3)
        csv_path = tmp_path / f"bench_{tag}.csv"
        json_path = tmp_path / f"bench_{tag}.json"
        rep.write_csv(csv_path)
        rep.write_json(json_path)
        reports.append((csv_path.read_bytes(), json_path.read_bytes()))
    same_report = reports[0] == reports[1]
    elapsed = time.perf_counter() - t0
    report("8 determinism",
           same_result and same_report and elapsed <= 120.0,
           f"selection and benchmark files bit-identical across runs, "
           f"{elapsed:.1f}s (limit 120s)")


# Criterion 9's timings, run as a child process (see the test below). Prints
# one JSON line: the D values, the best-of-7 exact time and the low-rank time
# at each D.
_CRITERION_9_TIMING = """
import json, time
import numpy as np
from ccselect.dataio import LabeledDataset
from ccselect.kernels import KernelSpec, median_bandwidth
from ccselect.objective import ObjectiveConfig, exact_objective, low_rank_objective
from ccselect.optimizer import dataset_response
from ccselect.random_features import draw_map

rng = np.random.default_rng(77)
n, d = 500, 50
X = rng.standard_normal((n, d))
ds = LabeledDataset(X, X[:, 0] + rng.standard_normal(n), "regression")
resp = dataset_response(ds)
sigma = median_bandwidth(X)
kern = KernelSpec(bandwidth=sigma)
w = np.full(d, 0.3)

def best_time(fn, reps=7):
    fn()  # warm-up: first call pays lazy allocations
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)

cfg = ObjectiveConfig(epsilon=0.1, m=5)
dims = (128, 512, 2048)
maps = {D: draw_map(d, D, sigma, seed=1) for D in dims}
cfgs = {D: ObjectiveConfig(epsilon=0.1, m=5, num_random_features=D)
        for D in dims}
t_exact = best_time(lambda: exact_objective(X, resp, w, cfg, kern))
t_low = [
    best_time(lambda D=D: low_rank_objective(X, resp, w, cfgs[D], maps[D]))
    for D in dims
]
print(json.dumps({"dims": dims, "exact": t_exact, "low_rank": t_low}))
"""


def _time_criterion_9(timeout: float):
    """Run ``_CRITERION_9_TIMING`` with one BLAS thread; return its timings."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _CRITERION_9_TIMING],
                          env=env, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    assert proc.returncode == 0 and last.startswith("{"), (
        f"criterion 9 timing run exited {proc.returncode} with last stdout "
        f"line {last!r}; stderr: {proc.stderr[-4000:]}")
    timings = json.loads(last)
    return timings["dims"], timings["exact"], timings["low_rank"]


def test_criterion_9_complexity_scaling():
    t0 = time.perf_counter()
    # The timings run in a child process with one BLAS thread, the setting of
    # perfbench/run.py (perfbench/README.md, "Threads"). With two OpenBLAS
    # threads on a shared 2-vCPU machine, thread hand-off costs milliseconds
    # on each small product: one 500x50 @ 50x128 product took 8 ms against
    # 0.17 ms on one thread, and a low-rank evaluation at D=128 7.5-9.5 ms
    # against 3.1-4.6 ms, while the exact one took 12.5-17.9 ms either way.
    # The speed-up would then measure BLAS threading, not the method. Each of
    # up to three attempts is a fresh child, against the fixed thresholds.
    for _ in range(3):
        dims, t_exact, t_low = _time_criterion_9(
            timeout=max(1.0, 300.0 - (time.perf_counter() - t0)))
        # least-squares slope of log(time) against log(D): sub-quadratic growth
        logs_d = np.log(np.array(dims, dtype=float))
        logs_t = np.log(np.array(t_low))
        slope = float(np.polyfit(logs_d, logs_t, 1)[0])
        speedup = t_exact / t_low[0]
        if slope < 2.0 and speedup >= 3.0:
            break
    elapsed = time.perf_counter() - t0
    report("9 complexity scaling",
           slope < 2.0 and speedup >= 3.0 and elapsed <= 300.0,
           f"times exact={t_exact*1e3:.1f}ms, low-rank="
           f"{[f'{t*1e3:.1f}ms' for t in t_low]} for D={list(dims)}; "
           f"log-log slope {slope:.2f} (< 2), speedup at D=128 "
           f"{speedup:.1f}x (>= 3), {elapsed:.1f}s (limit 300s)")
