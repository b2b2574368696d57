"""Command-line interface: select, benchmark, oracle, gen-data.

Every run prints its fully resolved configuration (including the derived
bandwidth) before computing, and echoes every seed it uses. Exit codes:
0 success, 2 validation error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .bench import (
    EPSILON_BY_TASK,
    METHODS,
    TASK_BY_KIND,
    run_benchmark,
)
from .dataio import load_csv, save_dataset_csv, save_result, standardize
from .errors import InvalidDataError, InvalidParameterError, NumericalError, SelectionError
from .kernels import median_bandwidth
from .objective import ObjectiveConfig
from .optimizer import OptimizerConfig, optimize
from .oracle import exhaustive_argmin
from .synthdata import KINDS, generate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

VARIANT_ALIASES = {
    "exact": "exact",
    "soft": "soft_penalty",
    "lowrank": "low_rank",
}
TASK_ALIASES = {
    "reg": "regression", "regression": "regression",
    "cls": "classification", "classification": "classification",
}


def _parse_sizes(text: str) -> tuple[int, ...]:
    text = text.strip()
    parts = text.split(":" if ":" in text else ",")
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise InvalidParameterError(f"sizes must be integers, got {text!r}") from None
    if ":" not in text:
        return tuple(numbers)
    if len(numbers) != 3:
        raise InvalidParameterError(f"sizes must be start:stop:step, got {text!r}")
    start, stop, step = numbers
    if step <= 0 or stop < start:
        raise InvalidParameterError(f"bad size range {text!r}")
    return tuple(range(start, stop + 1, step))


def _print_config(title: str, entries: dict) -> None:
    print(f"[{title}]")
    for key, value in entries.items():
        print(f"  {key} = {value}")


def _load_dataset(args):
    task = TASK_ALIASES[args.task]
    return load_csv(args.input, args.label, task)


def _cmd_select(args) -> int:
    dataset = _load_dataset(args)
    if args.standardize:
        dataset, _ = standardize(dataset)
    if not (1 <= args.m <= dataset.d):
        raise InvalidParameterError(f"--m must lie in [1, {dataset.d}], got {args.m}")
    sigma = args.sigma if args.sigma is not None else median_bandwidth(dataset.X)
    epsilon = args.epsilon
    if epsilon is None:
        epsilon = EPSILON_BY_TASK[dataset.task]
    cfg = ObjectiveConfig(
        epsilon=epsilon, m=args.m, variant=VARIANT_ALIASES[args.variant],
        lambda1=args.lambda1,
        num_random_features=args.rff_dim, seed=args.seed,
    )
    opt = OptimizerConfig(max_iters=args.max_iters, rel_tol=args.rel_tol)
    _print_config("select", {
        "input": args.input, "task": dataset.task, "n": dataset.n, "d": dataset.d,
        "m": args.m, "variant": cfg.variant, "epsilon": cfg.epsilon,
        "lambda1": cfg.lambda1,
        "rff_dim": cfg.num_random_features, "sigma": sigma,
        "standardize": args.standardize, "seed": cfg.seed,
        "init_perturbation": args.perturb_init,
        "max_iters": opt.max_iters, "rel_tol": opt.rel_tol,
    })
    result = optimize(dataset, cfg, opt, sigma=sigma,
                      init_perturbation=args.perturb_init)
    names = dataset.feature_names or [f"feature_{j}" for j in range(dataset.d)]
    print(f"selected (indices): {list(result.selected)}")
    print(f"selected (names): {[names[j] for j in result.selected]}")
    print(f"ranking: {list(result.ranking)}")
    print(f"converged: {result.converged} after {result.iterations} iterations")
    print(f"conditional covariance trace estimate: {result.trace_estimate:.6g}")
    if args.out:
        save_result(result, args.out, args.format)
        print(f"result written to {args.out}")
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    sizes = _parse_sizes(args.sizes)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    epsilon = args.epsilon
    if epsilon is None:
        epsilon = EPSILON_BY_TASK[TASK_BY_KIND[args.kind]]
    _print_config("benchmark", {
        "kind": args.kind, "sizes": list(sizes), "trials": args.trials,
        "methods": list(methods), "epsilon": epsilon,
        "master_seed": args.master_seed, "jobs": args.jobs,
    })
    report = run_benchmark(args.kind, sizes=sizes, trials=args.trials,
                           methods=methods, master_seed=args.master_seed,
                           epsilon=epsilon, jobs=args.jobs)
    print("mean median rank by size:")
    header = "size " + " ".join(f"{m:>12s}" for m in methods)
    print(header)
    for size in sizes:
        cells = " ".join(f"{report.means[m][size]:12.3f}" for m in methods)
        print(f"{size:4d} {cells}")
    if args.out:
        base = Path(args.out)
        if base.suffix in (".csv", ".json"):
            base = base.with_suffix("")
        csv_path = base.with_suffix(".csv")
        json_path = base.with_suffix(".json")
        report.write_csv(csv_path)
        report.write_json(json_path)
        print(f"report written to {csv_path} and {json_path}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.input:
        if not args.label:
            raise InvalidParameterError("--label is required together with --input")
        dataset = _load_dataset(args)
    elif args.kind:
        dataset = generate(args.kind, args.n, args.seed)
    else:
        raise InvalidParameterError("oracle needs either --input or --kind")
    if not (1 <= args.m <= dataset.d):
        raise InvalidParameterError(f"--m must lie in [1, {dataset.d}], got {args.m}")
    epsilon = args.epsilon
    if epsilon is None:
        epsilon = EPSILON_BY_TASK[dataset.task]
    sigma = args.sigma if args.sigma is not None else median_bandwidth(dataset.X)
    _print_config("oracle", {
        "n": dataset.n, "d": dataset.d, "m": args.m, "epsilon": epsilon,
        "sigma": sigma, "task": dataset.task,
        "source": args.input or f"{args.kind}(n={args.n}, seed={args.seed})",
    })
    best, table = exhaustive_argmin(dataset, args.m, epsilon, sigma=sigma)
    print(f"evaluated {len(table)} subsets")
    print(f"argmin subset: {list(best.subset)} score: {best.score:.10g}")
    print("subset,score")
    for entry in table:
        print(f"\"{' '.join(str(j) for j in entry.subset)}\",{entry.score:.10g}")
    return EXIT_OK


def _cmd_gen_data(args) -> int:
    _print_config("gen-data", {
        "kind": args.kind, "n": args.n, "seed": args.seed, "out": args.out,
    })
    dataset = generate(args.kind, args.n, args.seed)
    save_dataset_csv(dataset, args.out)
    meta = {
        "kind": args.kind, "n": args.n, "seed": args.seed,
        "task": dataset.task,
        "true_features": list(dataset.true_features),
        **{k: v for k, v in dataset.meta.items() if k not in ("kind", "seed")},
    }
    meta_path = Path(str(args.out) + ".meta.json")
    with meta_path.open("w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    print(f"dataset written to {args.out} (metadata: {meta_path})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccselect",
        description="Kernel feature selection by conditional covariance minimization.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sel = sub.add_parser("select", help="select features from a CSV dataset")
    p_sel.add_argument("--input", required=True)
    p_sel.add_argument("--label", required=True)
    p_sel.add_argument("--task", required=True, choices=sorted(TASK_ALIASES))
    p_sel.add_argument("--m", required=True, type=int)
    p_sel.add_argument("--variant", default="exact", choices=sorted(VARIANT_ALIASES))
    p_sel.add_argument("--epsilon", type=float, default=None,
                       help="ridge level (default: 0.001 classification, 0.1 regression)")
    p_sel.add_argument("--lambda1", type=float, default=1.0)
    p_sel.add_argument("--rff-dim", type=int, default=2048)
    p_sel.add_argument("--seed", type=int, default=0)
    p_sel.add_argument("--sigma", type=float, default=None,
                       help="override the median-heuristic bandwidth")
    p_sel.add_argument("--standardize", action="store_true")
    p_sel.add_argument("--perturb-init", type=float, default=0.0,
                       help="seeded uniform init perturbation, at most 1e-3")
    p_sel.add_argument("--max-iters", type=int, default=1000)
    p_sel.add_argument("--rel-tol", type=float, default=1e-6)
    p_sel.add_argument("--out", default=None)
    p_sel.add_argument("--format", default="json", choices=("json", "csv"))
    p_sel.set_defaults(func=_cmd_select)

    p_bench = sub.add_parser("benchmark", help="run the median-rank benchmark")
    p_bench.add_argument("--kind", required=True, choices=KINDS)
    p_bench.add_argument("--trials", type=int, default=10)
    p_bench.add_argument("--sizes", default="10:100:10")
    p_bench.add_argument("--methods", default="ccm-exact,pearson",
                         help=f"comma list from {', '.join(METHODS)}")
    p_bench.add_argument("--epsilon", type=float, default=None)
    p_bench.add_argument("--master-seed", type=int, default=0)
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=_cmd_benchmark)

    p_oracle = sub.add_parser("oracle", help="exhaustive subset search")
    p_oracle.add_argument("--input", default=None)
    p_oracle.add_argument("--label", default=None)
    p_oracle.add_argument("--task", default="reg", choices=sorted(TASK_ALIASES))
    p_oracle.add_argument("--kind", default=None, choices=KINDS)
    p_oracle.add_argument("--n", type=int, default=100)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--m", required=True, type=int)
    p_oracle.add_argument("--epsilon", type=float, default=None)
    p_oracle.add_argument("--sigma", type=float, default=None)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset as CSV")
    p_gen.add_argument("--kind", required=True, choices=KINDS)
    p_gen.add_argument("--n", required=True, type=int)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameterError, InvalidDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SelectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
