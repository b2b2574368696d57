import json

import numpy as np
import pytest

import ccselect
from ccselect import bench, cli, objective
from ccselect.cli import main
from ccselect.errors import InvalidParameterError


def test_gen_data_writes_csv_and_metadata(tmp_path, capsys):
    out = tmp_path / "ring.csv"
    code = main(["gen-data", "--kind", "binary_ring", "--n", "30",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    assert out.exists()
    meta = json.loads((tmp_path / "ring.csv.meta.json").read_text())
    assert meta["true_features"] == [0, 1, 2, 3]
    assert meta["task"] == "classification"
    captured = capsys.readouterr().out
    assert "seed = 3" in captured


def test_select_end_to_end(tmp_path, capsys):
    data = tmp_path / "reg.csv"
    main(["gen-data", "--kind", "additive_regression", "--n", "60",
          "--seed", "1", "--out", str(data)])
    result = tmp_path / "result.json"
    code = main(["select", "--input", str(data), "--label", "label",
                 "--task", "reg", "--m", "4", "--epsilon", "0.1",
                 "--seed", "7", "--out", str(result)])
    assert code == 0
    payload = json.loads(result.read_text())
    assert payload["schema_version"] == 1
    assert len(payload["selected"]) == 4
    out = capsys.readouterr().out
    assert "sigma" in out  # resolved configuration is echoed
    assert "selected" in out


def test_select_standardize(tmp_path, capsys):
    # one constant column and one rescaled signal column among noise
    rng = np.random.default_rng(4)
    n = 40
    signal = rng.standard_normal(n)
    X = np.column_stack([np.full(n, 7.0), 1000.0 * signal, rng.standard_normal(n)])
    y = signal + 0.1 * rng.standard_normal(n)
    data = tmp_path / "scaled.csv"
    rows = [",".join(repr(float(v)) for v in (*x, t)) for x, t in zip(X, y)]
    data.write_text("\n".join(["f0,f1,f2,label", *rows]) + "\n")
    result = tmp_path / "r.json"
    code = main(["select", "--input", str(data), "--label", "label",
                 "--task", "reg", "--m", "1", "--epsilon", "0.1",
                 "--standardize", "--out", str(result)])
    assert code == 0
    assert "standardize = True" in capsys.readouterr().out
    assert json.loads(result.read_text())["selected"] == [1]


def test_select_missing_m_exits_2(tmp_path):
    data = tmp_path / "reg.csv"
    main(["gen-data", "--kind", "additive_regression", "--n", "20",
          "--seed", "1", "--out", str(data)])
    with pytest.raises(SystemExit) as err:
        main(["select", "--input", str(data), "--label", "label",
              "--task", "reg"])
    assert err.value.code == 2


def test_select_zero_epsilon_exits_2(tmp_path, capsys):
    data = tmp_path / "reg.csv"
    main(["gen-data", "--kind", "additive_regression", "--n", "20",
          "--seed", "1", "--out", str(data)])
    code = main(["select", "--input", str(data), "--label", "label",
                 "--task", "reg", "--m", "2", "--epsilon", "0"])
    assert code == 2


def test_select_variant_and_csv_output(tmp_path):
    data = tmp_path / "reg.csv"
    main(["gen-data", "--kind", "additive_regression", "--n", "40",
          "--seed", "2", "--out", str(data)])
    out = tmp_path / "weights.csv"
    code = main(["select", "--input", str(data), "--label", "label",
                 "--task", "regression", "--m", "4", "--variant", "lowrank",
                 "--rff-dim", "128", "--out", str(out), "--format", "csv"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "feature_index,weight,rank"
    assert len(lines) == 11


def test_one_list_of_variants_and_alpha_is_refused(tmp_path):
    assert (set(cli.VARIANT_ALIASES.values()) == set(bench.METHOD_VARIANTS.values())
            == set(objective.VARIANTS))
    with pytest.raises(InvalidParameterError):
        objective.ObjectiveConfig(epsilon=0.1, m=1, variant="alpha")
    with pytest.raises(InvalidParameterError):
        bench.run_benchmark("additive_regression", sizes=(10,), trials=1,
                            methods=("ccm-alpha",))
    data = tmp_path / "reg.csv"
    main(["gen-data", "--kind", "additive_regression", "--n", "20",
          "--seed", "1", "--out", str(data)])
    with pytest.raises(SystemExit) as err:
        main(["select", "--input", str(data), "--label", "label",
              "--task", "reg", "--m", "2", "--variant", "alpha"])
    assert err.value.code == 2


def test_oracle_counts_subsets(tmp_path, capsys):
    code = main(["oracle", "--kind", "additive_regression", "--n", "40",
                 "--seed", "4", "--m", "4", "--epsilon", "0.1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "evaluated 210 subsets" in out
    assert "argmin subset" in out


def test_oracle_guard_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "wide.csv"
    header = ",".join([f"f{j}" for j in range(50)] + ["label"])
    rows = [",".join(f"{v:.6f}" for v in rng.standard_normal(50)) + ",1.0"
            for _ in range(8)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    code = main(["oracle", "--input", str(path), "--label", "label",
                 "--task", "reg", "--m", "10"])
    assert code == 2
    assert "exceeds the guard" in capsys.readouterr().err


def test_benchmark_writes_reports(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(["benchmark", "--kind", "xor_4class", "--sizes", "10,20",
                 "--trials", "1", "--methods", "pearson",
                 "--master-seed", "2", "--out", str(out)])
    assert code == 0
    assert (tmp_path / "bench.csv").exists()
    assert (tmp_path / "bench.json").exists()
    report = json.loads((tmp_path / "bench.json").read_text())
    assert report["sizes"] == [10, 20]
    assert report["epsilon"] == 0.001


def test_benchmark_rejects_bad_sizes(capsys):
    code = main(["benchmark", "--kind", "xor_4class", "--sizes", "10:5:2",
                 "--trials", "1", "--methods", "pearson"])
    assert code == 2


@pytest.mark.parametrize("flags", [
    ["--sizes", "10.5"], ["--sizes", "10:x:10"], ["--jobs", "0"], ["--jobs", "-2"],
])
def test_benchmark_rejects_non_integer_sizes_and_jobs_below_one(flags, capsys):
    # jobs values here are refused before any worker process starts
    code = main(["benchmark", "--kind", "xor_4class", "--sizes", "10",
                 "--trials", "1", "--methods", "pearson", *flags])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_every_saved_config_field_has_a_flag(tmp_path):
    data = tmp_path / "reg.csv"
    main(["gen-data", "--kind", "additive_regression", "--n", "20",
          "--seed", "1", "--out", str(data)])
    result = tmp_path / "r.json"
    code = main(["select", "--input", str(data), "--label", "label", "--task", "reg",
                 "--epsilon", "0.05", "--m", "2", "--variant", "soft",
                 "--lambda1", "0.5", "--rff-dim", "64", "--seed", "5",
                 "--max-iters", "50", "--rel-tol", "1e-4", "--out", str(result)])
    assert code == 0
    config = json.loads(result.read_text())["config"]
    assert set(config) == {"objective", "optimizer", "input_kernel",
                           "response_kernel", "num_classes"}
    assert config["objective"] == {
        "epsilon": 0.05, "m": 2, "variant": "soft_penalty", "lambda1": 0.5,
        "num_random_features": 64, "seed": 5,
    }
    assert config["optimizer"] == {"max_iters": 50, "rel_tol": 1e-4}
    namespace = {}
    exec("from ccselect import *", namespace)
    assert set(ccselect.__all__) <= set(namespace)


def test_oracle_input_requires_label(tmp_path, capsys):
    path = tmp_path / "toy.csv"
    path.write_text("f0,f1,label\n1,2,0.5\n3,4,1.5\n")
    code = main(["oracle", "--input", str(path), "--task", "reg", "--m", "1"])
    assert code == 2


def test_select_recovers_true_features_across_data_seeds(tmp_path):
    # end-to-end: on fresh regression datasets the selected set should cover
    # at least 3 of the 4 true features in at least 8 of 10 data seeds
    hits = 0
    for seed in range(10):
        data = tmp_path / f"reg_{seed}.csv"
        main(["gen-data", "--kind", "additive_regression", "--n", "100",
              "--seed", str(seed), "--out", str(data)])
        out = tmp_path / f"res_{seed}.json"
        code = main(["select", "--input", str(data), "--label", "label",
                     "--task", "reg", "--m", "4", "--epsilon", "0.1",
                     "--out", str(out)])
        assert code == 0
        selected = set(json.loads(out.read_text())["selected"])
        hits += len(selected & {0, 1, 2, 3}) >= 3
    assert hits >= 8
