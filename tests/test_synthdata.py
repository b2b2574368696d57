import numpy as np
import pytest

from ccselect.dataio import canonical_class_labels
from ccselect.errors import InvalidParameterError
from ccselect.synthdata import (
    SHELL_HIGH,
    SHELL_LOW,
    gen_additive_regression,
    gen_binary_ring,
    gen_xor_4class,
    generate,
)


def test_all_generators_emit_ten_columns_and_true_features():
    ring = gen_binary_ring(40, 0)
    xor = gen_xor_4class(40, 0)
    reg = gen_additive_regression(40, 0)
    for ds in (ring, xor, reg):
        assert ds.d == 10
    assert ring.true_features == (0, 1, 2, 3)
    assert xor.true_features == (0, 1, 2)
    assert reg.true_features == (0, 1, 2, 3)
    assert ring.num_true == 4 and xor.num_true == 3 and reg.num_true == 4


def test_generators_are_deterministic():
    for kind in ("binary_ring", "xor_4class", "additive_regression"):
        a = generate(kind, 60, 7)
        b = generate(kind, 60, 7)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        c = generate(kind, 60, 8)
        assert not np.array_equal(a.X, c.X)


def test_binary_ring_shell_condition_holds_exactly():
    ds = gen_binary_ring(200, 1)
    pos = ds.X[ds.y == 1]
    sq = np.sum(pos[:, :4] ** 2, axis=1)
    assert np.all(sq >= SHELL_LOW) and np.all(sq <= SHELL_HIGH)


def test_binary_ring_balance_rule():
    ds = gen_binary_ring(101, 2)
    assert int(np.sum(ds.y == 1)) == 51
    assert int(np.sum(ds.y == -1)) == 50


def test_binary_ring_negative_class_moments():
    ds = gen_binary_ring(100_000, 3)
    neg = ds.X[ds.y == -1]
    assert np.max(np.abs(neg.mean(axis=0))) <= 0.02


def test_xor_corners_pair_antipodally():
    # group key (v1*v3, v2*v3) identifies v with -v
    corners = [(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
    groups = {}
    for v in corners:
        groups.setdefault((v[0] * v[2], v[1] * v[2]), []).append(v)
    assert len(groups) == 4
    for members in groups.values():
        assert len(members) == 2
        assert tuple(-x for x in members[0]) == members[1]


def test_xor_class_balance_and_label_range():
    ds = gen_xor_4class(42, 4)
    counts = np.bincount(ds.y, minlength=4)
    assert counts.max() - counts.min() <= 1
    assert set(np.unique(ds.y)) <= {0, 1, 2, 3}


def test_xor_signal_moments():
    ds = gen_xor_4class(100_000, 5)
    for cls in range(4):
        block = ds.X[ds.y == cls][:, :3]
        assert np.max(np.abs(block.mean(axis=0))) <= 0.02
        cov_diag = np.var(block, axis=0)
        assert np.max(np.abs(cov_diag - 1.5)) <= 0.05


def test_additive_regression_moments():
    ds = gen_additive_regression(100_000, 6)
    # E[y] = E[max(Z,0)] + E[exp(-Z)] = 1/sqrt(2 pi) + exp(1/2)
    expected = 1.0 / np.sqrt(2 * np.pi) + np.exp(0.5)
    assert float(ds.y.mean()) == pytest.approx(expected, abs=0.03)
    assert float(ds.X[:, 2].var(ddof=1)) == pytest.approx(1.0, abs=0.02)


def test_noise_features_uncorrelated_with_response():
    for kind in ("binary_ring", "xor_4class", "additive_regression"):
        ds = generate(kind, 100_000, 9)
        if ds.task == "classification":
            labels, _ = canonical_class_labels(ds.y)
            y = labels.astype(float)
        else:
            y = ds.y
        yc = y - y.mean()
        noise_cols = [j for j in range(10) if j not in ds.true_features]
        for j in noise_cols:
            x = ds.X[:, j] - ds.X[:, j].mean()
            corr = float(x @ yc / (np.linalg.norm(x) * np.linalg.norm(yc)))
            assert abs(corr) <= 0.01, (kind, j, corr)


def test_synthetic_spec_validation():
    with pytest.raises(InvalidParameterError):
        generate("ring", 10, 0)
    with pytest.raises(InvalidParameterError):
        gen_binary_ring(1, 0)
    with pytest.raises(InvalidParameterError):
        gen_xor_4class(3, 0)


def test_xor_metadata_records_covariance_reading():
    ds = gen_xor_4class(8, 0)
    assert ds.meta["mixture_covariance"] == 0.5
