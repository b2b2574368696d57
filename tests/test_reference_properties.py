"""Q(w) agrees with the independent NumPy reference on degenerate inputs.

``perfbench/reference.py`` computes Q(w) from a dense Gaussian Gram, an
explicit centring matrix and ``np.linalg.solve``; it is loaded read-only
through ``oracles.load_perfbench``. The inputs carry duplicate rows, a
constant column and feature scales from 1e-3 to 1e3, with eps in [1e-6, 1].
The centred Gram has eigenvalues in [0, n], so the ridge system's condition
number is at most 1 + 1/eps and rounding stays far below the reference
tolerance. At eps = 1e-9 the gap can approach that tolerance, so smaller eps
is not drawn.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import load_perfbench

from ccselect.dataio import LabeledDataset
from ccselect.kernels import KernelSpec
from ccselect.objective import ObjectiveConfig, exact_objective
from ccselect.optimizer import dataset_response
from ccselect.oracle import subset_score

# Derandomized so every run draws the same examples; failing examples are not
# saved to a database, so reruns do not depend on earlier runs.
REFERENCE_PROFILE = settings(derandomize=True, database=None, deadline=None,
                             max_examples=60)

reference = load_perfbench("reference")


@st.composite
def degenerate_problems(draw):
    """(dataset, eps, sigma, rng) with duplicate rows, a constant column and mixed scales."""
    n_distinct = draw(st.integers(6, 24))
    d = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n_distinct, d))
    duplicates = draw(st.integers(1, 6))
    X = np.vstack([X, X[rng.integers(0, n_distinct, duplicates)]])
    X[:, draw(st.integers(0, d - 1))] = draw(st.floats(-5.0, 5.0))
    X *= 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)))
    y = rng.standard_normal(X.shape[0])
    eps = 10.0 ** draw(st.floats(-6.0, 0.0))
    sigma = 10.0 ** draw(st.floats(-1.0, 1.0)) * reference.median_bandwidth(X)
    return LabeledDataset(X, y, "regression"), eps, sigma, rng


@REFERENCE_PROFILE
@given(degenerate_problems())
def test_exact_objective_matches_reference(problem):
    ds, eps, sigma, rng = problem
    w = rng.uniform(0.0, 1.0, ds.d)
    w[rng.integers(0, ds.d)] = 0.0
    cfg = ObjectiveConfig(epsilon=eps, m=1)
    q = exact_objective(ds.X, dataset_response(ds), w, cfg, KernelSpec(bandwidth=sigma),
                        compute_gradient=False).value
    q_ref = reference.q_value(ds.X, ds.y, w, sigma, eps)
    assert reference.close(q, q_ref), (q, q_ref)


@REFERENCE_PROFILE
@given(degenerate_problems())
def test_subset_score_matches_reference(problem):
    ds, eps, sigma, rng = problem
    subset = rng.choice(ds.d, size=rng.integers(1, ds.d + 1), replace=False)
    mask = np.zeros(ds.d)
    mask[subset] = 1.0
    q = subset_score(ds, subset, eps, sigma=sigma)
    q_ref = reference.q_value(ds.X, ds.y, mask, sigma, eps)
    assert reference.close(q, q_ref), (q, q_ref)
