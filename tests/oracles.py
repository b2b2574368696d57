"""Independent reference implementations used only by the tests.

These deliberately take a different route than the library code: central
finite differences instead of analytic gradients, and KKT-verified active-set
enumeration instead of bisection for the capped box-simplex projection.
"""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """Import ``perfbench/<name>.py`` read-only, without adding it to sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_peak_bytes(fn):
    """Peak bytes traced by tracemalloc while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def central_difference_gradient(f, w, h=1e-5):
    """Central finite-difference gradient of a scalar function of a vector."""
    w = np.asarray(w, dtype=np.float64)
    g = np.zeros_like(w)
    for l in range(w.shape[0]):
        wp = w.copy()
        wp[l] += h
        wm = w.copy()
        wm[l] -= h
        g[l] = (f(wp) - f(wm)) / (2.0 * h)
    return g


def vector_rel_error(a, b, floor=1e-12):
    """Max-norm relative disagreement between two gradient vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), floor))


def qp_project_oracle(v, m):
    """Projection onto {0 <= w <= 1, sum w <= m} by active-set enumeration.

    The optimum preserves the order of v, so the binding pattern is "top a
    coordinates at 1, bottom b at 0, middle shifted by a common tau". All
    O(d^2) order-consistent patterns are enumerated and checked against the
    KKT conditions; the feasible candidate closest to v is returned.
    """
    v = np.asarray(v, dtype=np.float64)
    d = v.shape[0]
    clipped = np.clip(v, 0.0, 1.0)
    if clipped.sum() <= m + 1e-12:
        return clipped
    order = np.argsort(-v, kind="stable")
    vs = v[order]
    best = None
    best_dist = np.inf
    for a in range(d + 1):
        for b in range(d - a + 1):
            f = d - a - b
            if f == 0:
                if a != m:
                    continue
                hi_t = (np.min(vs[:a]) - 1.0) if a > 0 else np.inf
                lo_t = max(float(np.max(vs[a:])) if b > 0 else 0.0, 0.0)
                if lo_t > hi_t + 1e-12:
                    continue
                w_sorted = np.concatenate([np.ones(a), np.zeros(b)])
            else:
                free = vs[a:d - b]
                tau = (free.sum() + a - m) / f
                if tau < -1e-12:
                    continue
                tau = max(tau, 0.0)
                wf = free - tau
                if np.any(wf < -1e-9) or np.any(wf > 1.0 + 1e-9):
                    continue
                if a > 0 and np.min(vs[:a]) - tau < 1.0 - 1e-9:
                    continue
                if b > 0 and np.max(vs[d - b:]) - tau > 1e-9:
                    continue
                w_sorted = np.concatenate([np.ones(a), np.clip(wf, 0.0, 1.0),
                                           np.zeros(b)])
            w = np.empty(d)
            w[order] = w_sorted
            dist = float(np.sum((w - v) ** 2))
            if dist < best_dist:
                best = w
                best_dist = dist
    assert best is not None, "no KKT-consistent binding pattern found"
    return best
