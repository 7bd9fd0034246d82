"""Best rank-(J1,...,JM) Tucker approximation via higher-order orthogonal
iteration, plus the dense symmetric eigen-solver backing it.

The sample mode (last mode) of a data tensor can be left uncompressed with
``skip_last=True``; the returned factor list then covers the leading modes
only, with an implicit identity on the sample mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import core_of, dict_project, mode_flatten, mode_product

__all__ = ["TuckerResult", "eig_sym_topk", "hosvd", "hooi"]


@dataclass
class TuckerResult:
    core: np.ndarray
    factors: list  # one orthonormal matrix per compressed mode
    fit_history: list = field(default_factory=list)  # core squared norm per sweep

    def reconstruct(self) -> np.ndarray:
        t = self.core
        for m, u in enumerate(self.factors):
            t = mode_product(t, u, m)
        return t


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each eigenvector positive."""
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs


def eig_sym_topk(s: np.ndarray, k: int):
    """Top-``k`` eigenpairs of a symmetric matrix, eigenvalues descending.

    Eigenvector signs are fixed by making the largest-magnitude entry
    positive, so results are reproducible.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    scale = max(1.0, float(np.max(np.abs(s)))) if s.size else 1.0
    if np.max(np.abs(s - s.T)) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    if not 1 <= k <= s.shape[0]:
        raise ValueError(f"k={k} out of range for {s.shape[0]}x{s.shape[0]} matrix")
    vals, vecs = np.linalg.eigh(s)
    vals = vals[::-1][:k]
    vecs = _fix_signs(vecs[:, ::-1][:, :k])
    return vals, vecs


def _check_ranks(t: np.ndarray, ranks, skip_last: bool):
    n_modes = t.ndim - 1 if skip_last else t.ndim
    ranks = [int(r) for r in ranks]
    if len(ranks) != n_modes:
        raise ValueError(f"expected {n_modes} ranks, got {len(ranks)}")
    for m, r in enumerate(ranks):
        if not 1 <= r <= t.shape[m]:
            raise ValueError(f"rank {r} out of range for mode {m} with extent {t.shape[m]}")
    return ranks


def _project(t: np.ndarray, factors, skip_last: bool) -> np.ndarray:
    """Core of ``t`` under ``factors`` on the leading modes."""
    return dict_project(t, factors) if skip_last else core_of(t, factors)


def hosvd(t: np.ndarray, ranks, skip_last: bool = False) -> TuckerResult:
    """Truncated HOSVD: per mode, the top eigenvectors of the Gram matrix of
    the mode flattening. Standard deterministic initializer for HOOI."""
    t = np.asarray(t, dtype=np.float64)
    ranks = _check_ranks(t, ranks, skip_last)
    factors = []
    for m, r in enumerate(ranks):
        g = mode_flatten(t, m)
        _, vecs = eig_sym_topk(g @ g.T, r)
        factors.append(vecs)
    core = _project(t, factors, skip_last)
    return TuckerResult(core=core, factors=factors, fit_history=[float(np.sum(core**2))])


def hooi(
    t: np.ndarray,
    ranks,
    skip_last: bool = False,
    max_sweeps: int = 20,
    tol: float = 1e-6,
    init_factors=None,
) -> TuckerResult:
    """Higher-order orthogonal iteration.

    Each sweep updates every compressed mode in turn: the factor becomes the
    top eigenvectors of the Gram matrix of the partial projection flattened
    at that mode. Initialized from HOSVD unless ``init_factors`` warm-starts
    it. Stops when the relative change of the core squared norm falls below
    ``tol`` or after ``max_sweeps`` sweeps; the recorded fit history is
    non-decreasing.
    """
    t = np.asarray(t, dtype=np.float64)
    ranks = _check_ranks(t, ranks, skip_last)
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if init_factors is None:
        factors = list(hosvd(t, ranks, skip_last).factors)
    else:
        if len(init_factors) != len(ranks):
            raise ValueError("init_factors length does not match ranks")
        factors = [np.asarray(u, dtype=np.float64) for u in init_factors]
    skip_mode = t.ndim - 1 if skip_last else None
    history = []
    prev = None
    for _ in range(max_sweeps):
        for m, r in enumerate(ranks):
            # project all modes except m (the sample mode stays untouched
            # when skip_last: factors simply has no entry for it)
            h = t
            for k, u in enumerate(factors):
                if k == m:
                    continue
                h = mode_product(h, u.T, k)
            g = mode_flatten(h, m)
            _, vecs = eig_sym_topk(g @ g.T, r)
            factors[m] = vecs
        core = _project(t, factors, skip_last)
        fit = float(np.sum(core**2))
        history.append(fit)
        if prev is not None and abs(fit - prev) <= tol * max(prev, 1e-300):
            break
        prev = fit
    core = _project(t, factors, skip_last)
    return TuckerResult(core=core, factors=factors, fit_history=history)
