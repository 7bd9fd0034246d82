"""Best rank-(J1,...,JM) Tucker approximation via higher-order orthogonal
iteration, plus the dense symmetric eigen-solver backing it.

The sample mode (last mode) of a data tensor can be left uncompressed with
``skip_last=True``; the returned factor list then covers the leading modes
only, with an implicit identity on the sample mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import dict_apply, mode_gram, mode_product

__all__ = ["TuckerResult", "eig_sym_topk", "hosvd", "sweep", "hooi"]


@dataclass
class TuckerResult:
    core: np.ndarray
    factors: list  # one orthonormal matrix per compressed mode
    fit_history: list = field(default_factory=list)  # core squared norm per sweep

    def reconstruct(self) -> np.ndarray:
        """The Tucker tensor; a skipped sample mode stays as it is in the core."""
        return dict_apply(self.core, self.factors)


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
    if not ranks or len(ranks) != n_modes:
        raise ValueError(f"expected {n_modes} ranks (at least one), got {len(ranks)}")
    for m, r in enumerate(ranks):
        if not 1 <= r <= t.shape[m]:
            raise ValueError(f"rank {r} out of range for mode {m} with extent {t.shape[m]}")
    return ranks


def hosvd(t: np.ndarray, ranks, skip_last: bool = False) -> list:
    """Truncated HOSVD factors: per mode, the top eigenvectors of the Gram
    matrix of the mode flattening. Standard deterministic initializer for
    HOOI; no core is formed."""
    t = np.asarray(t, dtype=np.float64)
    ranks = _check_ranks(t, ranks, skip_last)
    return [eig_sym_topk(mode_gram(t, m), r)[1] for m, r in enumerate(ranks)]


def sweep(t: np.ndarray, factors: list, ranks, form=mode_gram):
    """One sweep of per-mode eigen updates, replacing ``factors`` in place.

    Mode ``m`` takes the top ``ranks[m]`` eigenvectors of the symmetric
    matrix ``form(h, m)``, where ``h = t x_{k != m} U_k^T`` is ``t``
    projected on every other factor, the modes before ``m`` already updated.
    The suffix projections ``t x_{k > m} U_k^T`` are built once, from the
    back, and each is released once its mode has used it; mode ``m`` then
    adds only its ``m`` products by the updated factors. A sweep over ``M``
    factors makes ``(M-1) + M(M-1)/2`` mode products. Modes of ``t`` past
    the factors (a skipped sample mode) stay untouched.

    Returns the last mode's partial projection ``h`` and top eigenvalues.
    When ``form`` is the Gram matrix (the default), their sum is the squared
    norm of the core under the updated factors, ``h x_{M-1} U_{M-1}^T``.
    """
    suffix = [t]
    for k in range(len(factors) - 1, 0, -1):
        suffix.append(mode_product(suffix[-1], factors[k].T, k))
    for m in range(len(factors)):
        h = suffix.pop()
        for k in range(m):
            h = mode_product(h, factors[k].T, k)
        vals, factors[m] = eig_sym_topk(form(h, m), ranks[m])
    return h, vals


def hooi(
    t: np.ndarray,
    ranks,
    skip_last: bool = False,
    max_sweeps: int = 20,
    tol: float = 1e-6,
    init_factors=None,
) -> TuckerResult:
    """Higher-order orthogonal iteration.

    Each :func:`sweep` updates every compressed mode in turn: the factor
    becomes the top eigenvectors of the Gram matrix of the partial
    projection flattened at that mode. Initialized from HOSVD unless
    ``init_factors`` warm-starts it. A sweep's fit history value is the
    squared norm of the core under its factors, read from the sum of the
    last mode's top eigenvalues, so no sweep projects the tensor again.
    Stops when the relative change of that value falls below ``tol`` or
    after ``max_sweeps`` sweeps; the recorded fit history is non-decreasing.
    The returned core is formed once, from the last sweep's last partial
    projection.
    """
    t = np.asarray(t, dtype=np.float64)
    ranks = _check_ranks(t, ranks, skip_last)
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    if not 0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    if init_factors is None:
        factors = hosvd(t, ranks, skip_last)
    else:
        if len(init_factors) != len(ranks):
            raise ValueError("init_factors length does not match ranks")
        factors = [np.asarray(u, dtype=np.float64) for u in init_factors]
    history = []
    for _ in range(max_sweeps):
        h, vals = sweep(t, factors, ranks)
        history.append(float(np.sum(vals)))
        if len(history) > 1 and abs(history[-1] - history[-2]) <= tol * max(history[-2], 1e-300):
            break
    last = len(ranks) - 1
    core = mode_product(h, factors[last].T, last)
    return TuckerResult(core=core, factors=factors, fit_history=history)
