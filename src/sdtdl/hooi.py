"""Best rank-(J1,...,JM) Tucker approximation via higher-order orthogonal
iteration, plus the dense symmetric eigen-solver backing it.

The sample mode (last mode) of a data tensor can be left uncompressed with
``skip_last=True``; the returned factor list then covers the leading modes
only, with an implicit identity on the sample mode.

With the sample mode kept, each mode's matrix depends on the data only
through the ``P x P`` sample moment of the ``P`` feature entries (Kolda &
Bader, SIAM Review 2009): :func:`moment_sweep` sweeps on it, where
:func:`sweep` projects the tensor itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import dict_apply, mode_gram, mode_product

__all__ = ["TuckerResult", "eig_sym_topk", "hosvd", "sweep", "moment_sweep", "hooi"]


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
    positive, so results are reproducible. A matrix with a NaN or infinite
    entry (the overflowed Gram matrix of a huge tensor) raises
    ``np.linalg.LinAlgError``, which ``eigh`` does not always do.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise np.linalg.LinAlgError("matrix has a non-finite entry")
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


def hosvd(t: np.ndarray, ranks, skip_last: bool = False, moment=None) -> list:
    """Truncated HOSVD factors: per mode, the top eigenvectors of the Gram
    matrix of the mode flattening. Standard deterministic initializer for
    HOOI; no core is formed. With ``skip_last``, each mode's matrix may be
    read from ``t``'s sample ``moment`` instead (:func:`moment_sweep`), with
    every other mode traced out."""
    t = np.asarray(t, dtype=np.float64)
    ranks = _check_ranks(t, ranks, skip_last)
    if moment is None:
        forms = (mode_gram(t, m) for m in range(len(ranks)))
    else:
        forms = (_moment_form(moment, t.shape[:-1], m) for m in range(len(ranks)))
    return [eig_sym_topk(s, r)[1] for s, r in zip(forms, ranks)]


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


def _sample_moment(t: np.ndarray) -> np.ndarray:
    """``Z Z^T`` for the flattening ``Z`` of ``t``, feature entries by
    samples; an overflow is left for :func:`eig_sym_topk` to report."""
    flat = t.reshape(math.prod(t.shape[:-1]), t.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        return flat @ flat.T


def _moment_form(g: np.ndarray, dims, m: int, factors=None) -> np.ndarray:
    """Mode ``m``'s matrix from the sample moment ``g`` of a tensor with
    feature dims ``dims``: every other mode ``k`` contracted on both sides
    with ``U_k U_k^T`` for ``U_k = factors[k]`` (projected on the factor and
    traced out), or traced out as it is without ``factors``."""
    h = g.reshape(tuple(dims) * 2)
    with np.errstate(over="ignore", invalid="ignore"):
        # from the last mode down, so the axes of the modes below k keep
        # their places: row axis k, column axis half + k
        for k in range(len(dims) - 1, -1, -1):
            if k == m:
                continue
            half = h.ndim // 2
            if factors is None:
                h = np.trace(h, axis1=k, axis2=half + k)
            else:
                u = factors[k]
                h = np.tensordot(h, u @ u.T, axes=([k, half + k], [0, 1]))
        return 0.5 * (h + h.T)


def moment_sweep(g: np.ndarray, dims, factors: list, ranks):
    """:func:`sweep` on a tensor with feature dims ``dims`` known only by
    its sample moment ``g = Z M Z^T``: ``Z`` its flattening (feature entries
    by samples), ``M`` a symmetric sample-mode operator.

    Mode ``m`` takes the top eigenvectors of the moment with every other
    mode projected on its factor and traced out, the matrix :func:`sweep`
    forms with ``M`` on the sample mode, in ``O(P^2)`` for ``P`` feature
    entries whatever the sample count. Replaces ``factors`` in place and
    returns the last mode's top eigenvalues, whose sum is the squared core
    norm when ``M`` is the identity.
    """
    for m in range(len(factors)):
        vals, factors[m] = eig_sym_topk(_moment_form(g, dims, m, factors), ranks[m])
    return vals


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

    A cold start with ``skip_last`` and at least as many samples as feature
    entries forms the sample moment once, no larger than ``t``, and takes
    the HOSVD and every sweep from it (:func:`moment_sweep`); the core is
    then ``t`` projected on the factors. A warm start, which stops after a
    few sweeps, keeps :func:`sweep`.
    """
    t = np.asarray(t, dtype=np.float64)
    ranks = _check_ranks(t, ranks, skip_last)
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    if not 0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    g = None
    if init_factors is None:
        if skip_last and math.prod(t.shape[:-1]) <= t.shape[-1]:
            g = _sample_moment(t)
        factors = hosvd(t, ranks, skip_last, moment=g)
    else:
        if len(init_factors) != len(ranks):
            raise ValueError("init_factors length does not match ranks")
        factors = [np.asarray(u, dtype=np.float64) for u in init_factors]
    history = []
    for _ in range(max_sweeps):
        if g is None:
            h, vals = sweep(t, factors, ranks)
        else:
            vals = moment_sweep(g, t.shape[:-1], factors, ranks)
        history.append(float(np.sum(vals)))
        if len(history) > 1 and abs(history[-1] - history[-2]) <= tol * max(history[-2], 1e-300):
            break
    if g is None:
        last = len(ranks) - 1
        core = mode_product(h, factors[last].T, last)
    else:
        core = t
        for m, u in enumerate(factors):
            core = mode_product(core, u.T, m)
    return TuckerResult(core=core, factors=factors, fit_history=history)
