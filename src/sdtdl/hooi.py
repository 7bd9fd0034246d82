"""Best rank-(J1,...,JM) Tucker approximation via higher-order orthogonal
iteration, plus the dense symmetric eigen-solver backing it.

The sample mode (last mode) of a data tensor can be left uncompressed with
``skip_last=True``; the returned factor list then covers the leading modes
only, with a symmetric operator on the sample mode: the identity, or the
one :func:`hooi` is given (a class update's ``Phi^T Phi`` or ``Q``).

With the sample mode kept, each mode's matrix depends on the data only
through the ``P x P`` sample moment of the ``P`` feature entries (Kolda &
Bader, SIAM Review 2009): :func:`moment_sweep` sweeps on it, where
:func:`sweep` projects the tensor itself. The same holds inside a sweep:
once the last mode is contracted, the leading modes depend on the
projection only through its moment over them, which :func:`sweep` forms
and sweeps when it is no larger than the projection. :func:`takes_moment`
is the one rule for both, and :func:`_moment` forms the sample moment
under the identity and every moment inside a sweep.

A sweep hands :func:`hooi` only the last mode's top eigenvalues, its fit
value; no projection outlives it. The returned core is formed once after
the last sweep, from the tensor itself. Every projection on the factors,
a sweep's and the core's, is :func:`sdtdl.tensor.dict_project`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import _count, dict_apply, dict_project, mode_gram, mode_product

__all__ = [
    "TuckerResult", "eig_sym_topk", "hosvd", "takes_moment", "sweep", "moment_sweep", "hooi",
]


@dataclass
class TuckerResult:
    core: np.ndarray
    factors: list  # one orthonormal matrix per compressed mode
    # per sweep, the sum of the last mode's top eigenvalues: the squared core
    # norm when the sample-mode operator is the identity
    fit_history: list = field(default_factory=list)

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
    ranks = [_count(r, "ranks", 1) for r in ranks]
    if not ranks or len(ranks) != n_modes:
        raise ValueError(f"expected {n_modes} ranks (at least one), got {len(ranks)}")
    for m, r in enumerate(ranks):
        if r > t.shape[m]:
            raise ValueError(f"rank {r} out of range for mode {m} with extent {t.shape[m]}")
    return ranks


def hosvd(t: np.ndarray, ranks, skip_last: bool = False, moment=None, form=mode_gram) -> list:
    """Truncated HOSVD factors: per mode, the top eigenvectors of ``form``
    of ``t`` at that mode, the Gram matrix of the mode flattening by
    default. Standard deterministic initializer for HOOI; no core is
    formed. With ``skip_last``, each mode's matrix may be read from ``t``'s
    sample ``moment`` instead (:func:`moment_sweep`), with every other mode
    traced out."""
    t = np.asarray(t, dtype=np.float64)
    ranks = _check_ranks(t, ranks, skip_last)
    if moment is None:
        forms = (form(t, m) for m in range(len(ranks)))
    else:
        forms = (_moment_form(moment, t.shape[:-1], m) for m in range(len(ranks)))
    return [eig_sym_topk(s, r)[1] for s, r in zip(forms, ranks)]


# Bytes of the last mode's partial projection above which :func:`sweep`
# and :func:`hooi` form it one sample block at a time. On the object shape
# (7x7x64 samples, ranks 6,6,28) only the domain updates' projections pass
# 8 MiB (14.7-18.4 MB), and there the whole-set products set the fit's
# allocation peak; its class stacks' projections (at most 3.7 MB) stay
# whole. A 2 MiB rule on the whole tensor also blocked the class stacks,
# whose 20 sweeps then copied blocks each time: an object fit ran 6-8%
# slower (2 vCPUs). Smaller blocks than the budget allows were slower
# too: a warm 3-sweep HOOI of a 7x7x64x1000 stack at ranks 6,6,28 took
# 118 ms in 3 blocks, 145 ms in 9 and 158 ms in 36.
_SWEEP_BLOCK_BYTES = 8 << 20


def _sample_blocks(t: np.ndarray, ranks):
    """Slices of ``t``'s sample mode, in order: as few equal blocks as keep
    each block's share of the last compressed mode's partial projection
    ``t x_{k < M-1} U_k^T`` within ``_SWEEP_BLOCK_BYTES``. One whole block
    below the budget, for a single mode (whose partial projection is
    ``t``), and without a sample mode. A sweep copies each block
    C-contiguous, the layout its leading-mode products and
    :func:`mode_gram` take without a copy of their own (a whole block of a
    C-order tensor is not copied); the blocked core of :func:`hooi`
    projects the last mode first, which reads a block in place."""
    last, count = len(ranks) - 1, 1
    if last > 0 and t.ndim > len(ranks):
        nbytes = 8 * math.prod(ranks[:last]) * math.prod(t.shape[last:])
        count = -(-nbytes // _SWEEP_BLOCK_BYTES)
    if count < 2:
        return [slice(None)]
    step = -(-t.shape[-1] // count)
    return [slice(lo, lo + step) for lo in range(0, t.shape[-1], step)]


def _moment(z: np.ndarray, modes: int, form=mode_gram) -> np.ndarray:
    """``form`` of ``z`` flattened at its first ``modes`` modes, their
    entries by the columns of every later mode: with the Gram matrix,
    ``Z Z^T`` for that flattening ``Z``. An overflow is left for
    :func:`eig_sym_topk` to report."""
    return form(z.reshape((math.prod(z.shape[:modes]),) + z.shape[modes:]), 0)


def takes_moment(z: np.ndarray, modes: int) -> bool:
    """Whether ``z``'s first ``modes`` modes are swept on their moment: when
    its side, their entry count, is no longer than the columns it sums over,
    so that the moment is no larger than ``z``."""
    side = math.prod(z.shape[:modes])
    return side * side <= z.size


def sweep(t: np.ndarray, factors: list, ranks, form=mode_gram):
    """One sweep of per-mode eigen updates, replacing ``factors`` in place.

    Mode ``m`` takes the top ``ranks[m]`` eigenvectors of the symmetric
    matrix ``form(h, m)``, where ``h = t x_{k != m} U_k^T`` is ``t``
    projected on every other factor, the modes before ``m`` already updated.
    Modes of ``t`` past the factors (a skipped sample mode) stay untouched.

    The sweep first contracts the last mode, ``s = t x_{M-1} U_{M-1}^T``,
    and every leading mode then sees ``t`` only through ``s``. With two or
    more leading modes whose moment is no larger than ``s``
    (:func:`takes_moment`), it forms that moment once, ``form`` of ``s``
    flattened at them, and sweeps them on it (:func:`moment_sweep`, De
    Lathauwer, De Moor & Vandewalle, SIMAX 2000); otherwise it sweeps ``s``
    over them the same way, recursively. ``s`` is released before the last
    mode projects ``t`` on the updated leading factors, with ``M-1``
    products. Without a moment step the recursion makes the suffix products
    ``t x_{k > m} U_k^T`` of a plain sweep, ``(M-1) + M(M-1)/2`` products
    in all; with it at the top, ``M`` on an order-``M`` sweep.

    The last mode's matrix is summed over the sample blocks of
    :func:`_sample_blocks`, in block order: each C-contiguous block copy is
    projected on the updated leading factors and takes ``form``. With the
    Gram matrix as ``form`` (the default), a sum over samples, the
    projection passes ``_SWEEP_BLOCK_BYTES`` only one block at a time; a
    form that couples samples takes one whole block. :func:`dict_project`
    frees each block copy after its first product, and each block's
    projection is released once its matrix is formed.

    Returns the last mode's top eigenvalues. When ``form`` is the Gram
    matrix, their sum is the squared norm of the core under the updated
    factors, ``t x_k U_k^T`` over every compressed mode ``k``.
    """
    blocks = _sample_blocks(t, ranks) if form is mode_gram else [slice(None)]
    return _sweep_modes(t, factors, ranks, form, len(factors), blocks)


def _sweep_modes(t, factors, ranks, form, count, blocks):
    """:func:`sweep` of ``t``'s first ``count`` modes, the last one's matrix
    summed over ``blocks`` of samples."""
    last = count - 1
    if last > 0:
        s = mode_product(t, factors[last].T, last)
        if last > 1 and takes_moment(s, last):
            moment_sweep(_moment(s, last, form), s.shape[:last], factors, ranks)
        else:
            _sweep_modes(s, factors, ranks, form, last, [slice(None)])
        del s
    mat = functools.reduce(np.add, (
        form(dict_project(np.ascontiguousarray(t[..., c]), factors[:last]), last)
        for c in blocks
    ))
    vals, factors[last] = eig_sym_topk(mat, ranks[last])
    return vals


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
    """:func:`sweep` of the modes ``dims`` of a tensor known only by their
    moment ``g = Z M Z^T``: ``Z`` its flattening (their entries by the
    columns of every later mode), ``M`` a symmetric operator on those
    columns, the identity but on a sample mode.

    Mode ``m`` takes the top eigenvectors of the moment with every other
    mode projected on its factor and traced out, the matrix :func:`sweep`
    forms with ``M`` on the sample mode, in ``O(P^2)`` for ``P`` entries
    whatever the column count. Replaces the first ``len(dims)`` of
    ``factors`` in place and returns the last mode's top eigenvalues, whose
    sum is the squared core norm when ``M`` is the identity.
    """
    for m in range(len(dims)):
        vals, factors[m] = eig_sym_topk(_moment_form(g, dims, m, factors), ranks[m])
    return vals


def hooi(
    t: np.ndarray,
    ranks,
    skip_last: bool = False,
    max_sweeps: int = 20,
    tol: float | None = 1e-6,
    init_factors=None,
    op=None,
) -> TuckerResult:
    """Higher-order orthogonal iteration, with a symmetric operator ``M`` on
    a kept sample mode: ``op``, or the identity when it is ``None``.

    Each sweep updates every compressed mode in turn: the factor becomes the
    top eigenvectors of the partial projection's matrix at that mode, with
    ``M`` on the sample mode; for the identity, the Gram matrix of the
    projection flattened there. ``op`` gives that form two ways:
    ``op.moment(t)`` is the sample moment ``Z M Z^T`` of ``t``'s flattening
    ``Z`` (feature entries by samples), and ``op.sweep_input(t)`` is the
    tensor a direct :func:`sweep` projects, with its form. A sweep returns
    only its eigenvalues, so a warm HOOI holds no more than one sweep
    needs. Initialized by :func:`hosvd` of the same form unless
    ``init_factors`` warm-starts it, one ``I_m x r_m`` matrix per
    compressed mode. A sweep's fit history value is the sum of
    the last mode's top eigenvalues, which for the identity is the squared
    norm of the core under its factors, so no sweep projects the tensor
    again. Stops when the relative change of that value falls below ``tol``
    or after ``max_sweeps`` sweeps; with ``tol=None`` every sweep runs. For
    the identity the recorded fit history is non-decreasing.

    One rule picks the path: with ``skip_last``, at least as many samples
    as feature entries, and a cold start or ``tol=None``, the sample moment
    is formed once, no larger than ``t``, and the HOSVD and every sweep
    read it (:func:`moment_sweep`). Otherwise each sweep is a direct
    :func:`sweep`: a warm start that stops on ``tol`` after a few sweeps
    does not pay for the moment.

    The returned core is ``t`` projected on the factors by
    :func:`dict_project`, one product per mode, after a weighted tensor
    swept and the moment are released. Below the budget ``t`` is projected
    whole, from mode 0 on. Above it, by the blocks of :func:`sweep`, each
    block's core written into its sample columns: each block is read in
    place, its ``modes`` taken last first, so neither a block copy nor a
    whole-set product is built after the last sweep.
    """
    t = np.asarray(t, dtype=np.float64)
    ranks = _check_ranks(t, ranks, skip_last)
    max_sweeps = _count(max_sweeps, "max_sweeps", 1)
    if tol is not None and not 0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    factors = None
    if init_factors is not None:
        factors = [np.asarray(u, dtype=np.float64) for u in init_factors]
        if [u.shape for u in factors] != [(t.shape[m], r) for m, r in enumerate(ranks)]:
            raise ValueError("init_factors must hold one I_m x r_m matrix per compressed mode")
    g = None
    swept, form = t, mode_gram
    if skip_last and takes_moment(t, t.ndim - 1) and (factors is None or tol is None):
        g = _moment(t, t.ndim - 1) if op is None else op.moment(t)
    elif op is not None:
        swept, form = op.sweep_input(t)
    if factors is None:
        factors = hosvd(swept, ranks, skip_last, moment=g, form=form)
    history = []
    for _ in range(max_sweeps):
        if g is None:
            vals = sweep(swept, factors, ranks, form)
        else:
            vals = moment_sweep(g, t.shape[:-1], factors, ranks)
        history.append(float(np.sum(vals)))
        if tol is not None and len(history) > 1:
            if abs(history[-1] - history[-2]) <= tol * max(history[-2], 1e-300):
                break
    del swept, g  # a weighted copy and the moment, freed before the core
    modes = range(len(ranks))
    blocks = _sample_blocks(t, ranks)
    if len(blocks) == 1:
        core = dict_project(t, factors)
    else:
        core = np.empty(tuple(ranks) + t.shape[-1:])
        # the last mode first, as a sweep starts: its product reads the
        # sample slice in place, and on the object shape it leaves 28/64 of
        # a block, where mode 0's leaves 6/7
        for cols in blocks:
            core[..., cols] = dict_project(t[..., cols], factors, modes[::-1])
    return TuckerResult(core=core, factors=factors, fit_history=history)
