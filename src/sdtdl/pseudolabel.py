"""Target-label prediction from reconstruction fidelity and centroid
deviation, plus confidence-ranked sample selection.

Per-sample scale: each row of errors is divided by the median of its C
entries before the softmax, which makes the resulting probabilities
invariant to a positive rescaling of that sample's errors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .jobs import _one_blas_thread, _run_jobs
from .tensor import dict_apply, dict_project

__all__ = [
    "PseudoLabels",
    "fidelity_probs",
    "centroid_probs",
    "predict",
    "predict_labels",
    "select",
    "selection_count",
]

_EPS = 1e-300

# Bytes of target samples per block of the prediction pass. With the blocks
# on 2 threads (2 vCPUs, 1 BLAS thread), the pass alone took 160, 94, 75, 80
# and 83 ms at 256 KiB to 4 MiB on the benchmark's object shape and 22, 14,
# 12, 12 and 11 ms on wide-n. No size won on both, and on object any other
# size rounds the probabilities differently, so 1 MiB stays.
# BENCH_pooled_prediction_pass.json has the sweep, and
# BENCH_blocked_prediction_pass.json the serial one.
_BLOCK_BYTES = 1 << 20


@dataclass
class PseudoLabels:
    labels: np.ndarray  # predicted class ids, 1-based
    combined_conf: np.ndarray  # max combined probability per sample
    fidelity_probs: np.ndarray  # N_t x C, row-stochastic
    centroid_probs: np.ndarray  # N_t x C, row-stochastic
    selected: np.ndarray  # boolean mask

    @property
    def n_samples(self) -> int:
        return self.labels.shape[0]


def _softmax_rows(errors: np.ndarray) -> np.ndarray:
    """Row-stochastic matrix from nonnegative error rows.

    Each row is scaled by the median of its entries (by their mean when the
    median is zero); rows whose scale is degenerate (all errors zero) become
    uniform.
    """
    sigma = np.median(errors, axis=1)
    low = sigma <= _EPS
    sigma[low] = np.mean(errors[low], axis=1)
    flat = sigma <= _EPS
    z = -errors / np.where(flat, 1.0, sigma)[:, None]
    z -= z.max(axis=1, keepdims=True)  # guard against underflow only; softmax is shift-free
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    probs[flat] = 1.0 / errors.shape[1]
    return probs


def _sample_sq_norms(t: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each sample (last-mode slice) of ``t``."""
    flat = t.reshape(math.prod(t.shape[:-1]), t.shape[-1])
    return np.einsum("ij,ij->j", flat, flat)


def fidelity_probs(errors: np.ndarray) -> np.ndarray:
    """Row-stochastic class probabilities from the ``N x C`` squared
    reconstruction errors of the targets' domain residual against each class
    dictionary."""
    return _softmax_rows(errors)


def centroid_probs(dists: np.ndarray) -> np.ndarray:
    """Row-stochastic class probabilities from the ``N x C`` squared
    deviations of each class code from the source class mean (source means
    are the reliable ones)."""
    return _softmax_rows(dists)


@_one_blas_thread()
def predict_labels(target, model) -> PseudoLabels:
    """One prediction pass: labels and selection of ``target`` under ``model``,
    with the mixing weight ``gamma`` and the selected share ``delta`` of
    ``model.hyper``. The target samples must have the model's dims, the row
    counts of its class dictionaries.

    The pass runs over blocks of at most ``_BLOCK_BYTES`` of target samples,
    each gathered C-contiguous so that its products stay in cache. A block's
    domain residual (its samples minus their target-dictionary
    reconstruction, or the raw samples when the model has no target
    dictionary yet) is projected once per class. The factors are
    orthonormal, so the error of sample j against class c is
    ``||r_j||^2 - ||k_cj||^2``, clamped at zero against cancellation; the
    centroid distance is ``||k_cj - m_c||^2`` for the source class mean
    ``m_c``. Both probability matrices are taken once, after the last block.

    The blocks run as jobs (:func:`sdtdl.jobs._run_jobs`), each writing its
    own rows of the two ``N x C`` matrices; a pass called from inside a job,
    as beside a source update in ``fit``, keeps them on its thread. As
    ``fit`` does, the pass holds BLAS at one thread while it runs. The
    result does not depend on the thread count.
    """
    y = target.samples
    dims = tuple(w.shape[0] for w in model.w_class[0])
    if y.shape[:-1] != dims:
        raise ValueError(f"target dims {y.shape[:-1]} do not match model dims {dims}")
    n, c = y.shape[-1], len(model.w_class)
    errors, dists = np.empty((n, c)), np.empty((n, c))
    step = max(1, _BLOCK_BYTES // (math.prod(y.shape[:-1]) * y.itemsize))

    def block_job(lo):
        rows = slice(lo, lo + step)
        block = np.ascontiguousarray(y[..., rows])
        if model.u_target is not None:
            rec = dict_apply(dict_project(block, model.u_target), model.u_target)
            block = np.subtract(block, rec, out=rec)
        r2 = _sample_sq_norms(block)
        for ci, (w, mean) in enumerate(zip(model.w_class, model.class_means_source)):
            k = dict_project(block, w)
            np.maximum(r2 - _sample_sq_norms(k), 0.0, out=errors[rows, ci])
            k -= mean[..., None]
            dists[rows, ci] = _sample_sq_norms(k)

    _run_jobs([functools.partial(block_job, lo) for lo in range(0, n, step)])
    pl = predict(fidelity_probs(errors), centroid_probs(dists), model.hyper.gamma)
    return select(pl, model.hyper.delta)


def predict(fid: np.ndarray, cen: np.ndarray, gamma: float) -> PseudoLabels:
    """Convex combination of the two probability matrices; the label is the
    row argmax (ties go to the lowest class id)."""
    fid = np.asarray(fid, dtype=np.float64)
    cen = np.asarray(cen, dtype=np.float64)
    if fid.shape != cen.shape:
        raise ValueError(f"probability shapes differ: {fid.shape} vs {cen.shape}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    combined = gamma * fid + (1.0 - gamma) * cen
    labels = np.argmax(combined, axis=1) + 1  # argmax takes first on ties
    conf = combined[np.arange(combined.shape[0]), labels - 1]
    return PseudoLabels(
        labels=labels,
        combined_conf=conf,
        fidelity_probs=fid,
        centroid_probs=cen,
        selected=np.zeros(combined.shape[0], dtype=bool),
    )


def selection_count(n_samples: int, delta: float) -> int:
    """Number of samples admitted: delta * N rounded half-up."""
    return int(np.floor(delta * n_samples + 0.5))


def select(pl: PseudoLabels, delta: float) -> PseudoLabels:
    """Mark the top-confidence samples, globally ranked.

    Ties in confidence are broken by ascending sample index; the selection
    is global, not per class.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    k = selection_count(pl.n_samples, delta)
    order = np.argsort(-pl.combined_conf, kind="stable")
    mask = np.zeros(pl.n_samples, dtype=bool)
    mask[order[:k]] = True
    return replace(pl, selected=mask)
