"""Dense tensor primitives: mode products, mode Gram matrices and Tucker algebra.

Tensors are plain ``numpy.ndarray`` objects of float64. The canonical memory
layout is C order (row major): the first index varies slowest. The mode-``m``
flattening ``T_(m)`` is the matrix whose rows are the mode-``m`` fibers, with
the columns in the order that moving mode ``m`` to the front and reshaping
in C order gives. Modes are 0-based.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "mode_product",
    "mode_gram",
    "dict_apply",
    "dict_project",
    "frobenius_norm",
    "require_orthonormal",
]

ORTHO_TOL = 1e-8


def _count(value, name: str, low: int) -> int:
    """``value`` as an int; a fractional, non-finite or below-``low`` value is rejected."""
    if not (float(value).is_integer() and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _check_mode(t: np.ndarray, mode: int) -> None:
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")


def mode_product(t: np.ndarray, u: np.ndarray, mode: int, out=None) -> np.ndarray:
    """Multiply ``t`` along ``mode`` by the matrix ``u`` (acting on the left).

    The result's mode-``mode`` flattening is ``u @ T_(mode)``, computed on
    the C-order ``(lead, I_mode, trail)`` view of ``t``, so a contiguous
    ``t`` is neither flattened nor unflattened by copy. ``out``, when
    given, receives the result and is returned: it must be float64, have
    the result's shape and reshape to the result's C-order view without a
    copy, as a sample slice ``z[..., lo:hi]`` of a C-order array does; any
    other ``out`` raises ``ValueError``.
    """
    _check_mode(t, mode)
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != t.shape[mode]:
        raise ValueError(
            f"matrix of shape {u.shape} cannot act on mode {mode} with extent {t.shape[mode]}"
        )
    t = np.asarray(t, dtype=np.float64)
    lead, trail = math.prod(t.shape[:mode]), math.prod(t.shape[mode + 1 :])
    new_dims = t.shape[:mode] + (u.shape[0],) + t.shape[mode + 1 :]
    if mode == t.ndim - 1:
        a, b, view = t.reshape(lead, t.shape[mode]), u.T, (lead, u.shape[0])
    else:
        a, b, view = u, t.reshape(lead, t.shape[mode], trail), (lead, u.shape[0], trail)
    if out is None:
        return np.matmul(a, b).reshape(new_dims)
    if out.shape != new_dims or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {new_dims}")
    # ``copy=False`` (NumPy 2.1+) raises ValueError when the view would need a copy
    np.matmul(a, b, out=out.reshape(view, copy=False))
    return out


def mode_gram(t: np.ndarray, mode: int, other: np.ndarray | None = None) -> np.ndarray:
    """``T_(mode) O_(mode)^T`` for ``O = other`` (``t`` itself when None).

    Computed on the C-order ``(lead, I_mode, trail)`` views, as one product
    per leading index summed, so neither tensor is flattened by copy. An
    overflow is left for :func:`sdtdl.hooi.eig_sym_topk` to report.
    """
    _check_mode(t, mode)
    o = t if other is None else other
    if o.shape != t.shape:
        raise ValueError(f"shape {o.shape} does not match {t.shape}")
    lead, trail = math.prod(t.shape[:mode]), math.prod(t.shape[mode + 1 :])
    t3 = t.reshape(lead, t.shape[mode], trail)
    o3 = o.reshape(lead, t.shape[mode], trail)
    with np.errstate(over="ignore", invalid="ignore"):
        if lead == 1:
            return t3[0] @ o3[0].T
        if trail == 1:
            return t3[:, :, 0].T @ o3[:, :, 0]
        return np.matmul(t3, o3.transpose(0, 2, 1)).sum(axis=0)


def dict_apply(t: np.ndarray, factors, out=None) -> np.ndarray:
    """Apply ``factors[m]`` to mode ``m`` of ``t`` for each ``m`` below
    ``len(factors)``, folding :func:`mode_product` over the modes; the later
    modes (a sample mode) stay untouched. ``out`` receives the last product
    (see :func:`mode_product`), so a sample slice of a larger array can
    take the result in place."""
    if out is not None and not len(factors):
        raise ValueError("out receives the last product, and there is none")
    # ``t`` stays referenced until the fold ends: freeing it after the first
    # product made the benchmark's object setup 17% slower (2 vCPUs)
    res = t
    for m, u in enumerate(factors):
        res = mode_product(res, u, m, out if m == len(factors) - 1 else None)
    return res


def dict_project(t: np.ndarray, factors, modes=None) -> np.ndarray:
    """Project ``t`` onto ``factors``: apply ``factors[m].T`` to mode ``m``
    for each ``m`` in ``modes``, in that order (every mode below
    ``len(factors)`` from 0 on when None). With one factor per mode this is
    the Tucker core.

    The fold rebinds ``t``, so a temporary passed in (a sweep's sample-block
    copy) is freed after the first product; :func:`dict_apply` keeps its
    input, and a wrapper around a fold would hold it in its own frame."""
    for m in range(len(factors)) if modes is None else modes:
        t = mode_product(t, np.asarray(factors[m]).T, m)
    return t


def frobenius_norm(t: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(t).ravel()))


def require_orthonormal(mat: np.ndarray, name: str = "factor") -> np.ndarray:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[1] > mat.shape[0]:
        raise ValueError(f"{name} must be a tall matrix, got shape {mat.shape}")
    # written so that a NaN entry, or a product that overflows, fails the
    # check; the overflow is reported by this check, not by a warning
    with np.errstate(over="ignore", invalid="ignore"):
        off = np.max(np.abs(mat.T @ mat - np.eye(mat.shape[1])))
    if not off <= ORTHO_TOL:
        raise ValueError(f"{name} columns are not orthonormal within {ORTHO_TOL}")
    return mat
