"""Dense tensor primitives: mode flattening, mode products and Tucker algebra.

Tensors are plain ``numpy.ndarray`` objects of float64. The canonical memory
layout is C order (row major): the first index varies slowest. Mode-``m``
flattening moves mode ``m`` to the front and reshapes in C order, so the
column ordering of the flattening is induced by the canonical layout and is
consistent across flatten/unflatten/product. Modes are 0-based.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "mode_flatten",
    "mode_unflatten",
    "mode_product",
    "mode_gram",
    "multi_product",
    "multi_product_skip",
    "dict_apply",
    "dict_project",
    "core_of",
    "stack_last",
    "frobenius_norm",
    "require_orthonormal",
]

ORTHO_TOL = 1e-8


def _check_mode(t: np.ndarray, mode: int) -> None:
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")


def mode_flatten(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` flattening: an ``I_m x prod(other dims)`` matrix whose
    rows are the mode-``mode`` fibers of ``t``."""
    _check_mode(t, mode)
    rest = math.prod(t.shape[:mode] + t.shape[mode + 1 :])
    return np.moveaxis(t, mode, 0).reshape(t.shape[mode], rest)


def mode_unflatten(mat: np.ndarray, mode: int, dims) -> np.ndarray:
    """Inverse of :func:`mode_flatten` for a tensor with extents ``dims``."""
    dims = tuple(int(d) for d in dims)
    if not 0 <= mode < len(dims):
        raise ValueError(f"mode {mode} out of range for order-{len(dims)} tensor")
    mat = np.asarray(mat, dtype=np.float64)
    rest = [d for k, d in enumerate(dims) if k != mode]
    expected = (dims[mode], int(np.prod(rest, dtype=np.int64)))
    if mat.shape != expected:
        raise ValueError(f"matrix shape {mat.shape} does not match expected {expected}")
    return np.ascontiguousarray(np.moveaxis(mat.reshape([dims[mode]] + rest), 0, mode))


def mode_product(t: np.ndarray, u: np.ndarray, mode: int) -> np.ndarray:
    """Multiply ``t`` along ``mode`` by the matrix ``u`` (acting on the left).

    Equal to unflattening ``u @ mode_flatten(t, mode)``, but computed on the
    C-order ``(prod(dims[:mode]), I_mode, prod(dims[mode+1:]))`` view of
    ``t``, so a contiguous ``t`` is neither flattened nor unflattened by copy.
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
        out = t.reshape(lead, t.shape[mode]) @ u.T
    else:
        out = u @ t.reshape(lead, t.shape[mode], trail)
    return out.reshape(new_dims)


def mode_gram(t: np.ndarray, mode: int, other: np.ndarray | None = None) -> np.ndarray:
    """``T_(mode) O_(mode)^T`` for ``O = other`` (``t`` itself when None).

    Equal to ``mode_flatten(t, mode) @ mode_flatten(other, mode).T``, but
    computed on the C-order ``(lead, I_mode, trail)`` views, as one product
    per leading index summed, so neither tensor is flattened by copy.
    """
    _check_mode(t, mode)
    o = t if other is None else other
    if o.shape != t.shape:
        raise ValueError(f"shape {o.shape} does not match {t.shape}")
    lead, trail = math.prod(t.shape[:mode]), math.prod(t.shape[mode + 1 :])
    t3 = t.reshape(lead, t.shape[mode], trail)
    o3 = o.reshape(lead, t.shape[mode], trail)
    if lead == 1:
        return t3[0] @ o3[0].T
    if trail == 1:
        return t3[:, :, 0].T @ o3[:, :, 0]
    return np.matmul(t3, o3.transpose(0, 2, 1)).sum(axis=0)


def multi_product(t: np.ndarray, factors) -> np.ndarray:
    """Apply one matrix per mode, folding :func:`mode_product` over modes; a
    ``None`` factor leaves its mode untouched."""
    if len(factors) != t.ndim:
        raise ValueError(f"expected {t.ndim} factors, got {len(factors)}")
    for m, u in enumerate(factors):
        if u is not None:
            t = mode_product(t, u, m)
    return t


def multi_product_skip(t: np.ndarray, factors, skip: int) -> np.ndarray:
    """Like :func:`multi_product` but leave mode ``skip`` untouched.

    ``factors[skip]`` is ignored and may be ``None``.
    """
    _check_mode(t, skip)
    return multi_product(t, [None if m == skip else u for m, u in enumerate(factors)])


def dict_apply(codes: np.ndarray, factors) -> np.ndarray:
    """Sample tensors from codes: ``factors`` act on the leading modes, and the
    last (sample) mode is left untouched."""
    return multi_product_skip(codes, list(factors) + [None], skip=codes.ndim - 1)


def dict_project(samples: np.ndarray, factors) -> np.ndarray:
    """Codes of samples: the transposed ``factors`` act on the leading modes,
    and the last (sample) mode is left untouched."""
    return multi_product_skip(samples, [f.T for f in factors] + [None], skip=samples.ndim - 1)


def core_of(t: np.ndarray, factors) -> np.ndarray:
    """Project ``t`` onto the factor matrices: the core is ``t`` multiplied by
    each transposed factor."""
    return multi_product(t, [np.asarray(u).T for u in factors])


def stack_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Concatenate two tensors along the last (sample) mode."""
    if a.ndim != b.ndim or a.shape[:-1] != b.shape[:-1]:
        raise ValueError(f"leading dims mismatch: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=-1)


def frobenius_norm(t: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(t).ravel()))


def require_orthonormal(mat: np.ndarray, tol: float = ORTHO_TOL, name: str = "factor") -> np.ndarray:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[1] > mat.shape[0]:
        raise ValueError(f"{name} must be a tall matrix, got shape {mat.shape}")
    # written so that a NaN entry fails the check
    if not np.max(np.abs(mat.T @ mat - np.eye(mat.shape[1]))) <= tol:
        raise ValueError(f"{name} columns are not orthonormal within {tol}")
    return mat
