"""Dense reference implementations that the tests compare the package with.

The package computes each of these quantities another way: the objective
from norms its updates already form, Phi and Q as structured sample-mode
operators, mode products and Gram matrices on C-order views instead of
flattened copies, class residuals through a class-ordered buffer instead
of a scatter. These direct forms are what that arithmetic is checked
against, a HOOI sweep that projects the tensor for every mode is what
the sweep on the leading modes' moment is checked against, and the class
update with a loop of its own is what the class update through ``hooi``
is checked against. The
mode-``m`` flattening is the unfolding of Kolda & Bader
(SIAM Review 2009), with the column order induced by C-order layout.
"""

import functools
import math
import struct

import numpy as np

from sdtdl.hooi import (
    _sample_blocks,
    eig_sym_topk,
    hosvd,
    moment_sweep,
    sweep,
    takes_moment,
)
from sdtdl.solver import (
    ClassSubproblem,
    LabeledTensorSet,
    SampleOperator,
    SdtdlCodes,
    SdtdlModel,
    _discriminant,
    _gather,
    _mode_form,
    _refresh_means,
)
from sdtdl.tensor import (
    _check_mode,
    dict_apply,
    dict_project,
    frobenius_norm,
    mode_gram,
    mode_product,
)


def tensor_to_bytes(t) -> bytes:
    """A tensor file's bytes, from the layout in :mod:`sdtdl.dataio`'s
    docstring: magic ``b"STDL"``, version 1 and the order as uint16, each
    dim as uint64, then the float64 payload in C order, all little-endian."""
    t = np.asarray(t, dtype=np.float64)
    head = b"STDL" + struct.pack("<HH", 1, t.ndim)
    head += b"".join(struct.pack("<Q", d) for d in t.shape)
    return head + t.astype("<f8").tobytes(order="C")


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


def stack_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Concatenate two tensors along the last (sample) mode."""
    if a.ndim != b.ndim or a.shape[:-1] != b.shape[:-1]:
        raise ValueError(f"leading dims mismatch: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=-1)


def class_subproblem(x: np.ndarray, y: np.ndarray) -> ClassSubproblem:
    """The class subproblem of source residuals ``x`` and target residuals ``y``."""
    return ClassSubproblem(stack_last(x, y), x.shape[-1])


def domain_residual(tensor_set: LabeledTensorSet, c: int, domain_codes, factors):
    """Class-``c`` samples minus their domain-dictionary reconstruction."""
    idx = tensor_set.class_indices(c)
    return _gather(tensor_set.samples, idx) - dict_apply(_gather(domain_codes, idx), factors)


def selected_set(target: LabeledTensorSet, pl) -> LabeledTensorSet:
    """The selected targets of ``pl``, labeled, copied into a set of their
    own. ``fit`` reads them in place from ``target``; this copy is what the
    oracles that read ``selected.samples`` take."""
    idx = np.flatnonzero(pl.selected)
    return LabeledTensorSet(samples=_gather(target.samples, idx), labels=pl.labels[idx])


def copied(selection) -> LabeledTensorSet:
    """A selection that ``fit`` reads in place, as a set of its own."""
    return LabeledTensorSet(_gather(selection.samples, selection.columns), selection.labels)


def class_residuals(tensor_set: LabeledTensorSet, codes_by_class, dicts_by_class):
    """Samples minus their class-dictionary reconstruction, in set order,
    each class's residual scattered into the set's sample mode."""
    out = np.zeros_like(tensor_set.samples)
    for c in range(1, len(dicts_by_class) + 1):
        idx = tensor_set.class_indices(c)
        if idx.size == 0:
            continue
        rec = dict_apply(codes_by_class[c - 1], dicts_by_class[c - 1])
        out[..., idx] = _gather(tensor_set.samples, idx) - rec
    return out


def objective(
    model: SdtdlModel,
    source: LabeledTensorSet,
    target_selected: LabeledTensorSet,
    codes: SdtdlCodes,
) -> float:
    """Value of the full learning objective.

    Sum over classes of source fidelity, theta-weighted target fidelity, and
    the lambda-weighted discriminant term. The discriminant term pairs source
    codes with the target class mean and vice versa (the published cross
    pairing). Classes with no selected target samples contribute fidelity
    only. ``fit`` reads this value from norms its updates already form; this
    reconstruction of every sample is the reference it is tested against.
    """
    hp = model.hyper
    total = hp.lam * _discriminant(codes)
    for c in range(1, model.class_count + 1):
        w = model.w_class[c - 1]
        src_idx = source.class_indices(c)
        xc = source.samples[..., src_idx]
        a0c = codes.a0[..., src_idx]
        ac = codes.a_class[c - 1]
        rec_s = dict_apply(a0c, model.u_source) + dict_apply(ac, w)
        total += frobenius_norm(xc - rec_s) ** 2

        tgt_idx = target_selected.class_indices(c)
        bc = codes.b_class[c - 1]
        if tgt_idx.size:
            yc = target_selected.samples[..., tgt_idx]
            b0c = codes.b0[..., tgt_idx]
            rec_t = dict_apply(b0c, model.u_target) + dict_apply(bc, w)
            total += hp.theta * frobenius_norm(yc - rec_t) ** 2
    return float(total)


def build_phi(n_s: int, n_t: int, theta: float, lam: float) -> np.ndarray:
    """The sample-mode weighting matrix of the class-dictionary eigen update.

    Blocks, in order: (1-sqrt(lam)) I on the source diagonal,
    sqrt(lam)/n_s ones on the top-right, sqrt(lam)/n_t ones on the
    bottom-left, and (sqrt(theta)-sqrt(lam)) I on the target diagonal.
    With ``n_t == 0`` the matrix degrades to the source block alone.
    ``fit`` applies Phi as :meth:`SampleOperator.phi`; this dense form is
    its reference.
    """
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    if n_t < 0:
        raise ValueError("n_t must be >= 0")
    sl = math.sqrt(lam)
    st = math.sqrt(theta)
    phi = np.zeros((n_s + n_t, n_s + n_t))
    phi[:n_s, :n_s] = (1.0 - sl) * np.eye(n_s)
    if n_t:
        phi[:n_s, n_s:] = sl / n_s
        phi[n_s:, :n_s] = sl / n_t
        phi[n_s:, n_s:] = (st - sl) * np.eye(n_t)
    return phi


def class_update_quadratic_form(n_s: int, n_t: int, theta: float, lam: float) -> np.ndarray:
    """Dense form of the exact quadratic form Q of the class subproblem;
    :meth:`sdtdl.solver.SampleOperator.quadratic_form` derives Q and applies
    it in structured form, and is tested against this matrix.
    """
    if n_t == 0:
        return np.eye(n_s)
    n = n_s + n_t
    q = np.zeros((n, n))
    q[:n_s, :n_s] = (1.0 - lam) * np.eye(n_s) - lam * n_t / n_s**2
    q[n_s:, n_s:] = (theta - lam) * np.eye(n_t) - lam * n_s / n_t**2
    q[:n_s, n_s:] = lam * (1.0 / n_s + 1.0 / n_t)
    q[n_s:, :n_s] = lam * (1.0 / n_s + 1.0 / n_t)
    return q


def compute_codes(
    model: SdtdlModel, source: LabeledTensorSet, target_selected: LabeledTensorSet
) -> SdtdlCodes:
    """Coefficient tensors consistent with the current dictionaries.

    Domain codes are the projections of the raw samples; class codes are
    projections of the domain residuals onto the class dictionaries. Also
    refreshes the model's class means.
    """
    a0 = dict_project(source.samples, model.u_source)
    b0 = dict_project(target_selected.samples, model.u_target)
    a_class, b_class = [], []
    for c in range(1, model.class_count + 1):
        x_tilde = domain_residual(source, c, a0, model.u_source)
        a_class.append(dict_project(x_tilde, model.w_class[c - 1]))
        y_tilde = domain_residual(target_selected, c, b0, model.u_target)
        b_class.append(dict_project(y_tilde, model.w_class[c - 1]))
    codes = SdtdlCodes(a0=a0, b0=b0, a_class=a_class, b_class=b_class)
    _refresh_means(model, codes)
    return codes


def suffix_sweep(t: np.ndarray, factors: list, ranks, form=mode_gram):
    """:func:`sdtdl.hooi.sweep` by suffix products, with no moment step.

    The suffix projections ``t x_{k > m} U_k^T`` are built once, from the
    back, and each is released once its mode has used it; mode ``m`` then
    adds only its ``m`` products by the updated factors, ``(M-1) + M(M-1)/2``
    mode products over ``M`` factors. The last mode takes the same sample
    blocks as the package's sweep. Returns the last mode's top
    eigenvalues, as that sweep does."""
    last = len(factors) - 1
    blocks = _sample_blocks(t, ranks) if form is mode_gram else [slice(None)]
    suffix = [t]
    for k in range(last, 0, -1):
        suffix.append(mode_product(suffix[-1], factors[k].T, k))
    for m in range(last + 1):
        h = suffix.pop()
        if m == last and len(blocks) > 1:
            s = sum(
                mode_gram(dict_project(np.ascontiguousarray(t[..., c]), factors[:m]), m)
                for c in blocks
            )
        else:
            s = form(dict_project(h, factors[:m]), m)
        vals, factors[m] = eig_sym_topk(s, ranks[m])
    return vals


def class_update(
    sub: ClassSubproblem,
    ranks,
    inner_sweeps: int,
    method: str,
    theta: float,
    lam: float,
    w_init=None,
):
    """:func:`sdtdl.solver.update_class_dict` as written before it became
    one :func:`sdtdl.hooi.hooi` call, with its own path choice, cold start
    and sweep loop. Its docstring as it was:

    Solve one class-dictionary subproblem by ``inner_sweeps`` alternating
    per-mode eigen updates on the stacked residual.

    Returns ``(w_c, a_c, b_c)``: the updated factor matrices and the class
    codes of the source / target residuals under them, both taken from one
    projection of the stack. ``method`` selects the sample-mode operator,
    built from ``theta`` and ``lam`` in structured form
    (:class:`SampleOperator`): ``"eigen-phi"`` maximizes the core norm of
    the Phi-weighted stack, whose per-mode forms put ``Phi^T Phi`` on the
    sample mode; ``"exact"`` puts the quadratic form Q there.

    With at least as many samples as feature entries, every sweep runs on
    the stack's sample moment under that operator, formed once
    (:func:`sdtdl.hooi.moment_sweep`). Otherwise each is
    :func:`sdtdl.hooi.sweep`, on a Phi-weighted copy of the stack or on the
    stack itself with Q on the sample mode.

    Without ``w_init`` each mode starts from the top eigenvectors of its
    form on the uncompressed tensor: the HOSVD of the Phi-weighted stack on
    the Phi route, and of ``Z_(m) (I kron Q) Z_(m)^T`` on the exact route.
    With ``Q = Phi^T Phi`` the two starts coincide.
    """
    z, n_s = sub.z, sub.n_s
    n_t = z.shape[-1] - n_s
    ranks = [int(r) for r in ranks]
    if method == "eigen-phi":
        op = SampleOperator.phi(n_s, n_t, theta, lam)
    elif method == "exact":
        op = SampleOperator.quadratic_form(n_s, n_t, theta, lam)
    else:
        raise ValueError(f"unknown class-update method: {method}")
    w = None if w_init is None else [np.asarray(u, dtype=np.float64) for u in w_init]
    if takes_moment(z, z.ndim - 1):
        g = (op.gram(n_t) if method == "eigen-phi" else op).moment(z)
        if w is None:
            w = hosvd(z, ranks, skip_last=True, moment=g)
        for _ in range(inner_sweeps):
            moment_sweep(g, z.shape[:-1], w, ranks)
    else:
        if method == "exact":
            swept, form = z, functools.partial(_mode_form, quad=op)
        else:
            # the plain Gram form, which sweep may sum over sample blocks
            swept, form = op.apply(z), mode_gram
        if w is None:
            w = [eig_sym_topk(form(swept, m), r)[1] for m, r in enumerate(ranks)]
        for _ in range(inner_sweeps):
            sweep(swept, w, ranks, form)
        del swept
    k = dict_project(z, w)
    # each domain's codes in an array of its own, C-contiguous, as later
    # products expect of a class's codes
    return w, np.ascontiguousarray(k[..., :n_s]), np.ascontiguousarray(k[..., n_s:])
