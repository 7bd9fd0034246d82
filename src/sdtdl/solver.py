"""Structured discriminative tensor dictionary learning.

A structured dictionary holds a source-domain dictionary ``U_s``, a target
dictionary ``U_t`` and one class dictionary ``W_c`` per class, each a set of
per-mode orthonormal factor matrices. The alternating fit loop interleaves
pseudo-label prediction on the target set with block updates of the class
dictionaries (eigen update on the Phi-transformed stacked residuals), the
source dictionary and the target dictionary (both by warm-started HOOI).

Class-dictionary updates support two routes:

* ``"eigen-phi"`` (default): top eigenvectors of the Gram matrix of the
  Phi-weighted residual flattening, Phi as published. Each step maximizes
  the Phi-weighted core norm ``||W^T (Z x_N Phi)||^2``, which is not the
  written objective when the discriminant weight is nonzero; see
  :meth:`SampleOperator.quadratic_form` for the derivation of the exact
  form.
* ``"exact"``: same alternating scheme but with the quadratic form obtained
  by expanding the objective directly. Non-canonical, kept as a documented
  switch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hooi import eig_sym_topk, hooi, hosvd, moment_sweep, sweep
from .jobs import _one_blas_thread, _run_jobs
from .pseudolabel import predict_labels
from .tensor import (
    dict_apply,
    dict_project,
    frobenius_norm,
    mode_gram,
    # not called here: test_real_package_bindings_are_wrapped_and_restored wraps it
    mode_product,
    require_orthonormal,
)

__all__ = [
    "CLASS_UPDATES",
    "Hyperparams",
    "LabeledTensorSet",
    "SdtdlModel",
    "SdtdlCodes",
    "ClassSubproblem",
    "SampleOperator",
    "FitHistoryRow",
    "object_preset",
    "digit_preset",
    "class_means",
    "update_class_dict",
    "update_domain_source",
    "update_domain_target",
    "fit",
    "run_block_updates",
    "nearest_centroid_labels",
]


CLASS_UPDATES = ("eigen-phi", "exact")


def _count(value, name: str, low: int) -> int:
    """``value`` as an int; a fractional, non-finite or below-``low`` value is rejected."""
    if not (float(value).is_integer() and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


@dataclass
class Hyperparams:
    """Model hyperparameters.

    theta   weight of the target-domain fidelity term (> 0)
    lam     weight of the discriminant term (>= 0)
    gamma   mixing weight of fidelity vs centroid probabilities, in [0, 1]
    delta   ratio of target samples admitted into training, in (0, 1]
    ranks   per-mode dictionary ranks J_1..J_M
    """

    ranks: tuple
    theta: float = 20.0
    lam: float = 0.1
    gamma: float = 0.25
    delta: float = 0.8
    max_outer_iters: int = 10
    inner_sweeps: int = 20
    tol: float = 1e-6

    def __post_init__(self):
        self.ranks = tuple(_count(r, "ranks", 1) for r in self.ranks)
        self.max_outer_iters = _count(self.max_outer_iters, "max_outer_iters", 0)
        self.inner_sweeps = _count(self.inner_sweeps, "inner_sweeps", 1)
        if not 0 < self.theta < math.inf:
            raise ValueError("theta must be finite and > 0")
        if not 0 <= self.lam < math.inf:
            raise ValueError("lambda must be finite and >= 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")


def object_preset(**overrides) -> Hyperparams:
    """Grid-searched setting for the object-recognition features."""
    base = dict(ranks=(6, 6, 28), theta=20.0, lam=0.1, gamma=0.25, delta=0.8)
    base.update(overrides)
    return Hyperparams(**base)


def digit_preset(**overrides) -> Hyperparams:
    """Grid-searched setting for the digit-recognition features."""
    base = dict(ranks=(7, 7, 30), theta=10.0, lam=1.0, gamma=0.2, delta=0.8)
    base.update(overrides)
    return Hyperparams(**base)


def _gather(t: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The samples ``idx`` of ``t``, in C order. Indexing ``t[..., idx]``
    would put the sample axis outermost in memory, which makes every later
    mode product copy and every Gram product run on strided operands."""
    return np.take(t, idx, axis=-1)


@dataclass
class LabeledTensorSet:
    """A batch of order-M samples stacked along a trailing sample mode.

    ``labels`` are 1-based class ids, or ``None`` for an unlabeled set.
    """

    samples: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.samples.shape[-1],):
                raise ValueError("label count does not match sample count")
            if self.labels.size and self.labels.min() < 1:
                raise ValueError("labels must be 1-based positive integers")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[-1]

    def _labeled(self) -> np.ndarray:
        if self.labels is None:
            raise ValueError("set is unlabeled")
        return self.labels

    @property
    def class_count(self) -> int:
        """The largest label, or 0 for a set with no samples."""
        return int(self._labeled().max(initial=0))

    def class_indices(self, c: int) -> np.ndarray:
        return np.flatnonzero(self._labeled() == c)

    def class_samples(self, c: int) -> np.ndarray:
        return _gather(self.samples, self.class_indices(c))


@dataclass
class SdtdlModel:
    u_source: list | None  # M orthonormal factor matrices, None before initialization
    u_target: list | None  # M factor matrices, None before initialization
    w_class: list  # C lists of M factor matrices
    class_means_source: list  # C mean code tensors (ranks-shaped)
    hyper: Hyperparams

    @property
    def class_count(self) -> int:
        return len(self.w_class)

    def validate(self):
        for m, u in enumerate(self.u_source):
            require_orthonormal(u, name=f"u_source[{m}]")
        if self.u_target is not None:
            for m, u in enumerate(self.u_target):
                require_orthonormal(u, name=f"u_target[{m}]")
        for c, w in enumerate(self.w_class):
            for m, wm in enumerate(w):
                require_orthonormal(wm, name=f"w_class[{c}][{m}]")


@dataclass
class SdtdlCodes:
    """All coefficient tensors of one model state.

    ``a0``/``b0`` are domain codes aligned with source / selected-target
    sample order; ``a_class[c]``/``b_class[c]`` are class codes for the
    class-c samples in class-internal order.
    """

    a0: np.ndarray
    b0: np.ndarray
    a_class: list
    b_class: list


@dataclass
class ClassSubproblem:
    """The stacked residual of one class-dictionary update: the class's
    ``n_s`` source residuals, then its target residuals, along the last
    (sample) mode."""

    z: np.ndarray
    n_s: int


def class_means(codes: np.ndarray) -> np.ndarray:
    """Elementwise mean of the code tensors over the sample mode."""
    if codes.shape[-1] == 0:
        raise ValueError("cannot take class mean of an empty class")
    return codes.mean(axis=-1)


def _discriminant(codes: SdtdlCodes) -> float:
    """The unweighted discriminant term of the objective, from the class
    codes alone: each class's source codes against its target mean and its
    target codes against its source mean, over the classes with selected
    targets."""
    total = 0.0
    for ac, bc in zip(codes.a_class, codes.b_class):
        if bc.shape[-1]:
            total += float(np.sum((ac - class_means(bc)[..., None]) ** 2))
            total += float(np.sum((bc - class_means(ac)[..., None]) ** 2))
    return total


def _objective_from_norms(
    hyper: Hyperparams, codes: SdtdlCodes, fid_s: float, fid_t: float
) -> float:
    """The full learning objective, from the fidelities the domain updates
    returned and the class codes; no sample is reconstructed."""
    return fid_s + hyper.theta * fid_t + hyper.lam * _discriminant(codes)


@dataclass(frozen=True)
class SampleOperator:
    """A sample-mode operator on ``n_s`` source samples stacked before
    ``n_t`` target samples, kept in structured form.

    Entry ``(i, j)`` is ``scale[d(i)] * [i == j] + block[d(i)][d(j)]``, where
    ``d`` maps a sample to its domain (0 source, 1 target): a scaled identity
    on each domain's diagonal block plus one constant per block. Phi and Q
    both have this form, so :meth:`apply` costs a per-sample scale and a
    broadcast of the per-domain sample sums, ``O(N F)`` for ``N`` samples of
    ``F`` entries, where the dense ``N x N`` matrix costs ``O(N^2 F)``.
    """

    n_s: int
    scale: tuple  # (source, target)
    block: tuple  # ((source-source, source-target), (target-source, target-target))

    @classmethod
    def phi(cls, n_s: int, n_t: int, theta: float, lam: float) -> SampleOperator:
        """The published Phi: ``(1 - sqrt(lam)) I`` and ``(sqrt(theta) -
        sqrt(lam)) I`` on the source and target diagonal blocks, and
        ``sqrt(lam)/n_s`` and ``sqrt(lam)/n_t`` on the source-target and
        target-source blocks. Without targets only the source block is left."""
        sl = math.sqrt(lam)
        cross = (sl / n_s, sl / n_t) if n_t else (0.0, 0.0)
        return cls(n_s, (1.0 - sl, math.sqrt(theta) - sl), ((0.0, cross[0]), (cross[1], 0.0)))

    @classmethod
    def quadratic_form(cls, n_s: int, n_t: int, theta: float, lam: float) -> SampleOperator:
        """The exact sample-mode quadratic form Q of the class subproblem.

        Expanding the objective with projection codes A = [[X~; W^T]] and
        B = [[Y~; W^T]] gives  minimize -tr(V Q V^T)  over the stacked code
        matrix V, with

            Q = diag(I, theta I) - lam (E E^T + F F^T),
            E = [I; -(1/n_t) 1 1^T],  F = [-(1/n_s) 1 1^T; I].

        This generally differs from Phi^T Phi, which is why the published
        eigen update is not always optimal for the written objective.
        Without target samples Q is the identity."""
        if n_t == 0:
            return cls(n_s, (1.0, 1.0), ((0.0, 0.0), (0.0, 0.0)))
        cross = lam * (1.0 / n_s + 1.0 / n_t)
        return cls(
            n_s,
            (1.0 - lam, theta - lam),
            ((-lam * n_t / n_s**2, cross), (cross, -lam * n_s / n_t**2)),
        )

    def gram(self, n_t: int) -> SampleOperator:
        """``M^T M`` for this operator ``M`` and ``n_t`` target samples: the
        scales ``a`` square, and block ``(d, e)`` becomes ``a_d b_de + a_e
        b_ed + sum_f n_f b_fd b_fe`` for the domain sizes ``n``."""
        a, b = np.array(self.scale), np.array(self.block)
        n = np.array([self.n_s, n_t], dtype=np.float64)
        ab = a[:, None] * b
        c = ab + ab.T + b.T @ (n[:, None] * b)
        return SampleOperator(self.n_s, tuple(a**2), tuple(map(tuple, c)))

    def moment(self, z: np.ndarray) -> np.ndarray:
        """``Z M Z^T`` for the flattening ``Z`` of ``z`` (feature entries by
        samples) and this operator ``M``, symmetric: ``sum_d a_d Z_d Z_d^T``
        on each domain's columns in place, plus the block constants times
        the outer products of the domain sample sums. ``z`` is not copied;
        an overflow is left for :func:`sdtdl.hooi.eig_sym_topk` to report."""
        flat = z.reshape(math.prod(z.shape[:-1]), z.shape[-1])
        domains = (slice(None, self.n_s), slice(self.n_s, None))
        with np.errstate(over="ignore", invalid="ignore"):
            sums = np.stack([flat[:, cols].sum(axis=1) for cols in domains], axis=1)
            g = sums @ np.array(self.block) @ sums.T
            for scale, cols in zip(self.scale, domains):
                part = flat[:, cols]
                g += scale * (part @ part.T)
        return g

    def apply(self, z: np.ndarray) -> np.ndarray:
        """``z x_N M``: the operator acting on the last (sample) mode of ``z``."""
        flat = z.reshape(math.prod(z.shape[:-1]), z.shape[-1])
        domains = (slice(None, self.n_s), slice(self.n_s, None))
        sums = [flat[:, cols].sum(axis=1) for cols in domains]
        res = np.empty_like(flat)
        for (b_s, b_t), scale, cols in zip(self.block, self.scale, domains):
            np.multiply(scale, flat[:, cols], out=res[:, cols])
            res[:, cols] += (b_s * sums[0] + b_t * sums[1])[:, None]
        return res.reshape(z.shape)


def _mode_form(h, m, quad):
    """Symmetric mode-``m`` matrix whose top eigenvectors maximize the route's
    form: the Gram matrix of ``h``'s mode-``m`` flattening, or with ``quad``
    on the sample mode, ``H_(m) (I kron Q) H_(m)^T`` symmetrized."""
    if quad is None:
        return mode_gram(h, m)
    s = mode_gram(h, m, quad.apply(h))
    return 0.5 * (s + s.T)


def update_class_dict(
    sub: ClassSubproblem,
    ranks,
    inner_sweeps: int,
    method: str,
    theta: float,
    lam: float,
    w_init=None,
):
    """Solve one class-dictionary subproblem by ``inner_sweeps`` alternating
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
    if math.prod(z.shape[:-1]) <= z.shape[-1]:
        g = (op.gram(n_t) if method == "eigen-phi" else op).moment(z)
        if w is None:
            w = hosvd(z, ranks, skip_last=True, moment=g)
        for _ in range(inner_sweeps):
            moment_sweep(g, z.shape[:-1], w, ranks)
    else:
        quad = op if method == "exact" else None
        swept = z if method == "exact" else op.apply(z)
        form = functools.partial(_mode_form, quad=quad)
        if w is None:
            w = [eig_sym_topk(form(swept, m), r)[1] for m, r in enumerate(ranks)]
        for _ in range(inner_sweeps):
            sweep(swept, w, ranks, form)
        del swept
    k = dict_project(z, w)
    # each domain's codes in an array of its own, C-contiguous, as later
    # products expect of a class's codes
    return w, np.ascontiguousarray(k[..., :n_s]), np.ascontiguousarray(k[..., n_s:])


def _class_stack(source, selected, c: int, model, codes) -> ClassSubproblem:
    """Class ``c``'s source residuals, then its selected targets' residuals,
    in one array along the sample mode: each domain's samples are gathered
    into that domain's columns, and their domain-dictionary reconstruction
    is subtracted in place."""
    # the gathered copy is freed before the reconstruction is formed.
    # Writing the difference of the two into the columns saved 2 ms per
    # wide-n block pass, but with two class jobs live at once it raised
    # exact-n's peak RSS from 103 to 112 MiB (benchmark medians, 2 vCPUs).
    domains = [
        (source, codes.a0, model.u_source),
        (selected, codes.b0, model.u_target),
    ]
    idx = [tensor_set.class_indices(c) for tensor_set, _, _ in domains]
    z = np.empty(source.samples.shape[:-1] + (idx[0].size + idx[1].size,))
    lo = 0
    for (tensor_set, domain_codes, factors), i in zip(domains, idx):
        cols = z[..., lo : lo + i.size]
        cols[...] = _gather(tensor_set.samples, i)
        cols -= dict_apply(_gather(domain_codes, i), factors)
        lo += i.size
    return ClassSubproblem(z, idx[0].size)


def _class_residuals(tensor_set: LabeledTensorSet, codes_by_class, dicts_by_class):
    """Samples minus their class-dictionary reconstruction, in set order.

    Each class's reconstruction fills one run of a class-ordered buffer,
    which a gather by the inverse of the stable label sort puts back in set
    order in place, one leading-mode slice at a time: no strided scatter
    into the sample mode, and no second set-sized array.
    """
    counts = np.bincount(tensor_set.labels, minlength=len(dicts_by_class) + 1)[1:]
    rec = np.empty_like(tensor_set.samples)
    lo = 0
    for n, k, w in zip(counts, codes_by_class, dicts_by_class):
        if n:
            rec[..., lo : lo + n] = dict_apply(k, w)
            lo += n
    inverse = np.argsort(np.argsort(tensor_set.labels, kind="stable"))
    for part in rec:
        part[...] = np.take(part, inverse, axis=-1)
    return np.subtract(tensor_set.samples, rec, out=rec)


def _hooi_dict(samples: np.ndarray, hyper: Hyperparams, factors):
    """HOOI on ``samples`` with the sample mode kept: warm-started from
    ``factors``, or from HOSVD when there are none yet.

    Returns the factors, the codes of the samples under them, and the
    squared error of the samples' reconstruction from those codes. The
    factors are orthonormal and the codes are the projection of the
    samples, so that error is ``||samples||^2 - ||codes||^2``, clamped at
    zero against cancellation. A norm that overflows raises
    ``FloatingPointError``, without a warning.
    """
    res = hooi(
        samples,
        hyper.ranks,
        skip_last=True,
        max_sweeps=hyper.inner_sweeps,
        tol=hyper.tol,
        init_factors=factors,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        error = max(frobenius_norm(samples) ** 2 - frobenius_norm(res.core) ** 2, 0.0)
    if not math.isfinite(error):
        raise FloatingPointError("a squared residual norm is not finite")
    return list(res.factors), res.core, error


def update_domain_source(source: LabeledTensorSet, model: SdtdlModel, codes: SdtdlCodes):
    """Refresh the source dictionary on the class-residual tensor via HOOI,
    warm-started from the current factors; cold before there are any.

    Returns ``(u_source, a0, fidelity)``: the factors, the source domain
    codes and the source fidelity term of the objective under them.
    """
    resid = _class_residuals(source, codes.a_class, model.w_class)
    return _hooi_dict(resid, model.hyper, model.u_source)


def update_domain_target(target_selected: LabeledTensorSet, model: SdtdlModel, codes: SdtdlCodes):
    """Target-side analogue of :func:`update_domain_source`. The target
    weight scales the subproblem uniformly, so the same HOOI solves it; the
    returned fidelity is not yet weighted by ``theta``."""
    resid = _class_residuals(target_selected, codes.b_class, model.w_class)
    return _hooi_dict(resid, model.hyper, model.u_target)


@dataclass
class FitHistoryRow:
    iteration: int
    objective: float  # NaN on the final, prediction-only row
    n_selected: int
    accuracy: float  # NaN when no ground truth was supplied


def _refresh_means(model: SdtdlModel, codes: SdtdlCodes) -> None:
    """Set the model's source class means, the ones prediction reads, from
    the source class codes."""
    model.class_means_source = [class_means(k) for k in codes.a_class]


def _selected_set(target: LabeledTensorSet, pl) -> LabeledTensorSet:
    """The selected targets, labeled."""
    idx = np.flatnonzero(pl.selected)
    return LabeledTensorSet(samples=_gather(target.samples, idx), labels=pl.labels[idx])


def _check_sample_dims(source: LabeledTensorSet, target: LabeledTensorSet) -> None:
    if source.samples.shape[:-1] != target.samples.shape[:-1]:
        raise ValueError("source and target sample dims differ")


def _source_class_count(source: LabeledTensorSet) -> int:
    """The class count, the source's largest label. The source must be
    labeled and hold a sample of every class up to it."""
    C = source.class_count
    if C == 0:
        raise ValueError("source has no samples")
    counts = np.bincount(source.labels)[1:]
    if not counts.all():
        raise ValueError(f"source class {np.argmin(counts) + 1} has no samples")
    return C


def _accuracy(labels, truth) -> float:
    return float("nan") if truth is None else float(np.mean(labels == truth))


@_one_blas_thread()
def fit(
    source: LabeledTensorSet,
    target: LabeledTensorSet,
    hyper: Hyperparams,
    truth=None,
    class_update: str = CLASS_UPDATES[0],
):
    """Run the full alternating procedure.

    Initialization: (1) each class dictionary by HOOI on its raw source
    samples, class codes, then the source dictionary by HOOI on the
    residuals; (2) target labels predicted with the target-dictionary
    contribution zeroed; (3) the target dictionary by HOOI on the residuals
    of the selected targets. The loop then predicts labels, selects samples,
    and updates class dictionaries, target dictionary and source dictionary,
    stopping when the pseudo-labels stop changing or after
    ``max_outer_iters`` iterations.

    Returns ``(model, pseudo_labels, history)``; ``truth``, one label per
    target sample, is used for accuracy reporting only. The class count is
    the source's largest label, and every class up to it must have source
    samples. Every argument is checked before any HOOI sweep. Each history
    objective is read from the norms of the residuals and codes of the
    domain updates that precede it, not by reconstructing the samples.
    After at least one outer iteration the last history row records the
    final prediction pass alone, and its objective is NaN.

    The call holds BLAS at one thread, process-wide, and gives the caller's
    count back on return or raise (:func:`sdtdl.jobs._one_blas_thread`).
    The per-class work of init step 1 and of each block pass runs on
    :func:`sdtdl.jobs._class_workers` threads, one per core. A prediction
    pass reads no source-dictionary state, so each source-dictionary update
    runs beside
    the pass that follows it, the pass on the one extra thread when
    ``_class_workers`` gives two: init step 1's update beside the pass of
    init step 2, and each block pass's update beside the next loop pass,
    or beside the final pass when the loop runs out. Each pair is joined
    before the next class update, history row or return. A pass beside a
    source update runs its sample blocks on its own thread; the first loop
    pass, which runs alone, spreads them over the pool
    (:func:`sdtdl.pseudolabel.predict_labels`). The outputs do not depend
    on the thread count.
    """
    if class_update not in CLASS_UPDATES:
        raise ValueError(f"unknown class-update method: {class_update}")
    _check_sample_dims(source, target)
    if target.n_samples == 0:
        raise ValueError("target has no samples")
    if truth is not None and np.shape(truth) != (target.n_samples,):
        raise ValueError("truth must hold one label per target sample")
    C = _source_class_count(source)

    def history_row(iteration, pl, objective_value):
        return FitHistoryRow(
            iteration, objective_value, int(np.sum(pl.selected)), _accuracy(pl.labels, truth)
        )

    def predict():
        return predict_labels(target, model)

    # --- init step 1: class dictionaries from raw class samples, then U_s
    def init_class(c):
        return _hooi_dict(source.class_samples(c), hyper, None)

    w_class, a_class, _ = zip(
        *_run_jobs([functools.partial(init_class, c) for c in range(1, C + 1)])
    )
    model = SdtdlModel(
        u_source=None,
        u_target=None,
        w_class=list(w_class),
        class_means_source=[],
        hyper=hyper,
    )
    # no target is selected yet; the domain codes come from the HOOI calls
    # below, the target class codes from init step 3
    codes = SdtdlCodes(a0=None, b0=None, a_class=list(a_class), b_class=None)
    _refresh_means(model, codes)

    # --- init step 2: predict target labels with the U_t contribution
    # zeroed; the pass reads no source-dictionary state, so it runs beside
    # the source update of step 1
    (model.u_source, codes.a0, fid_s), pl = _run_jobs(
        [functools.partial(update_domain_source, source, model, codes), predict]
    )

    # --- init step 3: target dictionary from the selected residuals
    selected = _selected_set(target, pl)
    codes.b_class = [
        dict_project(selected.class_samples(c), model.w_class[c - 1]) for c in range(1, C + 1)
    ]
    model.u_target, codes.b0, fid_t = update_domain_target(selected, model, codes)
    # no later step reads this selection; freed here, it is not held through
    # the prediction passes, which set the fit's peak memory
    del selected

    history = [history_row(0, pl, _objective_from_norms(hyper, codes, fid_s, fid_t))]
    if hyper.max_outer_iters == 0:
        return model, pl, history

    prev_labels, pl = pl.labels, predict()
    for it in range(1, hyper.max_outer_iters + 1):
        if it > 1 and np.array_equal(pl.labels, prev_labels):
            break  # the model is unchanged since this pass: its labels are final
        prev_labels = pl.labels
        # the pass after this block pass runs beside its source update; when
        # the loop runs out it is the final pass, with the final model, so a
        # later standalone predict reproduces the fit output
        after = []
        value = run_block_updates(
            source,
            _selected_set(target, pl),
            model,
            codes,
            class_update,
            _beside=lambda: after.append(predict()),
        )
        history.append(history_row(it, pl, value))
        pl = after[0]
    # the final row records the prediction pass only: no objective is computed
    history.append(history_row(history[-1].iteration + 1, pl, float("nan")))
    return model, pl, history


def nearest_centroid_labels(source: LabeledTensorSet, target: LabeledTensorSet) -> np.ndarray:
    """No-adaptation baseline: each target sample gets the class of the
    nearest source class centroid in raw tensor space. Source and target
    samples must have the same dims, and every source class up to the
    largest label must have samples, as :func:`fit` requires."""
    _check_sample_dims(source, target)
    C = _source_class_count(source)
    y = target.samples
    centroids = np.stack(
        [source.class_samples(c).mean(axis=-1).ravel() for c in range(1, C + 1)]
    )
    flat = y.reshape(math.prod(y.shape[:-1]), y.shape[-1]).T
    d2 = (
        np.sum(flat**2, axis=1, keepdims=True)
        - 2.0 * flat @ centroids.T
        + np.sum(centroids**2, axis=1)
    )
    return np.argmin(d2, axis=1) + 1


def run_block_updates(
    source: LabeledTensorSet,
    selected: LabeledTensorSet,
    model: SdtdlModel,
    codes: SdtdlCodes,
    class_update: str = CLASS_UPDATES[0],
    *,
    _beside=None,
) -> float:
    """One full pass of class-dictionary and domain-dictionary updates,
    mutating ``model`` and ``codes`` in place. Pseudo-labels are taken as
    fixed (they are baked into ``selected``). Returns the objective after
    the pass, read from the norms the domain updates formed.

    The target dictionary is updated before the source dictionary: neither
    update reads what the other writes. ``_beside`` is for :func:`fit`
    alone: a job that reads no source-dictionary state, run beside the
    source update (:func:`_run_jobs`) and joined before the return."""
    hyper = model.hyper

    def class_job(c):
        return update_class_dict(
            _class_stack(source, selected, c, model, codes),
            hyper.ranks,
            hyper.inner_sweeps,
            method=class_update,
            theta=hyper.theta,
            lam=hyper.lam,
            w_init=model.w_class[c - 1],
        )

    # the class jobs read only the domain parts, so the model and the codes
    # are written after every job has returned
    model.w_class[:], codes.a_class[:], codes.b_class[:] = zip(
        *_run_jobs([functools.partial(class_job, c) for c in range(1, model.class_count + 1)])
    )
    _refresh_means(model, codes)

    model.u_target, codes.b0, fid_t = update_domain_target(selected, model, codes)
    jobs = [functools.partial(update_domain_source, source, model, codes)]
    if _beside is not None:
        jobs.append(_beside)
    model.u_source, codes.a0, fid_s = _run_jobs(jobs)[0]
    return _objective_from_norms(hyper, codes, fid_s, fid_t)
