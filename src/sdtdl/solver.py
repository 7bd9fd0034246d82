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

from .hooi import eig_sym_topk, hooi, sweep
from .jobs import _run_jobs
from .pseudolabel import predict_labels
from .tensor import (
    dict_apply,
    dict_project,
    frobenius_norm,
    mode_gram,
    # not called here: test_real_package_bindings_are_wrapped_and_restored wraps it
    mode_product,
    require_orthonormal,
    stack_last,
)

__all__ = [
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
    class_count: int
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.samples.shape[-1],):
                raise ValueError("label count does not match sample count")
            if self.labels.size and (
                self.labels.min() < 1 or self.labels.max() > self.class_count
            ):
                raise ValueError(f"labels must lie in 1..{self.class_count}")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[-1]

    @property
    def order(self) -> int:
        return self.samples.ndim - 1

    def class_indices(self, c: int) -> np.ndarray:
        if self.labels is None:
            raise ValueError("set is unlabeled")
        return np.flatnonzero(self.labels == c)

    def class_samples(self, c: int) -> np.ndarray:
        return _gather(self.samples, self.class_indices(c))


@dataclass
class SdtdlModel:
    u_source: list  # M orthonormal factor matrices
    u_target: list | None  # M factor matrices, None before initialization
    w_class: list  # C lists of M factor matrices
    class_means_source: list  # C mean code tensors (ranks-shaped)
    class_means_target: list  # C mean code tensors, zeros for empty classes
    hyper: Hyperparams

    @property
    def class_count(self) -> int:
        return len(self.w_class)

    def validate(self, tol: float = 1e-8):
        for m, u in enumerate(self.u_source):
            require_orthonormal(u, tol, name=f"u_source[{m}]")
        if self.u_target is not None:
            for m, u in enumerate(self.u_target):
                require_orthonormal(u, tol, name=f"u_target[{m}]")
        for c, w in enumerate(self.w_class):
            for m, wm in enumerate(w):
                require_orthonormal(wm, tol, name=f"w_class[{c}][{m}]")


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
    """Source and target residual tensors of one class-dictionary update."""

    x_tilde: np.ndarray
    y_tilde: np.ndarray


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

    def apply(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``z x_N M``: the operator acting on the last (sample) mode of ``z``.

        The result is written into ``out`` when given: a C-contiguous array
        of ``z``'s shape, which may be ``z`` itself."""
        flat = z.reshape(math.prod(z.shape[:-1]), z.shape[-1])
        domains = (slice(None, self.n_s), slice(self.n_s, None))
        sums = [flat[:, cols].sum(axis=1) for cols in domains]
        res = np.empty_like(flat) if out is None else out.reshape(flat.shape)
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
    per-mode eigen updates (:func:`sdtdl.hooi.sweep`) on the stacked residual.

    Returns ``(w_c, a_c, b_c)``: the updated factor matrices and the class
    codes of the source / target residuals under them. ``method`` selects the
    sample-mode operator, built from ``theta`` and ``lam`` in structured form
    (:class:`SampleOperator`): ``"eigen-phi"`` pre-weights the stack with the
    published Phi and maximizes its core norm; ``"exact"`` keeps the raw
    stack and puts the quadratic form Q on the sample mode.

    Without ``w_init`` each mode starts from the top eigenvectors of its
    form on the uncompressed tensor: the HOSVD of the Phi-weighted stack on
    the Phi route, and of ``Z_(m) (I kron Q) Z_(m)^T`` on the exact route.
    With ``Q = Phi^T Phi`` the two starts coincide.
    """
    n_s = sub.x_tilde.shape[-1]
    n_t = sub.y_tilde.shape[-1]
    z = stack_last(sub.x_tilde, sub.y_tilde)
    ranks = [int(r) for r in ranks]
    quad = None
    if method == "eigen-phi":
        z = SampleOperator.phi(n_s, n_t, theta, lam).apply(z, out=z)
    elif method == "exact":
        quad = SampleOperator.quadratic_form(n_s, n_t, theta, lam)
    else:
        raise ValueError(f"unknown class-update method: {method}")
    form = functools.partial(_mode_form, quad=quad)
    if w_init is None:
        w = [eig_sym_topk(form(z, m), r)[1] for m, r in enumerate(ranks)]
    else:
        w = [np.asarray(u, dtype=np.float64) for u in w_init]
    for _ in range(inner_sweeps):
        sweep(z, w, ranks, form)
    return w, dict_project(sub.x_tilde, w), dict_project(sub.y_tilde, w)


def _domain_residual(tensor_set: LabeledTensorSet, c: int, domain_codes, factors):
    """Class-``c`` samples minus their domain-dictionary reconstruction."""
    idx = tensor_set.class_indices(c)
    rec = dict_apply(_gather(domain_codes, idx), factors)
    return np.subtract(_gather(tensor_set.samples, idx), rec, out=rec)


def _class_residuals(tensor_set: LabeledTensorSet, codes_by_class, dicts_by_class):
    """Samples minus their class-dictionary reconstruction, in set order.

    Each class's reconstruction fills one run of a class-ordered buffer, and
    one gather by the inverse of the stable label sort puts the buffer back
    in set order: a scatter into the set's sample mode would write strided.
    """
    counts = np.bincount(tensor_set.labels, minlength=len(dicts_by_class) + 1)[1:]
    rec = np.empty_like(tensor_set.samples)
    lo = 0
    for n, k, w in zip(counts, codes_by_class, dicts_by_class):
        if n:
            rec[..., lo : lo + n] = dict_apply(k, w)
            lo += n
    inverse = np.argsort(np.argsort(tensor_set.labels, kind="stable"))
    out = np.take(rec, inverse, axis=-1)
    return np.subtract(tensor_set.samples, out, out=out)


def _hooi_dict(samples: np.ndarray, hyper: Hyperparams, factors):
    """HOOI on ``samples`` with the sample mode kept: warm-started from
    ``factors``, or from HOSVD when there are none yet.

    Returns the factors, the codes of the samples under them, and the
    squared error of the samples' reconstruction from those codes. The
    factors are orthonormal and the codes are the projection of the
    samples, so that error is ``||samples||^2 - ||codes||^2``, clamped at
    zero against cancellation.
    """
    res = hooi(
        samples,
        hyper.ranks,
        skip_last=True,
        max_sweeps=hyper.inner_sweeps,
        tol=hyper.tol,
        init_factors=factors or None,
    )
    error = max(frobenius_norm(samples) ** 2 - frobenius_norm(res.core) ** 2, 0.0)
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
    """Set the model's class means from the class codes; a class with no
    samples gets a zero mean."""

    def means(codes_by_class):
        return [
            class_means(k) if k.shape[-1] else np.zeros(model.hyper.ranks)
            for k in codes_by_class
        ]

    model.class_means_source = means(codes.a_class)
    model.class_means_target = means(codes.b_class)


def _selected_set(target: LabeledTensorSet, pl) -> LabeledTensorSet:
    idx = np.flatnonzero(pl.selected)
    return LabeledTensorSet(
        samples=_gather(target.samples, idx),
        class_count=target.class_count,
        labels=pl.labels[idx],
    )


def _accuracy(labels, truth) -> float:
    if truth is None or np.size(truth) == 0:
        return float("nan")
    return float(np.mean(labels == np.asarray(truth)))


def fit(
    source: LabeledTensorSet,
    target: LabeledTensorSet,
    hyper: Hyperparams,
    truth=None,
    class_update: str = "eigen-phi",
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

    Returns ``(model, pseudo_labels, history)``; ``truth`` is used for
    accuracy reporting only. Each history objective is read from the norms
    of the residuals and codes of the domain updates that precede it, not
    by reconstructing the samples. After at least one outer iteration the
    last history row records the final prediction pass alone, and its
    objective is NaN.

    The per-class work of init step 1 and of each block pass runs on
    :func:`sdtdl.jobs._class_workers` threads. A prediction pass reads no
    source-dictionary state, so each source-dictionary update runs beside
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
    if source.labels is None:
        raise ValueError("source set must be labeled")
    if source.samples.shape[:-1] != target.samples.shape[:-1]:
        raise ValueError("source and target sample dims differ")
    if target.n_samples == 0:
        raise ValueError("target has no samples")
    C = source.class_count
    ranks = hyper.ranks
    if len(ranks) != source.order:
        raise ValueError(f"expected {source.order} ranks, got {len(ranks)}")
    for c in range(1, C + 1):
        if source.class_indices(c).size == 0:
            raise ValueError(f"source class {c} has no samples")

    def history_row(iteration, pl, objective_value):
        return FitHistoryRow(
            iteration, objective_value, int(np.sum(pl.selected)), _accuracy(pl.labels, truth)
        )

    def predict():
        return predict_labels(target, model, hyper.gamma, hyper.delta)

    # --- init step 1: class dictionaries from raw class samples, then U_s
    def init_class(c):
        return _hooi_dict(source.class_samples(c), hyper, None)

    w_class, a_class, _ = zip(
        *_run_jobs([functools.partial(init_class, c) for c in range(1, C + 1)])
    )
    model = SdtdlModel(
        u_source=[],
        u_target=None,
        w_class=list(w_class),
        class_means_source=[],
        class_means_target=[],
        hyper=hyper,
    )
    # no target is selected yet; the domain codes come from the HOOI calls below
    codes = SdtdlCodes(
        a0=None, b0=None, a_class=list(a_class), b_class=[np.zeros(ranks + (0,))] * C
    )
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
    _refresh_means(model, codes)
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
    nearest source class centroid in raw tensor space."""
    if source.labels is None:
        raise ValueError("source set must be labeled")
    C = source.class_count
    n = target.n_samples
    centroids = np.stack(
        [source.class_samples(c).mean(axis=-1).ravel() for c in range(1, C + 1)]
    )
    flat = target.samples.reshape(-1, n).T
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
    class_update: str = "eigen-phi",
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
            ClassSubproblem(
                x_tilde=_domain_residual(source, c, codes.a0, model.u_source),
                y_tilde=_domain_residual(selected, c, codes.b0, model.u_target),
            ),
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
