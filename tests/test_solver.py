import dataclasses
import functools
import inspect
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sdtdl.jobs as J
import sdtdl.pseudolabel as pseudolabel
import sdtdl.solver as S
import sdtdl.tensor as T
from sdtdl.dataio import SyntheticSpec, generate_synthetic
from sdtdl.hooi import hooi
from sdtdl.solver import (
    ClassSubproblem,
    Hyperparams,
    LabeledTensorSet,
    SampleOperator,
    SdtdlCodes,
    SdtdlModel,
    class_means,
    digit_preset,
    fit,
    nearest_centroid_labels,
    object_preset,
    run_block_updates,
    update_class_dict,
    update_domain_source,
    update_domain_target,
)
from sdtdl.tensor import frobenius_norm, mode_product

from oracles import (
    build_phi,
    class_residuals,
    class_subproblem,
    class_update_quadratic_form,
    compute_codes,
    domain_residual,
    objective,
    stack_last,
)


def rand_orth(rng, n, k):
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))


def apply_dict(codes, factors):
    for m, u in enumerate(factors):
        codes = mode_product(codes, u, m)
    return codes


def project_dict(samples, factors):
    for m, u in enumerate(factors):
        samples = mode_product(samples, u.T, m)
    return samples


def make_fitted_state(seed, lam=0.1, theta=2.0):
    spec = SyntheticSpec(
        class_count=3,
        dims=(6, 6),
        ranks=(2, 2),
        n_source_per_class=8,
        n_target_per_class=8,
        noise=0.1,
        shift=0.5,
        seed=seed,
    )
    source, target, truth = generate_synthetic(spec)
    hyper = Hyperparams(
        ranks=(2, 2), theta=theta, lam=lam, gamma=0.25, delta=0.8, max_outer_iters=1
    )
    model, pl, _ = fit(source, target, hyper, truth=truth)
    selected = S._selected_set(target, pl)
    codes = compute_codes(model, source, selected)
    return model, source, selected, codes


def interleaved_problem(dims=(6, 5), ranks=(2, 2), seed=1):
    """A synthetic problem whose source and target samples cycle through
    the classes, so every class subset is a strided pick of its set."""
    C, n = 3, 6
    spec = SyntheticSpec(
        class_count=C, dims=dims, ranks=ranks, n_source_per_class=n, n_target_per_class=n,
        noise=0.1, shift=0.5, seed=seed,
    )
    source, target, truth = generate_synthetic(spec)
    order = np.arange(C * n).reshape(C, n).T.ravel()
    return (
        LabeledTensorSet(source.samples[..., order], source.labels[order]),
        LabeledTensorSet(target.samples[..., order]),
        truth[order],
    )


class TestHyperparams:
    def test_presets(self):
        hp = object_preset()
        assert (hp.theta, hp.lam, hp.gamma, hp.delta) == (20.0, 0.1, 0.25, 0.8)
        assert hp.ranks == (6, 6, 28)
        hp = digit_preset()
        assert (hp.theta, hp.lam, hp.gamma, hp.delta) == (10.0, 1.0, 0.2, 0.8)
        assert hp.ranks == (7, 7, 30)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(theta=0.0),
            dict(lam=-0.1),
            dict(gamma=1.5),
            dict(delta=0.0),
            dict(delta=1.5),
            dict(max_outer_iters=-1),
            dict(inner_sweeps=0),
            dict(tol=0.0),
            dict(theta=float("nan")),
            dict(theta=float("inf")),
            dict(lam=float("nan")),
            dict(lam=float("inf")),
            dict(tol=float("nan")),
            dict(tol=float("inf")),
            dict(ranks=(2.5, 2)),
            dict(max_outer_iters=2.5),
            dict(inner_sweeps=2.5),
        ],
    )
    def test_range_validation(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparams(**{"ranks": (2, 2), **kwargs})


class TestLabeledTensorSet:
    def test_label_count_mismatch(self):
        with pytest.raises(ValueError, match="label count"):
            LabeledTensorSet(samples=np.zeros((2, 2, 3)), labels=[1, 2])

    def test_label_range(self):
        with pytest.raises(ValueError, match="1-based"):
            LabeledTensorSet(samples=np.zeros((2, 2, 2)), labels=[0, 1])

    def test_class_count_is_the_largest_label(self):
        assert LabeledTensorSet(np.zeros((2, 2, 3)), [1, 3, 1]).class_count == 3
        assert LabeledTensorSet(np.zeros((2, 2, 0)), []).class_count == 0
        with pytest.raises(ValueError, match="set is unlabeled"):
            LabeledTensorSet(np.zeros((2, 2, 3))).class_count

    def test_class_access(self):
        rng = np.random.default_rng(0)
        ts = LabeledTensorSet(samples=rng.standard_normal((2, 2, 4)), labels=[1, 2, 1, 2])
        assert np.array_equal(ts.class_indices(1), [0, 2])
        assert ts.class_samples(2).shape == (2, 2, 2)


class TestClassMeans:
    def test_single_sample(self):
        rng = np.random.default_rng(1)
        codes = rng.standard_normal((2, 3, 1))
        assert np.array_equal(class_means(codes), codes[..., 0])

    def test_opposite_pair(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 2))
        codes = np.stack([a, -a], axis=-1)
        assert np.max(np.abs(class_means(codes))) <= 1e-15

    def test_matches_direct_average(self):
        rng = np.random.default_rng(3)
        codes = rng.standard_normal((2, 2, 5))
        direct = sum(codes[..., j] for j in range(5)) / 5.0
        assert np.allclose(class_means(codes), direct, atol=1e-12)

    def test_empty_class_raises(self):
        with pytest.raises(ValueError, match="empty class"):
            class_means(np.zeros((2, 2, 0)))


class TestBuildPhi:
    def test_degenerate_identity(self):
        assert np.allclose(build_phi(1, 1, 1.0, 0.0), np.eye(2), atol=1e-15)

    def test_hand_case_2_1(self):
        want = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 0.5], [1.0, 1.0, 0.0]])
        assert np.max(np.abs(build_phi(2, 1, 1.0, 1.0) - want)) <= 1e-15

    def test_hand_case_quarter(self):
        want = np.array([[0.5, 0.5], [0.5, 1.5]])
        assert np.max(np.abs(build_phi(1, 1, 4.0, 0.25) - want)) <= 1e-15

    @pytest.mark.parametrize("seed", range(10))
    def test_entrywise_formula(self, seed):
        rng = np.random.default_rng(seed)
        n_s, n_t = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        theta, lam = rng.uniform(0.5, 4.0), rng.uniform(0.0, 1.0)
        phi = build_phi(n_s, n_t, theta, lam)
        sl, st = np.sqrt(lam), np.sqrt(theta)
        for i in range(n_s + n_t):
            for j in range(n_s + n_t):
                if i < n_s and j < n_s:
                    want = (1 - sl) if i == j else 0.0
                elif i < n_s:
                    want = sl / n_s
                elif j < n_s:
                    want = sl / n_t
                else:
                    want = (st - sl) if i == j else 0.0
                assert abs(phi[i, j] - want) <= 1e-15

    def test_source_only_block(self):
        phi = build_phi(3, 0, 2.0, 0.25)
        assert np.allclose(phi, 0.5 * np.eye(3), atol=1e-15)

    def test_nonpositive_counts(self):
        with pytest.raises(ValueError):
            build_phi(0, 1, 1.0, 0.0)
        with pytest.raises(ValueError):
            build_phi(1, -1, 1.0, 0.0)


class TestSampleOperator:
    @settings(max_examples=200, deadline=None)
    @given(
        n_s=st.integers(1, 12),
        n_t=st.integers(0, 12),
        theta=st.floats(1e-3, 50.0),
        lam=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        lead=st.lists(st.integers(1, 3), max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_structured_equals_dense_oracle(self, n_s, n_t, theta, lam, lead, seed):
        # orders 1-3: zero to two leading modes before the sample mode
        z = np.random.default_rng(seed).standard_normal(tuple(lead) + (n_s + n_t,))
        pairs = (
            (SampleOperator.phi, build_phi),
            (SampleOperator.quadratic_form, class_update_quadratic_form),
        )
        for structured, dense in pairs:
            m = dense(n_s, n_t, theta, lam)
            got = structured(n_s, n_t, theta, lam).apply(z)
            want = mode_product(z, m, z.ndim - 1)
            # relative to the magnitudes summed into each entry
            scale = mode_product(np.abs(z), np.abs(m), z.ndim - 1)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12 * scale)


    @settings(max_examples=100, deadline=None)
    @given(
        n_s=st.integers(1, 12),
        n_t=st.integers(0, 12),
        theta=st.floats(1e-3, 50.0),
        lam=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        lead=st.lists(st.integers(1, 3), min_size=1, max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_phi_gram_and_moments_equal_dense_products(self, n_s, n_t, theta, lam, lead, seed):
        n = n_s + n_t
        phi = build_phi(n_s, n_t, theta, lam)
        gram = SampleOperator.phi(n_s, n_t, theta, lam).gram(n_t)
        # entry (i, j) of the identity times the operator on its sample mode
        got = gram.apply(np.eye(n))
        # relative to the magnitudes summed into each entry
        assert np.all(np.abs(got - phi.T @ phi) <= 1e-12 * (np.abs(phi).T @ np.abs(phi)))
        z = np.random.default_rng(seed).standard_normal(tuple(lead) + (n,))
        flat = z.reshape(-1, n)
        pairs = (
            (gram, phi.T @ phi),
            (SampleOperator.quadratic_form(n_s, n_t, theta, lam),
             class_update_quadratic_form(n_s, n_t, theta, lam)),
        )
        for op, m in pairs:
            scale = np.abs(flat) @ (np.abs(phi).T @ np.abs(phi) + np.abs(m)) @ np.abs(flat).T
            assert np.all(np.abs(op.moment(z) - flat @ m @ flat.T) <= 1e-12 * scale)


def zero_model(dims, ranks, C, hyper):
    zdict = [np.zeros((d, r)) for d, r in zip(dims, ranks)]
    return SdtdlModel(
        u_source=[m.copy() for m in zdict],
        u_target=[m.copy() for m in zdict],
        w_class=[[m.copy() for m in zdict] for _ in range(C)],
        class_means_source=[np.zeros(ranks) for _ in range(C)],
        hyper=hyper,
    )


class TestObjective:
    def test_all_zero_dictionaries(self):
        rng = np.random.default_rng(7)
        dims, ranks, C = (3, 3), (2, 2), 2
        hyper = Hyperparams(ranks=ranks, theta=2.5, lam=0.3)
        src = LabeledTensorSet(samples=rng.standard_normal(dims + (4,)), labels=[1, 1, 2, 2])
        tgt = LabeledTensorSet(samples=rng.standard_normal(dims + (4,)), labels=[1, 2, 1, 2])
        model = zero_model(dims, ranks, C, hyper)
        codes = SdtdlCodes(
            a0=np.zeros(ranks + (4,)),
            b0=np.zeros(ranks + (4,)),
            a_class=[np.zeros(ranks + (2,)) for _ in range(C)],
            b_class=[np.zeros(ranks + (2,)) for _ in range(C)],
        )
        want = frobenius_norm(src.samples) ** 2 + 2.5 * frobenius_norm(tgt.samples) ** 2
        assert np.isclose(objective(model, src, tgt, codes), want, rtol=1e-12)

    def test_perfect_reconstruction_coincident_means(self):
        rng = np.random.default_rng(8)
        dims, ranks, C = (4, 4), (2, 2), 2
        lam = 0.7
        hyper = Hyperparams(ranks=ranks, theta=3.0, lam=lam)
        u_s = [rand_orth(rng, d, r) for d, r in zip(dims, ranks)]
        u_t = [rand_orth(rng, d, r) for d, r in zip(dims, ranks)]
        w = [[rand_orth(rng, d, r) for d, r in zip(dims, ranks)] for _ in range(C)]
        a0 = rng.standard_normal(ranks + (4,))
        b0 = rng.standard_normal(ranks + (4,))
        a_class = [rng.standard_normal(ranks + (2,)) for _ in range(C)]
        # target codes share the source class mean: add a zero-mean offset
        b_class = []
        for ac in a_class:
            off = rng.standard_normal(ranks + (2,))
            off -= off.mean(axis=-1, keepdims=True)
            b_class.append(ac.mean(axis=-1, keepdims=True) + off)
        labels = np.array([1, 1, 2, 2])
        src_samples = np.zeros(dims + (4,))
        tgt_samples = np.zeros(dims + (4,))
        for c in range(1, C + 1):
            idx = np.flatnonzero(labels == c)
            src_samples[..., idx] = apply_dict(a0[..., idx], u_s) + apply_dict(
                a_class[c - 1], w[c - 1]
            )
            tgt_samples[..., idx] = apply_dict(b0[..., idx], u_t) + apply_dict(
                b_class[c - 1], w[c - 1]
            )
        src = LabeledTensorSet(samples=src_samples, labels=labels)
        tgt = LabeledTensorSet(samples=tgt_samples, labels=labels)
        model = SdtdlModel(
            u_source=u_s,
            u_target=u_t,
            w_class=w,
            class_means_source=[class_means(a) for a in a_class],
            hyper=hyper,
        )
        codes = SdtdlCodes(a0=a0, b0=b0, a_class=a_class, b_class=b_class)
        scatter = 0.0
        for ac, bc in zip(a_class, b_class):
            scatter += np.sum((ac - ac.mean(axis=-1, keepdims=True)) ** 2)
            scatter += np.sum((bc - bc.mean(axis=-1, keepdims=True)) ** 2)
        assert np.isclose(objective(model, src, tgt, codes), lam * scatter, rtol=1e-9)

    def test_term_by_term_oracle(self):
        model, source, selected, codes = make_fitted_state(seed=11, lam=0.4, theta=1.7)
        hp = model.hyper
        want = 0.0
        for c in range(1, model.class_count + 1):
            s_idx = source.class_indices(c)
            t_idx = selected.class_indices(c)
            xs = source.samples[..., s_idx]
            rec_s = apply_dict(codes.a0[..., s_idx], model.u_source) + apply_dict(
                codes.a_class[c - 1], model.w_class[c - 1]
            )
            want += frobenius_norm(xs - rec_s) ** 2
            if t_idx.size:
                ys = selected.samples[..., t_idx]
                rec_t = apply_dict(codes.b0[..., t_idx], model.u_target) + apply_dict(
                    codes.b_class[c - 1], model.w_class[c - 1]
                )
                want += hp.theta * frobenius_norm(ys - rec_t) ** 2
                ma = codes.a_class[c - 1].mean(axis=-1)
                mb = codes.b_class[c - 1].mean(axis=-1)
                want += hp.lam * (
                    np.sum((codes.a_class[c - 1] - mb[..., None]) ** 2)
                    + np.sum((codes.b_class[c - 1] - ma[..., None]) ** 2)
                )
        assert np.isclose(objective(model, source, selected, codes), want, rtol=1e-10)


class TestUpdateClassDict:
    def test_identity_phi_reduces_to_hooi(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 4, 3))
        y = rng.standard_normal((4, 4, 2))
        sweeps = 6
        sub = class_subproblem(x, y)
        w, a_c, b_c = update_class_dict(sub, (2, 2), sweeps, "eigen-phi", theta=1.0, lam=0.0)
        ref = hooi(stack_last(x, y), (2, 2), skip_last=True, max_sweeps=sweeps, tol=1e-300)
        for wm, um in zip(w, ref.factors):
            assert np.max(np.abs(wm - um)) <= 1e-8
        assert np.allclose(stack_last(a_c, b_c), ref.core, atol=1e-8)

    def test_full_rank_fidelity_vanishes(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 3, 3))
        y = rng.standard_normal((3, 3, 2))
        sub = class_subproblem(x, y)
        w, a_c, b_c = update_class_dict(sub, (3, 3), 3, "eigen-phi", theta=1.5, lam=0.2)
        for wm in w:
            assert np.max(np.abs(wm.T @ wm - np.eye(3))) <= 1e-8
        assert frobenius_norm(x - apply_dict(a_c, w)) <= 1e-10 * max(1, frobenius_norm(x))
        assert frobenius_norm(y - apply_dict(b_c, w)) <= 1e-10 * max(1, frobenius_norm(y))

    def test_rank_exceeds_extent(self):
        sub = ClassSubproblem(np.zeros((2, 2, 3)), 2)
        with pytest.raises(ValueError, match="out of range"):
            update_class_dict(sub, (3, 2), 1, "eigen-phi", theta=1.0, lam=0.0)

    def class_objective(self, x, y, w, theta, lam):
        a = project_dict(x, w)
        b = project_dict(y, w)
        val = frobenius_norm(x - apply_dict(a, w)) ** 2
        val += theta * frobenius_norm(y - apply_dict(b, w)) ** 2
        ma = a.mean(axis=-1, keepdims=True)
        mb = b.mean(axis=-1, keepdims=True)
        val += lam * (np.sum((a - mb) ** 2) + np.sum((b - ma) ** 2))
        return val

    def test_exact_route_beats_random_search(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((3, 3, 3))
        y = rng.standard_normal((3, 3, 2))
        theta, lam = 2.0, 0.6
        sub = class_subproblem(x, y)
        w, _, _ = update_class_dict(sub, (2, 2), 30, method="exact", theta=theta, lam=lam)
        val = self.class_objective(x, y, w, theta, lam)
        best = min(
            self.class_objective(
                x, y, [rand_orth(rng, 3, 2), rand_orth(rng, 3, 2)], theta, lam
            )
            for _ in range(1000)
        )
        assert val <= best + 1e-9

    @pytest.mark.parametrize("sweeps", [1, 2, 20])
    def test_routes_agree_without_discriminant_term(self, sweeps):
        # lam = 0 gives Phi^T Phi = Q, so both routes maximize the same form
        # from the same cold start and must return the same factors
        rng = np.random.default_rng(16)
        x = rng.standard_normal((4, 3, 3))
        y = rng.standard_normal((4, 3, 2))
        theta = 2.5
        sub = class_subproblem(x, y)
        w_eig, _, _ = update_class_dict(sub, (2, 2), sweeps, "eigen-phi", theta=theta, lam=0.0)
        w_ex, _, _ = update_class_dict(sub, (2, 2), sweeps, method="exact", theta=theta, lam=0.0)
        for we, wx in zip(w_eig, w_ex):
            assert np.max(np.abs(we - wx)) <= 1e-10

    @pytest.mark.parametrize("method", ["eigen-phi", "exact"])
    @pytest.mark.parametrize("warm", [True, False])
    def test_moment_path_holds_no_second_stack(self, method, warm):
        # 64 feature entries and 4,000 samples: the update sweeps the sample
        # moment, and only the codes' first product, a quarter of the stack,
        # and the codes themselves are stack-derived arrays. A weighted copy
        # of the stack, such as Q applied to it, would reach the bound alone.
        rng = np.random.default_rng(9)
        sub = ClassSubproblem(rng.standard_normal((8, 8, 4000)), 2500)
        w_init = [rand_orth(rng, 8, 2) for _ in range(2)] if warm else None
        tracemalloc.start()
        try:
            update_class_dict(sub, (2, 2), 3, method, theta=2.0, lam=0.1, w_init=w_init)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * sub.z.nbytes

    def test_unknown_method(self):
        sub = ClassSubproblem(np.zeros((2, 2, 2)), 1)
        with pytest.raises(ValueError, match="unknown"):
            update_class_dict(sub, (1, 1), 1, method="bogus", theta=1.0, lam=0.0)


class TestDomainUpdates:
    def test_representable_residual_zero_fidelity(self):
        rng = np.random.default_rng(15)
        dims, ranks = (5, 5), (2, 2)
        u_true = [rand_orth(rng, d, r) for d, r in zip(dims, ranks)]
        a0_true = rng.standard_normal(ranks + (6,))
        samples = apply_dict(a0_true, u_true)
        src = LabeledTensorSet(samples=samples, labels=[1, 1, 1, 2, 2, 2])
        hyper = Hyperparams(ranks=ranks, theta=1.0, lam=0.0)
        model = zero_model(dims, ranks, 2, hyper)
        model.u_source = [rand_orth(rng, d, r) for d, r in zip(dims, ranks)]
        codes = SdtdlCodes(
            a0=np.zeros(ranks + (6,)),
            b0=np.zeros(ranks + (0,)),
            a_class=[np.zeros(ranks + (3,)) for _ in range(2)],
            b_class=[np.zeros(ranks + (0,)) for _ in range(2)],
        )
        u_new, a0_new, _ = update_domain_source(src, model, codes)
        assert frobenius_norm(samples - apply_dict(a0_new, u_new)) <= 1e-10 * frobenius_norm(
            samples
        )

    def test_single_sample_full_rank_zero_residual(self):
        rng = np.random.default_rng(16)
        dims = (3, 4)
        samples = rng.standard_normal(dims + (1,))
        src = LabeledTensorSet(samples=samples, labels=[1])
        hyper = Hyperparams(ranks=dims, theta=1.0, lam=0.0)
        model = zero_model(dims, dims, 1, hyper)
        model.u_source = [np.eye(d) for d in dims]
        codes = SdtdlCodes(
            a0=np.zeros(dims + (1,)),
            b0=np.zeros(dims + (0,)),
            a_class=[np.zeros(dims + (1,))],
            b_class=[np.zeros(dims + (0,))],
        )
        u_new, a0_new, _ = update_domain_source(src, model, codes)
        assert frobenius_norm(samples - apply_dict(a0_new, u_new)) <= 1e-10

    @pytest.mark.parametrize("n", [10, 40], ids=["direct", "moment"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_fidelity_is_a_numeric_error(self, n):
        # a squared norm of 1.5 times the largest float: every matrix the
        # sweeps form holds a part of it, and stays finite
        t = np.random.default_rng(5).standard_normal((6, 5, n))
        t *= np.sqrt(1.5) * np.sqrt(np.finfo(float).max) / frobenius_norm(t)
        with pytest.raises(FloatingPointError, match="not finite"):
            S._hooi_dict(t, Hyperparams(ranks=(2, 2)), None)

    @pytest.mark.parametrize("seed", range(3))
    def test_objective_non_increase(self, seed):
        model, source, selected, codes = make_fitted_state(seed=seed, lam=0.2)
        before = objective(model, source, selected, codes)
        model.u_source, codes.a0, _ = update_domain_source(source, model, codes)
        mid = objective(model, source, selected, codes)
        assert mid <= before + 1e-8 * abs(before)
        model.u_target, codes.b0, _ = update_domain_target(selected, model, codes)
        after = objective(model, source, selected, codes)
        assert after <= mid + 1e-8 * abs(mid)


class TestClassResiduals:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        dims=st.sampled_from([(4, 3), (3, 2, 4)]),
        class_count=st.integers(1, 4),
        sort=st.booleans(),
        data=st.data(),
    )
    def test_equals_the_scatter_oracle_bitwise(self, seed, dims, class_count, sort, data):
        # shuffled or class-sorted labels; a class may have no sample, and
        # so may the whole set
        labels = data.draw(st.lists(st.integers(1, class_count), max_size=12))
        labels = np.array(sorted(labels) if sort else labels, dtype=np.int64)
        rng = np.random.default_rng(seed)
        ranks = [min(2, d) for d in dims]
        tensor_set = LabeledTensorSet(rng.standard_normal(dims + (labels.size,)), labels)
        dicts = [[rand_orth(rng, d, r) for d, r in zip(dims, ranks)] for _ in range(class_count)]
        codes = [
            rng.standard_normal(tuple(ranks) + (np.sum(labels == c),))
            for c in range(1, class_count + 1)
        ]
        got = S._class_residuals(tensor_set, codes, dicts)
        want = class_residuals(tensor_set, codes, dicts)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_holds_one_set_sized_array(self):
        # the result is the one set-sized array; the class reconstructions
        # and the per-slice reorder add a fifth and a sixteenth of it
        rng = np.random.default_rng(7)
        C, dims, ranks = 5, (16, 16), (4, 4)
        labels = rng.permutation(np.repeat(np.arange(1, C + 1), 400))
        tensor_set = LabeledTensorSet(rng.standard_normal(dims + (labels.size,)), labels)
        dicts = [[rand_orth(rng, d, r) for d, r in zip(dims, ranks)] for _ in range(C)]
        codes = [rng.standard_normal(ranks + (400,)) for _ in range(C)]
        tracemalloc.start()
        try:
            S._class_residuals(tensor_set, codes, dicts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * tensor_set.samples.nbytes


class TestBlockPass:
    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
    def test_full_pass_non_increase(self, lam):
        for seed in range(5):
            model, source, selected, codes = make_fitted_state(seed=seed, lam=lam)
            before = objective(model, source, selected, codes)
            run_block_updates(source, selected, model, codes)
            after = objective(model, source, selected, codes)
            assert after <= before + 1e-8 * abs(before)

    @pytest.mark.parametrize("route", ["eigen-phi", "exact"])
    def test_class_stack_is_the_stacked_domain_residuals(self, route):
        model, source, selected, codes = make_fitted_state(seed=2)
        hyper = model.hyper
        for c in range(1, model.class_count + 1):
            x = domain_residual(source, c, codes.a0, model.u_source)
            y = domain_residual(selected, c, codes.b0, model.u_target)
            sub = S._class_stack(source, selected, c, model, codes)
            assert sub.n_s == x.shape[-1]
            assert np.array_equal(sub.z, stack_last(x, y))
            # the codes of both domains come from one projection of the stack
            w, a_c, b_c = update_class_dict(
                sub, hyper.ranks, 3, route, hyper.theta, hyper.lam, w_init=model.w_class[c - 1]
            )
            assert a_c.flags.c_contiguous and b_c.flags.c_contiguous
            assert np.allclose(a_c, project_dict(x, w), rtol=0, atol=1e-12)
            assert np.allclose(b_c, project_dict(y, w), rtol=0, atol=1e-12)

    def test_empty_selected_class_fallback(self):
        model, source, selected, codes = make_fitted_state(seed=3)
        # drop class 2 from the selected set entirely
        keep = np.flatnonzero(selected.labels != 2)
        reduced = LabeledTensorSet(
            samples=selected.samples[..., keep],
            labels=selected.labels[keep],
        )
        codes = compute_codes(model, source, reduced)
        value = run_block_updates(source, reduced, model, codes)
        assert np.isclose(value, objective(model, source, reduced, codes), rtol=1e-12)
        model.validate()
        assert codes.b_class[1].shape[-1] == 0


class TestFit:
    def test_zero_shift_separable_perfect(self):
        spec = SyntheticSpec(
            class_count=3,
            dims=(8, 8),
            ranks=(3, 3),
            n_source_per_class=15,
            n_target_per_class=15,
            noise=0.0,
            shift=0.0,
            seed=0,
        )
        source, target, truth = generate_synthetic(spec)
        hyper = Hyperparams(ranks=(3, 3), theta=2.0, lam=0.1, max_outer_iters=5)
        model, pl, history = fit(source, target, hyper, truth=truth)
        assert history[-1].accuracy == 1.0

    def test_max_outer_iters_zero(self):
        spec = SyntheticSpec(
            class_count=2,
            dims=(5, 5),
            ranks=(2, 2),
            n_source_per_class=6,
            n_target_per_class=6,
            noise=0.05,
            shift=0.3,
            seed=1,
        )
        source, target, truth = generate_synthetic(spec)
        hyper = Hyperparams(ranks=(2, 2), theta=2.0, lam=0.1, max_outer_iters=0)
        model, pl, history = fit(source, target, hyper, truth=truth)
        assert len(history) == 1
        assert history[0].iteration == 0
        assert model.u_target is not None
        # labels are the initialization-stage predictions (no target dictionary)
        init_model = SdtdlModel(
            u_source=model.u_source,
            u_target=None,
            w_class=model.w_class,
            class_means_source=model.class_means_source,
            hyper=hyper,
        )
        from sdtdl import pseudolabel as plm

        want = plm.predict_labels(target, init_model)
        assert np.array_equal(pl.labels, want.labels)

    def test_factors_stay_orthonormal(self):
        spec = SyntheticSpec(
            class_count=3,
            dims=(6, 6),
            ranks=(2, 2),
            n_source_per_class=8,
            n_target_per_class=8,
            noise=0.1,
            shift=0.5,
            seed=2,
        )
        source, target, truth = generate_synthetic(spec)
        hyper = Hyperparams(ranks=(2, 2), theta=2.0, lam=0.1, max_outer_iters=4)
        model, _, _ = fit(source, target, hyper)
        model.validate()

    def test_shifted_benchmark_improves(self):
        spec = SyntheticSpec(
            class_count=3,
            dims=(8, 8),
            ranks=(3, 3),
            n_source_per_class=30,
            n_target_per_class=30,
            noise=0.05,
            shift=3.0,
            seed=3,
        )
        source, target, truth = generate_synthetic(spec)
        hyper = Hyperparams(ranks=(3, 3), theta=2.0, lam=0.1, max_outer_iters=10)
        model, pl, history = fit(source, target, hyper, truth=truth)
        assert history[-1].accuracy >= history[0].accuracy

    @pytest.mark.parametrize("route", ["eigen-phi", "exact"])
    @pytest.mark.parametrize("dims,ranks", [((6, 5), (2, 2)), ((4, 3, 5), (2, 2, 2))])
    def test_fit_hands_only_c_order_tensors(self, route, dims, ranks, monkeypatch):
        bad, calls = [], dict.fromkeys(["mode_product", "mode_gram", "apply"], 0)

        def checked(fn, tensors):
            signature = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs).arguments
                calls[fn.__name__] += 1
                for name in tensors:
                    t = bound.get(name)
                    if t is not None and not t.flags.c_contiguous:
                        bad.append((fn.__name__, name, t.shape, t.strides))
                return fn(*args, **kwargs)

            return wrapper

        wrapped = {
            "mode_product": (T.mode_product, checked(T.mode_product, ["t"])),
            "mode_gram": (T.mode_gram, checked(T.mode_gram, ["t", "other"])),
        }
        patched = set()
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] != "sdtdl":
                continue
            for name, (original, wrapper) in wrapped.items():
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, wrapper)
                    patched.add(modname)
        assert {"sdtdl.tensor", "sdtdl.hooi", "sdtdl.solver"} <= patched
        monkeypatch.setattr(
            S.SampleOperator, "apply", checked(S.SampleOperator.apply, ["z"])
        )
        source, target, _ = interleaved_problem(dims, ranks)
        hyper = Hyperparams(ranks=ranks, theta=2.0, lam=0.1, max_outer_iters=3)
        fit(source, target, hyper, class_update=route)
        assert min(calls.values()) > 0
        assert bad == []

    @pytest.mark.parametrize("route", ["eigen-phi", "exact"])
    @pytest.mark.parametrize(
        "lam,workers",
        [
            pytest.param(0.1, 1, id="0.1"),
            pytest.param(1.0, 1, id="1.0"),
            pytest.param(0.1, 4, id="0.1-pooled"),
            pytest.param(1.0, 4, id="1.0-pooled"),
        ],
    )
    def test_history_objective_is_the_oracle_without_calling_it(
        self, route, lam, workers, monkeypatch
    ):
        def forbidden(*args):
            raise AssertionError("fit reconstructed the samples to report the objective")

        # the package defines no objective; should one come back, fit must not call it
        monkeypatch.setattr(S, "objective", forbidden, raising=False)
        # every history objective is taken once a source and a target update
        # have both returned, in either order and with the source update
        # beside a prediction pass when the pool is active; record what each
        # update leaves, and evaluate the oracle on the state of both
        update_source, update_target = S.update_domain_source, S.update_domain_target
        sources, targets = [], []

        def source_update(source, model, codes):
            u_source, a0, fid_s = update_source(source, model, codes)
            sources.append((source, u_source, a0))
            return u_source, a0, fid_s

        def target_update(selected, model, codes):
            u_target, b0, fid_t = update_target(selected, model, codes)
            # a block pass writes the class parts in place, before both updates
            m = dataclasses.replace(model, u_target=u_target, w_class=list(model.w_class))
            targets.append((selected, m, list(codes.a_class), list(codes.b_class), b0))
            return u_target, b0, fid_t

        monkeypatch.setattr(S, "update_domain_source", source_update)
        monkeypatch.setattr(S, "update_domain_target", target_update)
        pool_of(monkeypatch, workers)
        source, target, truth = interleaved_problem(seed=4)
        hyper = Hyperparams(ranks=(2, 2), theta=2.0, lam=lam, max_outer_iters=4)
        _, _, history = fit(source, target, hyper, truth=truth, class_update=route)
        got = [row.objective for row in history[:-1]]
        assert len(got) == len(sources) == len(targets) >= 2
        for value, (source, u_source, a0), (selected, m, a_class, b_class, b0) in zip(
            got, sources, targets
        ):
            m = dataclasses.replace(m, u_source=u_source)
            k = SdtdlCodes(a0=a0, b0=b0, a_class=a_class, b_class=b_class)
            r_s = class_residuals(source, k.a_class, m.w_class)
            r_t = class_residuals(selected, k.b_class, m.w_class)
            scale = (
                frobenius_norm(r_s) ** 2
                + m.hyper.theta * frobenius_norm(r_t) ** 2
                + m.hyper.lam * S._discriminant(k)
            )
            assert abs(value - objective(m, source, selected, k)) <= 1e-12 * scale

    @staticmethod
    def order_problem(seed):
        spec = SyntheticSpec(
            class_count=3, dims=(8, 8), ranks=(2, 2), n_source_per_class=6,
            n_target_per_class=6, noise=0.05, shift=0.3, seed=seed,
            mean_separation=10.0, domain_strength=1.0,
        )
        return generate_synthetic(spec)[:2]

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        route=st.sampled_from(["eigen-phi", "exact"]),
        data=st.data(),
    )
    def test_labels_follow_sample_order(self, seed, route, data):
        # delta 1 selects every target in every pass: the target domain
        # codes carried into a block pass do not follow a changed selection
        # (see test_labels_follow_target_order_with_partial_selection)
        hyper = Hyperparams(ranks=(2, 2), theta=2.0, lam=0.1, delta=1.0, max_outer_iters=3)
        source, target = self.order_problem(seed)
        margins = []

        def fit_recording_margins(source, target):
            """Fit, and record how far each prediction pass is from a tie."""
            predict = S.predict_labels

            def recorded(target, model):
                pl = predict(target, model)
                gamma = model.hyper.gamma
                top = np.sort(gamma * pl.fidelity_probs + (1 - gamma) * pl.centroid_probs)
                margins.append(np.min(top[:, -1] - top[:, -2]))
                return pl

            S.predict_labels = recorded
            try:
                return fit(source, target, hyper, class_update=route)[1]
            finally:
                S.predict_labels = predict

        pl = fit_recording_margins(source, target)
        # away from a tie in every pass, rounding in the reordered sums
        # cannot change a label
        assume(min(margins) > 1e-4)

        perm = np.array(data.draw(st.permutations(range(target.n_samples))))
        shuffled = LabeledTensorSet(target.samples[..., perm])
        assert np.array_equal(fit_recording_margins(source, shuffled).labels, pl.labels[perm])

        perm = np.array(data.draw(st.permutations(range(source.n_samples))))
        relisted = LabeledTensorSet(source.samples[..., perm], source.labels[perm])
        assert np.array_equal(fit_recording_margins(relisted, target).labels, pl.labels)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        route=st.sampled_from(["eigen-phi", "exact"]),
        delta=st.sampled_from([1.0, 0.8]),
        perm=st.permutations([1, 2, 3]),
    )
    def test_relabeled_classes_and_orthonormal_factors(self, seed, route, delta, perm):
        spec = SyntheticSpec(
            class_count=3, dims=(6, 5), ranks=(2, 2), n_source_per_class=6,
            n_target_per_class=6, noise=0.05, shift=0.3, seed=seed,
        )
        source, target, _ = generate_synthetic(spec)
        hyper = Hyperparams(ranks=(2, 2), theta=2.0, lam=0.1, delta=delta, max_outer_iters=3)
        model, pl, _ = fit(source, target, hyper, class_update=route)
        # every factor of the fitted model is orthonormal
        for u in [*model.u_source, *model.u_target, *(w for ws in model.w_class for w in ws)]:
            assert np.max(np.abs(u.T @ u - np.eye(u.shape[1]))) <= 1e-10
        # relabeling the source classes by pi relabels the fit by pi
        pi = np.array([0, *perm])
        relabeled = LabeledTensorSet(source.samples, pi[source.labels])
        _, got, _ = fit(relabeled, target, hyper, class_update=route)
        assert np.array_equal(got.labels, pi[pl.labels])
        assert np.array_equal(got.selected, pl.selected)

    @pytest.mark.xfail(
        strict=True,
        reason="a block pass pairs the new selection's samples with the target "
        "domain codes of the previous selection, column by column",
    )
    @pytest.mark.parametrize("route", ["eigen-phi", "exact"])
    def test_labels_follow_target_order_with_partial_selection(self, route):
        source, target = self.order_problem(1117)
        hyper = Hyperparams(ranks=(2, 2), theta=2.0, lam=0.1, delta=0.8, max_outer_iters=3)
        _, pl, _ = fit(source, target, hyper, class_update=route)
        perm = np.random.default_rng(1).permutation(target.n_samples)
        shuffled = LabeledTensorSet(target.samples[..., perm])
        _, pl_perm, _ = fit(source, shuffled, hyper, class_update=route)
        assert np.array_equal(pl_perm.labels, pl.labels[perm])

    def test_missing_source_class(self, monkeypatch):
        # the class count is the largest label: a class below it must have samples
        rng = np.random.default_rng(4)
        src = LabeledTensorSet(samples=rng.standard_normal((4, 4, 3)), labels=[1, 1, 3])
        tgt = LabeledTensorSet(samples=rng.standard_normal((4, 4, 5)))
        calls = self.hooi_calls(monkeypatch)
        with pytest.raises(ValueError, match="source class 2 has no samples"):
            fit(src, tgt, Hyperparams(ranks=(2, 2)))
        assert calls == []

    @staticmethod
    def entry_problem():
        spec = SyntheticSpec(
            class_count=3, dims=(6, 5), ranks=(2, 2), n_source_per_class=5,
            n_target_per_class=10, noise=0.1, shift=0.5, seed=3,
        )
        return generate_synthetic(spec)

    @staticmethod
    def hooi_calls(monkeypatch):
        calls, real = [], S.hooi

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(S, "hooi", spy)
        return calls

    @pytest.mark.parametrize("iters", [0, 2])
    def test_unknown_route_rejected_before_any_hooi(self, iters, monkeypatch):
        # without iterations the route used to go unread; with them it was
        # rejected at the first class update, after the initialization
        source, target, truth = self.entry_problem()
        calls = self.hooi_calls(monkeypatch)
        hyper = Hyperparams(ranks=(2, 2), max_outer_iters=iters)
        with pytest.raises(ValueError, match="unknown class-update method: bogus"):
            fit(source, target, hyper, truth=truth, class_update="bogus")
        assert calls == []

    @pytest.mark.parametrize("n_truth", [1, 0, 5])
    def test_truth_of_another_length_rejected_before_any_hooi(self, n_truth, monkeypatch):
        # one row used to broadcast to accuracy 1/3, no row gave NaN, and
        # five rows for 30 targets failed to broadcast after the initialization
        source, target, truth = self.entry_problem()
        calls = self.hooi_calls(monkeypatch)
        hyper = Hyperparams(ranks=(2, 2), max_outer_iters=2)
        with pytest.raises(ValueError, match="one label per target sample"):
            fit(source, target, hyper, truth=truth[:n_truth])
        assert calls == []

    def test_unlabeled_source_rejected(self, monkeypatch):
        rng = np.random.default_rng(5)
        src = LabeledTensorSet(samples=rng.standard_normal((4, 4, 3)))
        tgt = LabeledTensorSet(samples=rng.standard_normal((4, 4, 5)))
        calls = self.hooi_calls(monkeypatch)
        with pytest.raises(ValueError, match="set is unlabeled"):
            fit(src, tgt, Hyperparams(ranks=(2, 2)))
        assert calls == []

    def test_empty_source_rejected(self, monkeypatch):
        rng = np.random.default_rng(5)
        src = LabeledTensorSet(samples=np.zeros((4, 4, 0)), labels=[])
        tgt = LabeledTensorSet(samples=rng.standard_normal((4, 4, 5)))
        calls = self.hooi_calls(monkeypatch)
        with pytest.raises(ValueError, match="source has no samples"):
            fit(src, tgt, Hyperparams(ranks=(2, 2)))
        assert calls == []


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def blas_env(monkeypatch, cores, **threads):
    """Run on ``cores`` cores with the BLAS thread variables ``threads`` set
    and the others unset, and with a BLAS thread setter found."""
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in threads.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(J, "_blas_controls", lambda: (lambda: 1, lambda n: None))


def pool_of(monkeypatch, workers):
    """Run jobs on ``workers`` threads, at most one per job: serially with
    one worker."""
    monkeypatch.setattr(J, "_class_workers", lambda count: max(1, min(count, workers)))


def unequal_problem(dims, ranks, seed=5):
    """Four classes of unequal sizes in both domains; class 2 alone has six
    source samples."""
    spec = SyntheticSpec(
        class_count=4, dims=dims, ranks=ranks, n_source_per_class=9, n_target_per_class=9,
        noise=0.1, shift=0.5, seed=seed,
    )
    source, target, truth = generate_synthetic(spec)

    def keep(labels, sizes):
        return np.concatenate([np.flatnonzero(labels == c)[:n] for c, n in enumerate(sizes, 1)])

    ks, kt = keep(source.labels, (9, 6, 4, 3)), keep(truth, (8, 3, 7, 5))
    return (
        LabeledTensorSet(source.samples[..., ks], source.labels[ks]),
        LabeledTensorSet(target.samples[..., kt]),
        truth[kt],
    )


class TestClassPool:
    # BLAS is held at one thread while jobs run, so it leaves every core
    # free: one worker per core, whatever the BLAS thread variables say
    @pytest.mark.parametrize(
        "threads,cores,count,want",
        [
            ({}, 2, 5, 2),
            ({"OPENBLAS_NUM_THREADS": "1"}, 2, 5, 2),
            ({"OPENBLAS_NUM_THREADS": "2"}, 2, 5, 2),
            ({"OPENBLAS_NUM_THREADS": "3"}, 2, 5, 2),
            ({"OPENBLAS_NUM_THREADS": "many"}, 2, 5, 2),
            ({"OPENBLAS_NUM_THREADS": "0"}, 2, 5, 2),
            ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 5, 2),
            ({"MKL_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 5, 4),
            ({"OPENBLAS_NUM_THREADS": "1"}, 8, 3, 3),
        ],
    )
    def test_workers_are_the_cores_blas_leaves_free(self, threads, cores, count, want, monkeypatch):
        blas_env(monkeypatch, cores, **threads)
        assert J._class_workers(count) == want

    @pytest.mark.parametrize("threads", [{}, {"OPENBLAS_NUM_THREADS": "1"}])
    def test_one_worker_without_a_blas_thread_setter(self, threads, monkeypatch):
        # BLAS may already run on every core, and nothing can hold it at one
        blas_env(monkeypatch, 4, **threads)
        monkeypatch.setattr(J, "_blas_controls", lambda: None)
        assert J._class_workers(5) == 1

    def test_workers_without_an_affinity_call(self, monkeypatch):
        blas_env(monkeypatch, 2, OMP_NUM_THREADS="1")
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert J._class_workers(10) == 6

    def test_every_thread_takes_jobs_and_results_keep_class_order(self, monkeypatch):
        workers, count = 4, 40
        pool_of(monkeypatch, workers)
        # the first four jobs wait for each other, so four threads run them
        barrier = threading.Barrier(workers, timeout=30)
        runs, threads = [0] * (count + 1), set()

        def job(c):
            if c <= workers:
                barrier.wait()
            runs[c] += 1
            threads.add(threading.get_ident())
            return c * c

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = J._run_jobs([functools.partial(job, c) for c in range(1, count + 1)])
        finally:
            sys.setswitchinterval(interval)
        assert got == [c * c for c in range(1, count + 1)]
        assert runs[1:] == [1] * count
        assert threading.get_ident() in threads and len(threads) == workers

    def test_an_error_in_a_pool_thread_reaches_the_caller(self, monkeypatch):
        pool_of(monkeypatch, 2)
        caller = threading.get_ident()
        barrier = threading.Barrier(2, timeout=30)
        started = []

        def job(c):
            started.append(c)
            if c <= 2:
                barrier.wait()
                if threading.get_ident() != caller:
                    raise np.linalg.LinAlgError(f"class {c} failed")
            time.sleep(0.01)
            return c

        with pytest.raises(np.linalg.LinAlgError, match="failed"):
            J._run_jobs([functools.partial(job, c) for c in range(1, 101)])
        assert len(started) < 100  # no job starts after the failure

    def test_a_job_runs_nested_jobs_on_its_own_thread(self, monkeypatch):
        pool_of(monkeypatch, 2)
        pools = []

        def pool(n):
            pools.append(n)
            return ThreadPoolExecutor(n)

        monkeypatch.setattr(J, "ThreadPoolExecutor", pool)
        barrier = threading.Barrier(2, timeout=30)

        def inner(c, k):
            return c, k, threading.get_ident()

        def outer(c):
            barrier.wait()  # the two outer jobs run at once, one per thread
            return threading.get_ident(), J._run_jobs(
                [functools.partial(inner, c, k) for k in range(5)]
            )

        got = J._run_jobs([functools.partial(outer, c) for c in range(2)])
        assert pools == [1]
        assert got[0][0] != got[1][0]
        for c, (ident, results) in enumerate(got):
            assert results == [(c, k, ident) for k in range(5)]
        # the calling thread left its job: its next call pools again
        assert J._run_jobs([functools.partial(inner, 0, k) for k in range(2)])[0][2] == (
            threading.get_ident()
        )
        assert pools == [1, 1]

    def test_a_pass_beside_a_source_update_stays_on_its_thread(self, monkeypatch):
        source, target, truth = unequal_problem((6, 5), (2, 2))
        hyper = Hyperparams(ranks=(2, 2), theta=2.0, lam=0.1, delta=0.8, max_outer_iters=4)
        predict, norms = S.predict_labels, pseudolabel._sample_sq_norms
        pools, passes = [], []

        def pool(n):
            pools.append(n)
            return ThreadPoolExecutor(n)

        def prediction(*args):
            passes.append(set())
            return predict(*args)

        def recorded(t):
            # passes do not overlap, and only the pass calls this
            passes[-1].add(threading.get_ident())
            return norms(t)

        monkeypatch.setattr(J, "ThreadPoolExecutor", pool)
        monkeypatch.setattr(S, "predict_labels", prediction)
        monkeypatch.setattr(pseudolabel, "_sample_sq_norms", recorded)
        # blocks of 2 samples: 12 or more blocks per pass
        monkeypatch.setattr(pseudolabel, "_BLOCK_BYTES", 2 * 6 * 5 * 8)
        pool_of(monkeypatch, 1)
        serial = fit(source, target, hyper, truth=truth)
        assert pools == [] and all(len(p) == 1 for p in passes)
        pool_of(monkeypatch, 4)
        passes.clear()
        model, pl, history = fit(source, target, hyper, truth=truth)

        # every pass but the loop's first runs beside a source update, on the
        # one extra thread; the loop's first runs alone and takes the pool
        caller = threading.get_ident()
        assert len(passes) == len(history) >= 3
        assert [len(p) > 1 for p in passes] == [False, True] + [False] * (len(passes) - 2)
        assert caller not in set.union(passes[0], *passes[2:])
        # class work and source pairs as without blocks, and one pool for the
        # loop's first pass: the passes beside source updates start none
        assert pools == [3, 1, 3] + [3, 1] * (len(history) - 2)
        for field in ("labels", "selected", "combined_conf", "fidelity_probs", "centroid_probs"):
            assert np.array_equal(getattr(serial[1], field), getattr(pl, field)), field

        def factors(m):
            return [*m.u_source, *m.u_target, *(w for ws in m.w_class for w in ws)]

        assert all(np.array_equal(a, b) for a, b in zip(factors(serial[0]), factors(model)))

    @pytest.mark.parametrize(
        "workers,failing,message",
        [
            pytest.param(1, "update_class_dict", "class 2 failed", id="threads0"),
            pytest.param(4, "update_class_dict", "class 2 failed", id="threads1"),
            pytest.param(1, "update_domain_source", "source update failed", id="serial-source"),
            pytest.param(4, "update_domain_source", "source update failed", id="pooled-source"),
            pytest.param(1, "predict_labels", "prediction pass failed", id="serial-pass"),
            pytest.param(4, "predict_labels", "prediction pass failed", id="pooled-pass"),
        ],
    )
    def test_a_failing_class_job_reaches_fit_with_its_type(
        self, workers, failing, message, monkeypatch
    ):
        source, target, truth = unequal_problem((6, 5), (2, 2))
        pooled = workers > 1
        update, update_source, predict = (
            S.update_class_dict, S.update_domain_source, S.predict_labels
        )
        calls, done = {"source": 0, "pass": 0}, {"source": 0, "pass": 0}
        # the third pass runs beside the second source update (block pass 1's)
        pair_started = threading.Event()

        def class_update(sub, *args, **kwargs):
            if failing == "update_class_dict" and sub.n_s == 6:
                raise np.linalg.LinAlgError(message)
            return update(sub, *args, **kwargs)

        def source_update(*args):
            calls["source"] += 1
            if failing == "update_domain_source" and calls["source"] == 2:
                if pooled:
                    assert pair_started.wait(30)  # fail while the pass runs
                raise np.linalg.LinAlgError(message)
            result = update_source(*args)
            done["source"] += 1
            return result

        def prediction(*args):
            calls["pass"] += 1
            if calls["pass"] == 3:
                pair_started.set()
                if failing == "predict_labels":
                    raise np.linalg.LinAlgError(message)
                time.sleep(0.05)  # the source update beside it fails first
            result = predict(*args)
            done["pass"] += 1
            return result

        monkeypatch.setattr(S, "update_class_dict", class_update)
        monkeypatch.setattr(S, "update_domain_source", source_update)
        monkeypatch.setattr(S, "predict_labels", prediction)
        pool_of(monkeypatch, workers)
        hyper = Hyperparams(ranks=(2, 2), theta=2.0, lam=0.1, delta=0.8, max_outer_iters=3)
        with pytest.raises(np.linalg.LinAlgError, match=message):
            fit(source, target, hyper, truth=truth)
        # fit raises once both sides of the pair have stopped: a pooled pass
        # beside a failing source update still finishes
        want = {
            "update_class_dict": {"source": 1, "pass": 2},
            "update_domain_source": {"source": 1, "pass": 3 if pooled else 2},
            "predict_labels": {"source": 2, "pass": 2},
        }
        assert done == want[failing]

    @pytest.mark.parametrize("route", ["eigen-phi", "exact"])
    @pytest.mark.parametrize(
        "dims,ranks,iters",
        [
            pytest.param((6, 5), (2, 2), 4, id="dims0-ranks0"),
            pytest.param((4, 3, 5), (2, 2, 2), 4, id="dims1-ranks1"),
            # one outer iteration: the loop runs out after its block pass
            pytest.param((6, 5), (2, 2), 1, id="dims0-ranks0-iters1"),
            pytest.param((4, 3, 5), (2, 2, 2), 1, id="dims1-ranks1-iters1"),
        ],
    )
    def test_pooled_fit_equals_serial_fit_bitwise(self, route, dims, ranks, iters, monkeypatch):
        source, target, truth = unequal_problem(dims, ranks)
        hyper = Hyperparams(ranks=ranks, theta=2.0, lam=0.1, delta=0.8, max_outer_iters=iters)
        pools, pass_threads, source_threads = [], [], []
        predict, update_source = S.predict_labels, S.update_domain_source

        def pool(n):
            pools.append(n)
            return ThreadPoolExecutor(n)

        def prediction(*args):
            pass_threads.append(threading.get_ident())
            return predict(*args)

        def source_update(*args):
            source_threads.append(threading.get_ident())
            return update_source(*args)

        monkeypatch.setattr(J, "ThreadPoolExecutor", pool)
        monkeypatch.setattr(S, "predict_labels", prediction)
        monkeypatch.setattr(S, "update_domain_source", source_update)
        pool_of(monkeypatch, 1)
        serial = fit(source, target, hyper, truth=truth, class_update=route)
        assert pools == []
        pool_of(monkeypatch, 4)
        pass_threads.clear()
        source_threads.clear()
        pooled = fit(source, target, hyper, truth=truth, class_update=route)

        (m1, pl1, h1), (m2, pl2, h2) = serial, pooled
        assert len(h1) >= 3
        if iters == 1:
            # the loop ran out: the final pass ran beside the last source update
            assert len(h2) == iters + 2
        # init step 1 and each block pass: the class work on the calling
        # thread and three more, then the source update with one more
        # thread beside it for the pass
        assert pools == [3, 1] * (len(h2) - 1)
        # every pass but the loop's first runs off the calling thread, and
        # every source update on it
        caller = threading.get_ident()
        assert [t == caller for t in pass_threads] == [False, True] + [False] * (len(h2) - 2)
        assert source_threads == [caller] * (len(h2) - 1)

        for field in ("labels", "selected", "combined_conf", "fidelity_probs", "centroid_probs"):
            assert np.array_equal(getattr(pl1, field), getattr(pl2, field)), field

        def arrays(m):
            return [
                *m.u_source, *m.u_target, *(w for ws in m.w_class for w in ws),
                *m.class_means_source,
            ]

        assert len(arrays(m1)) == len(arrays(m2))
        assert all(np.array_equal(a, b) for a, b in zip(arrays(m1), arrays(m2)))
        assert np.array_equal(
            [r.objective for r in h1], [r.objective for r in h2], equal_nan=True
        )
        assert [(r.n_selected, r.accuracy) for r in h1] == [(r.n_selected, r.accuracy) for r in h2]


class TestOneBlasThread:
    """``fit`` and ``predict_labels`` hold the loaded BLAS at one thread
    while they run, and give the caller's thread count back."""

    CALLER = 3  # a count that neither BLAS's default nor the hold sets

    @pytest.fixture
    def blas_threads(self):
        controls = J._blas_controls()
        if controls is None:
            pytest.skip("no BLAS thread setter is loaded")
        get, set_ = controls
        before = get()
        set_(self.CALLER)
        try:
            yield get
        finally:
            set_(before)

    def test_jobs_see_one_thread_and_the_callers_count_comes_back(
        self, blas_threads, monkeypatch
    ):
        source, target, truth = unequal_problem((6, 5), (2, 2))
        hyper = Hyperparams(ranks=(2, 2), theta=2.0, lam=0.1, delta=0.8, max_outer_iters=3)
        update, norms = S.update_class_dict, pseudolabel._sample_sq_norms
        seen = {"class": [], "pass": []}

        def class_update(*args, **kwargs):
            seen["class"].append(blas_threads())
            return update(*args, **kwargs)

        def recorded(t):
            seen["pass"].append(blas_threads())
            return norms(t)

        monkeypatch.setattr(S, "update_class_dict", class_update)
        monkeypatch.setattr(pseudolabel, "_sample_sq_norms", recorded)
        # blocks of 2 samples, so that passes run their blocks as jobs too
        monkeypatch.setattr(pseudolabel, "_BLOCK_BYTES", 2 * 6 * 5 * 8)
        pool_of(monkeypatch, 2)
        model, _, _ = fit(source, target, hyper, truth=truth)
        # the class jobs, and the passes beside source updates and alone
        assert seen["class"] and set(seen["class"]) == {1}
        assert seen["pass"] and set(seen["pass"]) == {1}
        assert blas_threads() == self.CALLER

        seen["pass"].clear()
        pseudolabel.predict_labels(target, model)
        assert seen["pass"] and set(seen["pass"]) == {1}
        assert blas_threads() == self.CALLER

    @pytest.mark.parametrize("failing", ["update_class_dict", "predict_labels"])
    def test_the_callers_count_comes_back_when_a_job_raises(
        self, blas_threads, failing, monkeypatch
    ):
        source, target, truth = unequal_problem((6, 5), (2, 2))
        hyper = Hyperparams(ranks=(2, 2), theta=2.0, lam=0.1, delta=0.8, max_outer_iters=3)

        def failing_job(*args, **kwargs):
            assert blas_threads() == 1
            raise np.linalg.LinAlgError("job failed")

        pool_of(monkeypatch, 2)
        if failing == "update_class_dict":
            monkeypatch.setattr(S, "update_class_dict", failing_job)
            with pytest.raises(np.linalg.LinAlgError, match="job failed"):
                fit(source, target, hyper, truth=truth)
        else:
            model, _, _ = fit(source, target, hyper, truth=truth)
            monkeypatch.setattr(pseudolabel, "_BLOCK_BYTES", 2 * 6 * 5 * 8)
            monkeypatch.setattr(pseudolabel, "dict_project", failing_job)
            with pytest.raises(np.linalg.LinAlgError, match="job failed"):
                pseudolabel.predict_labels(target, model)
        assert blas_threads() == self.CALLER


    def test_overlapping_holds_share_one_count(self, monkeypatch):
        # a counter stands in for the library: eight threads enter and leave
        # holds at once, some nested, and every body sees one thread
        count, sets, bad = [self.CALLER], [], []

        def set_(n):
            sets.append(n)
            count[0] = n

        monkeypatch.setattr(J, "_blas_controls", lambda: (lambda: count[0], set_))

        def body():
            if count[0] != 1:
                bad.append(count[0])

        def worker():
            for k in range(200):
                with J._one_blas_thread():
                    if k % 3 == 0:
                        with J._one_blas_thread():
                            body()
                    body()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []
        assert count[0] == self.CALLER
        # each set to one is undone by one set back, and none is nested
        assert sets == [1, self.CALLER] * (len(sets) // 2)


class TestBaseline:
    def test_zero_shift_separable(self):
        spec = SyntheticSpec(
            class_count=3,
            dims=(8, 8),
            ranks=(3, 3),
            n_source_per_class=15,
            n_target_per_class=15,
            noise=0.0,
            shift=0.0,
            seed=0,
        )
        source, target, truth = generate_synthetic(spec)
        assert np.array_equal(nearest_centroid_labels(source, target), truth)

    def test_single_class(self):
        rng = np.random.default_rng(6)
        src = LabeledTensorSet(samples=rng.standard_normal((3, 3, 4)), labels=[1, 1, 1, 1])
        tgt = LabeledTensorSet(samples=rng.standard_normal((3, 3, 5)))
        assert np.all(nearest_centroid_labels(src, tgt) == 1)
