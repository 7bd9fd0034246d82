import dataclasses
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdtdl import jobs, pseudolabel
from sdtdl.dataio import SyntheticSpec, generate_synthetic
from sdtdl.pseudolabel import (
    PseudoLabels,
    _softmax_rows,
    centroid_probs,
    fidelity_probs,
    predict,
    predict_labels,
    select,
    selection_count,
)
from sdtdl.solver import Hyperparams, LabeledTensorSet, SdtdlModel, fit
from sdtdl.tensor import dict_apply, dict_project


def rand_orth(rng, n, k):
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))


def make_model(rng, dims=(4, 4), ranks=(2, 2), C=2, with_target=True, **hyper):
    return SdtdlModel(
        u_source=[rand_orth(rng, d, r) for d, r in zip(dims, ranks)],
        u_target=(
            [rand_orth(rng, d, r) for d, r in zip(dims, ranks)] if with_target else None
        ),
        w_class=[[rand_orth(rng, d, r) for d, r in zip(dims, ranks)] for _ in range(C)],
        class_means_source=[rng.standard_normal(ranks) for _ in range(C)],
        hyper=Hyperparams(ranks=ranks, **hyper),
    )


def softmax_rows_loop(errors):
    """Row-by-row form of the median-scaled softmax, the reference for the
    vectorized ``_softmax_rows``."""
    n, c = errors.shape
    probs = np.empty((n, c))
    for j in range(n):
        row = errors[j]
        sigma = float(np.median(row))
        if sigma <= 1e-300:
            sigma = float(np.mean(row))
        if sigma <= 1e-300:
            probs[j] = 1.0 / c
            continue
        z = -row / sigma
        z -= z.max()
        e = np.exp(z)
        probs[j] = e / e.sum()
    return probs


class TestSoftmaxRows:
    @pytest.mark.parametrize("c", [1, 2, 3, 5, 8, 13])
    def test_bitwise_equal_to_row_loop(self, c):
        rng = np.random.default_rng(10 + c)
        errors = rng.uniform(0.0, 5.0, size=(300, c)) * 10.0 ** rng.integers(-8, 8, size=(300, 1))
        errors[::7] = 0.0  # all-zero rows
        zero_median = errors[3::11]
        zero_median[:, : c // 2 + 1] = 0.0  # a zero median: mean-scaled, or all zero
        errors[3::11] = rng.permuted(zero_median, axis=1)
        assert np.array_equal(_softmax_rows(errors), softmax_rows_loop(errors))

    def test_no_rows(self):
        assert _softmax_rows(np.zeros((0, 4))).shape == (0, 4)

    def test_single_class_is_one(self):
        assert np.allclose(_softmax_rows(np.array([[3.7], [0.0]])), 1.0)

    def test_equal_errors_uniform(self):
        probs = _softmax_rows(np.array([[2.0, 2.0]]))
        assert np.allclose(probs, [[0.5, 0.5]], atol=1e-15)

    def test_hand_case_median_scale(self):
        # errors (1, 3): median 2, z = (-0.5, -1.5)
        probs = _softmax_rows(np.array([[1.0, 3.0]]))
        e = np.exp([-0.5, -1.5])
        want = e / e.sum()
        assert np.max(np.abs(probs - want)) <= 1e-12
        assert abs(want[0] - 0.7310585786300049) <= 1e-12

    def test_row_stochastic(self):
        rng = np.random.default_rng(0)
        errors = rng.uniform(0.0, 5.0, size=(40, 6))
        probs = _softmax_rows(errors)
        assert np.all(probs >= 0)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        errors = rng.uniform(0.1, 5.0, size=(10, 4))
        assert np.allclose(_softmax_rows(errors), _softmax_rows(7.3 * errors), atol=1e-12)

    def test_monotone_in_single_error(self):
        # raising one class error (others fixed) never raises its probability
        rng = np.random.default_rng(2)
        for _ in range(200):
            row = rng.uniform(0.1, 4.0, size=5)
            bumped = row.copy()
            bumped[2] += rng.uniform(0.01, 2.0)
            p0 = _softmax_rows(row[None, :])[0]
            p1 = _softmax_rows(bumped[None, :])[0]
            assert p1[2] <= p0[2] + 1e-12

    def test_degenerate_zero_row_uniform(self):
        probs = _softmax_rows(np.zeros((1, 3)))
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-15)


class TestPredict:
    def test_pure_fidelity(self):
        fid = np.array([[0.9, 0.1], [0.2, 0.8]])
        cen = np.array([[0.1, 0.9], [0.9, 0.1]])
        pl = predict(fid, cen, gamma=1.0)
        assert np.array_equal(pl.labels, [1, 2])
        assert np.allclose(pl.combined_conf, [0.9, 0.8])

    def test_pure_centroid(self):
        fid = np.array([[0.9, 0.1]])
        cen = np.array([[0.1, 0.9]])
        pl = predict(fid, cen, gamma=0.0)
        assert np.array_equal(pl.labels, [2])

    def test_hand_mixture(self):
        # 0.25 * (0.7, 0.3) + 0.75 * (0.2, 0.8) = (0.325, 0.675)
        pl = predict(np.array([[0.7, 0.3]]), np.array([[0.2, 0.8]]), gamma=0.25)
        assert pl.labels[0] == 2
        assert abs(pl.combined_conf[0] - 0.675) <= 1e-12

    def test_tie_takes_first_class(self):
        pl = predict(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]), gamma=0.3)
        assert pl.labels[0] == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            predict(np.zeros((2, 2)), np.zeros((3, 2)), gamma=0.5)

    def test_gamma_range(self):
        with pytest.raises(ValueError, match="gamma"):
            predict(np.zeros((1, 2)), np.zeros((1, 2)), gamma=1.5)


class TestSelection:
    def test_count_rounding(self):
        assert selection_count(10, 0.8) == 8
        assert selection_count(5, 0.5) == 3  # half rounds up
        assert selection_count(7, 1.0) == 7
        assert selection_count(3, 0.1) == 0

    def test_delta_one_selects_all(self):
        pl = predict(np.full((6, 2), 0.5), np.full((6, 2), 0.5), gamma=0.5)
        assert np.all(select(pl, 1.0).selected)

    def test_top_confidence_half(self):
        conf = np.array([0.9, 0.1, 0.8, 0.2])
        pl = PseudoLabels(
            labels=np.ones(4, dtype=np.int64),
            combined_conf=conf,
            fidelity_probs=np.zeros((4, 1)),
            centroid_probs=np.zeros((4, 1)),
            selected=np.zeros(4, dtype=bool),
        )
        got = select(pl, 0.5)
        assert np.array_equal(np.flatnonzero(got.selected), [0, 2])

    def test_tie_prefers_earlier_index(self):
        conf = np.array([0.5, 0.5, 0.5, 0.5])
        pl = PseudoLabels(
            labels=np.ones(4, dtype=np.int64),
            combined_conf=conf,
            fidelity_probs=np.zeros((4, 1)),
            centroid_probs=np.zeros((4, 1)),
            selected=np.zeros(4, dtype=bool),
        )
        got = select(pl, 0.5)
        assert np.array_equal(np.flatnonzero(got.selected), [0, 1])

    def test_cardinality_exact(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 9, 40):
            pl = PseudoLabels(
                labels=np.ones(n, dtype=np.int64),
                combined_conf=rng.uniform(size=n),
                fidelity_probs=np.zeros((n, 1)),
                centroid_probs=np.zeros((n, 1)),
                selected=np.zeros(n, dtype=bool),
            )
            for delta in (0.3, 0.8, 1.0):
                assert select(pl, delta).selected.sum() == selection_count(n, delta)

    def test_delta_range(self):
        pl = predict(np.full((2, 2), 0.5), np.full((2, 2), 0.5), gamma=0.5)
        with pytest.raises(ValueError, match="delta"):
            select(pl, 0.0)


def pass_inputs(target, model):
    """The domain residual and class codes of one prediction pass, written
    out with explicit reconstructions."""
    y = target.samples
    resid = y - dict_apply(dict_project(y, model.u_target), model.u_target)
    return resid, [dict_project(resid, w) for w in model.w_class]


def pass_matrices(monkeypatch, target, model):
    """The error and distance matrices that one prediction pass hands to
    ``fidelity_probs`` and ``centroid_probs``."""
    seen = []
    for name in ("fidelity_probs", "centroid_probs"):
        real = getattr(pseudolabel, name)
        monkeypatch.setattr(
            pseudolabel, name, lambda m, real=real: seen.append(m.copy()) or real(m)
        )
    predict_labels(target, model)
    return seen


class TestProbabilityMatrices:
    def test_row_stochastic_on_model(self):
        rng = np.random.default_rng(4)
        model = make_model(rng, C=3)
        target = LabeledTensorSet(samples=rng.standard_normal((4, 4, 7)))
        pl = predict_labels(target, model)
        for probs in (pl.fidelity_probs, pl.centroid_probs):
            assert probs.shape == (7, 3)
            assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-9

    def test_single_class_certain(self):
        rng = np.random.default_rng(5)
        model = make_model(rng, C=1)
        target = LabeledTensorSet(samples=rng.standard_normal((4, 4, 3)))
        pl = predict_labels(target, model)
        assert np.all(pl.labels == 1)
        assert np.allclose(pl.combined_conf, 1.0)

    def test_no_target_dictionary_uses_raw_samples(self):
        rng = np.random.default_rng(6)
        model = make_model(rng, with_target=False)
        target = LabeledTensorSet(samples=rng.standard_normal((4, 4, 5)))
        got = predict_labels(target, model)
        # zero target factors act as an explicit zero reconstruction
        zero = make_model(rng, with_target=True)
        zero.u_source = model.u_source
        zero.w_class = model.w_class
        zero.class_means_source = model.class_means_source
        zero.u_target = [np.zeros_like(u) for u in zero.u_target]
        want = predict_labels(target, zero)
        assert np.allclose(got.fidelity_probs, want.fidelity_probs, atol=1e-12)
        assert np.allclose(got.centroid_probs, want.centroid_probs, atol=1e-12)

    def test_fidelity_prefers_representable_class(self):
        rng = np.random.default_rng(7)
        dims, ranks = (5, 5), (2, 2)
        model = make_model(rng, dims=dims, ranks=ranks, C=2, with_target=False)
        # samples built inside the class-1 dictionary span
        codes = rng.standard_normal(ranks + (6,))
        samples = np.einsum("ia,jb,abn->ijn", *model.w_class[0], codes)
        target = LabeledTensorSet(samples=samples)
        probs = predict_labels(target, model).fidelity_probs
        assert np.all(probs[:, 0] > probs[:, 1])

    def test_centroid_prefers_matching_mean(self):
        rng = np.random.default_rng(8)
        dims, ranks = (5, 5), (2, 2)
        model = make_model(rng, dims=dims, ranks=ranks, C=2, with_target=False)
        # one sample whose class-1 code equals the class-1 source mean
        mean = model.class_means_source[0]
        sample = np.einsum("ia,jb,ab->ij", *model.w_class[0], mean)
        target = LabeledTensorSet(samples=sample[..., None])
        probs = predict_labels(target, model).centroid_probs
        assert probs[0, 0] > probs[0, 1]

    def test_centroid_distance_from_codes(self, monkeypatch):
        rng = np.random.default_rng(9)
        model = make_model(rng, C=3)
        target = LabeledTensorSet(samples=rng.standard_normal((4, 4, 6)))
        _, codes = pass_inputs(target, model)
        dists = np.stack(
            [
                [np.sum((k[..., j] - m) ** 2) for j in range(6)]
                for k, m in zip(codes, model.class_means_source)
            ],
            axis=1,
        )
        _, got = pass_matrices(monkeypatch, target, model)
        assert np.max(np.abs(got - dists)) <= 1e-12 * np.max(dists)
        assert np.max(np.abs(centroid_probs(got) - softmax_rows_loop(dists))) <= 1e-12

    def test_pass_is_fidelity_then_centroid_then_select(self, monkeypatch):
        # once each per pass, over several blocks of 2 samples
        rng = np.random.default_rng(11)
        model = make_model(rng, C=3, gamma=0.3, delta=0.6)
        target = LabeledTensorSet(samples=rng.standard_normal((4, 4, 9)))
        monkeypatch.setattr(pseudolabel, "_BLOCK_BYTES", 2 * 16 * 8)
        calls = []
        for name in ("fidelity_probs", "centroid_probs", "predict", "select"):
            real = getattr(pseudolabel, name)
            monkeypatch.setattr(
                pseudolabel,
                name,
                lambda *a, real=real, name=name: calls.append((name, a)) or real(*a),
            )
        got = predict_labels(target, model)
        assert [name for name, _ in calls] == [
            "fidelity_probs", "centroid_probs", "predict", "select"
        ]
        errors, dists = calls[0][1][0], calls[1][1][0]
        resid, codes = pass_inputs(target, model)
        r2 = np.sum(resid**2, axis=(0, 1))
        for c, (k, m) in enumerate(zip(codes, model.class_means_source)):
            want_err = np.maximum(r2 - np.sum(k**2, axis=(0, 1)), 0.0)
            want_dist = np.sum((k - m[..., None]) ** 2, axis=(0, 1))
            assert np.max(np.abs(errors[:, c] - want_err)) <= 1e-12 * np.max(r2)
            assert np.max(np.abs(dists[:, c] - want_dist)) <= 1e-12 * np.max(want_dist)
        want = select(predict(fidelity_probs(errors), centroid_probs(dists), 0.3), 0.6)
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.selected, want.selected)
        assert np.array_equal(got.combined_conf, want.combined_conf)

    def test_empty_target(self):
        rng = np.random.default_rng(12)
        model = make_model(rng, C=3)
        target = LabeledTensorSet(samples=np.zeros((4, 4, 0)))
        pl = predict_labels(target, model)
        assert pl.labels.shape == (0,) and pl.selected.shape == (0,)
        assert pl.fidelity_probs.shape == (0, 3)

    @pytest.mark.parametrize("with_target", [True, False])
    def test_target_dims_must_match_the_model(self, with_target):
        # the model dims are the rows of the class dictionaries, which exist
        # before the target dictionary does (init step 2 of fit)
        rng = np.random.default_rng(17)
        model = make_model(rng, dims=(4, 4), C=2, with_target=with_target)
        for dims in [(4, 5), (2, 8), (4, 4, 1)]:
            target = LabeledTensorSet(samples=rng.standard_normal(dims + (3,)))
            with pytest.raises(ValueError, match=r"do not match model dims \(4, 4\)"):
                predict_labels(target, model)

    @staticmethod
    def pass_peak(workers):
        """Traced peak bytes of one pass over 5,000 16x16 targets (10 blocks
        of 1 MiB) on ``workers`` threads, and the target's bytes."""
        rng = np.random.default_rng(13)
        model = make_model(rng, dims=(16, 16), ranks=(4, 4), C=5)
        target = LabeledTensorSet(samples=rng.standard_normal((16, 16, 5000)))
        with mock.patch.object(jobs, "_class_workers", lambda count: min(count, workers)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                predict_labels(target, model)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        return peak, target.samples.nbytes

    def test_peak_memory_under_half_the_target(self):
        # on one thread the pass holds one block of samples at a time (its
        # copy, and its reconstruction turned into the residual in place)
        # plus the N x C matrices, never a samples-sized array
        peak, nbytes = self.pass_peak(1)
        assert peak < 0.5 * nbytes, peak / nbytes

    def test_peak_memory_with_a_block_per_worker(self):
        # on two threads two blocks can be live at once, one per worker.
        # A live block of B bytes holds its copy (B), its reconstruction,
        # which becomes its residual in place (B), and, while that is
        # formed, the product before the last mode's (B * 4/16 at rank 4 of
        # 16), then per class its codes (B / 16) and norms: under 3B. The
        # pass adds the two N x C matrices the blocks fill. So the peak
        # stays under 2 * 3 MiB + 2 * N * C * 8 bytes, about 0.65 of the
        # target's 10.24 MB, where one samples-sized array would exceed it.
        peak, nbytes = self.pass_peak(2)
        bound = 2 * 3 * pseudolabel._BLOCK_BYTES + 2 * 5000 * 5 * 8
        assert peak < bound, (peak / bound, peak / nbytes)


class TestBlockInvariance:
    """The pass runs over blocks of ``_BLOCK_BYTES`` of target samples; its
    result does not depend on the block size beyond rounding."""

    @staticmethod
    def run(target, model, budget):
        with mock.patch.object(pseudolabel, "_BLOCK_BYTES", budget):
            return predict_labels(target, model)

    @settings(max_examples=30, deadline=None)
    @given(
        dims_ranks=st.sampled_from([((4, 3), (2, 2)), ((3, 4, 2), (2, 2, 1))]),
        n=st.integers(3, 11),
        c=st.integers(1, 4),
        with_target=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_of_any_size_give_the_one_block_pass(
        self, dims_ranks, n, c, with_target, seed
    ):
        dims, ranks = dims_ranks
        rng = np.random.default_rng(seed)
        model = make_model(rng, dims=dims, ranks=ranks, C=c, with_target=with_target)
        target = LabeledTensorSet(samples=rng.standard_normal(dims + (n,)))
        sample_bytes = target.samples[..., 0].nbytes
        want = self.run(target, model, n * sample_bytes)
        # blocks of 1, 2 and 3 samples, and of n - 1, which leaves a last
        # block of 1; half a sample over the budget still buys no sample
        for per_block in (1, 2, 3, n - 1):
            got = self.run(target, model, per_block * sample_bytes + sample_bytes // 2)
            assert np.array_equal(got.labels, want.labels)
            assert np.array_equal(got.selected, want.selected)
            for field in ("fidelity_probs", "centroid_probs", "combined_conf"):
                assert np.max(np.abs(getattr(got, field) - getattr(want, field))) <= 1e-15

    def test_empty_target_in_blocks(self):
        rng = np.random.default_rng(15)
        model = make_model(rng, C=3)
        target = LabeledTensorSet(samples=np.zeros((4, 4, 0)))
        for budget in (1, 16 * 8, 1 << 20):
            pl = self.run(target, model, budget)
            assert pl.labels.shape == (0,) and pl.selected.shape == (0,)
            assert pl.fidelity_probs.shape == pl.centroid_probs.shape == (0, 3)


class TestPooledPass:
    """The pass runs its blocks as jobs on the pool (``sdtdl.jobs``): each
    block writes its own rows, so the pool size changes no bit of the
    result."""

    @staticmethod
    def run(target, model, budget, workers):
        threads = set()
        norms = pseudolabel._sample_sq_norms

        def recorded(t):
            threads.add(threading.get_ident())
            return norms(t)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads interleave inside the blocks
        try:
            with mock.patch.object(pseudolabel, "_BLOCK_BYTES", budget), mock.patch.object(
                pseudolabel, "_sample_sq_norms", recorded
            ), mock.patch.object(
                jobs, "_class_workers", lambda count: max(1, min(count, workers))
            ):
                return predict_labels(target, model), threads
        finally:
            sys.setswitchinterval(interval)

    @settings(max_examples=30, deadline=None)
    @given(
        dims_ranks=st.sampled_from([((4, 3), (2, 2)), ((3, 4, 2), (2, 2, 1))]),
        n=st.integers(1, 40),
        per_block=st.integers(1, 45),
        c=st.integers(1, 4),
        with_target=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_pool_size_gives_the_one_worker_pass_bitwise(
        self, dims_ranks, n, per_block, c, with_target, seed
    ):
        dims, ranks = dims_ranks
        rng = np.random.default_rng(seed)
        model = make_model(
            rng, dims=dims, ranks=ranks, C=c, with_target=with_target, gamma=0.3, delta=0.6
        )
        target = LabeledTensorSet(samples=rng.standard_normal(dims + (n,)))
        budget = per_block * target.samples[..., 0].nbytes
        blocks = -(-n // per_block)
        want, threads = self.run(target, model, budget, 1)
        assert threads == {threading.get_ident()}
        for workers in (2, 4):
            got, threads = self.run(target, model, budget, workers)
            # the caller runs block 0 and a pool thread block 1; a pool
            # thread that is done may take a later start too
            assert min(2, blocks) <= len(threads) <= min(workers, blocks)
            for field in dataclasses.fields(PseudoLabels):
                assert np.array_equal(getattr(got, field.name), getattr(want, field.name))

    def test_an_error_in_a_block_job_reaches_the_caller(self):
        rng = np.random.default_rng(16)
        # one class and no target dictionary: one projection per block
        model = make_model(rng, C=1, with_target=False)
        target = LabeledTensorSet(samples=rng.standard_normal((4, 4, 100)))
        caller = threading.get_ident()
        barrier = threading.Barrier(2, timeout=30)
        started = []
        project = pseudolabel.dict_project

        def failing(t, w):
            started.append(threading.get_ident())
            if len(started) <= 2:
                barrier.wait()  # blocks 0 and 1 run at once, one per thread
                if threading.get_ident() != caller:
                    raise np.linalg.LinAlgError("block failed")
            time.sleep(0.01)
            return project(t, w)

        with mock.patch.object(pseudolabel, "_BLOCK_BYTES", 16 * 8), mock.patch.object(
            pseudolabel, "dict_project", failing
        ), mock.patch.object(jobs, "_class_workers", lambda count: min(count, 2)):
            with pytest.raises(np.linalg.LinAlgError, match="block failed"):
                predict_labels(target, model)
        assert len(set(started)) == 2
        assert len(started) < 100  # no block starts after the failure


class TestFidelityError:
    """The pass takes the error against class c as ``||r||^2 - ||W_c^T r||^2``
    (orthonormal factors), clamped at zero, instead of reconstructing."""

    def errors(self, monkeypatch, target, model):
        return pass_matrices(monkeypatch, target, model)[0]

    def test_matches_explicit_reconstruction(self, monkeypatch):
        rng = np.random.default_rng(13)
        model = make_model(rng, dims=(6, 5, 4), ranks=(3, 2, 2), C=4)
        target = LabeledTensorSet(
            samples=rng.standard_normal((6, 5, 4, 40)) * 10.0 ** rng.integers(-6, 6, size=40)
        )
        resid, codes = pass_inputs(target, model)
        got = self.errors(monkeypatch, target, model)
        r2 = np.sum(resid**2, axis=(0, 1, 2))
        for c, (k, w) in enumerate(zip(codes, model.w_class)):
            want = np.sum((resid - dict_apply(k, w)) ** 2, axis=(0, 1, 2))
            assert np.all(np.abs(got[:, c] - want) <= 1e-12 * r2)

    def test_sample_in_class_span_clamps_to_zero(self, monkeypatch):
        rng = np.random.default_rng(14)
        model = make_model(rng, dims=(5, 5), ranks=(2, 2), C=2, with_target=False)
        w = model.w_class[0]
        resid = dict_apply(rng.standard_normal((2, 2, 200)), w)
        codes = [dict_project(resid, wc) for wc in model.w_class]
        target = LabeledTensorSet(samples=resid)
        got = self.errors(monkeypatch, target, model)
        r2 = np.sum(resid.reshape(25, -1) ** 2, axis=0)
        raw = r2 - np.sum(codes[0].reshape(4, -1) ** 2, axis=0)
        # rounding leaves the unclamped difference negative on some samples
        assert np.any(raw < 0)
        assert np.all(got[raw < 0, 0] == 0.0)
        assert np.all(got >= 0.0)
        explicit = np.sum((resid - dict_apply(codes[0], w)) ** 2, axis=(0, 1))
        assert np.all(np.abs(got[:, 0] - explicit) <= 1e-12 * r2)


class TestPassesInFit:
    def test_converged_fit_reuses_its_last_pass(self, monkeypatch):
        spec = SyntheticSpec(
            class_count=3, dims=(8, 8), ranks=(3, 3), n_source_per_class=30,
            n_target_per_class=30, noise=0.05, shift=0.5, seed=0,
        )
        source, target, truth = generate_synthetic(spec)
        hyper = Hyperparams(ranks=(3, 3), theta=2.0, lam=0.1, max_outer_iters=10)
        calls = []
        real = pseudolabel.fidelity_probs
        monkeypatch.setattr(
            pseudolabel, "fidelity_probs", lambda *a: calls.append(1) or real(*a)
        )
        model, pl, history = fit(source, target, hyper, truth=truth)
        # labels stopped changing at iteration 2: the initial pass and the
        # passes of iterations 1 and 2, with no repeat of the last one
        assert [row.iteration for row in history] == [0, 1, 2]
        assert len(calls) == 3
        again = predict_labels(target, model)
        assert np.array_equal(pl.labels, again.labels)
        assert np.array_equal(pl.selected, again.selected)
        assert np.array_equal(pl.combined_conf, again.combined_conf)
