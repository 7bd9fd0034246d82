import functools
import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sdtdl.hooi import TuckerResult, _sample_moment, eig_sym_topk, hooi, hosvd, moment_sweep, sweep
from sdtdl.solver import (
    ClassSubproblem,
    SampleOperator,
    _mode_form,
    update_class_dict,
)
from sdtdl.tensor import dict_apply, dict_project, frobenius_norm, mode_product

from oracles import build_phi, class_update_quadratic_form, mode_flatten

# the module itself: the package attribute ``sdtdl.hooi`` is the function
H = importlib.import_module("sdtdl.hooi")
T = importlib.import_module("sdtdl.tensor")


def rand_orth(rng, n, k):
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))


def recon_error(t, res):
    return frobenius_norm(t - dict_apply(res.core, res.factors))


def hosvd_tucker(t, ranks, skip_last=False):
    """The HOSVD factors with their core, the projection of ``t`` on them."""
    factors = hosvd(t, ranks, skip_last)
    return TuckerResult(core=dict_project(t, factors), factors=factors)


class TestEigSymTopk:
    def test_diagonal(self):
        vals, vecs = eig_sym_topk(np.diag([3.0, 1.0, 2.0]), 2)
        assert np.allclose(vals, [3.0, 2.0])
        assert np.allclose(np.abs(vecs), [[1, 0], [0, 0], [0, 1]], atol=1e-12)
        # sign rule: largest-magnitude entry positive
        assert vecs[0, 0] > 0 and vecs[2, 1] > 0

    def test_identity(self):
        vals, vecs = eig_sym_topk(np.eye(4), 4)
        assert np.allclose(vals, np.ones(4))
        assert np.allclose(vecs.T @ vecs, np.eye(4), atol=1e-10)

    def test_random_residuals(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        s = a + a.T
        vals, vecs = eig_sym_topk(s, 6)
        norm = np.linalg.norm(s)
        for i in range(6):
            assert np.linalg.norm(s @ vecs[:, i] - vals[i] * vecs[:, i]) <= 1e-8 * norm
        assert np.all(np.diff(vals) <= 1e-12)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            eig_sym_topk(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)

    @pytest.mark.parametrize(
        "s",
        [
            pytest.param([[np.nan, 0.0], [0.0, 1.0]], id="nan-diagonal"),
            pytest.param([[np.inf, 1.0], [1.0, 1.0]], id="inf-diagonal"),
            pytest.param([[1.0, -np.inf], [-np.inf, 1.0]], id="inf-off-diagonal"),
        ],
    )
    def test_rejects_non_finite(self, s):
        # eigh alone returns the eigenvalue 1.0 for the first, NaN for the others
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            eig_sym_topk(np.array(s), 1)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            eig_sym_topk(np.eye(3), 4)
        with pytest.raises(ValueError, match="out of range"):
            eig_sym_topk(np.eye(3), 0)


class TestHosvd:
    def test_full_rank_exact(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((3, 4, 5))
        res = hosvd_tucker(t, t.shape)
        assert recon_error(t, res) <= 1e-10

    def test_rank_one_exact(self):
        rng = np.random.default_rng(2)
        vecs = [rng.standard_normal(d) for d in (3, 4, 5)]
        t = np.einsum("i,j,k->ijk", *vecs)
        res = hosvd_tucker(t, (1, 1, 1))
        assert recon_error(t, res) <= 1e-10 * frobenius_norm(t)

    def test_beats_random_factors(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((4, 4, 4))
        res = hosvd_tucker(t, (2, 2, 2))
        err = recon_error(t, res)
        for _ in range(100):
            ws = [rand_orth(rng, 4, 2) for _ in range(3)]
            rand_err = frobenius_norm(t - dict_apply(t, [w @ w.T for w in ws]))
            assert err <= rand_err + 1e-10

    def test_factors_orthonormal(self):
        rng = np.random.default_rng(4)
        for u in hosvd(rng.standard_normal((5, 6, 4)), (2, 3, 2)):
            assert np.max(np.abs(u.T @ u - np.eye(u.shape[1]))) <= 1e-8

    def test_skip_last(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((4, 5, 7))
        res = hosvd_tucker(t, (2, 2), skip_last=True)
        assert len(res.factors) == 2
        assert res.core.shape == (2, 2, 7)


class TestHooi:
    def test_full_rank_one_sweep(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((3, 4, 5))
        res = hooi(t, t.shape, max_sweeps=1)
        assert recon_error(t, res) <= 1e-10

    def test_refines_hosvd(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            t = np.random.default_rng(seed).standard_normal((4, 5, 6))
            base = recon_error(t, hosvd_tucker(t, (2, 2, 2)))
            refined = recon_error(t, hooi(t, (2, 2, 2)))
            assert refined <= base + 1e-10

    def test_fit_history_monotone(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            t = rng.standard_normal((4, 4, 4))
            res = hooi(t, (2, 2, 2), max_sweeps=10, tol=1e-14)
            hist = np.array(res.fit_history)
            assert np.all(np.diff(hist) >= -1e-10)

    def test_long_run_self_oracle(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((3, 3, 3))
        short = hooi(t, (2, 2, 2))
        long = hooi(t, (2, 2, 2), max_sweeps=500, tol=1e-15)
        assert abs(short.fit_history[-1] - long.fit_history[-1]) <= 1e-6 * max(
            1.0, long.fit_history[-1]
        )

    def test_pythagoras(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((4, 5, 6))
        res = hooi(t, (2, 3, 2))
        total = frobenius_norm(t) ** 2
        core = frobenius_norm(res.core) ** 2
        err = recon_error(t, res) ** 2
        assert abs(total - (core + err)) <= 1e-8 * total

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        t = rng.standard_normal((4, 4, 4))
        r1 = hooi(t, (2, 2, 2))
        r2 = hooi(t, (2, 2, 2))
        assert np.array_equal(r1.core, r2.core)
        for a, b in zip(r1.factors, r2.factors):
            assert np.array_equal(a, b)

    def test_warm_start(self):
        rng = np.random.default_rng(11)
        t = rng.standard_normal((4, 4, 4))
        first = hooi(t, (2, 2, 2))
        warmed = hooi(t, (2, 2, 2), init_factors=first.factors)
        assert warmed.fit_history[-1] >= first.fit_history[-1] - 1e-10

    def test_skip_last_preserves_sample_mode(self):
        rng = np.random.default_rng(12)
        t = rng.standard_normal((4, 5, 9))
        res = hooi(t, (2, 2), skip_last=True)
        assert res.core.shape == (2, 2, 9)
        for u in res.factors:
            assert np.max(np.abs(u.T @ u - np.eye(u.shape[1]))) <= 1e-8

    def test_bad_args(self):
        t = np.zeros((3, 3))
        with pytest.raises(ValueError, match="ranks"):
            hooi(t, (2,))
        with pytest.raises(ValueError, match="out of range"):
            hooi(t, (4, 2))
        with pytest.raises(ValueError, match="max_sweeps"):
            hooi(t, (2, 2), max_sweeps=0)
        with pytest.raises(ValueError, match="tol"):
            hooi(t, (2, 2), tol=0.0)
        with pytest.raises(ValueError, match="at least one"):
            hooi(np.zeros(3), (), skip_last=True)


def flatten_form(h, m, quad=None):
    """The per-mode forms as written before the shared sweep: a Gram matrix
    of mode_flatten copies, with ``quad`` on the last mode symmetrized."""
    g = mode_flatten(h, m)
    if quad is None:
        return g @ g.T
    s = g @ mode_flatten(quad.apply(h), m).T
    return 0.5 * (s + s.T)


def reference_sweep(t, factors, ranks, form):
    """The per-mode loop that rebuilt every partial projection from ``t``."""
    for m, r in enumerate(ranks):
        h = t
        for k, u in enumerate(factors):
            if k != m:
                h = mode_product(h, u.T, k)
        factors[m] = eig_sym_topk(form(h, m), r)[1]


def low_rank_tensor(rng, dims, ranks):
    """A Tucker tensor of the given multilinear ranks plus 1e-3 noise. Its
    random core can leave a mode's top subspace nearly degenerate, so tests
    that compare eigensolves also assume :func:`separated`."""
    t = rng.standard_normal(tuple(ranks) + tuple(dims[len(ranks) :]))
    for m, d in enumerate(dims[: len(ranks)]):
        t = mode_product(t, np.linalg.qr(rng.standard_normal((d, ranks[m])))[0], m)
    return t + 1e-3 * rng.standard_normal(dims)


def separated(form, r, gap=1e-4):
    """Whether the top-``r`` eigenspace of the symmetric ``form`` is set apart
    by a relative eigen-gap of at least ``gap`` of its largest magnitude. By
    Davis-Kahan, rounding then turns that subspace by about eps / gap, some
    2e-12 at the default, well under the 1e-10 most comparisons below allow."""
    v = np.linalg.eigvalsh(form)[::-1]
    return r == v.size or v[r - 1] - v[r] >= gap * np.max(np.abs(v)) > 0


def projector_gap(a, b):
    return max(np.linalg.norm(u @ u.T - v @ v.T, 2) for u, v in zip(a, b))


class TestSweep:
    @settings(max_examples=150, deadline=None)
    @given(
        order=st.integers(1, 4),
        skip_last=st.booleans(),
        route=st.sampled_from(["gram", "exact"]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_mode_loop(self, order, skip_last, route, data, seed):
        # order counts the compressed modes; skip_last adds a sample mode
        rng = np.random.default_rng(seed)
        dims = data.draw(st.lists(st.integers(2, 5), min_size=order, max_size=order))
        ranks = [data.draw(st.integers(1, d)) for d in dims]
        dims = dims + ([data.draw(st.integers(2, 6))] if skip_last else [])
        # each mode's form must have rank >= its rank, or its top subspace
        # is not unique
        extents = ranks + dims[order:]
        assume(all(r <= math.prod(extents) // r for r in ranks))
        t = low_rank_tensor(rng, dims, ranks)
        quad = None
        if route == "exact":
            n_s = data.draw(st.integers(1, dims[-1] - 1))
            quad = SampleOperator.quadratic_form(n_s, dims[-1] - n_s, 2.0, 0.1)
        forms = [flatten_form(t, m, quad) for m in range(order)]
        assume(all(separated(f, r) for f, r in zip(forms, ranks)))
        start = [eig_sym_topk(f, r)[1] for f, r in zip(forms, ranks)]
        got, want = list(start), list(start)
        for _ in range(2):
            sweep(t, got, ranks, functools.partial(_mode_form, quad=quad))
            reference_sweep(t, want, ranks, functools.partial(flatten_form, quad=quad))
        assert projector_gap(got, want) <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(
        order=st.integers(1, 3),
        n_s=st.integers(1, 5),
        n_t=st.integers(0, 5),
        theta=st.floats(0.5, 4.0),
        lam=st.one_of(st.just(0.0), st.floats(0.0, 0.8)),
        sweeps=st.integers(1, 3),
        warm=st.booleans(),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_class_update_equals_dense_phi_sweeps(
        self, order, n_s, n_t, theta, lam, sweeps, warm, data, seed
    ):
        # the eigen-phi class update against its dense reference: sweeps on
        # the stack weighted by build_phi's N x N matrix, from the HOSVD of
        # that weighted stack, which is also the update's cold start
        rng = np.random.default_rng(seed)
        dims = data.draw(st.lists(st.integers(2, 5), min_size=order, max_size=order))
        ranks = [data.draw(st.integers(1, d)) for d in dims]
        t = low_rank_tensor(rng, dims + [n_s + n_t], ranks)
        x, y = t[..., :n_s], t[..., n_s:]
        z_phi = mode_product(t, build_phi(n_s, n_t, theta, lam), order)
        forms = [flatten_form(z_phi, m) for m in range(order)]
        assume(all(separated(f, r) for f, r in zip(forms, ranks)))
        start = [eig_sym_topk(f, r)[1] for f, r in zip(forms, ranks)]
        want = list(start)
        for _ in range(sweeps):
            sweep(z_phi, want, ranks)
        got, a_c, b_c = update_class_dict(
            ClassSubproblem(t, n_s),
            ranks,
            sweeps,
            "eigen-phi",
            theta,
            lam,
            w_init=start if warm else None,
        )
        assert projector_gap(got, want) <= 1e-10
        # the codes, compared through the projections they reconstruct
        for codes, samples in ((a_c, x), (b_c, y)):
            rec = dict_apply(codes, got)
            ref = dict_apply(dict_project(samples, want), want)
            assert np.all(np.abs(rec - ref) <= 1e-10 * np.max(np.abs(t)))

    @pytest.mark.parametrize("skip_last", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_history_is_core_norm_and_core_is_projection(self, skip_last, seed):
        rng = np.random.default_rng(seed)
        dims, ranks = ((5, 4, 6, 7), (3, 2, 4)) if skip_last else ((5, 4, 6), (3, 2, 4))
        t = rng.standard_normal(dims)
        full = hooi(t, ranks, skip_last=skip_last, max_sweeps=6, tol=1e-300)
        assert len(full.fit_history) == 6
        for i, value in enumerate(full.fit_history):
            # the same deterministic path, stopped after sweep i
            factors = hooi(t, ranks, skip_last=skip_last, max_sweeps=i + 1, tol=1e-300).factors
            want = float(np.sum(dict_project(t, factors) ** 2))
            assert abs(value - want) <= 1e-12 * want
        assert np.max(np.abs(full.core - dict_project(t, full.factors))) <= 1e-12 * np.max(
            np.abs(full.core)
        )

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_product_count(self, order, monkeypatch):
        rng = np.random.default_rng(order)
        dims = (3,) * order + (4,)
        ranks = [2] * order
        t = rng.standard_normal(dims)
        # only order 1 has no more feature entries (3) than samples (4): its
        # cold start and its class update sweep the sample moment
        moment = 3**order <= 4
        factors = hosvd(t, ranks, skip_last=True)
        calls = []
        real = H.mode_product
        monkeypatch.setattr(H, "mode_product", lambda *a: calls.append(a[2]) or real(*a))
        per_sweep = (order - 1) + order * (order - 1) // 2
        sweep(t, list(factors), ranks)
        assert len(calls) == per_sweep

        # hooi, warm or cold started: the sweeps' products plus the one that
        # forms the returned core, and no projection of the tensor through
        # the tensor module (every dict_apply and dict_project goes through
        # its binding). A cold start on the moment makes no product per
        # sweep, and forms the core with one product per mode.
        def no_projection(*args):
            raise AssertionError("hooi projected the tensor")

        with monkeypatch.context() as guard:
            guard.setattr(T, "mode_product", no_projection)
            for init in (factors, None):
                calls.clear()
                res = hooi(t, ranks, skip_last=True, max_sweeps=3, tol=1e-300, init_factors=init)
                if init is None and moment:
                    assert len(calls) == order
                else:
                    assert len(calls) == len(res.fit_history) * per_sweep + 1

        # the class update: the same sweep, inner_sweeps times, or on the
        # moment no product at all
        sub = ClassSubproblem(t, 2)
        for method in ("eigen-phi", "exact"):
            calls.clear()
            update_class_dict(sub, ranks, 5, method=method, theta=2.0, lam=0.1, w_init=factors)
            assert len(calls) == (0 if moment else 5 * per_sweep)


class TestMomentSweep:
    @settings(max_examples=150, deadline=None)
    @given(
        order=st.integers(2, 3),
        route=st.sampled_from(["identity", "eigen-phi", "exact"]),
        lam=st.sampled_from([0.0, 0.1, 1.5]),
        n_s=st.integers(1, 6),
        n_t=st.integers(0, 6),
        warm=st.booleans(),
        sweeps=st.integers(1, 3),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_direct_sweep(self, order, route, lam, n_s, n_t, warm, sweeps, data, seed):
        # the same stack swept directly and on its sample moment: the domain
        # HOOI (identity on the sample mode) and both class routes, with Q's
        # source scale negative at lam 1.5, with and without target columns
        rng = np.random.default_rng(seed)
        dims = data.draw(st.lists(st.integers(2, 4), min_size=order, max_size=order))
        ranks = [data.draw(st.integers(1, d)) for d in dims]
        t = low_rank_tensor(rng, dims + [n_s + n_t], ranks)
        quad, n = None, n_s + n_t
        if route == "identity":
            swept, g, dense = t, _sample_moment(t), np.eye(n)
        elif route == "eigen-phi":
            phi = SampleOperator.phi(n_s, n_t, 2.0, lam)
            swept, g = phi.apply(t), phi.gram(n_t).moment(t)
            dense = build_phi(n_s, n_t, 2.0, lam).T @ build_phi(n_s, n_t, 2.0, lam)
        else:
            quad = SampleOperator.quadratic_form(n_s, n_t, 2.0, lam)
            swept, g, dense = t, quad.moment(t), class_update_quadratic_form(n_s, n_t, 2.0, lam)
        # the magnitude of the terms summed into a form: a weighted form can
        # be far smaller, by cancellation, and so be known only to eps times
        # this, in both computations
        scale = frobenius_norm(t) ** 2 * np.max(np.sum(np.abs(dense), axis=1))
        forms = []

        def form(h, m):
            forms.append(_mode_form(h, m, quad))
            return forms[-1]

        if warm:
            direct = [rand_orth(rng, d, r) for d, r in zip(dims, ranks)]
            moment = list(direct)
        else:
            direct = [eig_sym_topk(form(swept, m), r)[1] for m, r in enumerate(ranks)]
            moment = hosvd(t, ranks, skip_last=True, moment=g)
        gaps, values = [projector_gap(direct, moment)], []
        for _ in range(sweeps):
            _, want = sweep(swept, direct, ranks, form)
            got = moment_sweep(g, dims, moment, ranks)
            gaps.append(projector_gap(direct, moment))
            values.append((got, want))
        # every eigensolve had a unique top subspace, set apart by 1e-3 of
        # the scale: rounding then turns it by some 1e-13
        for i, f in enumerate(forms):
            v, r = np.linalg.eigvalsh(f)[::-1], ranks[i % order]
            assume(r == v.size or v[r - 1] - v[r] >= 1e-3 * scale)
        assert max(gaps) <= 1e-12
        for got, want in values:
            assert np.all(np.abs(got - want) <= 1e-12 * scale)
