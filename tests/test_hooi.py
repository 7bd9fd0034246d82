import functools
import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sdtdl.hooi import TuckerResult, _moment, eig_sym_topk, hooi, hosvd, moment_sweep, sweep
from sdtdl.solver import (
    ClassSubproblem,
    SampleOperator,
    _mode_form,
    update_class_dict,
)
from sdtdl.tensor import dict_apply, dict_project, frobenius_norm, mode_gram, mode_product

from oracles import (
    build_phi,
    class_update,
    class_update_quadratic_form,
    mode_flatten,
    suffix_sweep,
)

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

    def test_a_second_sweep_holds_no_more_than_the_first(self):
        # below the sample-block budget a sweep builds the last mode's whole
        # partial projection, 6/7 and then 36/49 of the object shape's class
        # stack; a sweep frees it before it returns
        dims, ranks = (7, 7, 64, 200), (6, 6, 28)
        assert projection_bytes(dims, ranks) <= H._SWEEP_BLOCK_BYTES
        rng = np.random.default_rng(13)
        t = rng.standard_normal(dims)
        start = [rand_orth(rng, d, r) for d, r in zip(dims, ranks)]
        peaks = []
        for sweeps in (1, 2):
            tracemalloc.start()
            try:
                hooi(t, ranks, skip_last=True, max_sweeps=sweeps, tol=1e-300, init_factors=start)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]

    @pytest.mark.parametrize("case", ["fractional-rank", "fractional-sweeps", "wide-factor"])
    def test_a_malformed_argument_raises(self, case):
        # each one a ValueError, not a rank truncated to 2, a TypeError from
        # the sweep loop, or a 5x3 start swept for a rank-2 mode of extent 5
        rng = np.random.default_rng(14)
        t = rng.standard_normal((5, 4, 3))
        start = [rand_orth(rng, 5, 3), rand_orth(rng, 4, 2), rand_orth(rng, 3, 2)]
        args, message = {
            "fractional-rank": ({"ranks": (2.5, 2, 2)}, "ranks must"),
            "fractional-sweeps": ({"ranks": (2, 2, 2), "max_sweeps": 2.5}, "max_sweeps must"),
            "wide-factor": ({"ranks": (2, 2, 2), "init_factors": start}, "init_factors must"),
        }[case]
        with pytest.raises(ValueError, match=message):
            hooi(t, **args)

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
        form = mode_gram if quad is None else functools.partial(_mode_form, quad=quad)
        for _ in range(2):
            sweep(t, got, ranks, form)
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
        # a sweep contracts through hooi's binding, and projects through
        # dict_project's, the tensor module's
        for module in (H, T):
            monkeypatch.setattr(module, "mode_product", lambda *a: calls.append(a[2]) or real(*a))
        # a sweep contracts the last mode, sweeps the leading modes of that
        # projection s, then projects t on the order - 1 leading factors.
        # The leading modes take their moment only when there are two or
        # more and the moment is no larger than s; else s is swept the same
        # way. Order 1: no product. Order 2: 1 + 1 (one leading mode).
        # Order 3: s is 3x3x2x4, a 9x9 moment over 8 columns, so s is swept
        # as order 2 (2 products): 1 + 2 + 2 = 5. Order 4: s is 3x3x3x2x4
        # (27 > 8), swept as order 3, whose 3x3x2x2x4 projection takes its
        # 9x9 moment over 16 columns (1 + 2 products): 1 + 3 + 3 = 7.
        per_sweep = {1: 0, 2: 2, 3: 5, 4: 7}[order]
        sweep(t, list(factors), ranks)
        assert len(calls) == per_sweep

        # hooi, warm or cold started: the sweeps' products, then one product
        # per mode for the returned core, the tensor projected from mode 0
        # on. A cold start on the moment makes no product per sweep.
        for init in (factors, None):
            calls.clear()
            res = hooi(t, ranks, skip_last=True, max_sweeps=3, tol=1e-300, init_factors=init)
            swept = 0 if init is None and moment else per_sweep
            assert len(calls) == len(res.fit_history) * swept + order
            assert calls[-order:] == list(range(order))

        # the class update: hooi with every sweep run, the same sweep
        # inner_sweeps times, or on the moment no product at all; then its
        # core, the stack projected one product per mode on either route
        sub = ClassSubproblem(t, 2)
        for method in ("eigen-phi", "exact"):
            calls.clear()
            update_class_dict(sub, ranks, 5, method=method, theta=2.0, lam=0.1, w_init=factors)
            assert len(calls) == (0 if moment else 5 * per_sweep) + order


class TestLeadingMoment:
    @settings(max_examples=150, deadline=None)
    @given(
        order=st.integers(2, 4),
        route=st.sampled_from(["gram", "eigen-phi", "exact"]),
        moment=st.booleans(),
        blocked=st.booleans(),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_suffix_sweep(self, order, route, moment, blocked, data, seed):
        # two warm sweeps of the package and of the oracle, which projects
        # the tensor for every mode, on the Gram, Phi-weighted and Q forms,
        # whole and over sample blocks (a coupling form stays whole), with
        # the sample count on the chosen side of the top level's rule: the
        # leading modes' moment is lead x lead, their projection s holds
        # lead * ranks[-1] * n entries
        rng = np.random.default_rng(seed)
        dims = data.draw(st.lists(st.integers(2, 4), min_size=order, max_size=order))
        ranks = [data.draw(st.integers(1, d)) for d in dims]
        least = -(-math.prod(dims[:-1]) // ranks[-1])  # fewest samples taking it
        if moment:
            n = data.draw(st.integers(max(least, 2), max(least, 2) + 3))
        else:
            assume(least > 2)
            n = data.draw(st.integers(2, least - 1))
        assume(all(r <= math.prod(ranks + [n]) // r for r in ranks))
        t = low_rank_tensor(rng, dims + [n], ranks)
        n_s = data.draw(st.integers(1, n))
        form, weight = mode_gram, np.eye(n)
        if route == "eigen-phi":
            t = SampleOperator.phi(n_s, n - n_s, 2.0, 0.1).apply(t)
        elif route == "exact":
            form = functools.partial(_mode_form, quad=SampleOperator.quadratic_form(
                n_s, n - n_s, 2.0, 0.1
            ))
            weight = class_update_quadratic_form(n_s, n - n_s, 2.0, 0.1)
        # ||Z||^2, times the largest absolute row sum of Q on the exact route
        scale = frobenius_norm(t) ** 2 * np.max(np.sum(np.abs(weight), axis=1))
        start = [rand_orth(rng, d, r) for d, r in zip(dims, ranks)]
        got, want, forms, values, widths = list(start), list(start), [], [], set()

        def solve(s, r):
            forms.append(s)
            return eig_sym_topk(s, r)

        real_project = H.dict_project

        def project(h, factors, modes=None):
            widths.add(h.shape[-1])
            return real_project(h, factors, modes)

        with pytest.MonkeyPatch.context() as patch:
            if blocked:
                patch.setattr(H, "_SWEEP_BLOCK_BYTES", data.draw(st.integers(8, 400)))
            assume((len(H._sample_blocks(t, ranks)) > 1) == blocked)
            for _ in range(2):
                patch.setattr(H, "eig_sym_topk", solve)
                patch.setattr(H, "dict_project", project)
                vals = sweep(t, got, ranks, form)
                patch.setattr(H, "eig_sym_topk", eig_sym_topk)
                patch.setattr(H, "dict_project", real_project)
                vals_want = suffix_sweep(t, want, ranks, form)
                # the last mode took sample blocks only on the Gram forms
                assert (widths != {n}) == (blocked and form is mode_gram)
                if order == 2:
                    # one leading mode: the same products as the oracle
                    assert np.array_equal(vals, vals_want)
                    assert all(np.array_equal(u, v) for u, v in zip(got, want))
                values.append(np.abs(vals - vals_want))
        # every eigensolve had a unique top subspace, set apart by 1e-3 of
        # the scale: rounding then turns it by some 1e-13
        for i, f in enumerate(forms):
            v, r = np.linalg.eigvalsh(f)[::-1], ranks[i % order]
            assume(r == v.size or v[r - 1] - v[r] >= 1e-3 * scale)
        assert projector_gap(got, want) <= 1e-12
        assert all(np.all(gap <= 1e-12 * scale) for gap in values)


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
            swept, g, dense = t, _moment(t, order), np.eye(n)
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
        form = mode_gram if quad is None else functools.partial(_mode_form, quad=quad)
        forms = []  # every matrix the direct path solves, one per mode in turn

        def solve(s, r):
            forms.append(s)
            return eig_sym_topk(s, r)

        if warm:
            direct = [rand_orth(rng, d, r) for d, r in zip(dims, ranks)]
            moment = list(direct)
        else:
            direct = [solve(form(swept, m), r)[1] for m, r in enumerate(ranks)]
            moment = hosvd(t, ranks, skip_last=True, moment=g)
        gaps, values = [projector_gap(direct, moment)], []
        for _ in range(sweeps):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(H, "eig_sym_topk", solve)
                want = sweep(swept, direct, ranks, form)
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


class TestClassUpdateThroughHooi:
    @pytest.mark.parametrize("blocked", [False, True])
    @settings(max_examples=120, deadline=None)
    @given(
        order=st.integers(1, 3),
        route=st.sampled_from(["eigen-phi", "exact"]),
        moment=st.booleans(),
        warm=st.booleans(),
        theta=st.floats(0.5, 4.0),
        lam=st.floats(0.0, 1.5),
        sweeps=st.integers(1, 3),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_update_with_its_own_loop(
        self, blocked, order, route, moment, warm, theta, lam, sweeps, data, seed
    ):
        # the class update as one hooi call against the oracle that chose its
        # own path, cold start and sweep loop, on both sides of P <= N.
        # Blocked, the budget lies below every partial projection: the
        # sweeps then block as the oracle's do, and the codes come from a
        # blocked core where the oracle projected the whole stack
        rng = np.random.default_rng(seed)
        dims = data.draw(st.lists(st.integers(2, 4), min_size=order, max_size=order))
        ranks = [data.draw(st.integers(1, d)) for d in dims]
        entries = math.prod(dims)
        n = data.draw(st.integers(entries, entries + 4) if moment else st.integers(1, entries - 1))
        sub = ClassSubproblem(rng.standard_normal(dims + [n]), data.draw(st.integers(1, n)))
        w_init = [rand_orth(rng, d, r) for d, r in zip(dims, ranks)] if warm else None
        with pytest.MonkeyPatch.context() as patch:
            if blocked:
                patch.setattr(H, "_SWEEP_BLOCK_BYTES", 1)
            want = class_update(sub, ranks, sweeps, route, theta, lam, w_init)
            got = update_class_dict(sub, ranks, sweeps, route, theta, lam, w_init)
        assert all(u.tobytes() == v.tobytes() for u, v in zip(got[0], want[0]))
        for a, b in zip(got[1:], want[1:]):
            assert a.shape == b.shape and a.flags.c_contiguous
            if blocked:
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-13 * np.max(np.abs(b), initial=0.0)
            else:
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("route", [None, "eigen-phi", "exact"])
    def test_the_moment_is_formed_for_a_cold_start_or_every_sweep(self, route, monkeypatch):
        # 12 feature entries and 40 samples; a warm start that stops on tol
        # sweeps directly, and so does any start with fewer samples
        rng = np.random.default_rng(21)
        t = low_rank_tensor(rng, (4, 3, 40), (2, 2))
        formed = []
        real_moment, real_op_moment = H._moment, SampleOperator.moment

        def moment(z, modes, form=mode_gram):
            # the sample moment, over every feature mode; a sweep's moment of
            # its leading modes leaves the last feature mode out
            if modes == z.ndim - 1:
                formed.append(1)
            return real_moment(z, modes, form)

        monkeypatch.setattr(H, "_moment", moment)
        monkeypatch.setattr(
            SampleOperator, "moment", lambda self, z: formed.append(1) or real_op_moment(self, z)
        )
        warm = hosvd(t, (2, 2), skip_last=True)

        def moments(x, **kwargs):
            n_s, n_t = x.shape[-1] // 2, x.shape[-1] - x.shape[-1] // 2
            op = None
            if route == "eigen-phi":
                op = SampleOperator.phi(n_s, n_t, 2.0, 0.1).gram(n_t)
            elif route == "exact":
                op = SampleOperator.quadratic_form(n_s, n_t, 2.0, 0.1)
            formed.clear()
            res = hooi(x, (2, 2), skip_last=True, max_sweeps=30, op=op, **kwargs)
            return len(formed), len(res.fit_history)

        count, sweeps = moments(t, init_factors=warm)
        assert count == 0 and sweeps < 30  # stopped on tol
        assert moments(t, init_factors=warm, tol=None) == (1, 30)
        assert moments(t)[0] == 1
        assert moments(t, tol=None) == (1, 30)
        # fewer samples than feature entries: never
        few = t[..., :10]
        assert moments(few, init_factors=warm, tol=None) == (0, 30)
        assert moments(few)[0] == 0


class TestCore:
    @settings(max_examples=150, deadline=None)
    @given(
        order=st.integers(1, 3),
        route=st.sampled_from([None, "eigen-phi", "exact"]),
        moment=st.booleans(),
        warm=st.booleans(),
        sweeps=st.integers(1, 3),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_an_unblocked_core_is_the_projection_on_the_factors(
        self, order, route, moment, warm, sweeps, data, seed
    ):
        # every path below the block budget: the identity's direct and
        # moment paths, eigen-phi's weighted copy and its moment, exact's
        # stack and its moment. Each forms the core as dict_project does,
        # from mode 0 on, so the two agree bit for bit
        rng = np.random.default_rng(seed)
        dims = data.draw(st.lists(st.integers(2, 4), min_size=order, max_size=order))
        ranks = [data.draw(st.integers(1, d)) for d in dims]
        entries = math.prod(dims)
        n = data.draw(st.integers(entries, entries + 4) if moment else st.integers(1, entries - 1))
        t = rng.standard_normal(dims + [n])
        n_s = data.draw(st.integers(1, n))
        op = None
        if route == "eigen-phi":
            op = SampleOperator.phi(n_s, n - n_s, 2.0, 0.1).gram(n - n_s)
        elif route == "exact":
            op = SampleOperator.quadratic_form(n_s, n - n_s, 2.0, 0.1)
        start = [rand_orth(rng, d, r) for d, r in zip(dims, ranks)] if warm else None
        assert H.takes_moment(t, order) == moment
        assert H._sample_blocks(t, ranks) == [slice(None)]
        res = hooi(t, ranks, skip_last=True, max_sweeps=sweeps, tol=None, init_factors=start, op=op)
        assert res.core.tobytes() == dict_project(t, res.factors).tobytes()


def projection_bytes(dims, ranks):
    """Bytes of the last compressed mode's partial projection of a tensor
    with ``dims``, the sample mode last: the quantity the block rule reads."""
    last = len(ranks) - 1
    return 8 * math.prod(ranks[:last]) * math.prod(dims[last:])


class TestSampleBlocks:
    # the object workload's domain sets (1,000 sources, 800 selected
    # targets) pass the budget; its class stacks and the 16x16 shapes of
    # wide-n and exact-n do not
    @pytest.mark.parametrize(
        "dims,ranks,count",
        [
            ((7, 7, 64, 1000), (6, 6, 28), 3),
            ((7, 7, 64, 800), (6, 6, 28), 2),
            ((7, 7, 64, 200), (6, 6, 28), None),
            ((16, 16, 5000), (4, 4), None),
            ((7, 7, 64, 1000), (6, 6, 28, 1000), None),  # no sample mode
            ((3136, 1000), (6,), None),  # one mode: its projection is the tensor
        ],
    )
    def test_rule_at_the_budget(self, dims, ranks, count):
        blocks = H._sample_blocks(np.empty(dims), ranks)
        if count is None:
            assert blocks == [slice(None)]
            return
        assert len(blocks) == count
        cols = np.arange(dims[-1])
        assert np.array_equal(np.concatenate([cols[c] for c in blocks]), cols)
        for c in blocks:
            n = len(cols[c])
            assert projection_bytes(dims[:-1] + (n,), ranks) <= H._SWEEP_BLOCK_BYTES
        # as few blocks as the budget allows
        assert projection_bytes(dims, ranks) > (count - 1) * H._SWEEP_BLOCK_BYTES

    @settings(max_examples=100, deadline=None)
    @given(
        order=st.integers(2, 3),
        n=st.integers(2, 9),
        budget=st.integers(8, 400),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_sweep_and_core_match_the_whole_ones(self, order, n, budget, data, seed):
        rng = np.random.default_rng(seed)
        dims = data.draw(st.lists(st.integers(2, 4), min_size=order, max_size=order))
        ranks = [data.draw(st.integers(1, d)) for d in dims]
        # each mode's form must have rank >= its rank, or its top subspace
        # is not unique and the two sweeps may pick different ones
        assume(all(r <= math.prod(ranks + [n]) // r for r in ranks))
        t = low_rank_tensor(rng, dims + [n], ranks)
        start = [rand_orth(rng, d, r) for d, r in zip(dims, ranks)]
        whole, blocked = list(start), list(start)
        forms = []
        for _ in range(2):
            want = sweep(t, whole, ranks)
            # the last mode's matrix: the projection on the updated leading factors
            forms.append(mode_gram(dict_project(t, whole[: order - 1]), order - 1))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(H, "_SWEEP_BLOCK_BYTES", budget)
                assume(len(H._sample_blocks(t, ranks)) > 1)
                got = sweep(t, blocked, ranks)
            # the block sums add the same terms in another order
            assert np.all(np.abs(got - want) <= 1e-12 * frobenius_norm(t) ** 2)
        assume(all(separated(f, ranks[-1]) for f in forms))
        assert projector_gap(blocked, whole) <= 1e-10
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(H, "_SWEEP_BLOCK_BYTES", budget)
            res = hooi(t, ranks, skip_last=True, max_sweeps=2, tol=1e-300, init_factors=start)
        want = dict_project(t, res.factors)
        assert res.core.shape == want.shape
        assert np.max(np.abs(res.core - want)) <= 1e-12 * frobenius_norm(t)

    @pytest.mark.parametrize("order", [2, 3])
    def test_one_eigensolve_per_mode_and_the_block_products(self, order, monkeypatch):
        rng = np.random.default_rng(order)
        dims, ranks = (4,) * order + (10,), [2] * order
        t = rng.standard_normal(dims)
        factors = hosvd(t, ranks, skip_last=True)
        monkeypatch.setattr(H, "_SWEEP_BLOCK_BYTES", projection_bytes(dims, ranks) // 3)
        count = len(H._sample_blocks(t, ranks))
        assert count == 4
        products, solves = [], []
        real_product, real_solve = H.mode_product, H.eig_sym_topk
        for module in (H, T):
            monkeypatch.setattr(
                module, "mode_product", lambda *a: products.append(a[2]) or real_product(*a)
            )
        monkeypatch.setattr(H, "eig_sym_topk", lambda *a: solves.append(1) or real_solve(*a))
        res = hooi(t, ranks, skip_last=True, max_sweeps=3, tol=1e-300, init_factors=factors)
        sweeps = len(res.fit_history)
        assert len(solves) == sweeps * order
        # a sweep: the last mode's contraction s, then each block projected
        # on the leading factors; the core: each block on every factor. The
        # leading modes add no product: order 2 has one, and on order 3 s
        # is 4x4x2x10, whose 16x16 moment over 20 columns they are swept on
        per_sweep = 1 + count * (order - 1)
        assert len(products) == sweeps * per_sweep + count * order

    def test_the_blocked_core_reads_each_block_in_place(self, monkeypatch):
        # past the last sweep the core stage holds the core, a block's
        # last-mode product (7/16 of the block) and its mode-0 product (a
        # quarter): 0.7 of a block beside the core, where a copy of the
        # block took 1.44
        dims, ranks = (5, 4, 16, 120), (3, 3, 7)
        rng = np.random.default_rng(6)
        t = rng.standard_normal(dims)
        start = [rand_orth(rng, d, r) for d, r in zip(dims, ranks)]
        monkeypatch.setattr(H, "_SWEEP_BLOCK_BYTES", projection_bytes(dims, ranks) // 4)
        real_blocks, held = H._sample_blocks, []

        def blocks(x, r):
            # called by each sweep and, last, by the core stage
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return real_blocks(x, r)

        monkeypatch.setattr(H, "_sample_blocks", blocks)
        tracemalloc.start()
        try:
            res = hooi(t, ranks, skip_last=True, max_sweeps=2, tol=1e-300, init_factors=start)
            peak = tracemalloc.get_traced_memory()[1] - held[-1]
        finally:
            tracemalloc.stop()
        cols = real_blocks(t, ranks)
        assert len(cols) == 4
        block_bytes = t[..., cols[0]].nbytes
        assert peak - res.core.nbytes < block_bytes
        # the same products as on C-contiguous block copies, bit for bit
        want = np.concatenate(
            [dict_project(np.ascontiguousarray(t[..., c]), res.factors, [2, 1, 0]) for c in cols],
            axis=-1,
        )
        assert res.core.tobytes() == want.tobytes()

    def test_a_form_that_couples_samples_stays_whole(self, monkeypatch):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((4, 3, 12))
        quad = SampleOperator.quadratic_form(5, 7, 2.0, 0.1)
        monkeypatch.setattr(H, "_SWEEP_BLOCK_BYTES", 64)
        seen = []

        def form(h, m):
            seen.append(h.shape[-1])
            return _mode_form(h, m, quad)

        sweep(t, hosvd(t, (2, 2), skip_last=True), (2, 2), form)
        # mode 0 on the last mode's contraction, then mode 1 in one whole block
        assert seen == [12, 12]

    def test_warm_hooi_holds_less_than_the_stack(self):
        # the object shape's source set passes the budget: the last mode's
        # partial projection and the core are formed by sample blocks, and
        # the largest arrays a sweep builds are its suffix products, 28/64
        # and 24/64 of the stack. Whole, the two products of the partial
        # projection would take 6/7 and 36/49 of it at once.
        dims, ranks = (7, 7, 64, 1000), (6, 6, 28)
        assert projection_bytes(dims, ranks) > H._SWEEP_BLOCK_BYTES
        rng = np.random.default_rng(5)
        t = rng.standard_normal(dims)
        start = [rand_orth(rng, d, r) for d, r in zip(dims, ranks)]
        tracemalloc.start()
        try:
            hooi(t, ranks, skip_last=True, max_sweeps=2, tol=1e-300, init_factors=start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t.nbytes
