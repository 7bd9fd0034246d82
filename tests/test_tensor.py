import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdtdl.hooi import TuckerResult
from sdtdl.tensor import (
    dict_apply,
    dict_project,
    frobenius_norm,
    mode_gram,
    mode_product,
    require_orthonormal,
)

from oracles import mode_flatten, mode_unflatten, stack_last


def rand_orth(rng, n, k):
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))


def flatten_oracle(t, mode):
    """Brute-force index enumeration of the mode flattening."""
    dims = t.shape
    other = [k for k in range(t.ndim) if k != mode]
    n_cols = int(np.prod([dims[k] for k in other])) if other else 1
    out = np.zeros((dims[mode], n_cols))
    for idx in np.ndindex(*dims):
        col = 0
        for k in other:  # C order: later indices vary fastest
            col = col * dims[k] + idx[k]
        out[idx[mode], col] = t[idx]
    return out


class TestFlatten:
    def test_order2_flatten_is_matrix(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(mode_flatten(t, 0), t)
        assert np.array_equal(mode_unflatten(mode_flatten(t, 0), 0, t.shape), t)
        assert np.array_equal(mode_unflatten(mode_flatten(t, 1), 1, t.shape), t)

    def test_roundtrip_3x4x5(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((3, 4, 5))
        for m in range(3):
            assert np.array_equal(mode_unflatten(mode_flatten(t, m), m, t.shape), t)

    def test_flatten_matches_index_oracle(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((2, 3, 4))
        assert np.array_equal(mode_flatten(t, 1), flatten_oracle(t, 1))

    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip_random_orders(self, seed):
        rng = np.random.default_rng(seed)
        order = rng.integers(1, 6)
        dims = tuple(rng.integers(1, 5, size=order))
        t = rng.standard_normal(dims)
        for m in range(order):
            assert np.array_equal(mode_flatten(t, m), flatten_oracle(t, m))
            assert np.array_equal(mode_unflatten(mode_flatten(t, m), m, dims), t)

    def test_unflatten_zero(self):
        z = mode_unflatten(np.zeros((2, 6)), 0, (2, 3, 2))
        assert np.array_equal(z, np.zeros((2, 3, 2)))

    def test_unflatten_1x2x3_oracle(self):
        mat = np.arange(6.0).reshape(1, 6)
        t = mode_unflatten(mat, 0, (1, 2, 3))
        assert np.array_equal(mode_flatten(t, 0), mat)

    def test_mode_out_of_range(self):
        t = np.zeros((2, 2))
        with pytest.raises(ValueError, match="out of range"):
            mode_flatten(t, 2)
        with pytest.raises(ValueError, match="out of range"):
            mode_flatten(t, -1)

    def test_unflatten_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            mode_unflatten(np.zeros((2, 5)), 0, (2, 3, 2))


class TestModeProduct:
    def test_identity(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((3, 4, 5))
        for m in range(3):
            assert np.allclose(mode_product(t, np.eye(t.shape[m]), m), t, atol=0)

    def test_matrix_route_equivalence(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((3, 4, 5))
        u = rng.standard_normal((2, 4))
        got = mode_flatten(mode_product(t, u, 1), 1)
        want = u @ mode_flatten(t, 1)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_distinct_modes_commute(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((3, 4, 5))
        u = rng.standard_normal((2, 3))
        v = rng.standard_normal((6, 4))
        a = mode_product(mode_product(t, u, 0), v, 1)
        b = mode_product(mode_product(t, v, 1), u, 0)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="cannot act"):
            mode_product(np.zeros((3, 4)), np.zeros((2, 5)), 1)

    @settings(max_examples=200, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        empty_samples=st.booleans(),
        transposed=st.booleans(),
        rows=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_flatten_definition(self, dims, empty_samples, transposed, rows, seed):
        rng = np.random.default_rng(seed)
        if empty_samples:
            dims[-1] = 0
        if transposed:
            # a non-contiguous view with extents dims
            t = rng.standard_normal(dims[::-1]).transpose()
        else:
            t = rng.standard_normal(dims)
        for m in range(t.ndim):
            u = rng.standard_normal((rows, t.shape[m]))
            got = mode_product(t, u, m)
            new_dims = list(t.shape)
            new_dims[m] = rows
            want = mode_unflatten(u @ mode_flatten(t, m), m, new_dims)
            scale = mode_unflatten(np.abs(u) @ np.abs(mode_flatten(t, m)), m, new_dims)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12 * scale)


class TestModeGram:
    @settings(max_examples=200, deadline=None)
    @given(
        dims=st.lists(st.integers(0, 4), min_size=1, max_size=4),
        with_other=st.booleans(),
        transposed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_flatten_product(self, dims, with_other, transposed, seed):
        rng = np.random.default_rng(seed)
        if transposed:
            # a non-contiguous view with extents dims
            t = rng.standard_normal(dims[::-1]).transpose()
        else:
            t = rng.standard_normal(dims)
        o = rng.standard_normal(dims) if with_other else None
        for m in range(t.ndim):
            got = mode_gram(t, m, o)
            a = mode_flatten(t, m)
            b = a if o is None else mode_flatten(o, m)
            want = a @ b.T
            scale = np.abs(a) @ np.abs(b).T
            assert got.shape == want.shape == (dims[m], dims[m])
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            mode_gram(np.zeros((2, 3)), 0, np.zeros((2, 4)))


class TestMultiProduct:
    def test_identities(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((2, 3, 4))
        assert np.allclose(dict_apply(t, [np.eye(d) for d in t.shape]), t, atol=0)

    def test_projection_nonexpansive(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((4, 5, 6))
        ws = [rand_orth(rng, d, d - 1) for d in t.shape]
        proj = dict_project(t, ws)
        assert frobenius_norm(proj) <= frobenius_norm(t) + 1e-12

    def test_matches_sequential_chain(self):
        rng = np.random.default_rng(7)
        t = rng.standard_normal((3, 4, 5))
        mats = [rng.standard_normal((2, 3)), rng.standard_normal((3, 4)), rng.standard_normal((4, 5))]
        seq = t
        for m, u in enumerate(mats):
            seq = mode_product(seq, u, m)
        assert np.max(np.abs(dict_apply(t, mats) - seq)) <= 1e-12

    def test_any_mode_order_identical(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((3, 4, 5))
        mats = [rng.standard_normal((2, 3)), rng.standard_normal((3, 4)), rng.standard_normal((4, 5))]
        ref = dict_apply(t, mats)
        for order in [(2, 1, 0), (1, 0, 2), (0, 2, 1)]:
            alt = t
            for m in order:
                alt = mode_product(alt, mats[m], m)
            assert np.max(np.abs(alt - ref)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_folds_flatten_definition_over_leading_modes(self, dims, data, seed):
        rng = np.random.default_rng(seed)
        k = data.draw(st.integers(0, len(dims)), label="factor count")
        t = rng.standard_normal(dims)
        mats = [rng.standard_normal((int(rng.integers(1, 5)), d)) for d in dims[:k]]
        want, scale = t, np.abs(t)
        for m, u in enumerate(mats):
            new_dims = list(want.shape)
            new_dims[m] = u.shape[0]
            want = mode_unflatten(u @ mode_flatten(want, m), m, new_dims)
            scale = mode_unflatten(np.abs(u) @ mode_flatten(scale, m), m, new_dims)
        got = dict_apply(t, mats)
        # the modes past the factors keep their extents
        assert got.shape == tuple(u.shape[0] for u in mats) + tuple(dims[k:])
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        ws = [u.T for u in mats]
        assert np.array_equal(dict_project(t, ws), dict_apply(t, [w.T for w in ws]))


class TestDictApplyOut:
    @settings(max_examples=300, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_sample_slice_takes_the_product_bitwise(self, dims, data, seed):
        rng = np.random.default_rng(seed)
        ranks = [data.draw(st.integers(1, d)) for d in dims]
        lo, n, after = (data.draw(st.integers(0, 4)) for _ in range(3))
        codes = rng.standard_normal(ranks + [n])
        factors = [rng.standard_normal((d, r)) for d, r in zip(dims, ranks)]
        z = np.full(dims + [lo + n + after], np.nan)
        cols = z[..., lo : lo + n]
        assert dict_apply(codes, factors, out=cols) is cols
        assert cols.tobytes() == dict_apply(codes, factors).tobytes()
        # the columns around the slice are untouched
        assert np.isnan(z[..., :lo]).all() and np.isnan(z[..., lo + n :]).all()

    def test_a_whole_c_order_tensor_takes_the_product(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((2, 3, 4))
        factors = [rng.standard_normal((d + 1, d)) for d in t.shape]
        out = np.empty((3, 4, 5))
        assert dict_apply(t, factors, out=out) is out
        assert out.tobytes() == dict_apply(t, factors).tobytes()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.zeros((3, 4, 5, 6), order="F"),
            lambda: np.zeros((3, 5, 5, 6))[:, :4],  # a leading-mode slice
            lambda: np.zeros((3, 4, 5, 6), dtype=np.float32),
            lambda: np.zeros((3, 4, 5, 7)),
        ],
        ids=["fortran-order", "leading-slice", "float32", "wrong-shape"],
    )
    def test_an_out_that_needs_a_copy_is_rejected(self, make):
        rng = np.random.default_rng(10)
        codes = rng.standard_normal((2, 2, 2, 6))
        factors = [rng.standard_normal((d, 2)) for d in (3, 4, 5)]
        out = make()
        with pytest.raises(ValueError):
            dict_apply(codes, factors, out=out)
        assert not out.any()

    def test_an_out_without_a_product_is_rejected(self):
        t, out = np.ones((3, 4)), np.zeros((3, 4))
        with pytest.raises(ValueError, match="no"):
            dict_apply(t, [], out=out)
        assert not out.any()


class TestTucker:
    def test_reconstruct_is_dict_apply(self):
        rng = np.random.default_rng(12)
        core = rng.standard_normal((2, 2, 2))
        factors = [rand_orth(rng, 4, 2) for _ in range(3)]
        rec = TuckerResult(core=core, factors=factors).reconstruct()
        assert np.array_equal(rec, dict_apply(core, factors))
        # a result with a skipped sample mode leaves that mode as it is
        rec = TuckerResult(core=core, factors=factors[:2]).reconstruct()
        assert np.array_equal(rec, mode_product(mode_product(core, factors[0], 0), factors[1], 1))

    def test_square_orthonormal_roundtrip(self):
        rng = np.random.default_rng(13)
        t = rng.standard_normal((4, 5, 3))
        qs = [rand_orth(rng, d, d) for d in t.shape]
        rec = dict_apply(dict_project(t, qs), qs)
        assert np.max(np.abs(rec - t)) <= 1e-10

    def test_rank_deficient_error_equals_projection_residual(self):
        rng = np.random.default_rng(14)
        t = rng.standard_normal((4, 5, 6))
        ws = [rand_orth(rng, d, 2) for d in t.shape]
        rec = dict_apply(dict_project(t, ws), ws)
        # explicit projector oracle: P = W W^T applied per mode
        proj = dict_apply(t, [w @ w.T for w in ws])
        assert np.max(np.abs(rec - proj)) <= 1e-10
        assert abs(frobenius_norm(t - rec) - frobenius_norm(t - proj)) <= 1e-10

    def test_zero_tensor_zero_core(self):
        rng = np.random.default_rng(15)
        ws = [rand_orth(rng, 4, 2), rand_orth(rng, 3, 2)]
        assert np.array_equal(dict_project(np.zeros((4, 3)), ws), np.zeros((2, 2)))

    def test_norm_preserved_under_square_orthonormal(self):
        rng = np.random.default_rng(16)
        t = rng.standard_normal((3, 4, 5))
        qs = [rand_orth(rng, d, d) for d in t.shape]
        assert abs(frobenius_norm(dict_apply(t, qs)) - frobenius_norm(t)) <= 1e-10


class TestStackLast:
    def test_stack_with_empty(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((3, 4, 5))
        empty = np.zeros((3, 4, 0))
        assert np.array_equal(stack_last(a, empty), a)

    def test_slices_preserved(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((3, 4, 2))
        s = stack_last(a, b)
        assert s.shape == (3, 4, 7)
        for k in range(5):
            assert np.array_equal(s[..., k], a[..., k])
        for k in range(2):
            assert np.array_equal(s[..., 5 + k], b[..., k])

    def test_frobenius_pythagoras(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 3, 3))
        assert np.isclose(
            frobenius_norm(stack_last(a, b)) ** 2,
            frobenius_norm(a) ** 2 + frobenius_norm(b) ** 2,
        )

    def test_leading_dims_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            stack_last(np.zeros((2, 3, 1)), np.zeros((2, 4, 1)))


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_one_hot(self):
        t = np.zeros((2, 3, 4))
        t[1, 2, 0] = 1.0
        assert frobenius_norm(t) == 1.0

    def test_matches_elementwise_sum(self):
        rng = np.random.default_rng(20)
        t = rng.standard_normal((3, 4, 2))
        direct = np.sqrt(sum(t[idx] ** 2 for idx in np.ndindex(*t.shape)))
        assert np.isclose(frobenius_norm(t), direct, atol=1e-12)


class TestValidation:
    def test_orthonormal_checks(self):
        rng = np.random.default_rng(21)
        q = rand_orth(rng, 5, 3)
        require_orthonormal(q)
        with pytest.raises(ValueError, match="not orthonormal"):
            require_orthonormal(rng.standard_normal((5, 3)))
        with pytest.raises(ValueError, match="not orthonormal"):
            require_orthonormal(np.full((5, 3), np.nan))
        with pytest.raises(ValueError, match="tall"):
            require_orthonormal(np.zeros((2, 3)))
