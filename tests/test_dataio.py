import io
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from sdtdl.dataio import (
    BadMagicError,
    SyntheticSpec,
    TensorFileError,
    TruncatedPayloadError,
    UnsupportedVersionError,
    _model_entries,
    _read_tensor,
    draw_structure,
    generate_synthetic,
    load_model,
    read_labels,
    read_tensor,
    save_model,
    write_labels,
    write_tensor,
)
from sdtdl.solver import Hyperparams, SdtdlModel, nearest_centroid_labels
from sdtdl.tensor import dict_apply

from oracles import tensor_to_bytes


def rand_orth(rng, n, k):
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))


class TestTensorFile:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        for shape in [(3,), (2, 3), (4, 3, 2), (1, 1, 1, 5)]:
            t = rng.standard_normal(shape)
            path = tmp_path / "t.stdl"
            write_tensor(path, t)
            back = read_tensor(path)
            assert back.shape == t.shape
            assert np.array_equal(back, t)

    def test_order_zero_roundtrips(self, tmp_path):
        # as a file and as a model blob, an order-0 tensor stays order 0
        t = np.array(3.0)
        write_tensor(tmp_path / "t.stdl", t)
        buf = tensor_to_bytes(t)
        assert (tmp_path / "t.stdl").read_bytes() == buf
        assert int.from_bytes(buf[6:8], "little") == 0  # order
        assert len(buf) == 8 + 8
        for back in (read_tensor(tmp_path / "t.stdl"), _read_tensor(io.BytesIO(buf), len(buf))):
            assert back.shape == ()
            assert back == t

    def test_header_layout(self):
        buf = tensor_to_bytes(np.zeros((2, 3)))
        assert buf[:4] == b"STDL"
        assert int.from_bytes(buf[4:6], "little") == 1  # version
        assert int.from_bytes(buf[6:8], "little") == 2  # order
        assert int.from_bytes(buf[8:16], "little") == 2
        assert int.from_bytes(buf[16:24], "little") == 3
        assert len(buf) == 24 + 6 * 8

    def test_payload_is_c_order(self):
        t = np.arange(6.0).reshape(2, 3)
        buf = tensor_to_bytes(t)
        values = np.frombuffer(buf[24:], dtype="<f8")
        assert np.array_equal(values, [0, 1, 2, 3, 4, 5])

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda t: t, id="c-order"),
            pytest.param(np.asfortranarray, id="f-order"),
            pytest.param(lambda t: t.astype(np.float32), id="float32"),
        ],
    )
    def test_written_bytes_are_tensor_to_bytes(self, tmp_path, make):
        t = make(np.random.default_rng(1).standard_normal((4, 3, 5)))
        write_tensor(tmp_path / "t.stdl", t)
        assert (tmp_path / "t.stdl").read_bytes() == tensor_to_bytes(t)

    def test_write_holds_no_copy_of_the_payload(self, tmp_path):
        # a C-order float64 tensor is written from its own buffer; a bytes
        # payload and the header joined to it took two copies
        t = np.random.default_rng(2).standard_normal((8, 8, 2000))
        tracemalloc.start()
        try:
            write_tensor(tmp_path / "t.stdl", t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * t.nbytes

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.stdl"
        path.write_bytes(b"NOPE" + tensor_to_bytes(np.zeros(2))[4:])
        with pytest.raises(BadMagicError):
            read_tensor(path)

    def test_unsupported_version(self, tmp_path):
        buf = bytearray(tensor_to_bytes(np.zeros(2)))
        buf[4:6] = (99).to_bytes(2, "little")
        path = tmp_path / "t.stdl"
        path.write_bytes(bytes(buf))
        with pytest.raises(UnsupportedVersionError):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.stdl"
        path.write_bytes(tensor_to_bytes(np.zeros((2, 2)))[:-1])
        with pytest.raises(TruncatedPayloadError, match="truncated payload"):
            read_tensor(path)

    def test_truncated_dims(self, tmp_path):
        path = tmp_path / "t.stdl"
        path.write_bytes(tensor_to_bytes(np.zeros((2, 2)))[:10])
        with pytest.raises(TruncatedPayloadError, match="truncated dims"):
            read_tensor(path)

    def test_every_proper_prefix_is_truncated(self, tmp_path):
        buf = tensor_to_bytes(np.arange(6.0).reshape(2, 3))
        cut = tmp_path / "cut.stdl"
        for length in range(len(buf)):
            cut.write_bytes(buf[:length])
            with pytest.raises(TruncatedPayloadError):
                read_tensor(cut)

    @pytest.mark.parametrize("extra", [1, 8])
    def test_bytes_after_the_payload_are_a_file_error(self, tmp_path, extra):
        # a 2x3 file with 8 bytes appended used to read back as the 2x3 tensor
        buf = tensor_to_bytes(np.arange(6.0).reshape(2, 3))
        path = tmp_path / "t.stdl"
        path.write_bytes(buf + bytes(extra))
        with pytest.raises(TensorFileError, match=f"{extra} bytes after the tensor payload"):
            read_tensor(path)
        # a model file's blobs are followed by others: the blob reader stops
        # at the payload's end
        fh = io.BytesIO(buf + bytes(extra))
        assert np.array_equal(_read_tensor(fh, len(buf) + extra), np.arange(6.0).reshape(2, 3))
        assert fh.tell() == len(buf)

    @pytest.mark.parametrize("dims", [(131072, 65536), (2**31, 2**31)])
    def test_oversized_header_is_truncated(self, tmp_path, dims):
        # checked against the file size before the payload is allocated
        path = tmp_path / "big.stdl"
        path.write_bytes(tensor_to_bytes(np.zeros((0, 0)))[:8] + struct.pack("<2Q", *dims))
        assert path.stat().st_size == 24
        with pytest.raises(TruncatedPayloadError):
            read_tensor(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "bad.stdl"
        with open(path, "wb") as fh:
            fh.write(tensor_to_bytes(np.array([1.0, np.inf])))
        with pytest.raises(Exception, match="non-finite"):
            read_tensor(path)


class TestLabels:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_labels(path, [1, 3, 2, 1])
        assert np.array_equal(read_labels(path), [1, 3, 2, 1])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1\n\n2\n  \n3\n")
        assert np.array_equal(read_labels(path), [1, 2, 3])

    def test_nonpositive_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1\n0\n")
        with pytest.raises(ValueError, match="1-based"):
            read_labels(path)

    def test_nonint_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1\nx\n")
        with pytest.raises(ValueError):
            read_labels(path)


def make_model(rng, with_target=True):
    dims, ranks, C = (4, 5), (2, 3), 2
    return SdtdlModel(
        u_source=[rand_orth(rng, d, r) for d, r in zip(dims, ranks)],
        u_target=(
            [rand_orth(rng, d, r) for d, r in zip(dims, ranks)] if with_target else None
        ),
        w_class=[[rand_orth(rng, d, r) for d, r in zip(dims, ranks)] for _ in range(C)],
        class_means_source=[rng.standard_normal(ranks) for _ in range(C)],
        hyper=Hyperparams(ranks=ranks, theta=3.5, lam=0.25, gamma=0.4, delta=0.9),
    )


def read_container(path):
    """Name -> tensor of every entry of a model container."""
    buf = path.read_bytes()
    (count,) = struct.unpack_from("<I", buf, 6)
    entries, pos = {}, 10
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", buf, pos)
        name = buf[pos + 2 : pos + 2 + name_len].decode()
        (off,) = struct.unpack_from("<Q", buf, pos + 2 + name_len)
        (order,) = struct.unpack_from("<H", buf, off + 6)
        dims = struct.unpack_from(f"<{order}Q", buf, off + 8)
        payload = off + 8 + 8 * order
        entries[name] = np.frombuffer(buf, "<f8", math.prod(dims), payload).reshape(dims)
        pos += 2 + name_len + 8
    return entries


def write_container(path, entries):
    """A model container holding ``entries`` in the documented layout; a
    surrogate-escaped name is written as its raw, possibly non-UTF-8, bytes."""
    names = [name.encode("utf-8", "surrogateescape") for name in entries]
    blobs = [tensor_to_bytes(t) for t in entries.values()]
    pos = 10 + sum(2 + len(n) + 8 for n in names)
    manifest = b"STDM" + struct.pack("<HI", 1, len(names))
    for name, blob in zip(names, blobs):
        manifest += struct.pack("<H", len(name)) + name + struct.pack("<Q", pos)
        pos += len(blob)
    path.write_bytes(manifest + b"".join(blobs))


def with_hyper(entries, index, value):
    hyper = entries["hyper"].copy()
    hyper[index] = value
    return {**entries, "hyper": hyper}


class TestModelFile:
    @pytest.mark.parametrize("with_target", [True, False])
    def test_roundtrip(self, tmp_path, with_target):
        rng = np.random.default_rng(1)
        model = make_model(rng, with_target=with_target)
        path = tmp_path / "model.stdm"
        save_model(path, model)
        back = load_model(path)
        hp, hp2 = model.hyper, back.hyper
        assert (hp2.theta, hp2.lam, hp2.gamma, hp2.delta) == (
            hp.theta,
            hp.lam,
            hp.gamma,
            hp.delta,
        )
        assert hp2.ranks == hp.ranks
        assert (hp2.max_outer_iters, hp2.inner_sweeps, hp2.tol) == (
            hp.max_outer_iters,
            hp.inner_sweeps,
            hp.tol,
        )
        for a, b in zip(model.u_source, back.u_source):
            assert np.array_equal(a, b)
        if with_target:
            for a, b in zip(model.u_target, back.u_target):
                assert np.array_equal(a, b)
        else:
            assert back.u_target is None
        assert back.class_count == model.class_count
        for wa, wb in zip(model.w_class, back.w_class):
            for a, b in zip(wa, wb):
                assert np.array_equal(a, b)
        for a, b in zip(model.class_means_source, back.class_means_source):
            assert np.array_equal(a, b)

    def test_every_blob_sits_at_its_manifest_offset(self, tmp_path):
        # the blobs run back to back after the manifest, each the encoded
        # tensor of its entry; an F-order factor and float32 class means
        # are written as C-order float64, as the layout says
        model = make_model(np.random.default_rng(6))
        model.u_source[0] = np.asfortranarray(model.u_source[0])
        model.class_means_source[0] = model.class_means_source[0].astype(np.float32)
        path = tmp_path / "model.stdm"
        save_model(path, model)
        buf = path.read_bytes()
        entries = _model_entries(model)
        assert struct.unpack_from("<4sHI", buf) == (b"STDM", 1, len(entries))
        pos, offsets = 10, []
        for name, _ in entries:
            (size,) = struct.unpack_from("<H", buf, pos)
            assert buf[pos + 2 : pos + 2 + size] == name.encode()
            offsets += struct.unpack_from("<Q", buf, pos + 2 + size)
            pos += 2 + size + 8
        for off, (_, t) in zip(offsets, entries):
            blob = tensor_to_bytes(t)
            assert off == pos
            assert buf[off : off + len(blob)] == blob
            pos += len(blob)
        assert pos == len(buf)

    def test_a_file_with_target_class_means_still_loads(self, tmp_path):
        # files written before the model dropped its target class means hold
        # 'mean_tgt/c' entries, which nothing reads
        model = make_model(np.random.default_rng(5))
        path = tmp_path / "model.stdm"
        save_model(path, model)
        entries = read_container(path)
        assert not [name for name in entries if name.startswith("mean_tgt/")]
        old = tmp_path / "old.stdm"
        means = {f"mean_tgt/{c}": np.ones(model.hyper.ranks) for c in range(2)}
        write_container(old, {**entries, **means})
        back = load_model(old)
        assert back.hyper == model.hyper
        for a, b in [
            *zip(model.u_source, back.u_source),
            *zip(model.u_target, back.u_target),
            *zip(model.class_means_source, back.class_means_source),
            *((a, b) for wa, wb in zip(model.w_class, back.w_class) for a, b in zip(wa, wb)),
        ]:
            assert np.array_equal(a, b)

    def test_every_proper_prefix_is_a_file_error(self, tmp_path):
        path = tmp_path / "model.stdm"
        save_model(path, make_model(np.random.default_rng(2)))
        buf = path.read_bytes()
        cut = tmp_path / "cut.stdm"
        for length in range(len(buf)):
            cut.write_bytes(buf[:length])
            with pytest.raises(TruncatedPayloadError):
                load_model(cut)

    def test_malformed_container_names_the_entry(self, tmp_path):
        path = tmp_path / "model.stdm"
        save_model(path, make_model(np.random.default_rng(3)))
        entries = read_container(path)
        bad = tmp_path / "bad.stdm"
        write_container(bad, entries)
        assert bad.read_bytes() == path.read_bytes()
        for name in entries:
            write_container(bad, {k: v for k, v in entries.items() if k != name})
            with pytest.raises(TensorFileError, match=f"no entry '{name}'"):
                load_model(bad)
        for name, short, shown in [
            ("hyper", entries["hyper"][:5], "hyper"),
            # a short 'ranks' shows as class means of the wrong shape
            ("ranks", entries["ranks"][:1], "mean_src/0"),
        ]:
            write_container(bad, {**entries, name: short})
            with pytest.raises(TensorFileError, match=f"entry '{shown}' has shape"):
                load_model(bad)

    @pytest.mark.parametrize(
        "edit, message",
        [
            # a column: its codes used to broadcast against the class means
            (
                lambda e: {**e, "w/0/0": e["w/0/0"][:, :1]},
                "'w/0/0' has shape (4, 1), expected (4, 2)",
            ),
            (lambda e: {**e, "w/0/0": np.eye(6)[:, :2]}, "'w/0/0' has shape (6, 2), expected"),
            (lambda e: {**e, "u_target/1": np.eye(5)[:, :2]}, "'u_target/1' has shape (5, 2)"),
            (lambda e: {k.replace("hyper", "\udcffyper"): v for k, v in e.items()}, "not UTF-8"),
            (lambda e: with_hyper(e, 7, -1.0), "class count -1 and target flag 1"),
            (lambda e: with_hyper(e, 7, 0.0), "class count 0 and target flag 1"),
            (lambda e: with_hyper(e, 7, 2.5), "class count 2.5 and target flag 1"),
            (lambda e: with_hyper(e, 8, 0.5), "class count 2 and target flag 0.5"),
            # these used to load truncated, as ranks (2, 3) and 2 iterations or sweeps
            (
                lambda e: {**e, "ranks": np.array([2.5, 3.0])},
                "ranks must be an integer >= 1, got 2.5",
            ),
            (lambda e: with_hyper(e, 4, 2.5), "max_outer_iters must be an integer >= 0, got 2.5"),
            (lambda e: with_hyper(e, 5, 2.5), "inner_sweeps must be an integer >= 1, got 2.5"),
        ],
        ids=[
            "column-class-factor", "tall-class-factor", "narrow-target-factor",
            "non-utf8-name", "negative-class-count", "zero-class-count",
            "fractional-class-count", "fractional-flag", "fractional-rank",
            "fractional-outer-iters", "fractional-inner-sweeps",
        ],
    )
    def test_malformed_model_is_a_file_error(self, tmp_path, edit, message):
        path = tmp_path / "model.stdm"
        save_model(path, make_model(np.random.default_rng(3)))
        bad = tmp_path / "bad.stdm"
        write_container(bad, edit(read_container(path)))
        with pytest.raises(TensorFileError, match=re.escape(message)):
            load_model(bad)

    @pytest.mark.parametrize(
        "pick, scale, message",
        [
            (lambda m: m.u_target[0], np.nan, "entry 'u_target/0': .* non-finite"),
            (lambda m: m.class_means_source[0], np.inf, "entry 'mean_src/0': .* non-finite"),
            (lambda m: m.u_target[0], 2.0, r"u_target\[0\] columns are not orthonormal"),
            (lambda m: m.w_class[0][1], -2.0, r"w_class\[0\]\[1\] columns are not orthonormal"),
        ],
        ids=["nan-factor", "inf-mean", "scaled-factor", "scaled-class-factor"],
    )
    def test_bad_model_values_are_file_errors(self, tmp_path, pick, scale, message):
        # save_model writes whatever it is given; load_model holds each blob to
        # the tensor-file checks and the model to orthonormal factors
        model = make_model(np.random.default_rng(4))
        pick(model)[...] *= scale
        path = tmp_path / "model.stdm"
        save_model(path, model)
        with pytest.raises(TensorFileError, match=message):
            load_model(path)

    def test_model_magic_checked(self, tmp_path):
        path = tmp_path / "model.stdm"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(BadMagicError):
            load_model(path)


class TestSyntheticSpec:
    def test_rank_exceeds_dim(self):
        with pytest.raises(ValueError, match="exceed"):
            SyntheticSpec(
                class_count=2, dims=(3, 3), ranks=(4, 2),
                n_source_per_class=1, n_target_per_class=1,
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            SyntheticSpec(
                class_count=2, dims=(3, 3), ranks=(2,),
                n_source_per_class=1, n_target_per_class=1,
            )

    def test_nonpositive_counts(self):
        with pytest.raises(ValueError):
            SyntheticSpec(
                class_count=0, dims=(3,), ranks=(2,),
                n_source_per_class=1, n_target_per_class=1,
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dims", (7.9, 8)),
            ("ranks", (2, 2.5)),
            ("class_count", 2.5),
            ("n_source_per_class", 3.7),
            ("n_target_per_class", 1.5),
        ],
    )
    def test_fractional_count(self, field, value):
        # dims and ranks were truncated through int(), and the counts failed
        # later, inside generate_synthetic, with a TypeError
        kw = dict(class_count=2, dims=(8, 8), ranks=(2, 2), n_source_per_class=3,
                  n_target_per_class=3)
        kw[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            SyntheticSpec(**kw)

    def test_negative_noise(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SyntheticSpec(
                class_count=1, dims=(3,), ranks=(2,),
                n_source_per_class=1, n_target_per_class=1, noise=-0.1,
            )

    @pytest.mark.parametrize("field", ["mean_separation", "domain_strength"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_bad_scale(self, field, value):
        # a NaN mean_separation used to keep the unscaled means silently, and
        # an infinite domain_strength failed later on non-finite samples
        with pytest.raises(ValueError, match=f"{field} must be finite and nonnegative"):
            SyntheticSpec(
                class_count=2, dims=(4, 4), ranks=(2, 2),
                n_source_per_class=3, n_target_per_class=3, **{field: value},
            )


def loop_generator(spec):
    """The per-sample generator that the batched one replaced: two one-sample
    dict_apply calls and, with noise, one noise draw per sample."""
    rng = np.random.default_rng(spec.seed)
    C, dims, ranks = spec.class_count, spec.dims, spec.ranks
    u_s, u_t, w, means, dom_mean_s, dom_mean_t = draw_structure(rng, spec)

    def draw_domain(u_dom, dom_mean, n_per_class):
        labels = np.repeat(np.arange(1, C + 1), n_per_class)
        samples = np.zeros(dims + (labels.size,))
        for j, c in enumerate(labels):
            d_code = dom_mean + rng.standard_normal(ranks)
            c_code = means[c - 1] + rng.standard_normal(ranks)
            x = dict_apply(d_code[..., None], u_dom) + dict_apply(c_code[..., None], w[c - 1])
            if spec.noise > 0:
                x = x + spec.noise * rng.standard_normal(x.shape)
            samples[..., j] = x[..., 0]
        return samples, labels

    src = draw_domain(u_s, dom_mean_s, spec.n_source_per_class)
    tgt = draw_domain(u_t, dom_mean_t, spec.n_target_per_class)
    return src, tgt


class TestGenerator:
    def spec(self, **overrides):
        base = dict(
            class_count=3,
            dims=(10, 10),
            ranks=(2, 2),
            n_source_per_class=5,
            n_target_per_class=5,
            noise=0.1,
            shift=0.5,
            seed=7,
        )
        base.update(overrides)
        return SyntheticSpec(**base)

    def test_deterministic_bitwise(self):
        s1, t1, y1 = generate_synthetic(self.spec())
        s2, t2, y2 = generate_synthetic(self.spec())
        assert np.array_equal(s1.samples, s2.samples)
        assert np.array_equal(t1.samples, t2.samples)
        assert np.array_equal(s1.labels, s2.labels)
        assert np.array_equal(y1, y2)

    def test_seed_changes_data(self):
        s1, _, _ = generate_synthetic(self.spec(seed=1))
        s2, _, _ = generate_synthetic(self.spec(seed=2))
        assert not np.array_equal(s1.samples, s2.samples)

    def test_shapes_and_labels(self):
        source, target, truth = generate_synthetic(self.spec())
        assert source.samples.shape == (10, 10, 15)
        assert target.samples.shape == (10, 10, 15)
        assert target.labels is None
        assert np.array_equal(source.labels, np.repeat([1, 2, 3], 5))
        assert np.array_equal(truth, np.repeat([1, 2, 3], 5))

    def test_structure_orthonormal(self):
        spec = self.spec()
        rng = np.random.default_rng(spec.seed)
        u_s, u_t, w, means, dm_s, dm_t = draw_structure(rng, spec)
        for mats in [u_s, u_t] + w:
            for u in mats:
                assert np.max(np.abs(u.T @ u - np.eye(u.shape[1]))) <= 1e-10

    def test_class_dicts_disjoint_when_budget_allows(self):
        spec = self.spec(dims=(10, 10), ranks=(2, 2), class_count=3)
        rng = np.random.default_rng(spec.seed)
        _, _, w, _, _, _ = draw_structure(rng, spec)
        for m in range(2):
            for c1 in range(3):
                for c2 in range(c1 + 1, 3):
                    cross = w[c1][m].T @ w[c2][m]
                    assert np.max(np.abs(cross)) <= 1e-10

    def test_zero_shift_domains_share_dictionary(self):
        spec = self.spec(shift=0.0)
        rng = np.random.default_rng(spec.seed)
        u_s, u_t, _, _, dm_s, dm_t = draw_structure(rng, spec)
        for a, b in zip(u_s, u_t):
            assert np.array_equal(a, b)
        assert np.array_equal(dm_s, dm_t)

    def test_mean_separation_enforced(self):
        spec = self.spec()
        rng = np.random.default_rng(spec.seed)
        _, _, _, means, _, _ = draw_structure(rng, spec)
        flat = means.reshape(spec.class_count, -1)
        p = int(np.prod(spec.ranks))
        for i in range(spec.class_count):
            for j in range(i + 1, spec.class_count):
                dist = np.linalg.norm(flat[i] - flat[j])
                assert dist >= spec.mean_separation * np.sqrt(p) - 1e-9

    def test_single_class(self):
        source, target, truth = generate_synthetic(self.spec(class_count=1))
        assert np.all(source.labels == 1)
        assert np.all(truth == 1)

    def test_zero_shift_baseline_perfect(self):
        source, target, truth = generate_synthetic(
            self.spec(shift=0.0, noise=0.0, n_source_per_class=10, n_target_per_class=10)
        )
        assert np.array_equal(nearest_centroid_labels(source, target), truth)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"noise": 0.0},
            {"class_count": 1},
            {"dims": (4, 5, 6), "ranks": (2, 3, 2), "n_target_per_class": 3},
            {"dims": (7,), "ranks": (3,), "shift": 0.0},
        ],
    )
    def test_equals_per_sample_loop(self, overrides):
        spec = self.spec(**overrides)
        source, target, truth = generate_synthetic(spec)
        (src, src_labels), (tgt, tgt_labels) = loop_generator(spec)
        for got, want in ((source.samples, src), (target.samples, tgt)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(source.labels, src_labels)
        assert np.array_equal(truth, tgt_labels)
