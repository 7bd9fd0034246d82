"""Binary tensor container, label files, model serialization and the
synthetic cross-domain generator.

Tensor file layout (all integers little-endian):

    magic    4 bytes  b"STDL"
    version  uint16   1
    order    uint16
    dims     order x uint64
    payload  prod(dims) x float64, C order (first index slowest)

A model file is a manifest-plus-blobs container: magic b"STDM", version,
entry count, then for each entry a name and the absolute offset of its
tensor blob; every blob is a complete tensor file as above.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from .solver import Hyperparams, LabeledTensorSet, SdtdlModel
from .tensor import _count, dict_apply

__all__ = [
    "TensorFileError",
    "BadMagicError",
    "UnsupportedVersionError",
    "TruncatedPayloadError",
    "read_tensor",
    "write_tensor",
    "read_labels",
    "write_labels",
    "save_model",
    "load_model",
    "SyntheticSpec",
    "draw_structure",
    "generate_synthetic",
]

TENSOR_MAGIC = b"STDL"
MODEL_MAGIC = b"STDM"
VERSION = 1


class TensorFileError(Exception):
    """Base class for tensor container errors."""


class BadMagicError(TensorFileError):
    pass


class UnsupportedVersionError(TensorFileError):
    pass


class TruncatedPayloadError(TensorFileError):
    pass


def _header(t: np.ndarray) -> bytes:
    """The tensor file header of ``t``: magic, version, order and dims."""
    return TENSOR_MAGIC + struct.pack(f"<HH{t.ndim}Q", VERSION, t.ndim, *t.shape)


def _write_tensor(fh, t: np.ndarray) -> None:
    """Write ``t`` as a tensor file at the position of ``fh``: the header,
    then the payload."""
    # not np.ascontiguousarray, which gives an order-0 tensor one dimension
    t = np.asarray(t, dtype="<f8", order="C")
    fh.write(_header(t))
    fh.write(t.data)


def _read(fh, n: int, what: str) -> bytes:
    """The next ``n`` bytes of ``fh``; fewer left in the file is truncation."""
    data = fh.read(n)
    if len(data) < n:
        raise TruncatedPayloadError(f"truncated {what}")
    return data


def _read_tensor(fh, size: int) -> np.ndarray:
    """Decode the tensor blob at the position of ``fh``, a file of ``size``
    bytes. Each length is checked before it is decoded or allocated, so a
    cut file reads as truncated, never as bad magic."""
    head = _read(fh, 8, "header")
    if head[:4] != TENSOR_MAGIC:
        raise BadMagicError(f"bad magic {head[:4]!r}")
    version, order = struct.unpack_from("<HH", head, 4)
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported version {version}")
    dims = struct.unpack(f"<{order}Q", _read(fh, 8 * order, "dims"))
    if 8 * math.prod(dims) > size - fh.tell():
        raise TruncatedPayloadError("truncated payload")
    try:
        # dims that pass the size check may still be refused by numpy: an
        # extent past its index range beside a zero one, or over 64 modes
        t = np.empty(dims, dtype="<f8")
    except ValueError as exc:
        raise TensorFileError(f"dims {dims} cannot be allocated: {exc}") from exc
    fh.readinto(t)
    if not np.all(np.isfinite(t)):
        raise TensorFileError("tensor contains non-finite values")
    return t


def write_tensor(path, t: np.ndarray) -> None:
    """Write ``t`` as a tensor file, the payload straight from the array,
    with no copy of a C-contiguous float64 one."""
    with open(path, "wb") as fh:
        _write_tensor(fh, t)


def read_tensor(path) -> np.ndarray:
    """Read a tensor file; a byte after its payload is a
    :class:`TensorFileError` (a model file's blobs, read by
    :func:`load_model`, are followed by others by design)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        t = _read_tensor(fh, size)
        if fh.tell() != size:
            raise TensorFileError(f"{size - fh.tell()} bytes after the tensor payload")
        return t


def write_labels(path, labels) -> None:
    with open(path, "w") as fh:
        for lab in labels:
            fh.write(f"{int(lab)}\n")


def read_labels(path) -> np.ndarray:
    """One integer label per non-blank line; a label that is not an
    integer, or lies outside int64, raises ``ValueError``."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    try:
        labels = np.array([int(ln) for ln in lines], dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"{path}: a label is outside the 64-bit integer range") from exc
    if labels.size and labels.min() < 1:
        raise ValueError("labels must be 1-based positive integers")
    return labels


# --- model container -------------------------------------------------------


# the 'hyper' entry: these Hyperparams fields (all after ranks) in field
# order, then the class count and the target flag
_HYPER_FIELDS = [f.name for f in fields(Hyperparams)[1:]]


def _model_entries(model: SdtdlModel):
    hp = model.hyper
    hyper = [getattr(hp, name) for name in _HYPER_FIELDS]
    hyper += [model.class_count, 1.0 if model.u_target is not None else 0.0]
    entries = [("hyper", np.array(hyper)), ("ranks", np.array(hp.ranks, dtype=np.float64))]
    for m, u in enumerate(model.u_source):
        entries.append((f"u_source/{m}", u))
    if model.u_target is not None:
        for m, u in enumerate(model.u_target):
            entries.append((f"u_target/{m}", u))
    for c, w in enumerate(model.w_class):
        for m, wm in enumerate(w):
            entries.append((f"w/{c}/{m}", wm))
    for c, mean in enumerate(model.class_means_source):
        entries.append((f"mean_src/{c}", mean))
    return entries


def save_model(path, model: SdtdlModel) -> None:
    """Write a model file: the manifest, then each entry's blob as
    :func:`write_tensor` writes a tensor file."""
    entries = _model_entries(model)
    names = [name.encode() for name, _ in entries]
    offsets = []
    pos = 4 + 2 + 4 + sum(2 + len(n) + 8 for n in names)
    for _, t in entries:
        offsets.append(pos)
        pos += len(_header(t)) + 8 * t.size  # a float64 payload
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC + struct.pack("<HI", VERSION, len(entries)))
        for name, off in zip(names, offsets):
            fh.write(struct.pack("<H", len(name)) + name + struct.pack("<Q", off))
        for _, t in entries:
            _write_tensor(fh, t)


def load_model(path) -> SdtdlModel:
    """Read a model file: its manifest, then each blob with the checks of
    :func:`read_tensor`. A model that is malformed, non-finite or has a
    non-orthonormal factor raises :class:`TensorFileError`."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic, version, count = struct.unpack("<4sHI", _read(fh, 10, "model manifest"))
        if magic != MODEL_MAGIC:
            raise BadMagicError(f"bad model magic {magic!r}")
        if version != VERSION:
            raise UnsupportedVersionError(f"unsupported model version {version}")
        manifest = []
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read(fh, 2, "model manifest"))
            name, off = struct.unpack(f"<{name_len}sQ", _read(fh, name_len + 8, "model manifest"))
            try:
                manifest.append((name.decode(), off))
            except UnicodeDecodeError as exc:
                raise TensorFileError(f"model manifest name {name!r} is not UTF-8") from exc
        tensors = {}
        for name, off in manifest:
            try:
                if off > size:
                    raise TruncatedPayloadError("offset past the end of the file")
                fh.seek(off)
                tensors[name] = _read_tensor(fh, size)
            except TensorFileError as exc:
                raise type(exc)(f"model entry {name!r}: {exc}") from exc

    def entry(name, shape=None):
        if name not in tensors:
            raise TensorFileError(f"model file has no entry {name!r}")
        if shape is not None and tensors[name].shape != shape:
            raise TensorFileError(
                f"model entry {name!r} has shape {tensors[name].shape}, expected {shape}"
            )
        return tensors[name]

    n = len(_HYPER_FIELDS)
    hp_vec = entry("hyper", (n + 2,))
    try:
        # Hyperparams rejects a fractional rank or iteration count
        hyper = Hyperparams(entry("ranks").ravel().tolist(), *hp_vec.tolist()[:n])
    except ValueError as exc:
        raise TensorFileError(f"model entries 'hyper' and 'ranks': {exc}") from exc
    ranks = hyper.ranks
    count, flag = hp_vec[n], hp_vec[n + 1]
    if not (count >= 1 and count.is_integer()) or flag not in (0, 1):
        raise TensorFileError(
            f"model entry 'hyper' has class count {count:g} and target flag {flag:g}, "
            "expected a positive integer and 0 or 1"
        )
    C, has_target = int(count), flag == 1
    # every factor of mode m is I_m x ranks[m], with I_m the rows of u_source/m
    shapes = [entry(f"u_source/{m}").shape[:1] + (r,) for m, r in enumerate(ranks)]
    u_source = [entry(f"u_source/{m}", s) for m, s in enumerate(shapes)]
    u_target = [entry(f"u_target/{m}", s) for m, s in enumerate(shapes)] if has_target else None
    w_class = [[entry(f"w/{c}/{m}", s) for m, s in enumerate(shapes)] for c in range(C)]
    # the class means are ranks-shaped, which catches a short 'ranks' entry
    model = SdtdlModel(
        u_source=u_source,
        u_target=u_target,
        w_class=w_class,
        class_means_source=[entry(f"mean_src/{c}", ranks) for c in range(C)],
        hyper=hyper,
    )
    try:
        model.validate()
    except ValueError as exc:
        raise TensorFileError(f"model file: {exc}") from exc
    return model


# --- synthetic benchmark ---------------------------------------------------


@dataclass
class SyntheticSpec:
    """Ground-truth generator for cross-domain benchmarks.

    Each sample is a domain part (domain dictionary times a Gaussian code
    around a domain mean) plus a class part (class dictionary times a
    Gaussian code around a class mean) plus optional noise. ``shift``
    controls how far the target dictionary and domain mean are rotated away
    from the source ones; ``shift=0`` makes the domains exchangeable.
    """

    class_count: int
    dims: tuple
    ranks: tuple
    n_source_per_class: int
    n_target_per_class: int
    noise: float = 0.0
    shift: float = 0.0
    seed: int = 0
    mean_separation: float = 5.0
    domain_strength: float = 2.0

    def __post_init__(self):
        self.dims = tuple(_count(d, "dims", 1) for d in self.dims)
        self.ranks = tuple(_count(r, "ranks", 1) for r in self.ranks)
        if not self.dims or len(self.dims) != len(self.ranks):
            raise ValueError("dims and ranks must have equal length, at least 1")
        if not all(r <= d for r, d in zip(self.ranks, self.dims)):
            raise ValueError("ranks must not exceed dims")
        for name in ("class_count", "n_source_per_class", "n_target_per_class"):
            setattr(self, name, _count(getattr(self, name), name, 1))
        for name in ("noise", "shift", "mean_separation", "domain_strength"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")


def _orth(rng, n, k):
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))


def _shifted_orth(rng, base, shift):
    if shift == 0.0:
        return base.copy()
    q, r = np.linalg.qr(base + shift * rng.standard_normal(base.shape))
    return q * np.sign(np.diag(r))


def draw_structure(rng, spec: SyntheticSpec):
    """Draw the ground-truth dictionaries and means of a synthetic problem.

    Returns ``(u_s, u_t, w, class_means, dom_mean_s, dom_mean_t)``. Class
    dictionaries are mutually orthogonal per mode when the mode extents
    allow (C * J_m <= I_m in every mode), otherwise independent draws.
    """
    C, dims, ranks = spec.class_count, spec.dims, spec.ranks
    p = int(np.prod(ranks))

    u_s = [_orth(rng, d, r) for d, r in zip(dims, ranks)]
    u_t = [_shifted_orth(rng, u, spec.shift) for u in u_s]

    disjoint = all(C * r <= d for d, r in zip(dims, ranks))
    w = []
    if disjoint:
        pools = [_orth(rng, d, C * r) for d, r in zip(dims, ranks)]
        for c in range(C):
            w.append([pool[:, c * r : (c + 1) * r] for pool, r in zip(pools, ranks)])
    else:
        for c in range(C):
            w.append([_orth(rng, d, r) for d, r in zip(dims, ranks)])

    means = rng.standard_normal((C,) + ranks)
    if C > 1:
        flat = means.reshape(C, -1)
        d2 = np.sum((flat[:, None, :] - flat[None, :, :]) ** 2, axis=-1)
        min_dist = float(np.sqrt(d2[~np.eye(C, dtype=bool)].min()))
        # within-class deviation of a unit-variance Gaussian code
        within = np.sqrt(p)
        if min_dist > 0:
            means *= max(1.0, spec.mean_separation * within / min_dist)

    dom_mean_s = rng.standard_normal(ranks)
    dom_mean_s *= spec.domain_strength * np.sqrt(p) / max(np.linalg.norm(dom_mean_s), 1e-12)
    if spec.shift == 0.0:
        dom_mean_t = dom_mean_s.copy()
    else:
        dom_mean_t = dom_mean_s + spec.shift * np.sqrt(p) * rng.standard_normal(ranks)
    return u_s, u_t, w, means, dom_mean_s, dom_mean_t


def generate_synthetic(spec: SyntheticSpec):
    """Draw a (source, target, truth) triple with known structure.

    Class mean codes are rescaled so the minimum inter-class mean distance
    is at least ``mean_separation`` times the within-class deviation; see
    :func:`draw_structure` for the dictionary layout.
    """
    rng = np.random.default_rng(spec.seed)
    C, dims, ranks = spec.class_count, spec.dims, spec.ranks
    u_s, u_t, w, means, dom_mean_s, dom_mean_t = draw_structure(rng, spec)
    R, F = math.prod(ranks), math.prod(dims)

    def sample_last(rows, shape):
        # one row per sample -> a tensor of ``shape`` with a trailing sample mode
        return np.ascontiguousarray(rows.T).reshape(shape + (rows.shape[0],))

    def draw_domain(u_dom, dom_mean, n_per_class):
        n = C * n_per_class
        labels = np.repeat(np.arange(1, C + 1), n_per_class)
        # Sample by sample, as one block: its domain code, its class code,
        # then its noise (drawn only when there is any).
        draws = rng.standard_normal((n, 2 * R + (F if spec.noise > 0 else 0)))
        samples = dict_apply(dom_mean[..., None] + sample_last(draws[:, :R], ranks), u_dom)
        for c in range(C):
            cols = slice(c * n_per_class, (c + 1) * n_per_class)
            c_codes = means[c][..., None] + sample_last(draws[cols, R : 2 * R], ranks)
            samples[..., cols] += dict_apply(c_codes, w[c])
        if spec.noise > 0:
            samples += spec.noise * sample_last(draws[:, 2 * R :], dims)
        return samples, labels

    src_samples, src_labels = draw_domain(u_s, dom_mean_s, spec.n_source_per_class)
    tgt_samples, tgt_labels = draw_domain(u_t, dom_mean_t, spec.n_target_per_class)

    source = LabeledTensorSet(samples=src_samples, labels=src_labels)
    target = LabeledTensorSet(samples=tgt_samples)
    return source, target, tgt_labels
