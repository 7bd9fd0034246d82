"""Per-layer trace of the sdtdl package, taken from outside the program.

The tracer wraps public functions of the sdtdl modules in every module
namespace that binds them, records one span per call (name, start, end and
the span that caused it), keeps a few counters at the same boundaries, and
restores the original functions afterwards. Nothing in ``src/`` is timed.

Self time of a span is its duration minus the durations of the traced calls
made directly inside it. Flop and byte counts of ``mode_product`` are
computed from array shapes with the Tucker mode-product cost model (Kolda &
Bader, SIAM Review 2009), not measured: an ``I_1 x .. x I_M`` tensor times a
``J x I_m`` matrix costs ``2 J prod(I)`` flops and touches at least the
input tensor, the matrix and the output once. The copies made by flattening
and unflattening are not counted.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

PACKAGE = "sdtdl"

# (module, function, span name). The span name is "<layer>.<function>".
TRACED = [
    ("tensor", "mode_product", "tensor.mode_product"),
    ("tensor", "mode_flatten", "tensor.mode_flatten"),
    ("tensor", "multi_product_skip", "tensor.multi_product_skip"),
    ("hooi", "hooi", "hooi.hooi"),
    ("hooi", "hosvd", "hooi.hosvd"),
    ("hooi", "eig_sym_topk", "hooi.eig_sym_topk"),
    ("solver", "fit", "solver.fit"),
    ("solver", "run_block_updates", "solver.run_block_updates"),
    ("solver", "update_class_dict", "solver.update_class_dict"),
    ("solver", "build_phi", "solver.build_phi"),
    ("solver", "class_update_quadratic_form", "solver.class_update_quadratic_form"),
    ("solver", "update_domain_source", "solver.update_domain_source"),
    ("solver", "update_domain_target", "solver.update_domain_target"),
    ("solver", "objective", "solver.objective"),
    ("pseudolabel", "fidelity_probs", "pseudolabel.fidelity_probs"),
    ("pseudolabel", "centroid_probs", "pseudolabel.centroid_probs"),
    ("pseudolabel", "predict", "pseudolabel.predict"),
    ("pseudolabel", "select", "pseudolabel.select"),
    ("dataio", "read_tensor", "dataio.read_tensor"),
    ("dataio", "read_labels", "dataio.read_labels"),
    ("dataio", "load_model", "dataio.load_model"),
    ("dataio", "save_model", "dataio.save_model"),
    ("dataio", "write_tensor", "dataio.write_tensor"),
    ("dataio", "write_labels", "dataio.write_labels"),
    ("dataio", "generate_synthetic", "dataio.generate_synthetic"),
    ("cli", "cmd_fit", "cli.fit"),
    ("cli", "cmd_predict", "cli.predict"),
    ("cli", "write_predictions", "cli.write_predictions"),
    ("cli", "write_history", "cli.write_history"),
]

LAYERS = ("tensor", "hooi", "solver", "pseudolabel", "dataio", "cli")

# Per-layer metrics of one operation (a fit and its predicts), with units. The
# trace of the input set-up supplies the two dataio metrics marked SETUP, and
# the measured loop supplies trace.overhead_s.
PER_LAYER = {
    "tensor.mode_product.calls": "count",
    "tensor.mode_product.self_s": "s",
    "tensor.mode_flatten.self_s": "s",
    "tensor.multi_product_skip.calls": "count",
    "tensor.mode_product.gflop": "GFLOP",
    "tensor.mode_product.gb": "GB",
    "hooi.hooi.calls": "count",
    "hooi.hooi.total_s": "s",
    "hooi.hooi.self_s": "s",
    "hooi.hosvd.total_s": "s",
    "hooi.sweeps": "count",
    "hooi.eig_sym_topk.calls": "count",
    "hooi.eig_sym_topk.self_s": "s",
    "solver.fit.total_s": "s",
    "solver.fit.self_s": "s",
    "solver.block_passes": "count",
    "solver.run_block_updates.total_s": "s",
    "solver.update_class_dict.total_s": "s",
    "solver.update_class_dict.self_s": "s",
    "solver.class_sweeps": "count",
    "solver.sample_operator.self_s": "s",
    "solver.sample_operator.mb_sum": "MiB",
    "solver.sample_operator.mb_max": "MiB",
    "solver.update_domain.total_s": "s",
    "solver.objective.calls": "count",
    "solver.objective.total_s": "s",
    "pseudolabel.passes": "count",
    "pseudolabel.fidelity_probs.total_s": "s",
    "pseudolabel.fidelity_probs.self_s": "s",
    "pseudolabel.centroid_probs.total_s": "s",
    "pseudolabel.centroid_probs.self_s": "s",
    "pseudolabel.predict.self_s": "s",
    "pseudolabel.select.self_s": "s",
    "pseudolabel.duplicate_passes": "count",
    "pseudolabel.useful_pass_ratio": "ratio",
    "pseudolabel.label_flips": "count",
    "dataio.read_tensor.self_s": "s",
    "dataio.read.mb": "MiB",
    "dataio.save_model.self_s": "s",
    "dataio.load_model.self_s": "s",
    "dataio.write.mb": "MiB",
    "dataio.generate_synthetic.total_s": "s",
    "dataio.write_tensor.self_s": "s",
    "cli.fit.self_s": "s",
    "cli.predict.self_s": "s",
    "cli.write_predictions.self_s": "s",
    "cli.write_history.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}
SETUP = ("dataio.generate_synthetic.total_s", "dataio.write_tensor.self_s")

MIB = 2.0**20


class Tracer:
    """Spans and counters of the traced calls made while installed.

    ``spans`` holds ``[name, start, end, parent]`` lists, where ``parent``
    is the index of the enclosing traced span or -1.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = dict.fromkeys(
            (
                "flop",
                "bytes",
                "hooi_sweeps",
                "class_eig_calls",
                "sample_operator_bytes",
                "sample_operator_max_bytes",
                "duplicate_passes",
                "label_flips",
                "read_bytes",
                "write_bytes",
            ),
            0,
        )
        self.tensor_order = 0
        self.missing = []  # traced names the package no longer defines
        # Pass comparisons, reset at each root call (one CLI command).
        self.fid = None
        self.prev_probs = None
        self.prev_labels = None
        self._stack = []
        self._patches = []

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, fn, name, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                self.fid = self.prev_probs = self.prev_labels = None
            parent = self._stack[-1] if self._stack else -1
            span = [name, self.clock(), None, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self, package=PACKAGE, traced=TRACED):
        """Replace each traced function in every ``package`` namespace that
        binds it. The package attribute ``sdtdl.hooi`` is the function, so
        modules are looked up in ``sys.modules``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        namespaces = [
            m
            for n, m in list(sys.modules.items())
            if n == package or n.startswith(package + ".")
        ]
        for module, attr, name in traced:
            original = getattr(sys.modules[f"{package}.{module}"], attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(original, name, HOOKS.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patches.append((ns, key, original))

    def restore(self):
        while self._patches:
            ns, key, original = self._patches.pop()
            setattr(ns, key, original)

    @contextlib.contextmanager
    def installed(self, package=PACKAGE, traced=TRACED):
        self.install(package, traced)
        try:
            yield self
        finally:
            self.restore()


# --- counters kept at the traced boundaries --------------------------------


def _on_mode_product(tr, args, result):
    t, u = args[0], args[1]
    tr.counts["flop"] += 2 * u.shape[0] * t.size
    tr.counts["bytes"] += 8 * (t.size + u.size + result.size)


def _on_hooi(tr, args, result):
    tr.counts["hooi_sweeps"] += len(result.fit_history)


def _on_eig(tr, args, result):
    if tr.inside("solver.update_class_dict"):
        tr.counts["class_eig_calls"] += 1


def _on_update_class_dict(tr, args, result):
    tr.tensor_order = len(args[1])


def _on_sample_operator(tr, args, result):
    tr.counts["sample_operator_bytes"] += result.nbytes
    tr.counts["sample_operator_max_bytes"] = max(
        tr.counts["sample_operator_max_bytes"], result.nbytes
    )


def _on_fidelity(tr, args, result):
    tr.fid = result


def _on_centroid(tr, args, result):
    probs = (tr.fid.tobytes(), result.tobytes()) if tr.fid is not None else None
    if probs is not None and probs == tr.prev_probs:
        tr.counts["duplicate_passes"] += 1
    tr.prev_probs = probs


def _on_predict(tr, args, result):
    labels = result.labels
    prev = tr.prev_labels
    if prev is not None and prev.shape == labels.shape:
        tr.counts["label_flips"] += int((labels != prev).sum())
    tr.prev_labels = labels


def _on_read(tr, args, result):
    tr.counts["read_bytes"] += os.path.getsize(args[0])


def _on_write(tr, args, result):
    tr.counts["write_bytes"] += os.path.getsize(args[0])


HOOKS = {
    "tensor.mode_product": _on_mode_product,
    "hooi.hooi": _on_hooi,
    "hooi.eig_sym_topk": _on_eig,
    "solver.update_class_dict": _on_update_class_dict,
    "solver.build_phi": _on_sample_operator,
    "solver.class_update_quadratic_form": _on_sample_operator,
    "pseudolabel.fidelity_probs": _on_fidelity,
    "pseudolabel.centroid_probs": _on_centroid,
    "pseudolabel.predict": _on_predict,
    "dataio.read_tensor": _on_read,
    "dataio.read_labels": _on_read,
    "dataio.load_model": _on_read,
    "dataio.save_model": _on_write,
    "dataio.write_tensor": _on_write,
    "dataio.write_labels": _on_write,
}


# --- metrics from spans -----------------------------------------------------


def span_stats(spans):
    """Calls, total seconds and self seconds per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for (name, start, end, _), inner in zip(spans, child):
        calls, total, self_s = stats.get(name, (0, 0.0, 0.0))
        stats[name] = (calls + 1, total + (end - start), self_s + (end - start - inner))
    return stats


def op_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced operation (every
    ``PER_LAYER`` name except ``SETUP`` and ``trace.overhead_s``)."""
    stats = span_stats(tr.spans)

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    c = tr.counts
    passes = calls("pseudolabel.fidelity_probs")
    m = {
        "tensor.mode_product.calls": calls("tensor.mode_product"),
        "tensor.mode_product.self_s": self_s("tensor.mode_product"),
        "tensor.mode_flatten.self_s": self_s("tensor.mode_flatten"),
        "tensor.multi_product_skip.calls": calls("tensor.multi_product_skip"),
        "tensor.mode_product.gflop": c["flop"] / 1e9,
        "tensor.mode_product.gb": c["bytes"] / 1e9,
        "hooi.hooi.calls": calls("hooi.hooi"),
        "hooi.hooi.total_s": total("hooi.hooi"),
        "hooi.hooi.self_s": self_s("hooi.hooi"),
        "hooi.hosvd.total_s": total("hooi.hosvd"),
        "hooi.sweeps": c["hooi_sweeps"],
        "hooi.eig_sym_topk.calls": calls("hooi.eig_sym_topk"),
        "hooi.eig_sym_topk.self_s": self_s("hooi.eig_sym_topk"),
        "solver.fit.total_s": total("solver.fit"),
        "solver.fit.self_s": self_s("solver.fit"),
        "solver.block_passes": calls("solver.run_block_updates"),
        "solver.run_block_updates.total_s": total("solver.run_block_updates"),
        "solver.update_class_dict.total_s": total("solver.update_class_dict"),
        "solver.update_class_dict.self_s": self_s("solver.update_class_dict"),
        "solver.class_sweeps": c["class_eig_calls"] / max(tr.tensor_order, 1),
        "solver.sample_operator.self_s": self_s(
            "solver.build_phi", "solver.class_update_quadratic_form"
        ),
        "solver.sample_operator.mb_sum": c["sample_operator_bytes"] / MIB,
        "solver.sample_operator.mb_max": c["sample_operator_max_bytes"] / MIB,
        "solver.update_domain.total_s": total(
            "solver.update_domain_source", "solver.update_domain_target"
        ),
        "solver.objective.calls": calls("solver.objective"),
        "solver.objective.total_s": total("solver.objective"),
        "pseudolabel.passes": passes,
        "pseudolabel.fidelity_probs.total_s": total("pseudolabel.fidelity_probs"),
        "pseudolabel.fidelity_probs.self_s": self_s("pseudolabel.fidelity_probs"),
        "pseudolabel.centroid_probs.total_s": total("pseudolabel.centroid_probs"),
        "pseudolabel.centroid_probs.self_s": self_s("pseudolabel.centroid_probs"),
        "pseudolabel.predict.self_s": self_s("pseudolabel.predict"),
        "pseudolabel.select.self_s": self_s("pseudolabel.select"),
        "pseudolabel.duplicate_passes": c["duplicate_passes"],
        "pseudolabel.useful_pass_ratio": (
            (passes - c["duplicate_passes"]) / passes if passes else 0.0
        ),
        "pseudolabel.label_flips": c["label_flips"],
        "dataio.read_tensor.self_s": self_s("dataio.read_tensor"),
        "dataio.read.mb": c["read_bytes"] / MIB,
        "dataio.save_model.self_s": self_s("dataio.save_model"),
        "dataio.load_model.self_s": self_s("dataio.load_model"),
        "dataio.write.mb": c["write_bytes"] / MIB,
        "cli.fit.self_s": self_s("cli.fit"),
        "cli.predict.self_s": self_s("cli.predict"),
        "cli.write_predictions.self_s": self_s("cli.write_predictions"),
        "cli.write_history.self_s": self_s("cli.write_history"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            s for name, (_, _, s) in stats.items() if name.split(".")[0] == layer
        )
    return m


def setup_metrics(tr: Tracer, datasets: int) -> dict:
    """The ``SETUP`` metrics per data set, from the trace of the set-up of
    ``datasets`` data sets."""
    stats = span_stats(tr.spans)
    return {
        "dataio.generate_synthetic.total_s": stats["dataio.generate_synthetic"][1] / datasets,
        "dataio.write_tensor.self_s": stats["dataio.write_tensor"][2] / datasets,
    }
