"""Tests of the benchmark's own code: span arithmetic, wrapper installation
and restoration, workload generation, and agreement with BENCHMARK.json."""

import hashlib
import json
import os
import pathlib
import sys
import types

import numpy as np
import pytest

import run
import tracer as tracing
import workloads
from sdtdl import cli, dataio

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.a`` defines outer() calling inner() twice; ``fakepkg.b``
    and the package itself also bind inner."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def inner(x):
        return x + 1

    def outer(x):
        return a.inner(a.inner(x))

    a.inner, a.outer = inner, outer
    b.inner = inner
    pkg.inner = inner
    for name, module in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, module)
    traced = [("a", "outer", "a.outer"), ("a", "inner", "a.inner")]
    return pkg, a, b, traced


def test_self_time_of_nested_fake_call(fake_package):
    pkg, a, b, traced = fake_package
    ticks = iter([0.0, 1.0, 4.0, 5.0, 7.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    with tr.installed(package="fakepkg", traced=traced):
        assert a.outer(1) == 3
    assert [s[0] for s in tr.spans] == ["a.outer", "a.inner", "a.inner"]
    assert [s[3] for s in tr.spans] == [-1, 0, 0]
    stats = tracing.span_stats(tr.spans)
    assert stats["a.outer"] == (1, 10.0, 5.0)
    assert stats["a.inner"] == (2, 5.0, 5.0)


def test_wrappers_reach_every_binding_and_are_restored(fake_package):
    pkg, a, b, traced = fake_package
    original = a.inner
    tr = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed(package="fakepkg", traced=traced):
            assert a.inner is not original
            assert b.inner is a.inner and pkg.inner is a.inner
            b.inner(0)
            raise RuntimeError("restore must survive an exception")
    assert a.inner is original and b.inner is original and pkg.inner is original
    assert [s[0] for s in tr.spans] == ["a.inner"]


def test_real_package_bindings_are_wrapped_and_restored():
    modules = {n: sys.modules[f"sdtdl.{n}"] for n in ("tensor", "hooi", "solver", "cli")}
    originals = {
        (name, attr): value
        for name, module in modules.items()
        for attr, value in vars(module).items()
        if callable(value)
    }
    package_hooi = sys.modules["sdtdl"].hooi
    tr = tracing.Tracer()
    with tr.installed():
        for name in ("tensor", "hooi", "solver"):
            assert modules[name].mode_product is not originals[("tensor", "mode_product")]
        for name in ("hooi", "solver"):
            assert modules[name].eig_sym_topk is not originals[("hooi", "eig_sym_topk")]
        assert sys.modules["sdtdl"].hooi is not package_hooi
    for (name, attr), value in originals.items():
        assert getattr(modules[name], attr) is value
    assert sys.modules["sdtdl"].hooi is package_hooi


def _write_small_problem(directory):
    spec = dataio.SyntheticSpec(
        class_count=2, dims=(6, 6), ranks=(2, 2), n_source_per_class=15,
        n_target_per_class=15, noise=0.05, shift=0.5, seed=1,
    )
    source, target, truth = dataio.generate_synthetic(spec)
    dataio.write_tensor(os.path.join(directory, "s.stdl"), source.samples)
    dataio.write_labels(os.path.join(directory, "s.txt"), source.labels)
    dataio.write_tensor(os.path.join(directory, "t.stdl"), target.samples)


def _fit_and_predict(directory, out):
    assert cli.main([
        "fit", "--source", os.path.join(directory, "s.stdl"),
        "--source-labels", os.path.join(directory, "s.txt"),
        "--target", os.path.join(directory, "t.stdl"),
        "--ranks", "2,2", "--theta", "2", "--out", out,
    ]) == 0
    assert cli.main([
        "predict", "--model", os.path.join(out, "model.stdm"),
        "--target", os.path.join(directory, "t.stdl"),
        "--out", os.path.join(out, "repredicted.txt"),
    ]) == 0
    return {
        name: hashlib.sha256(pathlib.Path(out, name).read_bytes()).hexdigest()
        for name in ("predictions.txt", "model.stdm", "repredicted.txt")
    }


def test_trace_sees_every_eigensolve_and_leaves_outputs_unchanged(tmp_path, monkeypatch):
    _write_small_problem(tmp_path)
    plain = _fit_and_predict(tmp_path, str(tmp_path / "plain"))

    # Each eig_sym_topk call makes exactly one eigh call, whichever module
    # namespace it was reached through.
    eigh_calls = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda s: eigh_calls.append(1) or real_eigh(s))
    tr = tracing.Tracer()
    with tr.installed():
        traced = _fit_and_predict(tmp_path, str(tmp_path / "traced"))
    assert traced == plain

    m = tracing.op_metrics(tr)
    assert m["hooi.eig_sym_topk.calls"] == len(eigh_calls)
    assert m["hooi.hosvd.total_s"] > 0
    assert m["pseudolabel.passes"] >= 2
    assert 0 < m["pseudolabel.useful_pass_ratio"] <= 1
    assert m["solver.block_passes"] >= 1
    assert m["solver.class_sweeps"] == 2 * 20 * m["solver.block_passes"]
    assert set(m) == set(tracing.PER_LAYER) - set(tracing.SETUP) - {"trace.overhead_s"}


def test_workload_generation_is_deterministic_for_a_seed(tmp_path):
    wl = workloads.WORKLOADS["wide-n"]
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        wl.generate(seed, str(tmp_path / name))

    def read(name, file):
        return (tmp_path / name / file).read_bytes()

    for file in (workloads.SOURCE, workloads.SOURCE_LABELS, workloads.TARGET, workloads.TRUTH):
        assert read("a", file) == read("b", file)
    assert read("a", workloads.TARGET) != read("c", workloads.TARGET)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    values = list(range(29, 0, -1))
    p, v = run.tail_percentile(values)
    assert sum(x > v for x in values) == 10
    assert p == 65


def test_dataset_mean_averages_the_median_of_each_data_set():
    ops = [
        {"dataset": 0, "fit_s": 1.0, "predict_s": [0.1, 0.3]},
        {"dataset": 1, "fit_s": 3.0, "predict_s": [0.2, 0.2]},
        {"dataset": 0, "fit_s": 5.0, "predict_s": [0.5, 0.5]},
        {"dataset": 1, "failures": ["crashed"]},
        {"dataset": 0, "fit_s": 2.0, "predict_s": [0.1, 0.1]},
    ]
    assert run.dataset_mean(ops, run._fit) == (2.0 + 3.0) / 2
    assert run.dataset_mean(ops, run._predict) == pytest.approx((0.2 + 0.2) / 2)
    assert run.dataset_mean(ops[3:4], run._fit) is None


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.PER_LAYER
