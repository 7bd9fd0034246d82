"""Child processes of the benchmark, started by run.py.

``setup`` writes the input files of a run's data sets, one directory each,
and reports the set-up time of each. ``measure`` runs ``sdtdl fit`` and
``sdtdl predict`` through ``sdtdl.cli.main`` in this process on one data set
until a given number of seconds has passed. It checks every operation's
outputs and reports times, digests, the peak RSS of the first operation and,
with tracing, the per-layer metrics. Each runs in a fresh process, so the
peak RSS covers fit and predict and not input generation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import struct
import sys
import time
import traceback

import numpy as np

from sdtdl import cli, dataio
from sdtdl.dataio import TensorFileError

import tracer as tracing
import workloads

PREDICTIONS_HEADER = "index,label,confidence"
PREDICTS_PER_OP = 3  # a predict is 6-20x faster than a fit; three give its median more samples


def cmd_setup(args) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    tr = tracing.Tracer() if args.trace else None
    times = []
    with tr.installed() if tr else contextlib.nullcontext():
        for k, seed in enumerate(workloads.dataset_seeds(args.seed)):
            t0 = time.perf_counter()
            wl.generate(seed, os.path.join(args.dir, str(k)))
            times.append(time.perf_counter() - t0)
    result = {"setup_s": times}
    if tr is not None:
        result["trace"] = tracing.setup_metrics(tr, len(times))
    return result


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _target_count(path) -> int:
    """Sample count from the header of a tensor file (its last extent)."""
    with open(path, "rb") as fh:
        head = fh.read(8)
        order = struct.unpack_from("<HH", head, 4)[1]
        dims = struct.unpack(f"<{order}Q", fh.read(8 * order))
    return dims[-1]


def _prediction_labels(path) -> list:
    with open(path) as fh:
        if fh.readline().strip() != PREDICTIONS_HEADER:
            raise ValueError("bad predictions header")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        raise ValueError("prediction indices are not 0..n-1")
    return [int(r[1]) for r in rows]


def _repredicted(out, k):
    return os.path.join(out, f"repredicted-{k}.txt")


def check_outputs(data: str, out: str, exit_codes: list):
    """The checks every operation must pass. Returns ``(failures, accuracy,
    digests)``; ``accuracy`` is recomputed from the files."""
    failures = [
        f"{cmd} exited {rc}"
        for cmd, rc in zip(["fit"] + ["predict"] * PREDICTS_PER_OP, exit_codes)
        if rc != 0
    ]
    fit_pred = os.path.join(out, "predictions.txt")
    model = os.path.join(out, "model.stdm")
    repredicted = [_repredicted(out, k) for k in range(PREDICTS_PER_OP)]
    missing = [p for p in [fit_pred, model, *repredicted] if not os.path.isfile(p)]
    if missing:
        return failures + [f"missing output {p}" for p in missing], 0.0, {}
    with open(fit_pred, "rb") as fh:
        expected = fh.read()
    for path in repredicted:
        with open(path, "rb") as fh:
            if fh.read() != expected:
                failures.append("predict output differs from fit predictions.txt")
    try:
        dataio.load_model(model).validate()
    except (TensorFileError, ValueError, KeyError, struct.error) as exc:
        failures.append(f"model invalid: {exc}")
    accuracy = 0.0
    try:
        labels = _prediction_labels(fit_pred)
    except (ValueError, IndexError) as exc:
        failures.append(f"predictions.txt malformed: {exc}")
    else:
        with open(os.path.join(data, workloads.TRUTH)) as fh:
            truth = [int(line) for line in fh if line.strip()]
        n_target = _target_count(os.path.join(data, workloads.TARGET))
        if len(labels) != n_target or len(truth) != n_target:
            failures.append(
                f"{len(labels)} predictions, {len(truth)} truth labels, "
                f"{n_target} targets"
            )
        else:
            accuracy = sum(p == t for p, t in zip(labels, truth)) / n_target
    digests = {"predictions.txt": _sha256(fit_pred), "model.stdm": _sha256(model)}
    return failures, accuracy, digests


def run_operation(wl, data: str, out: str, traced: bool) -> dict:
    """One operation: ``sdtdl fit`` on the workload's files, then
    ``PREDICTS_PER_OP`` runs of ``sdtdl predict`` with the saved model."""
    fit_argv = [
        "fit",
        "--source", os.path.join(data, workloads.SOURCE),
        "--source-labels", os.path.join(data, workloads.SOURCE_LABELS),
        "--target", os.path.join(data, workloads.TARGET),
        "--truth", os.path.join(data, workloads.TRUTH),
        "--out", out,
        *wl.fit_options,
    ]
    predict_argv = [
        "predict",
        "--model", os.path.join(out, "model.stdm"),
        "--target", os.path.join(data, workloads.TARGET),
        "--out",
    ]
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    tr = tracing.Tracer() if traced else None
    op = {"traced": traced}
    with contextlib.redirect_stdout(io.StringIO()):
        with tr.installed() if tr else contextlib.nullcontext():
            t0 = time.perf_counter()
            exit_codes = [cli.main(fit_argv)]
            op["fit_s"] = time.perf_counter() - t0
            op["predict_s"] = []
            for k in range(PREDICTS_PER_OP):
                t0 = time.perf_counter()
                exit_codes.append(cli.main(predict_argv + [_repredicted(out, k)]))
                op["predict_s"].append(time.perf_counter() - t0)
    op["failures"], op["accuracy"], op["digests"] = check_outputs(data, out, exit_codes)
    if tr is not None:
        op["layers"] = tracing.op_metrics(tr)
        op["spans"] = tr.spans
        op["untraced_names"] = tr.missing
    return op


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _write_spans(path, spans) -> None:
    """One JSON line per span of a traced operation; ``parent`` is the line
    index of the enclosing span or -1."""
    with open(path, "w") as fh:
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                 "start": start, "end": end}) + "\n")


def cmd_measure(args) -> dict:
    """Operations on one data set until ``--seconds`` have passed. With
    tracing, untraced and traced operations alternate, and at least one of
    each runs.

    ``peak_rss_mb`` is read after the first operation: later ones raise the
    high-water mark through heap fragmentation alone, by up to 25 MiB on
    wide-n, and by how much depends on the data."""
    wl = workloads.WORKLOADS[args.workload]
    out = os.path.join(args.dir, "out")
    ops = []
    start = time.perf_counter()
    for i in itertools.count():
        traced = bool(args.trace) and i % 2 == 1
        try:
            op = run_operation(wl, args.dir, out, traced)
        except Exception:  # a crash of the program counts as a failed operation
            op = {"traced": traced, "failures": [traceback.format_exc(limit=3)]}
        if i == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if ops and "digests" in op and op["digests"] != ops[0].get("digests"):
            op["failures"].append("outputs differ from the first operation")
        if "spans" in op:
            spans = op.pop("spans")
            if not any(o["traced"] for o in ops):
                _write_spans(os.path.splitext(args.out)[0] + ".trace.jsonl", spans)
        ops.append(op)
        elapsed = time.perf_counter() - start
        if i >= (1 if args.trace else 0) and elapsed >= args.seconds:
            break
        if elapsed >= args.seconds + args.grace:
            break
    return {
        "ops": ops,
        "peak_rss_mb": peak_rss_mb,
        "environment": _environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--dir", required=True, help="directory of the input files")
    parser.add_argument("--out", required=True, help="JSON file for the result")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--grace", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    result = cmd_setup(args) if args.role == "setup" else cmd_measure(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
