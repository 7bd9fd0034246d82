"""Benchmark of ``sdtdl fit`` + ``sdtdl predict`` on synthetic workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide-n --seed 0 --seconds 25 --trace 0

A run draws the workload's data sets from the seed and writes them (set-up).
Then, in a fresh process per data set, it runs operations for an equal share
of ``--seconds``. An operation is one ``sdtdl fit`` and three ``sdtdl predict``
with the saved model. The run checks every operation and prints each metric
with its unit. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Scratch
files go to ``.perfbench/`` in the checkout; the input files are deleted at
the end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0  # the whole run, set-up included, must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "predict_s": "s",
    "peak_rss_mb": "MiB",
    "accuracy": "ratio",
    "success_rate": "ratio",
}


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it, as
    ``(percentile, value)``, or None when even the median has fewer."""
    n = len(values)
    if n < 20:
        return None
    return math.floor(100 * (n - 10) / n), sorted(values)[n - 11]


def _describe(name, value, samples, unit):
    line = f"  {name:<12} {value:.4f} {unit}  ({len(samples)} samples, median {statistics.median(samples):.4f}"
    tail = tail_percentile(samples)
    if tail is None:
        return line + "; no percentile has ten samples beyond it)"
    return line + f", p{tail[0]} {tail[1]:.4f})"


def _child(role, args, env, deadline, data, out, extra):
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        role,
        "--workload", args.workload,
        "--dir", data,
        "--out", out,
        "--trace", str(args.trace),
        *extra,
    ]
    timeout = max(1.0, deadline - time.monotonic())
    subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=timeout, check=True)
    with open(out) as fh:
        return json.load(fh)


def dataset_mean(ops, value):
    """The mean over data sets of the median of ``value(op)`` over the
    operations on each data set. ``value`` returns a list of samples, or
    None for an operation that has none."""
    samples = {}
    for o in ops:
        v = value(o)
        if v is not None:
            samples.setdefault(o["dataset"], []).extend(v)
    if not samples:
        return None
    return statistics.fmean(statistics.median(v) for v in samples.values())


def _fit(o):
    return [o["fit_s"]] if "fit_s" in o else None


def _predict(o):
    return o.get("predict_s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    deadline = time.monotonic() + DEADLINE_S
    # On SIGTERM, unwind so that subprocess.run kills and waits for its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sdtdl", "cli.py")):
        print(f"error: no sdtdl sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    threads = min(wl.blas_threads, len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)

    workdir = os.path.join(root, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    data = os.path.join(workdir, "data")
    try:
        setup = _child("setup", args, env, deadline, data,
                       os.path.join(workdir, "setup.json"), ["--seed", str(args.seed)])
        # One fresh process per data set, each measuring for an equal share
        # of the run; peak RSS is the highest of the processes' peaks.
        measures = []
        for k in range(workloads.DATASETS):
            share = args.seconds / workloads.DATASETS
            grace = deadline - time.monotonic() - (workloads.DATASETS - k) * (share + 20.0)
            measures.append(_child(
                "measure", args, env, deadline, os.path.join(data, str(k)),
                os.path.join(workdir, f"measure-{k}.json"),
                ["--seconds", str(share), "--grace", str(max(0.0, grace))],
            ))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)

    ops = [dict(o, dataset=k) for k, m in enumerate(measures) for o in m["ops"]]
    peak_rss_mb = max(m["peak_rss_mb"] for m in measures)
    failed = [o for o in ops if o["failures"]]
    plain = [o for o in ops if not o["traced"]]
    traced = [o for o in ops if o["traced"] and "layers" in o]
    fit_s = dataset_mean(plain, _fit)
    if fit_s is None or (args.trace and not traced):
        print("error: no operation completed", file=sys.stderr)
        return 1
    env_record = dict(measures[0]["environment"], seed=args.seed, workload=args.workload,
                      dataset_seeds=workloads.dataset_seeds(args.seed))
    print("perfbench " + " ".join(f"{k}={v}" for k, v in env_record.items()))
    for o in failed[:5]:
        print("  failed: " + "; ".join(o["failures"]))
    digests = {}
    for o in ops:
        if "digests" in o:
            digests.setdefault(o["dataset"], o["digests"])
    for k, files in sorted(digests.items()):
        for name, digest in files.items():
            print(f"  data set {k}: sha256 {name} {digest}")

    error_rate = len(failed) / len(ops)
    if args.trace:
        metrics = {
            name: dataset_mean(traced, lambda o: [o["layers"][name]])
            for name in traced[0]["layers"]
        }
        metrics.update(setup["trace"])
        metrics["trace.overhead_s"] = dataset_mean(traced, _fit) - fit_s
        units = tracing.PER_LAYER
        missing = sorted({n for o in traced for n in o.get("untraced_names", [])})
        if missing:
            print("  not traced, absent from the package: " + ", ".join(missing))
        op_s = dataset_mean(traced, lambda o: [o["fit_s"] + sum(o["predict_s"])])
        print(f"  traced operations: {len(traced)}, {op_s:.4f} s each")
        for name in units:
            print(f"  {name:<36} {metrics[name]:.6g} {units[name]}")
        print("  self time as a share of a traced operation:")
        for layer in tracing.LAYERS:
            print(f"    {layer:<12} {metrics[layer + '.self_s'] / op_s:6.1%}")
    else:
        fits = [o["fit_s"] for o in plain if "fit_s" in o]
        predicts = [t for o in plain for t in o.get("predict_s", [])]
        metrics = {
            "setup_s": statistics.median(setup["setup_s"]),
            "fit_s": fit_s,
            "predict_s": dataset_mean(plain, _predict),
            "peak_rss_mb": peak_rss_mb,
            "accuracy": statistics.fmean(o["accuracy"] for o in ops if "accuracy" in o),
            "success_rate": 1.0 - error_rate,
        }
        units = END_TO_END
        print(f"  {len(plain)} operations over {workloads.DATASETS} data sets; fit_s and "
              "predict_s are the mean over data sets of the median on each")
        print(_describe("setup_s", metrics["setup_s"], setup["setup_s"], "s"))
        print(_describe("fit_s", metrics["fit_s"], fits, "s"))
        print(_describe("predict_s", metrics["predict_s"], predicts, "s"))
        print(f"  {'peak_rss_mb':<12} {metrics['peak_rss_mb']:.1f} MiB")
        print(f"  {'accuracy':<12} {metrics['accuracy']:.6f}")
        print(f"  {'error_rate':<12} {error_rate:.6f}  ({len(failed)} of {len(ops)} operations)")

    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump({"environment": env_record, "digests": digests, "ops": ops,
                   "setup_s": setup["setup_s"], "error_rate": error_rate,
                   "metrics": metrics}, fh, indent=1)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
