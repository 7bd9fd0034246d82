"""Compare the fitted outputs of two ``sdtdl`` source trees.

Each data set is fitted once per tree and per class-update route, each fit
in a fresh process that imports ``sdtdl`` from that tree and runs
``sdtdl fit`` through ``sdtdl.cli.main``. A data set is a directory holding
``source.stdl``, ``source_labels.txt`` and ``target.stdl``, as ``sdtdl
synth`` and the benchmark write them. Options after ``--`` go to every
``sdtdl fit``; the tool sets ``--class-update`` itself.

    python3 tools/compare_fits.py OLD/src NEW/src DATA... [-- FIT_OPTIONS...]

One JSON line per data set and route reports whether the labels and the
selection masks are equal, whether the written ``model.stdm``,
``predictions.txt`` and ``history.csv`` are byte-identical (by SHA-256)
and which of them differ (``differing_files``), the largest confidence
change, the largest projector change ``||U U^T - V V^T||_2`` over every
factor matrix, and the largest relative change of a history objective.
Each line also gives the peak resident memory of each tree's fit process
in MiB (``maxrss_mib``, its ``ru_maxrss``) and the wall time of its
``sdtdl fit`` call in seconds (``fit_s``); a last line gives the maxima of
the changes, whether every file was identical, and each tree's largest
memory and summed time. Every line also gives the BLAS thread variables
the fits ran under (``blas_threads``, null where unset). Whatever they
say, ``sdtdl`` holds BLAS at one thread while it fits and runs its class
work, its source update and the blocks of its prediction passes on one
thread per core, so its written files do not depend on them. A tree from
before that rule ran BLAS on the threads they name, and its history
objectives may round differently under each setting. The exit code is 0
when every comparison is within the tolerances, 1 when one is not, 2 on a
usage error or a fit that failed; it depends on neither byte identity nor
memory or time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np

ROUTES = ("eigen-phi", "exact")
DELTAS = ("conf_max_abs", "projector_max", "objective_max_rel")
FILES = ("model.stdm", "predictions.txt", "history.csv")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def run_fit(data: str, route: str, out: str, fit_options: list) -> None:
    """Fit ``data`` with the ``sdtdl`` on ``sys.path`` and save the fitted
    labels, selection mask, confidences, factor matrices, history
    objectives, the SHA-256 of each written file, the process's peak
    resident memory in MiB and the wall time of ``sdtdl fit`` in seconds to
    ``out`` (``.npz``)."""
    from sdtdl import cli, solver

    fitted = []
    fit = solver.fit

    def keep(*args, **kwargs):
        fitted.append(fit(*args, **kwargs))
        return fitted[-1]

    solver.fit = keep
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["fit", "--source", os.path.join(data, "source.stdl")]
        argv += ["--source-labels", os.path.join(data, "source_labels.txt")]
        argv += ["--target", os.path.join(data, "target.stdl"), "--out", tmp]
        start = time.perf_counter()
        code = cli.main(argv + list(fit_options) + ["--class-update", route])
        fit_s = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"sdtdl fit exited {code} on {data} ({route})")
        digests = {
            "sha256:" + name: hashlib.sha256(pathlib.Path(tmp, name).read_bytes()).hexdigest()
            for name in FILES
        }
    model, pl, history = fitted[0]
    factors = {f"u_source/{m}": u for m, u in enumerate(model.u_source)}
    factors.update({f"u_target/{m}": u for m, u in enumerate(model.u_target)})
    for c, w in enumerate(model.w_class):
        factors.update({f"w/{c}/{m}": u for m, u in enumerate(w)})
    np.savez(
        out,
        maxrss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
        fit_s=fit_s,
        labels=pl.labels,
        selected=pl.selected,
        conf=pl.combined_conf,
        objective=np.array([row.objective for row in history]),
        **{"factor:" + k: v for k, v in factors.items()},
        **digests,
    )


def load(path: str) -> dict:
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def _projector_change(u: np.ndarray, v: np.ndarray) -> float:
    if u.shape != v.shape:
        return math.inf
    return float(np.linalg.norm(u @ u.T - v @ v.T, 2))


def _objective_change(a: np.ndarray, b: np.ndarray) -> float:
    """Largest relative change over the rows with an objective; ``inf``
    when the rows, or the rows without an objective, differ."""
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return math.inf
    have = ~np.isnan(a)
    rel = np.abs(a[have] - b[have]) / np.maximum(np.abs(a[have]), 1e-300)
    return float(rel.max(initial=0.0))


def compare(a: dict, b: dict) -> dict:
    """The differences between two fits saved by :func:`run_fit`."""
    same_shape = a["labels"].shape == b["labels"].shape
    names = sorted(k for k in a if k.startswith("factor:"))
    differing = [f for f in FILES if a["sha256:" + f] != b["sha256:" + f]]
    if names != sorted(k for k in b if k.startswith("factor:")):
        projector = math.inf
    else:
        projector = max(_projector_change(a[k], b[k]) for k in names)
    return {
        "labels_equal": bool(np.array_equal(a["labels"], b["labels"])),
        "masks_equal": bool(np.array_equal(a["selected"], b["selected"])),
        "files_identical": not differing,
        "differing_files": differing,
        "conf_max_abs": float(np.max(np.abs(a["conf"] - b["conf"]), initial=0.0))
        if same_shape
        else math.inf,
        "projector_max": projector,
        "objective_max_rel": _objective_change(a["objective"], b["objective"]),
    }


def within(diff: dict, tolerances: dict) -> bool:
    return (
        diff["labels_equal"]
        and diff["masks_equal"]
        and all(diff[k] <= tolerances[k] for k in DELTAS)
    )


def _fit_in_child(src: str, data: str, route: str, out: str, fit_options: list) -> None:
    env = dict(os.environ)
    src, data = os.path.abspath(src), os.path.abspath(data)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, os.path.abspath(__file__), "--child", data, route, out]
    done = subprocess.run(cmd + ["--"] + fit_options, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"fit with {src} failed on {data} ({route}):\n{done.stderr}")


def _split_fit_options(argv: list):
    if "--" in argv:
        k = argv.index("--")
        return argv[:k], argv[k + 1 :]
    return argv, []


def _child(argv: list) -> int:
    (data, route, out), fit_options = _split_fit_options(argv)
    run_fit(data, route, out, fit_options)
    return 0


def _printable(diff: dict) -> dict:
    """``diff`` with an incomparable (infinite) change written as null."""
    return {k: None if isinstance(v, float) and math.isinf(v) else v for k, v in diff.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--child"]:
        return _child(argv[1:])
    own, fit_options = _split_fit_options(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", help="the first tree's src directory")
    parser.add_argument("src_b", help="the second tree's src directory")
    parser.add_argument("data", nargs="+", help="data set directories")
    parser.add_argument("--conf-tol", type=float, default=1e-15)
    parser.add_argument("--projector-tol", type=float, default=1e-12)
    parser.add_argument("--objective-tol", type=float, default=1e-12)
    args = parser.parse_args(own)
    tolerances = {
        "conf_max_abs": args.conf_tol,
        "projector_max": args.projector_tol,
        "objective_max_rel": args.objective_tol,
    }
    worst = dict.fromkeys(DELTAS, 0.0)
    sides = ("a", "b")
    peak = dict.fromkeys(sides, 0.0)
    total_s = dict.fromkeys(sides, 0.0)
    blas = {var: os.environ.get(var) for var in BLAS_VARS}  # the children inherit them
    ok = identical = True
    with tempfile.TemporaryDirectory() as tmp:
        for k, data in enumerate(args.data):
            for route in ROUTES:
                fits = []
                for side, src in zip(sides, (args.src_a, args.src_b)):
                    out = os.path.join(tmp, f"{k}-{route}-{side}.npz")
                    try:
                        _fit_in_child(src, data, route, out, fit_options)
                    except RuntimeError as exc:
                        print(f"error: {exc}", file=sys.stderr)
                        return 2
                    fits.append(load(out))
                diff = compare(*fits)
                diff["pass"] = within(diff, tolerances)
                ok = ok and diff["pass"]
                identical = identical and diff["files_identical"]
                for key in DELTAS:
                    worst[key] = max(worst[key], diff[key])
                rss = {side: float(f["maxrss_mib"]) for side, f in zip(sides, fits)}
                secs = {side: float(f["fit_s"]) for side, f in zip(sides, fits)}
                for side in sides:
                    peak[side] = max(peak[side], rss[side])
                    total_s[side] += secs[side]
                row = {"data": data, "route": route, **diff, "maxrss_mib": rss, "fit_s": secs}
                row["blas_threads"] = blas
                print(json.dumps(_printable(row)))
    summary = {
        "summary": True, "files_identical": identical, **worst, "pass": ok,
        "maxrss_mib": peak, "fit_s": total_s, "blas_threads": blas,
    }
    print(json.dumps(_printable(summary)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
