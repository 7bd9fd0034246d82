"""Command-line front end.

Subcommands: fit, predict, eval, synth, decompose, baseline. A flat
``key=value`` config file can supply any fit option, keyed by its ``dest``
(``lam`` for ``--lambda``); explicit flags override it, it overrides the
defaults, and an unknown key is a configuration error. Exit codes: 0
success, 2 configuration error, 3 I/O error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import dataio, jobs, pseudolabel, solver
from .dataio import TensorFileError
from .hooi import hooi
from .solver import CLASS_UPDATES, Hyperparams, LabeledTensorSet
from .tensor import frobenius_norm

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
# defaults of the fit options whose flags have none, so that a config can set them
_DEFAULTS = {"class_update": CLASS_UPDATES[0], "out": "."}


class ConfigError(ValueError):
    """A bad option or input; :func:`main` maps it, as any ValueError, to exit 2."""


def _load_config(path) -> dict:
    """A config file's pairs, keyed by fit option ``dest`` for fit and baseline."""
    fit_options = argparse.ArgumentParser()
    _add_fit_options(fit_options)
    known = set(vars(fit_options.parse_args([]))) - {"config"}
    cfg = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = (part.strip() for part in line.partition("="))
                if key not in known:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                cfg[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return cfg


def _merge_config(args) -> None:
    """Settle each option in ``args`` once: its flag, else its ``--config``
    value (a string, cast where it is read), else its default."""
    cfg = _load_config(args.config) if args.config else {}
    for key, value in {**_DEFAULTS, **cfg}.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _parse_ranks(value):
    if value is None:
        return None
    try:
        # every field counts: an empty one is an error, not a skipped mode
        return tuple(int(v) for v in str(value).split(","))
    except ValueError as exc:
        raise ConfigError(f"bad ranks {value!r}: {exc}") from exc


def _require_file(path, what):
    if path is None:
        raise ConfigError(f"missing required option: {what}")
    if not os.path.exists(path):
        raise ConfigError(f"{what} file not found: {path}")
    return path


def _build_hyper(args) -> Hyperparams:
    """Hyperparameters from the preset, overridden by each option given."""
    presets = {"object": solver.object_preset, "digit": solver.digit_preset}
    if args.preset not in (None, "custom", *presets):
        raise ConfigError(f"unknown preset {args.preset!r}")
    given = {}
    ranks = _parse_ranks(args.ranks)
    if ranks is not None:
        given["ranks"] = ranks
    elif args.preset not in presets:
        raise ConfigError("ranks are required (flag --ranks or a preset)")
    # every field after ranks, cast to the type of its default
    for f in dataclasses.fields(Hyperparams)[1:]:
        key = "max_iters" if f.name == "max_outer_iters" else f.name
        value = getattr(args, key)
        if value is not None:
            try:
                given[f.name] = type(f.default)(value)
            except ValueError as exc:
                # a flag's value is cast already: only a config string fails
                raise ConfigError(f"{args.config}: bad {key} {value!r}: {exc}") from exc
    return presets.get(args.preset, Hyperparams)(**given)


def _format_optional(x: float) -> str:
    """A float field that may be missing (NaN), written empty when it is."""
    return "" if math.isnan(x) else repr(float(x))


def write_predictions(path, pl: pseudolabel.PseudoLabels) -> None:
    rows = enumerate(zip(pl.labels.tolist(), pl.combined_conf.tolist()))
    body = "".join(f"{j},{label},{conf!r}\n" for j, (label, conf) in rows)
    with open(path, "w") as fh:
        fh.write("index,label,confidence\n" + body)


def read_predictions(path):
    """The labels and confidences of a prediction file. Each row's index
    must be its 0-based row number."""
    with open(path) as fh:
        header = fh.readline()
        if header.strip() != "index,label,confidence":
            raise ValueError(f"unexpected prediction header: {header.strip()!r}")
        rows = []
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            try:
                index, label, conf = line.strip().split(",")
                index, label, conf = int(index), np.int64(int(label)), float(conf)
            except (ValueError, OverflowError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: expected index,label,confidence, got {line.strip()!r}"
                ) from exc
            if index != len(rows):
                raise ValueError(f"{path}:{lineno}: index {index}, expected {len(rows)}")
            rows.append((label, conf))
    labels = np.array([r[0] for r in rows], dtype=np.int64)
    conf = np.array([r[1] for r in rows], dtype=np.float64)
    return labels, conf


def write_history(path, history) -> None:
    with open(path, "w") as fh:
        fh.write("iter,objective,n_selected,accuracy_if_truth_given\n")
        for row in history:
            obj, acc = _format_optional(row.objective), _format_optional(row.accuracy)
            fh.write(f"{row.iteration},{obj},{row.n_selected},{acc}\n")


def _load_problem(args):
    """The labeled source, the target and the optional target truth labels."""
    src_path = _require_file(args.source, "--source")
    lab_path = _require_file(args.source_labels, "--source-labels")
    samples = dataio.read_tensor(src_path)
    source = LabeledTensorSet(samples=samples, labels=dataio.read_labels(lab_path))
    target = LabeledTensorSet(samples=dataio.read_tensor(_require_file(args.target, "--target")))
    truth = None
    if args.truth is not None:
        truth = dataio.read_labels(_require_file(args.truth, "--truth"))
        if truth.shape[0] != target.n_samples:
            raise ConfigError("truth label count does not match target sample count")
    return source, target, truth


def cmd_fit(args) -> int:
    _merge_config(args)
    if args.class_update not in CLASS_UPDATES:
        raise ConfigError(f"unknown class update {args.class_update!r}")
    source, target, truth = _load_problem(args)
    hyper = _build_hyper(args)
    os.makedirs(args.out, exist_ok=True)

    model, pl, history = solver.fit(
        source, target, hyper, truth=truth, class_update=args.class_update
    )
    dataio.save_model(os.path.join(args.out, "model.stdm"), model)
    write_predictions(os.path.join(args.out, "predictions.txt"), pl)
    write_history(os.path.join(args.out, "history.csv"), history)
    last = history[-1]
    print(
        json.dumps(
            {
                "iterations": last.iteration,
                # the last evaluated objective: the final row holds none
                "objective": next(
                    r.objective for r in reversed(history) if not math.isnan(r.objective)
                ),
                "n_selected": last.n_selected,
                "accuracy": None if math.isnan(last.accuracy) else last.accuracy,
                "out": args.out,
            }
        )
    )
    return 0


def cmd_predict(args) -> int:
    model = dataio.load_model(_require_file(args.model, "--model"))
    target = LabeledTensorSet(samples=dataio.read_tensor(_require_file(args.target, "--target")))
    pl = pseudolabel.predict_labels(target, model)
    write_predictions(args.out, pl)
    return 0


def cmd_eval(args) -> int:
    labels, _ = read_predictions(_require_file(args.predictions, "--predictions"))
    truth = dataio.read_labels(_require_file(args.truth, "--truth"))
    if labels.shape != truth.shape:
        raise ConfigError("prediction and truth counts differ")
    overall = float(np.mean(labels == truth)) if truth.size else None
    per_class = {}
    for c in sorted(set(truth.tolist())):
        mask = truth == c
        per_class[str(c)] = float(np.mean(labels[mask] == c))
    print(json.dumps({"accuracy": overall, "per_class": per_class}))
    return 0


def cmd_synth(args) -> int:
    spec = dataio.SyntheticSpec(
        class_count=args.classes,
        dims=_parse_ranks(args.dims),
        ranks=_parse_ranks(args.ranks),
        n_source_per_class=args.n_source,
        n_target_per_class=args.n_target,
        noise=args.noise,
        shift=args.shift,
        seed=args.seed,
    )
    source, target, truth = dataio.generate_synthetic(spec)
    os.makedirs(args.out, exist_ok=True)
    dataio.write_tensor(os.path.join(args.out, "source.stdl"), source.samples)
    dataio.write_labels(os.path.join(args.out, "source_labels.txt"), source.labels)
    dataio.write_tensor(os.path.join(args.out, "target.stdl"), target.samples)
    dataio.write_labels(os.path.join(args.out, "target_truth.txt"), truth)
    print(json.dumps({"out": args.out, "n_source": source.n_samples, "n_target": target.n_samples}))
    return 0


def cmd_decompose(args) -> int:
    t = dataio.read_tensor(_require_file(args.input, "--input"))
    # BLAS held at one thread, as fit holds it: the written files then do
    # not depend on the caller's BLAS thread setting
    with jobs._one_blas_thread():
        res = hooi(t, _parse_ranks(args.ranks), max_sweeps=args.max_sweeps, tol=args.tol)
        # the error formed in the reconstruction's buffer, the one temporary
        diff = res.reconstruct()
        np.subtract(t, diff, out=diff)
        err = frobenius_norm(diff)
    os.makedirs(args.out, exist_ok=True)
    dataio.write_tensor(os.path.join(args.out, "core.stdl"), res.core)
    for m, u in enumerate(res.factors):
        dataio.write_tensor(os.path.join(args.out, f"factor_{m}.stdl"), u)
    report = {"reconstruction_error": err, "fit_history": res.fit_history}
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report))
    return 0


def cmd_baseline(args) -> int:
    _merge_config(args)
    source, target, truth = _load_problem(args)
    labels = solver.nearest_centroid_labels(source, target)
    out = {"labels": labels.tolist()}
    if truth is not None:
        out["accuracy"] = float(np.mean(labels == truth)) if truth.size else None
    print(json.dumps(out))
    return 0


def _add_data_options(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--source")
    p.add_argument("--source-labels", dest="source_labels")
    p.add_argument("--target")
    p.add_argument("--truth")


def _add_fit_options(p):
    _add_data_options(p)
    p.add_argument("--preset", choices=["object", "digit", "custom"])
    p.add_argument("--theta", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--ranks")
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--inner-sweeps", dest="inner_sweeps", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--out")
    p.add_argument("--class-update", choices=CLASS_UPDATES, help=f"default {CLASS_UPDATES[0]}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdtdl",
        description="Structured discriminative tensor dictionary learning for "
        "unsupervised domain adaptation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="train a model and predict target labels")
    _add_fit_options(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict labels with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score a prediction file against truth labels")
    p.add_argument("--predictions", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic cross-domain dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--dims", required=True)
    p.add_argument("--ranks", required=True)
    p.add_argument("--n-source", dest="n_source", type=int, required=True)
    p.add_argument("--n-target", dest="n_target", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--shift", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("decompose", help="standalone Tucker decomposition")
    p.add_argument("--input", required=True)
    p.add_argument("--ranks", required=True)
    p.add_argument("--max-sweeps", dest="max_sweeps", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("baseline", help="no-adaptation nearest-centroid accuracy")
    _add_data_options(p)
    p.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TensorFileError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
