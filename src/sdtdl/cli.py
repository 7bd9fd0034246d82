"""Command-line front end.

Subcommands: fit, predict, eval, synth, decompose, baseline. A flat
``key=value`` config file can supply any fit option, keyed by its ``dest``
(``lam`` for ``--lambda``); explicit flags override it, and an unknown key
is a configuration error. Exit codes: 0 success, 2 configuration error,
3 I/O error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import dataio, pseudolabel, solver
from .dataio import TensorFileError
from .hooi import hooi
from .solver import Hyperparams, LabeledTensorSet

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
CLASS_UPDATES = ("eigen-phi", "exact")


class ConfigError(Exception):
    pass


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


def _merged(args, cfg: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return cfg.get(key, default)


def _parse_ranks(value):
    if value is None:
        return None
    try:
        return tuple(int(v) for v in str(value).split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad ranks {value!r}: {exc}") from exc


def _require_file(path, what):
    if path is None:
        raise ConfigError(f"missing required option: {what}")
    if not os.path.exists(path):
        raise ConfigError(f"{what} file not found: {path}")
    return path


def _build_hyper(args, cfg) -> Hyperparams:
    """Hyperparameters from the preset, overridden by each option given."""
    presets = {"object": solver.object_preset, "digit": solver.digit_preset}
    preset = _merged(args, cfg, "preset")
    if preset not in (None, "custom", *presets):
        raise ConfigError(f"unknown preset {preset!r}")
    given = {}
    ranks = _parse_ranks(_merged(args, cfg, "ranks"))
    if ranks is not None:
        given["ranks"] = ranks
    elif preset not in presets:
        raise ConfigError("ranks are required (flag --ranks or a preset)")
    try:
        # every field after ranks, cast to the type of its default
        for f in dataclasses.fields(Hyperparams)[1:]:
            value = _merged(args, cfg, "max_iters" if f.name == "max_outer_iters" else f.name)
            if value is not None:
                given[f.name] = type(f.default)(value)
        return presets.get(preset, Hyperparams)(**given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _format_float(x: float) -> str:
    return repr(float(x))


def _format_optional(x: float) -> str:
    """A float field that may be missing (NaN), written empty when it is."""
    return "" if math.isnan(x) else _format_float(x)


def write_predictions(path, pl: pseudolabel.PseudoLabels) -> None:
    rows = enumerate(zip(pl.labels.tolist(), pl.combined_conf.tolist()))
    body = "".join(f"{j},{label},{conf!r}\n" for j, (label, conf) in rows)
    with open(path, "w") as fh:
        fh.write("index,label,confidence\n" + body)


def read_predictions(path):
    with open(path) as fh:
        header = fh.readline()
        if header.strip() != "index,label,confidence":
            raise ValueError(f"unexpected prediction header: {header.strip()!r}")
        rows = []
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            try:
                _, label, conf = line.strip().split(",")
                rows.append((int(label), float(conf)))
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: expected index,label,confidence, got {line.strip()!r}"
                ) from exc
    labels = np.array([r[0] for r in rows], dtype=np.int64)
    conf = np.array([r[1] for r in rows], dtype=np.float64)
    return labels, conf


def write_history(path, history) -> None:
    with open(path, "w") as fh:
        fh.write("iter,objective,n_selected,accuracy_if_truth_given\n")
        for row in history:
            obj, acc = _format_optional(row.objective), _format_optional(row.accuracy)
            fh.write(f"{row.iteration},{obj},{row.n_selected},{acc}\n")


def _load_problem(args, cfg):
    """The labeled source, the target and the optional target truth labels."""
    src_path = _require_file(_merged(args, cfg, "source"), "--source")
    lab_path = _require_file(_merged(args, cfg, "source_labels"), "--source-labels")
    samples = dataio.read_tensor(src_path)
    labels = dataio.read_labels(lab_path)
    if labels.size == 0:
        raise ConfigError(f"no labels in {lab_path}")
    source = LabeledTensorSet(samples=samples, class_count=int(labels.max()), labels=labels)
    tgt_path = _require_file(_merged(args, cfg, "target"), "--target")
    target = LabeledTensorSet(
        samples=dataio.read_tensor(tgt_path), class_count=source.class_count
    )
    truth_path = _merged(args, cfg, "truth")
    truth = None
    if truth_path is not None:
        truth = dataio.read_labels(_require_file(truth_path, "--truth"))
        if truth.shape[0] != target.n_samples:
            raise ConfigError("truth label count does not match target sample count")
    return source, target, truth


def cmd_fit(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    class_update = _merged(args, cfg, "class_update", "eigen-phi")
    if class_update not in CLASS_UPDATES:
        raise ConfigError(f"unknown class update {class_update!r}")
    source, target, truth = _load_problem(args, cfg)
    hyper = _build_hyper(args, cfg)
    out = _merged(args, cfg, "out", ".")
    os.makedirs(out, exist_ok=True)

    model, pl, history = solver.fit(
        source, target, hyper, truth=truth, class_update=class_update
    )
    dataio.save_model(os.path.join(out, "model.stdm"), model)
    write_predictions(os.path.join(out, "predictions.txt"), pl)
    write_history(os.path.join(out, "history.csv"), history)
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
                "out": out,
            }
        )
    )
    return 0


def cmd_predict(args) -> int:
    model = dataio.load_model(_require_file(args.model, "--model"))
    samples = dataio.read_tensor(_require_file(args.target, "--target"))
    dims = tuple(u.shape[0] for u in model.u_source)
    if samples.shape[:-1] != dims:
        raise ConfigError(f"target dims {samples.shape[:-1]} do not match model dims {dims}")
    target = LabeledTensorSet(samples=samples, class_count=model.class_count)
    pl = pseudolabel.predict_labels(target, model, model.hyper.gamma, model.hyper.delta)
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
    try:
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
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
    ranks = _parse_ranks(args.ranks)
    if ranks is None:
        raise ConfigError("missing required option: --ranks")
    try:
        res = hooi(t, ranks, max_sweeps=args.max_sweeps, tol=args.tol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    dataio.write_tensor(os.path.join(args.out, "core.stdl"), res.core)
    for m, u in enumerate(res.factors):
        dataio.write_tensor(os.path.join(args.out, f"factor_{m}.stdl"), u)
    err = float(np.linalg.norm((t - res.reconstruct()).ravel()))
    report = {"reconstruction_error": err, "fit_history": res.fit_history}
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report))
    return 0


def cmd_baseline(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    source, target, truth = _load_problem(args, cfg)
    labels = solver.nearest_centroid_labels(source, target)
    out = {"labels": labels.tolist()}
    if truth is not None:
        out["accuracy"] = float(np.mean(labels == truth))
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
    p.add_argument("--class-update", choices=CLASS_UPDATES, help="default eigen-phi")


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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
