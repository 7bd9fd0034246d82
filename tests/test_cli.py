import json
import os
import pathlib
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import sdtdl
from sdtdl import dataio, jobs, solver
from sdtdl.cli import build_parser, main, read_predictions
from sdtdl.hooi import hooi

from oracles import tensor_to_bytes


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def synth_dir(tmp_path, capsys, **kw):
    d = tmp_path / "data"
    args = dict(classes=3, dims="8,8", ranks="3,3", n_source=10, n_target=10,
                noise=0.05, shift=0.5, seed=0)
    args.update(kw)
    code, out, err = run(
        capsys, "synth",
        "--classes", str(args["classes"]),
        "--dims", args["dims"],
        "--ranks", args["ranks"],
        "--n-source", str(args["n_source"]),
        "--n-target", str(args["n_target"]),
        "--noise", str(args["noise"]),
        "--shift", str(args["shift"]),
        "--seed", str(args["seed"]),
        "--out", str(d),
    )
    assert code == 0, err
    return d


def fit_args(d, out):
    return [
        "fit",
        "--source", str(d / "source.stdl"),
        "--source-labels", str(d / "source_labels.txt"),
        "--target", str(d / "target.stdl"),
        "--truth", str(d / "target_truth.txt"),
        "--ranks", "3,3",
        "--theta", "2.0",
        "--lambda", "0.1",
        "--max-iters", "4",
        "--out", str(out),
    ]


def write_scaled_problem(tmp_path, scale, n_per_class=10, **spec):
    """A 3-class problem of 6x5 samples, both domains times ``scale``."""
    d = tmp_path / "data"
    d.mkdir()
    source, target, _ = dataio.generate_synthetic(dataio.SyntheticSpec(
        class_count=3, dims=(6, 5), ranks=(2, 2), n_source_per_class=n_per_class,
        n_target_per_class=n_per_class, noise=0.05, shift=0.5, seed=0, **spec,
    ))
    dataio.write_tensor(d / "source.stdl", source.samples * scale)
    dataio.write_labels(d / "source_labels.txt", source.labels)
    dataio.write_tensor(d / "target.stdl", target.samples * scale)
    return d


def scaled_fit_args(d, out):
    return [
        "fit", "--source", str(d / "source.stdl"),
        "--source-labels", str(d / "source_labels.txt"),
        "--target", str(d / "target.stdl"),
        "--ranks", "2,2", "--theta", "2.0", "--out", str(out),
    ]


class TestSynth:
    def test_writes_all_files(self, tmp_path, capsys):
        d = synth_dir(tmp_path, capsys)
        for name in ["source.stdl", "source_labels.txt", "target.stdl", "target_truth.txt"]:
            assert (d / name).exists()
        src = dataio.read_tensor(d / "source.stdl")
        assert src.shape == (8, 8, 30)
        assert len(dataio.read_labels(d / "source_labels.txt")) == 30

    def test_matches_api(self, tmp_path, capsys):
        d = synth_dir(tmp_path, capsys, seed=3)
        spec = dataio.SyntheticSpec(
            class_count=3, dims=(8, 8), ranks=(3, 3),
            n_source_per_class=10, n_target_per_class=10,
            noise=0.05, shift=0.5, seed=3,
        )
        source, target, truth = dataio.generate_synthetic(spec)
        assert np.array_equal(dataio.read_tensor(d / "source.stdl"), source.samples)
        assert np.array_equal(dataio.read_tensor(d / "target.stdl"), target.samples)
        assert np.array_equal(dataio.read_labels(d / "target_truth.txt"), truth)

    def test_bad_spec_exit_code(self, tmp_path, capsys):
        bad = [
            ("--dims", "3,3", "--ranks", "4,4"),
            ("--dims", "6,6", "--ranks", "0,2"),
            ("--dims", "0,6", "--ranks", "0,2"),
            ("--dims", ",", "--ranks", ","),
            ("--dims", "6,6", "--ranks", "2,2", "--noise", "nan"),
            ("--dims", "6,6", "--ranks", "2,2", "--noise", "inf"),
            ("--dims", "6,6", "--ranks", "2,2", "--shift", "nan"),
            ("--dims", "6,6", "--ranks", "2,2", "--shift", "-1"),
        ]
        for i, spec in enumerate(bad):
            out = tmp_path / f"x{i}"
            code, _, err = run(
                capsys, "synth", "--classes", "2", *spec,
                "--n-source", "1", "--n-target", "1", "--out", str(out),
            )
            assert code == 2, spec
            assert "error" in err
            assert not out.exists()


    def test_empty_dims_field_exit_code(self, tmp_path, capsys):
        # an empty field used to be skipped: 6,,6 made a 6x6 data set
        out = tmp_path / "x"
        code, stdout, err = run(
            capsys, "synth", "--classes", "2", "--dims", "6,,6", "--ranks", "2,2",
            "--n-source", "1", "--n-target", "1", "--out", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert "bad ranks '6,,6'" in err
        assert not out.exists()


class TestFitPredict:
    def test_fit_outputs(self, tmp_path, capsys):
        d = synth_dir(tmp_path, capsys)
        out = tmp_path / "run"
        code, stdout, err = run(capsys, *fit_args(d, out))
        assert code == 0, err
        summary = json.loads(stdout)
        assert 0.0 <= summary["accuracy"] <= 1.0
        assert (out / "model.stdm").exists()
        labels, conf = read_predictions(out / "predictions.txt")
        assert labels.shape == (30,)
        assert np.all((labels >= 1) & (labels <= 3))
        with open(out / "history.csv") as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "iter,objective,n_selected,accuracy_if_truth_given"
        assert len(lines) >= 2

    def test_source_label_outside_int64_exit_code(self, tmp_path, capsys):
        # an integer label outside int64 is a configuration error, as a
        # non-integer label is, not an OverflowError out of main
        d = synth_dir(tmp_path, capsys)
        labels = (d / "source_labels.txt").read_text().splitlines()
        labels[0] = "99999999999999999999"
        (d / "source_labels.txt").write_text("\n".join(labels) + "\n")
        out = tmp_path / "run"
        code, stdout, err = run(capsys, *fit_args(d, out))
        assert code == 2
        assert stdout == ""
        assert "outside the 64-bit integer range" in err
        assert not out.exists()

    def test_final_history_row_has_no_objective(self, tmp_path, capsys):
        d = synth_dir(tmp_path, capsys)
        out = tmp_path / "run"
        code, stdout, err = run(capsys, *fit_args(d, out))
        assert code == 0, err
        with open(out / "history.csv") as fh:
            rows = [line.split(",") for line in fh.read().strip().splitlines()[1:]]
        assert len(rows) >= 3
        # the final row records the prediction pass only; every earlier row
        # holds the objective after its block pass
        assert rows[-1][1] == ""
        assert all(np.isfinite(float(row[1])) for row in rows[:-1])
        summary = json.loads(stdout)
        assert summary["iterations"] == int(rows[-1][0])
        assert summary["objective"] == float(rows[-2][1])

    def test_predict_reproduces_fit_predictions(self, tmp_path, capsys):
        d = synth_dir(tmp_path, capsys)
        out = tmp_path / "run"
        code, _, _ = run(capsys, *fit_args(d, out))
        assert code == 0
        pred = tmp_path / "pred.txt"
        code, _, err = run(
            capsys, "predict",
            "--model", str(out / "model.stdm"),
            "--target", str(d / "target.stdl"),
            "--out", str(pred),
        )
        assert code == 0, err
        l1, c1 = read_predictions(out / "predictions.txt")
        l2, c2 = read_predictions(pred)
        assert np.array_equal(l1, l2)
        assert np.array_equal(c1, c2)

    def test_rerun_is_deterministic(self, tmp_path, capsys):
        d = synth_dir(tmp_path, capsys)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _, _ = run(capsys, *fit_args(d, out))
            assert code == 0
            outs.append(out)
        for name in ("model.stdm", "predictions.txt", "history.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_max_iters_zero_single_history_row(self, tmp_path, capsys):
        d = synth_dir(tmp_path, capsys)
        out = tmp_path / "run"
        argv = fit_args(d, out)
        argv[argv.index("--max-iters") + 1] = "0"
        code, _, _ = run(capsys, *argv)
        assert code == 0
        with open(out / "history.csv") as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0,")

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        d = synth_dir(tmp_path, capsys)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            f"source={d / 'source.stdl'}\n"
            f"source_labels={d / 'source_labels.txt'}\n"
            f"target={d / 'target.stdl'}\n"
            "ranks=3,3\n"
            "theta=2.0\n"
            "max_iters=9999\n"
        )
        out = tmp_path / "run"
        code, stdout, err = run(
            capsys, "fit", "--config", str(cfg), "--max-iters", "1", "--out", str(out)
        )
        assert code == 0, err
        summary = json.loads(stdout)
        assert summary["accuracy"] is None  # no truth given
        assert summary["iterations"] <= 2

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a pair\n")
        code, _, err = run(capsys, "fit", "--config", str(cfg))
        assert code == 2
        assert "expected key=value" in err

    @pytest.mark.parametrize(
        "key, value, reason",
        [("theta", "abc", "could not convert"), ("max_iters", "2.5", "invalid literal")],
    )
    def test_config_value_that_fails_its_cast_names_its_key(
        self, tmp_path, capsys, key, value, reason
    ):
        # a float key and an int key: the error used to name neither the
        # key nor the file
        d = synth_dir(tmp_path, capsys)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"ranks=3,3\n{key}={value}\n")
        out = tmp_path / "run"
        code, stdout, err = run(
            capsys, "fit", "--config", str(cfg),
            "--source", str(d / "source.stdl"),
            "--source-labels", str(d / "source_labels.txt"),
            "--target", str(d / "target.stdl"),
            "--out", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert f"run.cfg: bad {key} {value!r}: {reason}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "baseline"])
    @pytest.mark.parametrize("key", ["lambda", "thetta", "config"])
    def test_unknown_config_key(self, tmp_path, capsys, command, key):
        # a key that is not a fit option's dest used to be ignored silently
        d = synth_dir(tmp_path, capsys)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"ranks=3,3\n{key}=0.5\n")
        out = tmp_path / "run"
        code, stdout, err = run(
            capsys, command, "--config", str(cfg),
            "--source", str(d / "source.stdl"),
            "--source-labels", str(d / "source_labels.txt"),
            "--target", str(d / "target.stdl"),
            *(["--out", str(out)] if command == "fit" else []),
        )
        assert code == 2
        assert stdout == ""
        assert f"run.cfg:2: unknown config key {key!r}" in err
        assert not out.exists()

    def test_every_fit_option_is_a_config_key(self, tmp_path, capsys):
        # one file with every key: fit writes what the same flags write, and
        # baseline accepts the file too
        d = synth_dir(tmp_path, capsys)
        options = {
            "source": d / "source.stdl", "source_labels": d / "source_labels.txt",
            "target": d / "target.stdl", "truth": d / "target_truth.txt",
            "preset": "custom", "ranks": "3,3", "theta": 2.0, "lam": 0.1, "gamma": 0.3,
            "delta": 0.9, "max_iters": 4, "inner_sweeps": 5, "tol": 1e-7,
            "class_update": "exact",
        }
        dests = set(vars(build_parser().parse_args(["fit"])))
        assert dests - set(options) == {"command", "func", "config", "out"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "".join(f"{k}={v}\n" for k, v in options.items()) + f"out={tmp_path / 'cfg'}\n"
        )
        flags = ["fit", "--out", str(tmp_path / "flags")]
        for k, v in options.items():
            flags += ["--" + {"lam": "lambda"}.get(k, k).replace("_", "-"), str(v)]
        for argv in (flags, ["fit", "--config", str(cfg)], ["baseline", "--config", str(cfg)]):
            code, _, err = run(capsys, *argv)
            assert code == 0, err
        for name in ("model.stdm", "predictions.txt", "history.csv"):
            got = (tmp_path / "cfg" / name).read_bytes()
            assert got == (tmp_path / "flags" / name).read_bytes()

    def test_class_update_from_config_and_flag(self, tmp_path, capsys):
        d = synth_dir(tmp_path, capsys)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("class_update=exact\n")
        models = {}
        for name, extra in [
            ("default", []),
            ("exact", ["--class-update", "exact"]),
            ("config", ["--config", str(cfg)]),
            ("override", ["--config", str(cfg), "--class-update", "eigen-phi"]),
        ]:
            out = tmp_path / name
            code, _, err = run(capsys, *fit_args(d, out), *extra)
            assert code == 0, err
            models[name] = (out / "model.stdm").read_bytes()
        assert models["default"] != models["exact"]
        assert models["config"] == models["exact"]
        assert models["override"] == models["default"]

    def test_bad_class_update_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("class_update=eigen\n")
        out = tmp_path / "run"
        # rejected before any input is read: the data files do not exist
        code, stdout, err = run(
            capsys, "fit", "--config", str(cfg), "--source", str(tmp_path / "nope.stdl"),
            "--out", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert "unknown class update 'eigen'" in err
        assert not out.exists()

    def test_unknown_preset(self, tmp_path, capsys):
        d = synth_dir(tmp_path, capsys)
        cfg = tmp_path / "p.cfg"
        cfg.write_text("preset=bogus\n")
        code, _, err = run(
            capsys, "fit", "--config", str(cfg),
            "--source", str(d / "source.stdl"),
            "--source-labels", str(d / "source_labels.txt"),
            "--target", str(d / "target.stdl"),
        )
        assert code == 2
        assert "unknown preset" in err

    def test_missing_source_exit_code(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "fit", "--source", str(tmp_path / "nope.stdl"),
            "--source-labels", str(tmp_path / "nope.txt"),
            "--target", str(tmp_path / "nope2.stdl"), "--ranks", "2,2",
        )
        assert code == 2
        assert "not found" in err

    def test_corrupt_tensor_exit_code(self, tmp_path, capsys):
        d = synth_dir(tmp_path, capsys)
        bad = tmp_path / "bad.stdl"
        bad.write_bytes(b"GARBAGE!")
        code, _, err = run(
            capsys, "fit", "--source", str(bad),
            "--source-labels", str(d / "source_labels.txt"),
            "--target", str(d / "target.stdl"), "--ranks", "3,3",
        )
        assert code == 3
        assert "io error" in err

    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_bytes_after_the_target_payload_exit_code(self, tmp_path, capsys, command):
        # a target file with 8 bytes after its payload used to be read as
        # the tensor before them
        d = synth_dir(tmp_path, capsys)
        bad = tmp_path / "bad.stdl"
        bad.write_bytes((d / "target.stdl").read_bytes() + bytes(8))
        out = tmp_path / "run"
        if command == "fit":
            argv = fit_args(d, out)
            argv[argv.index("--target") + 1] = str(bad)
        else:
            assert run(capsys, *fit_args(d, out))[0] == 0
            argv = ["predict", "--model", str(out / "model.stdm"), "--target", str(bad),
                    "--out", str(tmp_path / "p.txt")]
        code, stdout, err = run(capsys, *argv)
        assert code == 3
        assert stdout == ""
        assert err == "io error: 8 bytes after the tensor payload\n"

    def test_predict_empty_target(self, tmp_path, capsys):
        d = synth_dir(tmp_path, capsys)
        out = tmp_path / "run"
        code, _, _ = run(capsys, *fit_args(d, out))
        assert code == 0
        empty = tmp_path / "empty.stdl"
        dataio.write_tensor(empty, np.zeros((8, 8, 0)))
        pred = tmp_path / "pred.txt"
        code, _, err = run(
            capsys, "predict", "--model", str(out / "model.stdm"),
            "--target", str(empty), "--out", str(pred),
        )
        assert code == 0, err
        assert pred.read_text() == "index,label,confidence\n"

    def test_fit_empty_target(self, tmp_path, capsys):
        d = synth_dir(tmp_path, capsys)
        dataio.write_tensor(d / "target.stdl", np.zeros((8, 8, 0)))
        args = fit_args(d, tmp_path / "run")
        del args[args.index("--truth") : args.index("--truth") + 2]
        code, _, err = run(capsys, *args)
        assert code == 2
        assert "target has no samples" in err

    @pytest.mark.parametrize("ranks", ["3,,3", "3,3,"])
    def test_empty_rank_field_exit_code(self, tmp_path, capsys, ranks):
        # an empty field used to be skipped, so both fitted ranks (3, 3)
        d = synth_dir(tmp_path, capsys)
        out = tmp_path / "run"
        args = fit_args(d, out)
        args[args.index("--ranks") + 1] = ranks
        code, stdout, err = run(capsys, *args)
        assert code == 2
        assert stdout == ""
        assert f"bad ranks {ranks!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option", [("--theta", "nan"), ("--lambda", "nan"), ("--theta", "inf"),
                   ("--lambda", "inf"), ("--tol", "nan"), ("--tol", "inf")],
    )
    def test_non_finite_hyperparam_exit_code(self, tmp_path, capsys, option):
        d = synth_dir(tmp_path, capsys)
        out = tmp_path / "run"
        code, stdout, err = run(capsys, *fit_args(d, out), *option)
        assert code == 2
        assert stdout == ""
        assert "must be finite" in err
        assert not out.exists()

    def test_predict_model_cut_inside_manifest(self, tmp_path, capsys):
        d = synth_dir(tmp_path, capsys)
        out = tmp_path / "run"
        code, _, _ = run(capsys, *fit_args(d, out))
        assert code == 0
        cut = tmp_path / "cut.stdm"
        # inside the name of the first manifest entry
        cut.write_bytes((out / "model.stdm").read_bytes()[:14])
        code, _, err = run(
            capsys, "predict", "--model", str(cut),
            "--target", str(d / "target.stdl"), "--out", str(tmp_path / "p.txt"),
        )
        assert code == 3
        assert "truncated model manifest" in err

    @pytest.mark.parametrize(
        "field, scale, message",
        [
            ("u_target", np.nan, "non-finite"),
            ("class_means_source", np.nan, "non-finite"),
            ("u_target", 2.0, "not orthonormal"),
            ("u_target", 1e200, "not orthonormal"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_predict_rejects_a_bad_model(self, tmp_path, capsys, field, scale, message):
        # these used to exit 0: NaN confidences with every label 1, or
        # confidences from a fidelity that assumes orthonormal factors
        d = synth_dir(tmp_path, capsys)
        out = tmp_path / "run"
        code, _, _ = run(capsys, *fit_args(d, out))
        assert code == 0
        model = dataio.load_model(out / "model.stdm")
        getattr(model, field)[0][...] *= scale
        bad = tmp_path / "bad.stdm"
        dataio.save_model(bad, model)
        pred = tmp_path / "p.txt"
        code, stdout, err = run(
            capsys, "predict", "--model", str(bad),
            "--target", str(d / "target.stdl"), "--out", str(pred),
        )
        assert code == 3
        assert stdout == ""
        assert err.startswith("io error: ") and message in err
        assert "Traceback" not in err
        assert not pred.exists()

    @pytest.mark.parametrize("case", ["column-class-factor", "non-utf8-name", "fractional-rank"])
    def test_predict_rejects_a_malformed_model(self, tmp_path, capsys, case):
        # these used to exit 0, with class codes broadcast against the class
        # means, 2, on a UnicodeDecodeError, and 0, with the rank truncated
        d = synth_dir(tmp_path, capsys)
        out = tmp_path / "run"
        code, _, _ = run(capsys, *fit_args(d, out))
        assert code == 0
        bad = tmp_path / "bad.stdm"
        if case == "column-class-factor":
            model = dataio.load_model(out / "model.stdm")
            model.w_class[0][0] = model.w_class[0][0][:, :1]
            dataio.save_model(bad, model)
            message = "'w/0/0' has shape (8, 1), expected (8, 3)"
        elif case == "fractional-rank":
            model = dataio.load_model(out / "model.stdm")
            model.hyper.ranks = (3.5,) + model.hyper.ranks[1:]
            dataio.save_model(bad, model)
            message = "ranks must be an integer >= 1, got 3.5"
        else:
            bad.write_bytes((out / "model.stdm").read_bytes().replace(b"hyper", b"\xffyper", 1))
            message = "is not UTF-8"
        pred = tmp_path / "p.txt"
        code, stdout, err = run(
            capsys, "predict", "--model", str(bad),
            "--target", str(d / "target.stdl"), "--out", str(pred),
        )
        assert code == 3
        assert stdout == ""
        assert err.startswith("io error: ") and message in err
        assert "Traceback" not in err
        assert not pred.exists()

    def test_predict_a_model_blob_of_unallocatable_dims(self, tmp_path, capsys):
        # dims of no entries pass the size check, but numpy cannot index a
        # 2**63 extent; this used to exit 2 with numpy's message alone
        d = synth_dir(tmp_path, capsys)
        out = tmp_path / "run"
        code, _, _ = run(capsys, *fit_args(d, out))
        assert code == 0
        buf = bytearray((out / "model.stdm").read_bytes())
        pos, offsets = 10, {}
        for _ in range(struct.unpack_from("<I", buf, 6)[0]):
            (size,) = struct.unpack_from("<H", buf, pos)
            name = buf[pos + 2 : pos + 2 + size].decode()
            offsets[name] = struct.unpack_from("<Q", buf, pos + 2 + size)[0]
            pos += 2 + size + 8
        off = offsets["mean_src/2"]
        assert struct.unpack_from("<4sHH2Q", buf, off) == (b"STDL", 1, 2, 3, 3)
        struct.pack_into("<2Q", buf, off + 8, 0, 2**63)
        bad = tmp_path / "bad.stdm"
        bad.write_bytes(bytes(buf))
        pred = tmp_path / "p.txt"
        code, stdout, err = run(
            capsys, "predict", "--model", str(bad),
            "--target", str(d / "target.stdl"), "--out", str(pred),
        )
        assert code == 3
        assert stdout == ""
        assert err.startswith("io error: model entry 'mean_src/2': dims (0, 9223372036854775808)")
        assert not pred.exists()

    @pytest.mark.parametrize("scale", [1e155, 1e300])
    @pytest.mark.filterwarnings("error")
    def test_predict_on_an_overflowing_target(self, tmp_path, capsys, scale):
        # this used to exit 0 with label 1 and confidence nan for every
        # sample, after two RuntimeWarnings
        d = write_scaled_problem(tmp_path, 1.0)
        out = tmp_path / "run"
        code, _, err = run(capsys, *scaled_fit_args(d, out))
        assert code == 0, err
        huge = tmp_path / "huge.stdl"
        dataio.write_tensor(huge, dataio.read_tensor(d / "target.stdl") * scale)
        pred = tmp_path / "p.txt"
        code, stdout, err = run(
            capsys, "predict", "--model", str(out / "model.stdm"),
            "--target", str(huge), "--out", str(pred),
        )
        assert code == 4
        assert stdout == ""
        assert err == "numeric error: a reconstruction error or centroid distance is not finite\n"
        assert not pred.exists()

    # 10 samples per class give class stacks with fewer samples than the 30
    # feature entries, so init step 1's HOOI sweeps the stack (the direct
    # path); 40 give more, so it sweeps the stack's sample moment
    @pytest.mark.parametrize("n_per_class", [10, 40], ids=["direct", "moment"])
    @pytest.mark.filterwarnings("error")
    def test_fit_on_an_overflowing_problem(self, tmp_path, capsys, n_per_class):
        # the Gram and moment matrices overflow at this scale; this used to
        # print numpy's overflow warning before the numeric error line. The
        # class jobs run on threads, and the first to fail names the error:
        # an overflowed matrix, or a residual norm that overflowed first.
        d = write_scaled_problem(tmp_path, 1e152, n_per_class=n_per_class, mean_separation=50.0)
        out = tmp_path / "run"
        code, stdout, err = run(capsys, *scaled_fit_args(d, out))
        assert code == 4
        assert stdout == ""
        assert err.startswith("numeric error: ") and err.count("\n") == 1
        assert not (out / "model.stdm").exists()

    def test_predict_dims_mismatch(self, tmp_path, capsys):
        d = synth_dir(tmp_path, capsys)
        out = tmp_path / "run"
        code, _, _ = run(capsys, *fit_args(d, out))
        assert code == 0
        wrong = tmp_path / "wrong.stdl"
        dataio.write_tensor(wrong, np.zeros((5, 5, 2)))
        code, _, err = run(
            capsys, "predict", "--model", str(out / "model.stdm"),
            "--target", str(wrong), "--out", str(tmp_path / "p.txt"),
        )
        assert code == 2
        assert "do not match" in err


    # workers None: the package's own rule on 3 cores, pooled where a BLAS
    # thread setter is found; 1: every job on the calling thread
    @pytest.mark.parametrize(
        "workers,failing",
        [
            pytest.param(None, "update_class_dict", id="None"),
            pytest.param(1, "update_class_dict", id="1"),
            (None, "update_domain_source"),
            (1, "update_domain_source"),
            (None, "predict_labels"),
            (1, "predict_labels"),
        ],
    )
    def test_failing_class_job_exits_4(self, tmp_path, capsys, monkeypatch, workers, failing):
        d = synth_dir(tmp_path, capsys)
        # keep 6 of class 2's 10 source samples, so its job is the one with 6
        labels = dataio.read_labels(d / "source_labels.txt")
        keep = np.flatnonzero((labels != 2) | (np.cumsum(labels == 2) <= 6))
        dataio.write_tensor(d / "source.stdl", dataio.read_tensor(d / "source.stdl")[..., keep])
        dataio.write_labels(d / "source_labels.txt", labels[keep])
        original = getattr(solver, failing)

        def class_update(sub, *args, **kwargs):
            if sub.n_s == 6:
                raise np.linalg.LinAlgError("class 2 failed")
            return original(sub, *args, **kwargs)

        def first_call_fails(*args):
            # the first source update runs beside the first pass, on an extra
            # thread when the pool is active
            raise np.linalg.LinAlgError(f"{failing} failed")

        wrapper = class_update if failing == "update_class_dict" else first_call_fails
        monkeypatch.setattr(solver, failing, wrapper)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        if workers is not None:
            monkeypatch.setattr(jobs, "_class_workers", lambda count: workers)
        code, _, err = run(capsys, *fit_args(d, tmp_path / "out"))
        assert code == 4
        message = "class 2" if failing == "update_class_dict" else failing
        assert f"numeric error: {message} failed" in err
        assert not (tmp_path / "out" / "model.stdm").exists()

    def test_written_files_do_not_depend_on_the_blas_thread_variables(self, tmp_path, capsys):
        # 2 classes of 400 4x4 samples per domain: a domain residual holds
        # 12,800 entries, past the 10,000 from which OpenBLAS splits a dot
        # product over its threads. Its norm enters the history objective,
        # so a fit that ran BLAS on 2 threads wrote another history.csv.
        d = synth_dir(
            tmp_path, capsys, classes=2, dims="4,4", ranks="2,2", n_source=400, n_target=400,
            noise=0.1, seed=3,
        )
        # decompose on these 4x4x800 entries wrote other files under 2 threads
        # before it held BLAS at one thread
        dataio.write_tensor(
            tmp_path / "t.stdl", np.random.default_rng(3).standard_normal((4, 4, 800))
        )
        src = str(pathlib.Path(sdtdl.__file__).resolve().parents[1])
        blas_vars = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
        written = {}
        for threads in ("1", "2", None):
            env = {k: v for k, v in os.environ.items() if k not in blas_vars}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"out-{threads}"
            for argv in [
                fit_args(d, out),
                # the model this setting saved
                ["predict", "--model", str(out / "model.stdm"), "--target",
                 str(d / "target.stdl"), "--out", str(out / "predicted.txt")],
                ["decompose", "--input", str(tmp_path / "t.stdl"), "--ranks", "2,2,3",
                 "--max-sweeps", "2", "--out", str(out / "decompose")],
            ]:
                done = subprocess.run(
                    [sys.executable, "-m", "sdtdl.cli", *argv],
                    env=env, capture_output=True, text=True,
                )
                assert done.returncode == 0, done.stderr
            written[threads] = {
                path.relative_to(out).as_posix(): path.read_bytes()
                for path in out.rglob("*") if path.is_file()
            }
        assert set(written["1"]) == {
            "model.stdm", "predictions.txt", "history.csv", "predicted.txt",
            "decompose/core.stdl", "decompose/report.json",
            *(f"decompose/factor_{m}.stdl" for m in range(3)),
        }
        assert written["2"] == written["1"]
        assert written[None] == written["1"]
        assert written["1"]["predicted.txt"] == written["1"]["predictions.txt"]


class TestEval:
    def test_empty_files_print_valid_json(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        pred.write_text("index,label,confidence\n")
        truth = tmp_path / "truth.txt"
        truth.write_text("")
        code, stdout, err = run(
            capsys, "eval", "--predictions", str(pred), "--truth", str(truth)
        )
        assert code == 0, err

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        assert json.loads(stdout, parse_constant=reject) == {"accuracy": None, "per_class": {}}

    def test_hand_counted_fixture(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        pred.write_text(
            "index,label,confidence\n"
            "0,1,0.9\n1,2,0.9\n2,2,0.9\n3,1,0.9\n4,3,0.9\n5,3,0.9\n"
        )
        truth = tmp_path / "truth.txt"
        truth.write_text("1\n2\n2\n2\n3\n1\n")
        code, stdout, err = run(
            capsys, "eval", "--predictions", str(pred), "--truth", str(truth)
        )
        assert code == 0, err
        got = json.loads(stdout)
        # correct: rows 0,1,2,4 -> 4/6
        assert abs(got["accuracy"] - 4.0 / 6.0) <= 1e-12
        assert abs(got["per_class"]["1"] - 0.5) <= 1e-12
        assert abs(got["per_class"]["2"] - 2.0 / 3.0) <= 1e-12
        assert abs(got["per_class"]["3"] - 1.0) <= 1e-12

    def test_count_mismatch(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        pred.write_text("index,label,confidence\n0,1,0.9\n")
        truth = tmp_path / "truth.txt"
        truth.write_text("1\n2\n")
        code, _, err = run(
            capsys, "eval", "--predictions", str(pred), "--truth", str(truth)
        )
        assert code == 2

    def test_short_prediction_row(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        pred.write_text("index,label,confidence\n0,1,0.9\n0\n")
        truth = tmp_path / "truth.txt"
        truth.write_text("1\n2\n")
        code, _, err = run(
            capsys, "eval", "--predictions", str(pred), "--truth", str(truth)
        )
        assert code == 2
        assert "pred.txt:3" in err
        with pytest.raises(ValueError, match="index,label,confidence"):
            read_predictions(pred)

    # rows out of order scored 0.0 against truth 1,2 where their indices say
    # 1.0; a skipped or repeated index was not noticed
    @pytest.mark.parametrize(
        "rows, line",
        [("1,2,0.9\n0,1,0.9\n", 2), ("0,1,0.9\n2,2,0.9\n", 3),
         ("0,1,0.9\n0,2,0.9\n", 3), ("0,1,0.9\nx,2,0.9\n", 3)],
        ids=["swapped", "skipped", "repeated", "not-a-number"],
    )
    def test_index_must_be_the_row_number(self, tmp_path, capsys, rows, line):
        pred = tmp_path / "pred.txt"
        pred.write_text("index,label,confidence\n" + rows)
        truth = tmp_path / "truth.txt"
        truth.write_text("1\n2\n")
        code, stdout, err = run(
            capsys, "eval", "--predictions", str(pred), "--truth", str(truth)
        )
        assert code == 2
        assert stdout == ""
        assert f"pred.txt:{line}: " in err

    def test_label_outside_int64_exit_code(self, tmp_path, capsys):
        # an integer label outside int64 is a configuration error, as a
        # non-integer label is, not an OverflowError out of main
        pred = tmp_path / "pred.txt"
        pred.write_text("index,label,confidence\n0,1,0.9\n1,99999999999999999999,0.9\n")
        truth = tmp_path / "truth.txt"
        truth.write_text("1\n2\n")
        code, stdout, err = run(
            capsys, "eval", "--predictions", str(pred), "--truth", str(truth)
        )
        assert code == 2
        assert stdout == ""
        assert "pred.txt:3: " in err


class TestBaseline:
    def test_single_class_perfect(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        dataio.write_tensor(tmp_path / "s.stdl", rng.standard_normal((4, 4, 5)))
        dataio.write_labels(tmp_path / "sl.txt", [1] * 5)
        dataio.write_tensor(tmp_path / "t.stdl", rng.standard_normal((4, 4, 7)))
        dataio.write_labels(tmp_path / "tt.txt", [1] * 7)
        code, stdout, err = run(
            capsys, "baseline",
            "--source", str(tmp_path / "s.stdl"),
            "--source-labels", str(tmp_path / "sl.txt"),
            "--target", str(tmp_path / "t.stdl"),
            "--truth", str(tmp_path / "tt.txt"),
        )
        assert code == 0, err
        assert json.loads(stdout)["accuracy"] == 1.0

    def test_pure_noise_near_chance(self, tmp_path, capsys):
        # source centroids far apart, targets pure noise: accuracy ~ 1/C
        rng = np.random.default_rng(1)
        C, n_t = 3, 300
        src = rng.standard_normal((4, 4, 30)) * 0.01
        labels = np.repeat([1, 2, 3], 10)
        for c in range(C):
            src[c, c, labels == c + 1] += 100.0
        dataio.write_tensor(tmp_path / "s.stdl", src)
        dataio.write_labels(tmp_path / "sl.txt", labels)
        dataio.write_tensor(tmp_path / "t.stdl", rng.standard_normal((4, 4, n_t)))
        dataio.write_labels(tmp_path / "tt.txt", rng.integers(1, C + 1, size=n_t))
        code, stdout, err = run(
            capsys, "baseline",
            "--source", str(tmp_path / "s.stdl"),
            "--source-labels", str(tmp_path / "sl.txt"),
            "--target", str(tmp_path / "t.stdl"),
            "--truth", str(tmp_path / "tt.txt"),
        )
        assert code == 0, err
        acc = json.loads(stdout)["accuracy"]
        # 4-sigma binomial band around 1/3 with N=300
        assert abs(acc - 1.0 / 3.0) <= 4 * np.sqrt((1 / 3) * (2 / 3) / n_t)

    def test_empty_target(self, tmp_path, capsys):
        # the target used to be reshaped by -1, which numpy cannot do for no
        # samples; an empty truth scores null, as in eval
        rng = np.random.default_rng(2)
        dataio.write_tensor(tmp_path / "s.stdl", rng.standard_normal((4, 4, 6)))
        dataio.write_labels(tmp_path / "sl.txt", [1, 1, 2, 2, 3, 3])
        dataio.write_tensor(tmp_path / "t.stdl", np.zeros((4, 4, 0)))
        dataio.write_labels(tmp_path / "tt.txt", [])
        code, stdout, err = run(
            capsys, "baseline",
            "--source", str(tmp_path / "s.stdl"),
            "--source-labels", str(tmp_path / "sl.txt"),
            "--target", str(tmp_path / "t.stdl"),
            "--truth", str(tmp_path / "tt.txt"),
        )
        assert code == 0, err
        assert json.loads(stdout) == {"labels": [], "accuracy": None}

    # a 2x8 target has as many entries as a 4x4 source, a 5x5 one has more;
    # both are rejected by name, as fit rejects them
    @pytest.mark.parametrize("dims", [(2, 8), (5, 5)])
    def test_sample_dims_mismatch(self, tmp_path, capsys, dims):
        rng = np.random.default_rng(3)
        dataio.write_tensor(tmp_path / "s.stdl", rng.standard_normal((4, 4, 6)))
        dataio.write_labels(tmp_path / "sl.txt", [1, 1, 2, 2, 3, 3])
        dataio.write_tensor(tmp_path / "t.stdl", rng.standard_normal(dims + (3,)))
        code, stdout, err = run(
            capsys, "baseline",
            "--source", str(tmp_path / "s.stdl"),
            "--source-labels", str(tmp_path / "sl.txt"),
            "--target", str(tmp_path / "t.stdl"),
        )
        assert code == 2
        assert stdout == ""
        assert "source and target sample dims differ" in err

    def test_source_label_gap(self, tmp_path, capsys):
        # class 2 has no samples: its centroid used to be NaN, which took
        # every target with a RuntimeWarning, and the command exited 0
        rng = np.random.default_rng(4)
        dataio.write_tensor(tmp_path / "s.stdl", rng.standard_normal((4, 4, 4)))
        dataio.write_labels(tmp_path / "sl.txt", [1, 1, 3, 3])
        dataio.write_tensor(tmp_path / "t.stdl", rng.standard_normal((4, 4, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(
                capsys, "baseline",
                "--source", str(tmp_path / "s.stdl"),
                "--source-labels", str(tmp_path / "sl.txt"),
                "--target", str(tmp_path / "t.stdl"),
            )
        assert code == 2
        assert stdout == ""
        assert "source class 2 has no samples" in err

    @pytest.mark.parametrize("n_truth", [1, 31])
    def test_truth_count_mismatch(self, tmp_path, capsys, n_truth):
        d = synth_dir(tmp_path, capsys)  # 30 targets
        dataio.write_labels(tmp_path / "tt.txt", [1] * n_truth)
        code, stdout, err = run(
            capsys, "baseline",
            "--source", str(d / "source.stdl"),
            "--source-labels", str(d / "source_labels.txt"),
            "--target", str(d / "target.stdl"),
            "--truth", str(tmp_path / "tt.txt"),
        )
        assert code == 2
        assert stdout == ""
        assert "truth label count does not match target sample count" in err


class TestDecompose:
    def test_full_rank_exact(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((4, 5, 3))
        dataio.write_tensor(tmp_path / "t.stdl", t)
        out = tmp_path / "dec"
        code, stdout, err = run(
            capsys, "decompose", "--input", str(tmp_path / "t.stdl"),
            "--ranks", "4,5,3", "--out", str(out),
        )
        assert code == 0, err
        report = json.loads(stdout)
        assert report["reconstruction_error"] <= 1e-10
        assert (out / "core.stdl").exists()
        for m in range(3):
            assert (out / f"factor_{m}.stdl").exists()

    def test_matches_api_and_monotone(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((5, 5, 5))
        dataio.write_tensor(tmp_path / "t.stdl", t)
        out = tmp_path / "dec"
        code, stdout, err = run(
            capsys, "decompose", "--input", str(tmp_path / "t.stdl"),
            "--ranks", "2,2,2", "--out", str(out),
        )
        assert code == 0, err
        report = json.loads(stdout)
        hist = np.array(report["fit_history"])
        assert np.all(np.diff(hist) >= -1e-10)
        ref = hooi(t, (2, 2, 2))
        assert np.array_equal(dataio.read_tensor(out / "core.stdl"), ref.core)
        for m in range(3):
            assert np.array_equal(
                dataio.read_tensor(out / f"factor_{m}.stdl"), ref.factors[m]
            )
        with open(out / "report.json") as fh:
            assert json.load(fh) == report

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exit_code(self, tmp_path, capsys, tol):
        dataio.write_tensor(tmp_path / "t.stdl", np.ones((3, 3)))
        out = tmp_path / "dec"
        code, stdout, err = run(
            capsys, "decompose", "--input", str(tmp_path / "t.stdl"),
            "--ranks", "1,1", "--tol", tol, "--out", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert "tol must be finite" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_eigensolver_failure_exit_code(self, tmp_path, capsys):
        # the mode Gram matrices of a tensor this large overflow, and the
        # eigensolver rejects them: a numeric error, as in fit
        t = np.random.default_rng(4).standard_normal((4, 5, 3)) * 1e155
        dataio.write_tensor(tmp_path / "t.stdl", t)
        out = tmp_path / "dec"
        # the overflow is reported by the one line, not by a numpy warning
        # before it (warnings are errors here)
        code, stdout, err = run(
            capsys, "decompose", "--input", str(tmp_path / "t.stdl"),
            "--ranks", "2,2,2", "--out", str(out),
        )
        assert code == 4
        assert stdout == ""
        assert err == "numeric error: matrix has a non-finite entry\n"
        assert not out.exists()

    def test_bad_ranks_exit_code(self, tmp_path, capsys):
        dataio.write_tensor(tmp_path / "t.stdl", np.zeros((3, 3)))
        code, _, err = run(
            capsys, "decompose", "--input", str(tmp_path / "t.stdl"),
            "--ranks", "4,2", "--out", str(tmp_path / "dec"),
        )
        assert code == 2

    def test_empty_rank_field_exit_code(self, tmp_path, capsys):
        # 2,,2,3 used to decompose with ranks (2, 2, 3)
        dataio.write_tensor(tmp_path / "t.stdl", np.ones((3, 3, 4)))
        code, stdout, err = run(
            capsys, "decompose", "--input", str(tmp_path / "t.stdl"),
            "--ranks", "2,,2,3", "--out", str(tmp_path / "dec"),
        )
        assert code == 2
        assert stdout == ""
        assert "bad ranks '2,,2,3'" in err
        assert not (tmp_path / "dec").exists()

    def test_error_takes_one_tensor_sized_temporary(self, tmp_path, capsys):
        # the input, the reconstruction the error is formed in, and the
        # HOOI's inner products: 2.21 of the input, where forming
        # t - reconstruction as a new array took 3.06
        t = np.random.default_rng(3).standard_normal((20, 20, 30, 40))
        dataio.write_tensor(tmp_path / "t.stdl", t)
        tracemalloc.start()
        try:
            code, _, err = run(
                capsys, "decompose", "--input", str(tmp_path / "t.stdl"),
                "--ranks", "3,4,5,6", "--out", str(tmp_path / "dec"),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < 2.6 * t.nbytes

    def test_bytes_after_the_payload_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "t.stdl"
        bad.write_bytes(tensor_to_bytes(np.ones((3, 3))) + bytes(8))
        code, stdout, err = run(
            capsys, "decompose", "--input", str(bad),
            "--ranks", "1,1", "--out", str(tmp_path / "dec"),
        )
        assert code == 3
        assert stdout == ""
        assert err == "io error: 8 bytes after the tensor payload\n"
        assert not (tmp_path / "dec").exists()

    @pytest.mark.parametrize("dims", [(0, 2**63), (0, 2**62, 4), (1,) * 65])
    def test_unallocatable_dims_exit_code(self, tmp_path, capsys, dims):
        # a payload of at most one entry passes the size check, but numpy
        # cannot index a 2**63 extent, hold 2**65 entries or take 65 modes;
        # these used to exit 2 with numpy's message
        bad = tmp_path / "t.stdl"
        bad.write_bytes(b"STDL" + struct.pack(f"<HH{len(dims)}Q", 1, len(dims), *dims) + bytes(8))
        code, stdout, err = run(
            capsys, "decompose", "--input", str(bad),
            "--ranks", "1,1", "--out", str(tmp_path / "dec"),
        )
        assert code == 3
        assert stdout == ""
        assert err.startswith(f"io error: dims {dims} cannot be allocated: ")
        assert not (tmp_path / "dec").exists()

    @pytest.mark.parametrize("dims", [(131072, 65536), (2**31, 2**31)])
    def test_oversized_header_exit_code(self, tmp_path, capsys, dims):
        # a 24-byte file whose header claims far more payload than it holds
        bad = tmp_path / "big.stdl"
        bad.write_bytes(b"STDL" + struct.pack("<HH2Q", 1, 2, *dims))
        code, _, err = run(
            capsys, "decompose", "--input", str(bad),
            "--ranks", "1,1", "--out", str(tmp_path / "dec"),
        )
        assert code == 3
        assert "truncated payload" in err
