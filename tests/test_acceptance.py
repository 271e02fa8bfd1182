"""End-to-end acceptance suite for the desk-scale poisoning/defense study.

Every criterion prints a single PASS/FAIL line (run with `pytest -s` to see
them as they complete). The training criteria all use the same fixed task:
synthetic 10-class data (dim 64, 200 samples/class, separation 6), 50
clients, 10 per round, 15 global epochs, 5 client epochs, an MLP
[64, 32, 10], poisoning 5 -> 3, and 3 repeats per experiment.
"""

import functools
import json

import numpy as np
import pytest

from fedsim import cli, defense, federation, nn, privacy
from fedsim.data import synthesize
from fedsim.defense import DefenseConfig
from fedsim.federation import FederationConfig

SEED = 0
KMEANS_GUARD = 3.5


def report_line(name, passed, detail):
    print(f"{name}: {'PASS' if passed else 'FAIL'} — {detail}")


@functools.lru_cache(maxsize=None)
def desk_datasets():
    train = synthesize(10, 200, 64, 6.0, seed=[SEED, 1000], noise_std=1.0)
    test = synthesize(10, 50, 64, 6.0, seed=[SEED, 1001], noise_std=1.0)
    return train, test


@functools.lru_cache(maxsize=None)
def run(kind, fraction):
    train, test = desk_datasets()
    config = FederationConfig(
        malicious_fraction=fraction,
        defense=DefenseConfig(kind=kind, kmeans_guard=KMEANS_GUARD),
        seed=SEED,
        repeats=3,
    )
    report = federation.run_experiment(config, train, test)
    final = report.final_means
    return {
        "accuracy": final["accuracy"],
        "recall": final["source_recall"],
        "det_accuracy": report.mean_det_accuracy,
        "det_f1": report.mean_det_f1,
    }


def test_a1_attack_impact():
    honest = run("none", 0.0)
    attacked = run("none", 0.4)
    acc_gap = abs(attacked["accuracy"] - honest["accuracy"])
    passed = attacked["recall"] <= 0.35 and honest["recall"] >= 0.85 and acc_gap <= 0.12
    report_line(
        "A1",
        passed,
        f"recall@0.4={attacked['recall']:.3f} (<=0.35), honest={honest['recall']:.3f} "
        f"(>=0.85), accuracy gap={acc_gap:.3f} (<=0.12)",
    )
    assert passed


def test_a2_defense_efficacy():
    detail, passed = [], True
    for fraction in (0.2, 0.3, 0.4):
        off = run("none", fraction)["recall"]
        on = run("kmeans", fraction)["recall"]
        ok = on >= off + 0.25 and (fraction > 0.3 or on >= 0.6)
        passed &= ok
        detail.append(f"@{fraction}: on={on:.3f} off={off:.3f}")
    report_line("A2", passed, "; ".join(detail) + " (on >= off+0.25, >=0.6 at <=0.3)")
    assert passed


def test_a3_detection_floor():
    da4 = run("kmeans", 0.4)["det_accuracy"]
    passed = da4 >= 0.55
    detail = [f"det_acc@0.4={da4:.3f} (>=0.55)"]
    for fraction in (0.2, 0.3):
        r = run("kmeans", fraction)
        passed &= r["det_accuracy"] >= 0.7 and r["det_f1"] >= 0.5
        detail.append(
            f"@{fraction}: det_acc={r['det_accuracy']:.3f} (>=0.7) f1={r['det_f1']:.3f} (>=0.5)"
        )
    report_line("A3", passed, "; ".join(detail))
    assert passed


def test_a4_eliminator_ordering():
    km = run("kmeans", 0.4)["recall"]
    gap = run("largest_gap", 0.4)["recall"]
    zs = run("zscore", 0.4)["recall"]
    z_det = run("zscore", 0.2)["det_accuracy"]
    passed = km >= gap and km >= zs and z_det >= 0.7
    report_line(
        "A4",
        passed,
        f"recall@0.4: kmeans={km:.3f} >= largest_gap={gap:.3f}, zscore={zs:.3f}; "
        f"zscore det@0.2={z_det:.3f} (>=0.7)",
    )
    assert passed


def test_a5_laplace_mechanism_statistics():
    b = 0.0001  # sensitivity / epsilon at the paper's settings
    samples = privacy.laplace_sample(b, np.random.default_rng(500), size=1_000_000)
    mean_ok = abs(samples.mean() / b) < 0.01  # |mean| within 0.01 in units of b
    var_ok = abs(samples.var() / (2 * b * b) - 1.0) < 0.02
    pos = float(np.mean(samples > 0))
    pos_ok = 0.497 <= pos <= 0.503

    # Empirical epsilon: histogram densities on adjacent inputs (|x-x'| = sensitivity).
    eps = 1.0
    out_x = privacy.laplace_sample(b, np.random.default_rng(501), size=1_000_000)
    out_y = b * eps + privacy.laplace_sample(b, np.random.default_rng(502), size=1_000_000)
    edges = np.linspace(-4 * b, 5 * b, 41)
    hx, _ = np.histogram(out_x, bins=edges)
    hy, _ = np.histogram(out_y, bins=edges)
    mask = (hx > 2000) & (hy > 2000)
    ratio = hx[mask] / hy[mask]
    ratio_ok = mask.sum() >= 10 and np.all(ratio <= np.exp(eps) * 1.10) and np.all(
        ratio >= np.exp(-eps) / 1.10
    )
    passed = mean_ok and var_ok and pos_ok and ratio_ok
    report_line(
        "A5",
        passed,
        f"mean/b={samples.mean() / b:+.4f} (|.|<0.01), var ratio="
        f"{samples.var() / (2 * b * b):.4f} (within 2%), P(>0)={pos:.4f}, "
        f"eps-ratio in [{ratio.min():.3f}, {ratio.max():.3f}] vs e^±1",
    )
    assert passed


def test_a6_numerical_core():
    rng = np.random.default_rng(600)
    worst = 0.0
    draws = 0
    while draws < 100:
        dims = tuple(int(rng.integers(2, 7)) for _ in range(int(rng.integers(2, 5))))
        model = nn.init_params(dims, rng)
        model = nn.ModelParams(
            model.weights, tuple(rng.standard_normal(b.shape) * 0.1 for b in model.biases)
        )
        x = rng.standard_normal((int(rng.integers(1, 6)), dims[0]))
        labels = rng.integers(0, dims[-1], size=x.shape[0])
        # Skip draws sitting on a ReLU kink, where the loss is not differentiable
        # and central differences measure a one-sided slope.
        a = x
        near_kink = False
        for k, (w, b) in enumerate(zip(model.weights[:-1], model.biases[:-1])):
            z = a @ w.T + b
            near_kink |= bool(np.any(np.abs(z) < 1e-3))
            a = np.maximum(z, 0.0)
        if near_kink:
            continue
        draws += 1
        grads, _ = nn.backward(model, x, labels)
        flat = np.concatenate([a.ravel() for a in grads.weights + grads.biases])
        theta = np.concatenate([a.ravel() for a in model.weights + model.biases])
        shapes = [w.shape for w in model.weights] + [b.shape for b in model.biases]

        def loss_at(vec):
            arrays, offset = [], 0
            for shape in shapes:
                size = int(np.prod(shape))
                arrays.append(vec[offset : offset + size].reshape(shape))
                offset += size
            half = len(model.weights)
            m = nn.ModelParams(tuple(arrays[:half]), tuple(arrays[half:]))
            return nn.softmax_cross_entropy(nn.forward(m, x), labels)[0]

        eps = 1e-6
        fd = np.empty_like(theta)
        for i in range(theta.size):
            e = np.zeros_like(theta)
            e[i] = eps
            fd[i] = (loss_at(theta + e) - loss_at(theta - e)) / (2 * eps)
        rel = np.linalg.norm(fd - flat) / max(np.linalg.norm(flat), 1e-12)
        worst = max(worst, rel)
    grad_ok = worst < 1e-4

    updates = [
        federation.ClientUpdate(i, nn.init_params((4, 5, 3), rng), 0.0) for i in range(9)
    ]
    avg = federation.fed_avg(updates)
    fed_err = 0.0
    for k in range(len(avg.weights)):
        naive = sum(u.weights.weights[k] for u in updates) / len(updates)
        fed_err = max(fed_err, float(np.abs(avg.weights[k] - naive).max()))
        naive_b = sum(u.weights.biases[k] for u in updates) / len(updates)
        fed_err = max(fed_err, float(np.abs(avg.biases[k] - naive_b).max()))
    fed_ok = fed_err <= 1e-12

    kmeans_ok = True
    cfg = DefenseConfig(kind="kmeans", kmeans_guard=0.0)
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, n))
        spread = float(rng.random() * 0.5 + 0.01)
        gap = 4 * spread * n + float(rng.random())
        losses = np.concatenate([rng.random(n - k) * spread, gap + rng.random(k) * spread])
        out = defense.eliminate_kmeans(dict(enumerate(losses)), cfg)
        order = np.sort(losses)
        best, best_sse = None, np.inf
        for cut in range(1, n):
            low, high = order[:cut], order[cut:]
            sse = ((low - low.mean()) ** 2).sum() + ((high - high.mean()) ** 2).sum()
            if sse < best_sse:
                best_sse, best = sse, set(high.tolist())
        if {losses[i] for i in out.eliminated} != best:
            kmeans_ok = False
            break
    passed = grad_ok and fed_ok and kmeans_ok
    report_line(
        "A6",
        passed,
        f"gradient FD worst rel err={worst:.2e} (<1e-4), fed_avg max err="
        f"{fed_err:.1e} (<=1e-12), kmeans vs brute force 1000/1000={'ok' if kmeans_ok else 'mismatch'}",
    )
    assert passed


def test_a7_sweep_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"defense": {"kind": "kmeans"}, "sweep": [0.0, 0.3]}), encoding="utf-8"
    )
    for out in ("s1", "s2"):
        code = cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / out)])
        assert code == 0
    identical = (tmp_path / "s1" / "sweep.csv").read_bytes() == (
        tmp_path / "s2" / "sweep.csv"
    ).read_bytes()
    for sub in ("frac_0_off", "frac_0_on", "frac_0.3_off", "frac_0.3_on"):
        identical &= (tmp_path / "s1" / sub / "rounds.csv").read_bytes() == (
            tmp_path / "s2" / sub / "rounds.csv"
        ).read_bytes()
    report_line("A7", identical, "two sweep invocations byte-identical (rounds.csv, sweep.csv)")
    assert identical


def test_a8_eliminator_unit_oracles():
    checks = []

    def rpts(*losses):
        return dict(enumerate(losses))

    def fixed(fraction):
        return DefenseConfig(kind="fixed_fraction", fixed_fraction=fraction)

    gap = DefenseConfig(kind="largest_gap")
    zscore = DefenseConfig(kind="zscore")

    out = defense.eliminate_fixed_fraction(rpts(*np.random.default_rng(0).random(10)), fixed(0.2))
    checks.append(len(out.eliminated) == 2)
    checks.append(len(defense.eliminate_fixed_fraction(rpts(1, 2, 3, 4, 5), fixed(0.25)).eliminated) == 1)
    checks.append(defense.eliminate_fixed_fraction(rpts(1, 2, 3), fixed(0.0)).eliminated == frozenset())

    checks.append(defense.eliminate_largest_gap(rpts(0.10, 0.12, 0.13, 0.90), gap).eliminated == {3})
    checks.append(defense.eliminate_largest_gap(rpts(0.4, 0.4, 0.4), gap).eliminated == frozenset())
    checks.append(defense.eliminate_largest_gap(rpts(1.0, 2.0, 3.0), gap).eliminated == {2})

    z = defense.eliminate_zscore(rpts(0.5, 0.5, 0.5, 0.5, 2.0), zscore)
    checks.append(z.diagnostics["mean"] == pytest.approx(0.8))
    checks.append(z.diagnostics["std"] == pytest.approx(0.6))
    checks.append(z.eliminated == {4})
    checks.append(1 in defense.eliminate_zscore(rpts(1.0, 2.0, 3.0), DefenseConfig(kind="zscore", zscore_threshold=0.1)).retained)
    checks.append(defense.eliminate_zscore(rpts(1, 1, 1), zscore).eliminated == frozenset())

    km = defense.eliminate_kmeans(rpts(0.1, 0.1, 0.9, 0.9), DefenseConfig(kind="kmeans"))
    checks.append(km.eliminated == {2, 3})
    km2 = defense.eliminate_kmeans(
        rpts(0.19, 0.20, 0.21, 0.22), DefenseConfig(kind="kmeans", kmeans_guard=1.0)
    )
    checks.append(km2.diagnostics["pooled_std"] == pytest.approx(0.00707, abs=1e-4))
    checks.append(km2.eliminated == {2, 3})

    score = defense.detection_score(
        defense.EliminationOutcome(frozenset({0, 1, 2, 4}), frozenset({3, 5, 6, 7, 8, 9})),
        {0, 1, 2, 3},
    )
    checks.append((score.accuracy, score.precision, score.recall, score.f1) == (0.8, 0.75, 0.75, 0.75))
    vac = defense.detection_score(
        defense.EliminationOutcome(frozenset(), frozenset({0, 1})), set()
    )
    checks.append(vac == defense.DetectionScore(1.0, 1.0, 1.0, 1.0))

    passed = all(checks)
    report_line("A8", passed, f"{sum(checks)}/{len(checks)} eliminator worked examples exact")
    assert passed
