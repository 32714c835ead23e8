"""Nine behavior gates run end to end, one printed verdict line each.

Covers the closed-form reliability results, gradient correctness of every
loss, the clustering metrics against exhaustive oracles, the mixed-example
invariants, and full-scale paired training runs. Verdict lines go to the
real stdout so a full run reads as a checklist even under pytest capture.
"""

import copy
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import fd_grad, pll_reference
from openmix import losses, metrics, mixing, nn, theory, train
from openmix.checkpoint import save_checkpoint
from openmix.config import RunConfig
from openmix.data import SplitSpec, generate_blobs
from test_metrics import brute_force_acc, nmi_reference


_CAPMAN = None


@pytest.fixture(scope="module", autouse=True)
def _grab_capture_manager(request):
    # pytest captures at the file-descriptor level, so even sys.__stdout__ is
    # swallowed; the capture manager is the supported way to punch through
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")


def verdict(num, name, ok, detail):
    tag = "PASS" if ok else "FAIL"
    line = f"[acceptance {num}/9] {name}: {tag} ({detail})"
    disabled = getattr(_CAPMAN, "global_and_fixture_disabled", None)
    if disabled is not None:
        with disabled():
            print("\n" + line, flush=True)
    else:
        print("\n" + line, file=sys.__stdout__, flush=True)


def test_01_clean_mix_inequality_holds_everywhere():
    t0 = time.perf_counter()
    direct, closed = theory.monte_carlo_inequality(100_000, seed=0)
    holds = int((direct >= -theory.AGREEMENT_TOL).sum())
    gap = float(np.abs(direct - closed).max())
    elapsed = time.perf_counter() - t0
    ok = holds == 100_000 and gap <= 1e-12 and elapsed < 10.0
    verdict(1, "clean-labeled mixing never hurts on 100000 random cases", ok,
            f"{holds}/100000 hold, route gap {gap:.2e}, {elapsed:.1f}s")
    assert holds == 100_000
    assert gap <= 1e-12
    assert elapsed < 10.0


def test_02_plain_mix_counterexample_and_witness():
    t0 = time.perf_counter()
    case = theory.worked_counterexample()
    _, difference = theory.mixup_error(case)
    diffs = theory.monte_carlo_mixup(10_000, seed=1)
    witnesses = int((diffs < 0.0).sum())
    elapsed = time.perf_counter() - t0
    ok = abs(difference - (-0.2)) <= 1e-12 and witnesses >= 1 and elapsed < 5.0
    verdict(2, "plain mixing provably made a label less reliable", ok,
            f"worked case difference {difference:.12f}, "
            f"{witnesses} random witnesses, {elapsed:.1f}s")
    assert abs(difference - (-0.2)) <= 1e-12
    assert witnesses >= 1
    assert elapsed < 5.0


def _rel_err(analytic, numeric):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = max(float(np.abs(numeric).max()), 1e-10)
    return float(np.abs(analytic - numeric).max()) / scale


def test_03_every_loss_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = {"ce": 0.0, "ppl": 0.0, "pll": 0.0, "opm": 0.0}

    for _ in range(20):
        n = int(rng.integers(3, 7))
        c = int(rng.integers(3, 6))
        z = rng.normal(size=(n, c))
        y = np.eye(c)[rng.integers(0, c, size=n)]
        g = losses.cross_entropy(z, y)[1]
        fd = fd_grad(lambda zz: losses.cross_entropy(zz, y)[0], z)
        worst["ce"] = max(worst["ce"], _rel_err(g, fd))

    for _ in range(20):
        n = int(rng.integers(3, 7))
        c = int(rng.integers(3, 6))
        z = rng.normal(size=(n, c)) * 1.5
        w = (losses.similarity_matrix(nn.softmax(z)) >= 0.95).astype(float)
        g = losses.clustering_losses(z, 0.95, 0.9)[1]
        fd = fd_grad(
            lambda zz: losses.ppl_loss_value(losses.similarity_matrix(nn.softmax(zz)), w), z
        )
        worst["ppl"] = max(worst["ppl"], _rel_err(g, fd))

    for _ in range(20):
        n = int(rng.integers(3, 7))
        c = int(rng.integers(3, 6))
        z = rng.normal(size=(n, c)) * 4.0
        labels, assigned = losses.pseudo_labels(nn.softmax(z), 0.9)
        while not assigned.any():
            z = z * 1.5
            labels, assigned = losses.pseudo_labels(nn.softmax(z), 0.9)
        g = losses.clustering_losses(z, 0.95, 0.9)[3]
        fd = fd_grad(lambda zz: pll_reference(zz, labels, assigned), z)
        worst["pll"] = max(worst["pll"], _rel_err(g, fd))

    for _ in range(20):
        b = int(rng.integers(2, 5))
        c_l = int(rng.integers(2, 5))
        c_u = int(rng.integers(2, 5))
        z_l = rng.normal(size=(b, c_l))
        z_u = rng.normal(size=(b, c_u))
        v = rng.exponential(size=(b, c_l + c_u))
        v /= v.sum(axis=1, keepdims=True)
        _, g_l, g_u = mixing.opm_loss(z_l, z_u, v)
        fd_l = fd_grad(lambda zz: mixing.opm_loss(zz, z_u, v)[0], z_l)
        fd_u = fd_grad(lambda zz: mixing.opm_loss(z_l, zz, v)[0], z_u)
        worst["opm"] = max(worst["opm"], _rel_err(g_l, fd_l), _rel_err(g_u, fd_u))

    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) <= 1e-4 and elapsed < 30.0
    verdict(3, "all four loss gradients pass central finite differences", ok,
            "worst rel err " + ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
            + f", {elapsed:.1f}s")
    for name, err in worst.items():
        assert err <= 1e-4, name
    assert elapsed < 30.0


def test_04_metrics_match_exhaustive_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)

    acc_exact = 0
    nmi_worst = 0.0
    for _ in range(200):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(c, 40))
        truth = rng.integers(0, c, size=n)
        pred = rng.integers(0, c, size=n)
        if metrics.acc(pred, truth, num_classes=c) == brute_force_acc(pred, truth, c):
            acc_exact += 1
        nmi_worst = max(
            nmi_worst, abs(metrics.nmi(pred, truth) - nmi_reference(pred, truth))
        )

    invariant = 0
    for _ in range(100):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(c, 40))
        truth = rng.integers(0, c, size=n)
        pred = rng.integers(0, c, size=n)
        perm = rng.permutation(c)
        same_acc = metrics.acc(perm[pred], truth, num_classes=c) == metrics.acc(
            pred, truth, num_classes=c
        )
        same_nmi = (
            abs(metrics.nmi(perm[pred], truth) - metrics.nmi(pred, truth)) <= 1e-12
        )
        if same_acc and same_nmi:
            invariant += 1

    elapsed = time.perf_counter() - t0
    ok = acc_exact == 200 and nmi_worst <= 1e-10 and invariant == 100 and elapsed < 20.0
    verdict(4, "ACC equals factorial brute force, NMI matches a reimplementation", ok,
            f"{acc_exact}/200 exact, nmi gap {nmi_worst:.1e}, "
            f"{invariant}/100 relabel-invariant, {elapsed:.1f}s")
    assert acc_exact == 200
    assert nmi_worst <= 1e-10
    assert invariant == 100
    assert elapsed < 20.0


def test_05_mixed_examples_keep_their_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    c_l, c_u, dim = 3, 4, 6
    labeled_x = rng.normal(size=(30, dim))
    labeled_onehot = np.eye(c_l)[rng.integers(0, c_l, size=30)]
    unlabeled_x = rng.normal(size=(40, dim))
    pred_u = rng.exponential(size=(40, c_u))
    pred_u /= pred_u.sum(axis=1, keepdims=True)
    anchors = mixing.AnchorSet(
        indices=rng.integers(0, 40, size=12).astype(np.int64),
        labels=np.eye(c_u)[rng.integers(0, c_u, size=12)],
    )

    batch = mixing.build_mixed_batch(
        10_000, labeled_x, labeled_onehot, unlabeled_x,
        anchors, epsilon=1.0, rng=rng, use_labeled=True, use_anchors=True,
    )
    v = mixing.mixed_labels(batch, pred_u[batch.unl_rows])
    eta_star, from_labeled = batch.eta_star, batch.from_labeled
    bad = 0
    for row, star, labeled in zip(v, eta_star, from_labeled):
        if abs(row.sum() - 1.0) > 1e-9 or row.min() < 0.0:
            bad += 1
        elif not 0.5 <= star <= 1.0:
            bad += 1
        elif labeled and row[:c_l].sum() != star:
            bad += 1
        elif not labeled and np.any(row[:c_l] != 0.0):
            bad += 1

    draw = np.random.default_rng(55)
    stars = np.array(
        [mixing.sample_mix_weight(1.0, draw)[1] for _ in range(100_000)]
    )
    mean = float(stars.mean())

    elapsed = time.perf_counter() - t0
    ok = bad == 0 and abs(mean - 0.75) <= 0.01 and elapsed < 10.0
    verdict(5, "10000 mixed examples keep simplex and block-mass invariants", ok,
            f"{bad} violations, folded-weight mean {mean:.4f}, {elapsed:.1f}s")
    assert bad == 0
    assert abs(mean - 0.75) <= 0.01
    assert elapsed < 10.0


@pytest.fixture(scope="module")
def paired_runs():
    """Five paired default-scale runs: baseline vs full method per seed.

    Both arms of a pair start from the same data and the same pretrained
    parameters; only the mixing loss differs.
    """
    t0 = time.perf_counter()
    rows = []
    for seed in range(5):
        ds = generate_blobs(SplitSpec(seed=seed))
        cfg_full = RunConfig(seed=seed).validate()
        cfg_base = RunConfig(seed=seed, disable_openmix=True).validate()
        model = train.build_model(cfg_full, ds.input_dim, ds.c_l, ds.c_u)
        train.pretrain(model, ds.labeled, cfg_full)
        train.attach_new_head(model, ds.c_u, train.stream_seed(seed, train.TAG_HEAD))
        m_base = copy.deepcopy(model)
        m_full = copy.deepcopy(model)
        rep_base = train.cluster_train(m_base, ds, cfg_base)
        rep_full = train.cluster_train(m_full, ds, cfg_full)
        rows.append(SimpleNamespace(
            seed=seed, rep_base=rep_base, rep_full=rep_full, model_full=m_full
        ))
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(rows=rows, elapsed=elapsed)


def test_06_full_method_beats_baseline_in_the_median(paired_runs):
    base = [r.rep_base[-1].acc for r in paired_runs.rows]
    full = [r.rep_full[-1].acc for r in paired_runs.rows]
    med_base = float(np.median(base))
    med_full = float(np.median(full))
    elapsed = paired_runs.elapsed
    ok = med_full >= med_base and med_base >= 0.85 and elapsed < 300.0
    verdict(6, "five paired seeds: full method median >= baseline median >= 0.85", ok,
            f"full {med_full:.4f} vs baseline {med_base:.4f}, "
            f"paired runs took {elapsed:.0f}s")
    assert med_full >= med_base
    assert med_base >= 0.85
    assert elapsed < 300.0


def test_07_lambda2_zero_is_bit_identical_to_disabled(paired_runs, tmp_path):
    t0 = time.perf_counter()
    seed = 0
    ds = generate_blobs(SplitSpec(seed=seed))
    cfg = RunConfig(seed=seed, lambda2=0.0).validate()
    model = train.build_model(cfg, ds.input_dim, ds.c_l, ds.c_u)
    train.pretrain(model, ds.labeled, cfg)
    train.attach_new_head(model, ds.c_u, train.stream_seed(seed, train.TAG_HEAD))
    reports = train.cluster_train(model, ds, cfg)

    zero_csv = tmp_path / "lambda2_zero.csv"
    disabled_csv = tmp_path / "disabled.csv"
    train.write_metrics_csv(str(zero_csv), reports)
    train.write_metrics_csv(str(disabled_csv), paired_runs.rows[0].rep_base)
    same = zero_csv.read_bytes() == disabled_csv.read_bytes()
    elapsed = time.perf_counter() - t0
    ok = same and elapsed < 120.0
    verdict(7, "lambda2=0 metrics are byte-identical to mixing disabled", ok,
            f"identical={same}, {elapsed:.0f}s")
    assert same
    assert elapsed < 120.0


def test_08_identical_runs_are_bit_identical(paired_runs, tmp_path):
    t0 = time.perf_counter()
    seed = 0
    ds = generate_blobs(SplitSpec(seed=seed))
    cfg = RunConfig(seed=seed).validate()
    model = train.build_model(cfg, ds.input_dim, ds.c_l, ds.c_u)
    train.pretrain(model, ds.labeled, cfg)
    train.attach_new_head(model, ds.c_u, train.stream_seed(seed, train.TAG_HEAD))
    reports = train.cluster_train(model, ds, cfg)

    first = paired_runs.rows[0]
    a_ckpt, b_ckpt = tmp_path / "a.omx", tmp_path / "b.omx"
    a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    save_checkpoint(str(a_ckpt), first.model_full)
    save_checkpoint(str(b_ckpt), model)
    train.write_metrics_csv(str(a_csv), first.rep_full)
    train.write_metrics_csv(str(b_csv), reports)
    same_ckpt = a_ckpt.read_bytes() == b_ckpt.read_bytes()
    same_csv = a_csv.read_bytes() == b_csv.read_bytes()
    elapsed = time.perf_counter() - t0
    ok = same_ckpt and same_csv and elapsed < 120.0
    verdict(8, "two identical runs give byte-identical checkpoint and metrics", ok,
            f"checkpoint={same_ckpt}, csv={same_csv}, {elapsed:.0f}s")
    assert same_ckpt
    assert same_csv
    assert elapsed < 120.0


def test_09_anchors_are_at_least_as_clean_as_the_pool(paired_runs):
    counts_ok = all(
        all(r.anchor_count >= 0 for r in row.rep_full) for row in paired_runs.rows
    )
    final_anchor = [row.rep_full[-1].anchor_acc for row in paired_runs.rows]
    final_acc = [row.rep_full[-1].acc for row in paired_runs.rows]
    med_anchor = float(np.median(final_anchor))
    med_acc = float(np.median(final_acc))
    ok = counts_ok and np.isfinite(med_anchor) and med_anchor >= med_acc
    verdict(9, "final-epoch anchor accuracy >= overall ACC in the median", ok,
            f"anchor {med_anchor:.4f} vs overall {med_acc:.4f}")
    assert counts_ok
    assert np.isfinite(med_anchor)
    assert med_anchor >= med_acc
