"""Two-stage trainer: seeding, freezing, truth-read audit, determinism."""

import copy
import warnings

import numpy as np
import pytest

import train_reference
from openmix import config, data, losses, metrics, mixing, nn, optim, train
from helpers import model_params_flat, tiny_config, tiny_spec


def _pretrained(seed=0, **cfg_kw):
    spec = tiny_spec(seed=seed)
    ds = data.generate_blobs(spec)
    cfg = tiny_config(seed=seed, **cfg_kw)
    model = train.build_model(cfg, ds.input_dim, ds.c_l, ds.c_u)
    train.pretrain(model, ds.labeled, cfg)
    return ds, cfg, model


def reports_equal(a, b):
    # nan anchor accuracies compare equal; everything else bitwise
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for f in ("epoch", "acc", "nmi", "loss_ppl", "loss_pll", "loss_opm", "anchor_count"):
            if getattr(ra, f) != getattr(rb, f):
                return False
        if not (
            ra.anchor_acc == rb.anchor_acc
            or (np.isnan(ra.anchor_acc) and np.isnan(rb.anchor_acc))
        ):
            return False
    return True


def test_stream_seed_distinct_and_stable():
    seeds = {train.stream_seed(0, tag) for tag in (1, 2, 3, 4, 5)}
    assert len(seeds) == 5
    assert train.stream_seed(123, train.TAG_MIX) == train.stream_seed(123, train.TAG_MIX)
    assert train.stream_seed(123, train.TAG_MIX) != train.stream_seed(124, train.TAG_MIX)


def test_build_model_geometry_and_seeding():
    cfg = tiny_config(hidden_dims=[4], feature_dim=8)
    m = train.build_model(cfg, 6, 2, 3)
    assert m.input_dim == 6 and m.hidden_dims == [4] and m.feature_dim == 8
    assert m.c_l == 2 and m.c_u == 3
    m2 = train.build_model(cfg, 6, 2, 3)
    assert np.array_equal(model_params_flat(m), model_params_flat(m2))


def test_check_finite_message():
    train._check_finite(1.0, "x loss", 3)
    with pytest.raises(train.DivergenceError, match="mixing loss became non-finite at epoch 7"):
        train._check_finite(float("nan"), "mixing loss", 7)
    with pytest.raises(train.DivergenceError):
        train._check_finite(float("inf"), "a", 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_runaway_logits_raise_divergence_error():
    # a finite but huge step overflows the logits within the first epoch
    ds = data.generate_blobs(tiny_spec(seed=1))
    cfg = tiny_config(seed=1, lr=1e200)
    model = train.build_model(cfg, ds.input_dim, ds.c_l, ds.c_u)
    with pytest.raises(train.DivergenceError, match="labeled-batch logits .* epoch 1"):
        train.pretrain(model, ds.labeled, cfg)
    ds, _, model = _pretrained(seed=1)
    cfg = tiny_config(seed=1, lr=1e200, freeze_epochs=0)
    with pytest.raises(train.DivergenceError, match="unlabeled-batch logits .* epoch 1"):
        train.cluster_train(model, ds, cfg)


def test_overflowing_second_moment_stops_at_its_step(monkeypatch):
    # the moment check follows every optimizer step, so the first step whose
    # squared gradient overflows is the last one; none runs on frozen parameters
    ds, _, model = _pretrained(seed=1)
    cfg = tiny_config(
        seed=1, lambda2=1e160, freeze_epochs=0, labeled_mix_epoch=1, cluster_epochs=3
    )
    train.attach_new_head(model, ds.c_u, train.stream_seed(cfg.seed, train.TAG_HEAD))
    finite = []
    inner = optim.RmspropState.step

    def recording(self, params):
        inner(self, params)
        finite.append(bool(np.isfinite(self.flat.max())))

    monkeypatch.setattr(optim.RmspropState, "step", recording)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(train.DivergenceError, match="RMSprop second moments .* epoch 1"):
            train.cluster_train(model, ds, cfg)
    assert finite.count(False) == 1 and not finite[-1]


def test_pretrain_separable_blobs_high_accuracy():
    # two linearly separable classes: near-perfect training accuracy once the
    # small fixed learning rate has had enough epochs to move the head
    spec = data.SplitSpec(c_l=2, c_u=2, per_class=40, input_dim=8, separation=6.0, sigma=1.0, seed=1)
    ds = data.generate_blobs(spec)
    cfg = tiny_config(pretrain_epochs=400, feature_dim=32, seed=1)
    model = train.build_model(cfg, ds.input_dim, ds.c_l, ds.c_u)
    acc = train.pretrain(model, ds.labeled, cfg)
    assert acc >= 0.99


def test_pretrain_leaves_new_head_untouched(monkeypatch):
    # pretraining never reads the new head, so a NaN in it neither diverges
    # the run nor costs it optimizer state
    spec = tiny_spec(seed=2)
    ds = data.generate_blobs(spec)
    cfg = tiny_config(seed=2)
    model = train.build_model(cfg, ds.input_dim, ds.c_l, ds.c_u)
    model.new_head.w[0, 0] = np.nan
    before_w = model.new_head.w.tobytes()
    before_b = model.new_head.b.tobytes()
    states = []

    def recording(*args, **kwargs):
        states.append(optim.RmspropState(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(train, "RmspropState", recording)
    train.pretrain(model, ds.labeled, cfg)
    assert model.new_head.w.tobytes() == before_w
    assert model.new_head.b.tobytes() == before_b
    live = nn.parameter_count(ds.input_dim, cfg.hidden_dims, cfg.feature_dim, ds.c_l, 0)
    assert len(states) == 1 and states[0].flat.size == live


@pytest.mark.parametrize("hidden_dims", [[], [32]])
def test_pretrain_matches_reference(hidden_dims):
    # default data and schedule; the reference runs the per-parameter RMSprop,
    # the two-pass cross-entropy and a backward fed explicit new-head zeros
    ds = data.generate_blobs(data.SplitSpec(seed=1))
    cfg = config.RunConfig(seed=1, hidden_dims=hidden_dims).validate()
    model = train.build_model(cfg, ds.input_dim, ds.c_l, ds.c_u)
    ref_model = copy.deepcopy(model)
    acc = train.pretrain(model, ds.labeled, cfg)
    want = train_reference.pretrain(ref_model, ds.labeled, cfg)
    assert model_params_flat(model).tobytes() == model_params_flat(ref_model).tobytes()
    assert acc == want


def test_pretrain_empty_labeled_set():
    cfg = tiny_config()
    model = train.build_model(cfg, 6, 2, 3)
    empty = data.LabeledSet(np.zeros((0, 6)), np.zeros(0, dtype=np.int64), 2)
    with pytest.raises(ValueError):
        train.pretrain(model, empty, cfg)


def test_attach_new_head_seeded_reset():
    ds, cfg, model = _pretrained(seed=3)
    backbone_before = model.backbone[0].w.copy()
    old_before = model.old_head.w.copy()
    head_before = model.new_head.w.copy()
    train.attach_new_head(model, ds.c_u, seed=99)
    assert np.array_equal(model.backbone[0].w, backbone_before)
    assert np.array_equal(model.old_head.w, old_before)
    assert not np.array_equal(model.new_head.w, head_before)
    fresh = model.new_head.w.copy()
    train.attach_new_head(model, ds.c_u, seed=99)
    assert np.array_equal(model.new_head.w, fresh)


def test_evaluate_reads_truth_once_and_matches_metrics():
    ds, cfg, model = _pretrained(seed=4)
    reads = ds.truth.reads
    _, _, z_u = nn.forward(model, ds.unlabeled.x)
    pred = z_u.argmax(axis=1)
    acc, nmi, hits = train.evaluate(pred, ds.truth, ds.c_u)
    assert ds.truth.reads == reads + 1
    labels = ds.truth.labels_for_eval()
    assert acc == metrics.acc(pred, labels, ds.c_u)
    assert nmi == metrics.nmi(pred, labels)
    assert np.array_equal(hits, metrics.best_map_hits(pred, labels, ds.c_u))


def test_cluster_train_report_shape_and_loss_fields():
    ds, cfg, model = _pretrained(seed=5, cluster_epochs=6, freeze_epochs=2)
    train.attach_new_head(model, ds.c_u, train.stream_seed(cfg.seed, train.TAG_HEAD))
    with warnings.catch_warnings():
        # tiny runs legitimately find no anchors; that path has its own test
        warnings.simplefilter("ignore", UserWarning)
        reports = train.cluster_train(model, ds, cfg)
    assert [r.epoch for r in reports] == list(range(1, 7))
    for r in reports:
        assert 0.0 <= r.acc <= 1.0 and 0.0 <= r.nmi <= 1.0
        assert np.isfinite(r.loss_ppl) and np.isfinite(r.loss_pll)
        assert np.isfinite(r.loss_opm)
        assert r.anchor_count >= 0
        assert (r.anchor_count == 0) == np.isnan(r.anchor_acc)
    # before the first injection epoch the mixing loss is exactly zero
    assert reports[0].loss_opm == 0.0


def test_cluster_train_frozen_backbone_stays_put():
    ds, cfg, model = _pretrained(seed=6, cluster_epochs=3, freeze_epochs=3)
    backbone_before = [layer.w.copy() for layer in model.backbone]
    head_before = model.new_head.w.copy()
    train.cluster_train(model, ds, cfg)
    for layer, before in zip(model.backbone, backbone_before):
        assert np.array_equal(layer.w, before)
    assert not np.array_equal(model.new_head.w, head_before)


def test_cluster_train_unfrozen_backbone_moves():
    ds, cfg, model = _pretrained(seed=6, cluster_epochs=3, freeze_epochs=0)
    backbone_before = [layer.w.copy() for layer in model.backbone]
    train.cluster_train(model, ds, cfg)
    assert any(
        not np.array_equal(layer.w, before)
        for layer, before in zip(model.backbone, backbone_before)
    )


def test_cluster_train_truth_read_audit():
    ds, cfg, model = _pretrained(seed=7, cluster_epochs=5, freeze_epochs=1)
    reads_before = ds.truth.reads
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        reports = train.cluster_train(model, ds, cfg)
    # one read per epoch-end evaluation plus one for the pool before epoch 1
    assert ds.truth.reads - reads_before == cfg.cluster_epochs + 1
    assert len(reports) == cfg.cluster_epochs


def test_cluster_train_deterministic():
    r1 = None
    for _ in range(2):
        ds, cfg, model = _pretrained(seed=8, cluster_epochs=4)
        reports = train.cluster_train(model, ds, cfg)
        flat = model_params_flat(model)
        if r1 is None:
            r1 = (reports, flat)
        else:
            assert flat.tobytes() == r1[1].tobytes()
            assert reports_equal(reports, r1[0])


def test_cluster_train_lambda2_zero_equals_disabled():
    runs = []
    for kw in ({"lambda2": 0.0}, {"disable_openmix": True}):
        ds, cfg, model = _pretrained(seed=9, cluster_epochs=4, **kw)
        reports = train.cluster_train(model, ds, cfg)
        runs.append((reports, model_params_flat(model).tobytes()))
    assert runs[0][1] == runs[1][1]
    assert reports_equal(runs[0][0], runs[1][0])


def test_cluster_train_warns_once_without_anchors():
    # an untrained fresh head stays diffuse for a few epochs: no anchors
    spec = tiny_spec(seed=10)
    ds = data.generate_blobs(spec)
    cfg = tiny_config(seed=10, cluster_epochs=8, anchor_mix_epoch=1, labeled_mix_epoch=1)
    model = train.build_model(cfg, ds.input_dim, ds.c_l, ds.c_u)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reports = train.cluster_train(model, ds, cfg)
    no_anchor_epochs = sum(1 for r in reports if r.anchor_count == 0)
    msgs = [str(c.message) for c in caught if "anchor" in str(c.message)]
    if no_anchor_epochs > 0:
        assert len(msgs) == 1
    else:
        assert msgs == []


def test_cluster_train_disabled_run_never_warns():
    # same no-anchor scenario, but with mixing off the warning would only
    # mislead: nothing was going to be mixed in the first place
    spec = tiny_spec(seed=10)
    ds = data.generate_blobs(spec)
    cfg = tiny_config(
        seed=10, cluster_epochs=8, anchor_mix_epoch=1, labeled_mix_epoch=1,
        disable_openmix=True,
    )
    model = train.build_model(cfg, ds.input_dim, ds.c_l, ds.c_u)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reports = train.cluster_train(model, ds, cfg)
    assert any(r.anchor_count == 0 for r in reports)
    assert [c for c in caught if "anchor" in str(c.message)] == []


def test_cluster_train_needs_two_unlabeled():
    ds, cfg, model = _pretrained(seed=11)
    small = data.Dataset(
        ds.labeled,
        data.UnlabeledSet(ds.unlabeled.x[:1], ds.c_u),
        data.HiddenTruth(ds.truth.labels_for_eval()[:1]),
    )
    with pytest.raises(ValueError):
        train.cluster_train(model, small, cfg)


@pytest.mark.parametrize("batch_unlabeled", [23, 1])
def test_cluster_train_one_row_last_batch(batch_unlabeled, monkeypatch):
    # 24 unlabeled rows: batches of 23 leave a 1-row last batch, batches of 1
    # are all 1-row
    ds, cfg, model = _pretrained(
        seed=12, cluster_epochs=2, labeled_mix_epoch=1, batch_unlabeled=batch_unlabeled
    )
    assert len(ds.unlabeled) % batch_unlabeled == 1 % batch_unlabeled
    rows = []
    fused = losses.clustering_losses

    def recording(z_u, theta1, theta2):
        rows.append(z_u.shape[0])
        return fused(z_u, theta1, theta2)

    monkeypatch.setattr(losses, "clustering_losses", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        reports = train.cluster_train(model, ds, cfg)
    assert 1 in rows
    assert [r.epoch for r in reports] == [1, 2]
    for r in reports:
        assert np.isfinite(r.loss_ppl) and np.isfinite(r.loss_pll) and np.isfinite(r.loss_opm)


REFERENCE_CASES = {
    "default": {},
    "disable_openmix": dict(disable_openmix=True),
    "early anchors, theta2=0.6": dict(theta2=0.6, anchor_mix_epoch=3),
    "hidden layer, odd unlabeled batch": dict(hidden_dims=[32], batch_unlabeled=17),
    "epsilon 0.3, odd mixed batch": dict(epsilon=0.3, batch_mixed=17),
    "freeze ends mid-run": dict(freeze_epochs=5),
}


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_cluster_train_matches_three_forward_reference(case):
    # short runs at the default data scale; both routes start from one model
    kw = dict(pretrain_epochs=30, cluster_epochs=10, **REFERENCE_CASES[case])
    ds = data.generate_blobs(data.SplitSpec(seed=1))
    cfg = config.RunConfig(seed=1, **kw).validate()
    model = train.build_model(cfg, ds.input_dim, ds.c_l, ds.c_u)
    train.pretrain(model, ds.labeled, cfg)
    train.attach_new_head(model, ds.c_u, train.stream_seed(cfg.seed, train.TAG_HEAD))
    ref_model = copy.deepcopy(model)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        reports = train.cluster_train(model, ds, cfg)
        want = train_reference.cluster_train(ref_model, ds, cfg)
    assert model_params_flat(model).tobytes() == model_params_flat(ref_model).tobytes()
    assert reports_equal(reports, want)
    if case == "early anchors, theta2=0.6":
        assert any(r.anchor_count > 0 for r in reports[cfg.anchor_mix_epoch - 1 :])


def test_cluster_train_one_forward_per_step(monkeypatch):
    ds, cfg, model = _pretrained(seed=13, cluster_epochs=4, labeled_mix_epoch=2)
    calls = {"forward": 0, "pool": 0, "backward": 0, "evaluate": 0, "mixed": 0, "solver": 0}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if key == "forward" and args[1] is ds.unlabeled.x:
                calls["pool"] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(nn, "forward", counting(nn.forward, "forward"))
    monkeypatch.setattr(nn, "backward", counting(nn.backward, "backward"))
    monkeypatch.setattr(train, "evaluate", counting(train.evaluate, "evaluate"))
    monkeypatch.setattr(mixing, "build_mixed_batch", counting(mixing.build_mixed_batch, "mixed"))
    monkeypatch.setattr(metrics, "assignment_solver", counting(metrics.assignment_solver, "solver"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        train.cluster_train(model, ds, cfg)
    steps_per_epoch = -(-len(ds.unlabeled) // cfg.batch_unlabeled)
    steps = steps_per_epoch * cfg.cluster_epochs
    mixed_steps = steps_per_epoch * (cfg.cluster_epochs - cfg.labeled_mix_epoch + 1)
    # every step forwards once, and the pool is scored once per epoch and once before
    assert calls["pool"] == cfg.cluster_epochs + 1
    assert calls["forward"] == steps + cfg.cluster_epochs + 1
    assert calls["evaluate"] == cfg.cluster_epochs
    assert calls["solver"] == cfg.cluster_epochs + 1
    assert calls["mixed"] == mixed_steps
    assert calls["backward"] == steps + mixed_steps


def test_write_metrics_csv_roundtrip(tmp_path):
    reports = [
        train.EpochReport(1, 0.5, 0.25, 0.1, 0.2, 0.0, 0, float("nan")),
        train.EpochReport(2, 1 / 3, 2 / 3, 0.3, 0.4, 0.123456789012345, 7, 0.8),
    ]
    path = tmp_path / "metrics.csv"
    train.write_metrics_csv(str(path), reports)
    lines = path.read_text().splitlines()
    # literals, so a renamed or reordered EpochReport field fails here
    assert lines[0] == "epoch,acc,nmi,loss_ppl,loss_pll,loss_opm,anchor_count,anchor_acc"
    assert lines[0] == train.METRICS_HEADER
    assert lines[1] == "1,0.5,0.25,0.1,0.2,0.0,0,nan"
    assert len(lines) == 3
    row = lines[2].split(",")
    assert int(row[0]) == 2
    assert float(row[1]) == 1 / 3  # repr round-trips exactly
    assert float(row[5]) == 0.123456789012345
    assert int(row[6]) == 7
    assert lines[1].split(",")[7] == "nan"
