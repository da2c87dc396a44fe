"""Losses, the NOAM schedule, clipping, accumulation, and the training loop."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from helpers import GREEK, doc_from_sections, planted_corpus, reference_ce_loss, small_random_doc
from sectsum import autodiff as ad
from sectsum import training
from sectsum.config import ConfigError, RunConfig
from sectsum.corpus import LabeledDocument, tokenize, truncate_document
from sectsum.model import Model
from sectsum.rouge import Candidate, CandidateSet, Reward, sample_candidates, stable_seed
from sectsum.training import (
    TrainConfig,
    TrainingError,
    candidate_loss,
    ce_loss,
    clip_gradients,
    evaluate_split,
    noam_lr,
    reinforced_loss,
    sgd_step,
    split_holdout,
    train,
    write_metrics_csv,
)


def _dataset(n_docs: int, seed0: int = 0) -> list[LabeledDocument]:
    rng = np.random.default_rng(stable_seed(seed0, "train-tests"))
    items = []
    for i in range(n_docs):
        doc = small_random_doc(seed0 * 1000 + i)
        labels = tuple(int(x) for x in rng.integers(0, 2, size=doc.n_sentences))
        items.append(LabeledDocument(doc, labels))
    return items


def _tiny_cfg(**over) -> RunConfig:
    base = dict(
        d_model=8, layers=1, heads=2, window=2, global_ratio=0.0,
        max_sentences=12, s_max=3, len_buckets=6, ffn_dim=8, seed=0,
    )
    base.update(over)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _bce(p: np.ndarray, y: np.ndarray) -> float:
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).sum())


def test_ce_loss_matches_summed_binary_cross_entropy():
    p = ad.Tensor(np.array([0.9, 0.2, 0.5, 0.7]))
    y = [1, 0, 1, 0]
    got = ce_loss(p, y)
    assert float(got.data) == pytest.approx(_bce(p.data, np.array(y)), rel=1e-12)


def test_ce_loss_gradient_wrt_logits_is_p_minus_y():
    logits = ad.Tensor(np.array([0.3, -1.2, 2.0, 0.0]), requires_grad=True)
    y = np.array([1, 0, 0, 1])
    loss = ce_loss(ad.sigmoid(logits), y)
    ad.backward(loss)
    p = 1.0 / (1.0 + np.exp(-logits.data))
    np.testing.assert_allclose(logits.grad, p - y, atol=1e-12)


def test_ce_loss_saturated_correct_side_contributes_zero():
    p = ad.Tensor(np.array([1.0, 0.0]))  # exactly right for labels [1, 0]
    assert float(ce_loss(p, [1, 0]).data) == 0.0


def _ce_cases():
    """64 (probabilities, labels) cases: random, all-positive, all-negative,
    and saturated on the right side (p = 1 on a 1, p = 0 on a 0)."""
    rng = np.random.default_rng(stable_seed(0, "ce-cases"))
    cases = []
    for i in range(64):
        n = int(rng.integers(1, 40))
        p = rng.uniform(1e-6, 1.0 - 1e-6, size=n)
        y = rng.integers(0, 2, size=n)
        if i % 4 == 1:
            y[:] = 1
        elif i % 4 == 2:
            y[:] = 0
        elif i % 4 == 3:
            right = rng.random(n) < 0.5
            p[right] = y[right]
        cases.append((p, y))
    return cases


def test_ce_loss_equals_the_reference_graph_bit_for_bit():
    for p, y in _ce_cases():
        grads = []
        for loss_fn in (ce_loss, reference_ce_loss):
            probs = ad.Tensor(p, requires_grad=True)
            loss = loss_fn(probs, y)
            ad.backward(loss)
            grads.append((loss.data.tobytes(), probs.grad.tobytes()))
        assert grads[0] == grads[1], (p, y)


def test_candidate_loss_equals_the_reference_graph_bit_for_bit(monkeypatch):
    # five terms share the scores, so their gradients add in the sweep's order
    rng = np.random.default_rng(stable_seed(1, "ce-cases"))
    for _ in range(20):
        n = int(rng.integers(2, 30))
        logits = rng.normal(size=n) * 3.0
        cands = CandidateSet(
            candidates=tuple(Candidate(rng.integers(0, 2, size=n), Reward(float(rng.random())))
                             for _ in range(5)),
            complete=True,
        )
        got = []
        for loss_fn in (ce_loss, reference_ce_loss):
            monkeypatch.setattr(training, "ce_loss", loss_fn)
            x = ad.Tensor(logits, requires_grad=True)
            loss = candidate_loss(ad.sigmoid(x), cands)
            ad.backward(loss)
            got.append((loss.data.tobytes(), x.grad.tobytes()))
        assert got[0] == got[1]


def test_long_document_step_keeps_only_what_its_backward_reads():
    # one CE step on a 480-sentence document at the default config (ten band
    # chunks, 96 global rows) peaks at ~37 MB; the bound sits below the ~44 MB
    # of also keeping every pass gradient until the sweep ends, the ~46 MB of
    # also keeping each chunk's probability halves and transposed keys, and
    # the ~53 MB of keeping both
    item = planted_corpus(n_docs=1, n_sentences=480, n_sections=8, n_planted=24)[0]
    model = Model(RunConfig())
    plan = model.plan(item.document)
    with ad.no_grad():
        model.forward(plan.doc, plan)  # builds the mask's band layout, which every step shares
    tracemalloc.start()
    try:
        ad.backward(ce_loss(model.forward(plan.doc, plan), item.labels))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 41e6, f"step peak {peak / 1e6:.1f} MB"


def test_ce_loss_shape_mismatch():
    with pytest.raises(ValueError, match="labels shape"):
        ce_loss(ad.Tensor(np.array([0.5, 0.5])), [1, 0, 1])


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
def test_reinforced_loss_is_exactly_reward_times_ce(r):
    y = np.array([1, 0, 1, 0, 1, 0])

    def fresh_logits():
        return ad.Tensor(np.linspace(-1.5, 1.5, 6), requires_grad=True)

    plain = fresh_logits()
    ad.backward(ce_loss(ad.sigmoid(plain), y))
    scaled = fresh_logits()
    ad.backward(reinforced_loss(ad.sigmoid(scaled), y, r))
    # rewards in {0, 1/2, 1} scale every float product exactly, so this is
    # a bitwise equality, not an approximation
    np.testing.assert_array_equal(scaled.grad, r * plain.grad)


def test_reinforced_loss_rejects_out_of_range_reward():
    p = ad.Tensor(np.array([0.5]))
    with pytest.raises(ValueError, match="reward"):
        reinforced_loss(p, [1], 1.5)
    with pytest.raises(ValueError, match="reward"):
        reinforced_loss(p, [1], -0.1)


def test_candidate_loss_is_mean_of_reward_weighted_terms():
    p = ad.Tensor(np.array([0.8, 0.3, 0.6]))
    cands = CandidateSet(
        candidates=(
            Candidate(np.array([1, 0, 0]), Reward(1.0)),
            Candidate(np.array([0, 1, 0]), Reward(0.5)),
        ),
        complete=True,
    )
    got = float(candidate_loss(p, cands).data)
    want = (
        1.0 * _bce(p.data, np.array([1, 0, 0]))
        + 0.5 * _bce(p.data, np.array([0, 1, 0]))
    ) / 2
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# schedule, clipping, SGD
# ---------------------------------------------------------------------------


def test_noam_lr_peaks_at_warmup_then_decays():
    d, w, s = 64, 100, 2.0
    peak = noam_lr(w, d, w, s)
    assert peak == pytest.approx(s * d**-0.5 * w**-0.5, rel=1e-12)
    before = [noam_lr(t, d, w, s) for t in (1, 25, 50, 99)]
    assert before == sorted(before) and before[-1] < peak
    assert noam_lr(4 * w, d, w, s) == pytest.approx(peak / 2, rel=1e-12)
    assert noam_lr(2, d, w, s) == pytest.approx(2 * noam_lr(1, d, w, s), rel=1e-12)


def test_noam_lr_validates_step_and_warmup():
    with pytest.raises(ValueError, match="step"):
        noam_lr(0, 64, 100)
    with pytest.raises(ValueError, match="warmup"):
        noam_lr(1, 64, 0)


def _store_with_grads(values, grads):
    """A ParamStore of 1-D tensors holding `values`, given `grads` (None: no
    gradient) by a backward."""
    tensors = [ad.Tensor(np.array(v, dtype=float), requires_grad=True) for v in values]
    store = ad.ParamStore(tensors)
    terms = [ad.tsum(ad.mul(t, ad.Tensor(g))) for t, g in zip(tensors, grads) if g is not None]
    if terms:
        ad.backward(terms[0] if len(terms) == 1 else ad.add(*terms))
    return store, tensors


def test_clip_gradients_rescales_to_max_norm():
    store, (a, b) = _store_with_grads([[0.0], [0.0]], [[3.0], [4.0]])
    factor = clip_gradients(store, 1.0)
    assert factor == pytest.approx(0.2, rel=1e-12)
    assert float(a.grad[0]) == pytest.approx(0.6) and float(b.grad[0]) == pytest.approx(0.8)
    assert store.grad_norm() == pytest.approx(1.0, rel=1e-12)


def test_clip_gradients_leaves_small_gradients_alone():
    store, (a,) = _store_with_grads([[0.0, 0.0]], [[0.1, 0.2]])
    before = a.grad.copy()
    assert clip_gradients(store, 1.0) == 1.0
    np.testing.assert_array_equal(a.grad, before)
    zero, _ = _store_with_grads([[0.0, 0.0]], [None])
    assert clip_gradients(zero, 1.0) == 1.0  # norm 0: no-op, not 0-division


def test_sgd_step_applies_lr_and_skips_gradless_tensors():
    store, (a, b) = _store_with_grads([[1.0, 2.0], [5.0]], [[10.0, -10.0], None])
    sgd_step(store, lr=0.1)
    np.testing.assert_allclose(a.data, [0.0, 3.0], atol=1e-15)
    np.testing.assert_array_equal(b.data, [5.0])


# ---------------------------------------------------------------------------
# holdout split
# ---------------------------------------------------------------------------


def test_split_holdout_is_deterministic_disjoint_and_sized():
    data = _dataset(20)
    train_a, hold_a = split_holdout(data, 0.25, seed=7)
    train_b, hold_b = split_holdout(data, 0.25, seed=7)
    assert [d.document.id for d in train_a] == [d.document.id for d in train_b]
    assert [d.document.id for d in hold_a] == [d.document.id for d in hold_b]
    assert len(hold_a) == round(0.25 * 20)
    ids_train = {d.document.id for d in train_a}
    ids_hold = {d.document.id for d in hold_a}
    assert not ids_train & ids_hold
    assert len(ids_train | ids_hold) == 20


def test_split_holdout_zero_ratio_keeps_everything_in_train():
    data = _dataset(10)
    tr, hold = split_holdout(data, 0.0, seed=0)
    assert len(tr) == 10 and hold == []


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


def test_update_counts_full_batches_plus_epoch_flush():
    data = _dataset(25)
    model = Model(_tiny_cfg())
    tcfg = TrainConfig(
        lr_scale=0.5, warmup_steps=10, accumulation_steps=10,
        epochs=2, holdout_ratio=0.0, seed=0,
    )
    result = train(model, data, tcfg)
    # 25 docs / accumulation 10 -> 2 full updates + 1 partial flush per epoch
    assert result.flush_updates == 2
    assert result.updates == 6
    assert result.holdout_ids == []
    assert len(result.metrics) == 2  # train row per epoch, no holdout rows


def test_zero_learning_rate_leaves_parameters_bit_identical():
    data = _dataset(6)
    model = Model(_tiny_cfg())
    before = {k: t.data.copy() for k, t in model.parameters().items()}
    train(model, data, TrainConfig(lr_scale=0.0, epochs=1, holdout_ratio=0.0, seed=0))
    for name, tensor in model.parameters().items():
        np.testing.assert_array_equal(tensor.data, before[name], err_msg=name)


def test_training_is_deterministic_across_runs():
    data = _dataset(8)
    tcfg = TrainConfig(
        lr_scale=1.0, warmup_steps=5, accumulation_steps=3,
        epochs=2, holdout_ratio=0.25, seed=11,
    )
    res_a = train(Model(_tiny_cfg()), data, tcfg)
    model_b = Model(_tiny_cfg())
    res_b = train(model_b, data, tcfg)
    assert res_a.metrics == res_b.metrics
    assert res_a.holdout_ids == res_b.holdout_ids
    model_c = Model(_tiny_cfg())
    res_c = train(model_c, data, tcfg)
    for name, tensor in model_b.parameters().items():
        np.testing.assert_array_equal(tensor.data, model_c.parameters()[name].data)
    assert res_c.metrics == res_b.metrics


def test_metrics_rows_interleave_train_and_holdout():
    data = _dataset(10)
    model = Model(_tiny_cfg())
    tcfg = TrainConfig(lr_scale=0.5, epochs=2, holdout_ratio=0.2, seed=0)
    result = train(model, data, tcfg)
    assert len(result.metrics) == 4
    for epoch in (1, 2):
        t_row = result.metrics[2 * (epoch - 1)]
        h_row = result.metrics[2 * (epoch - 1) + 1]
        assert (t_row["epoch"], t_row["split"]) == (epoch, "train")
        assert (h_row["epoch"], h_row["split"]) == (epoch, "holdout")
        # selection ROUGE is only computed on the holdout pass
        assert t_row["rouge1_recall"] == ""
        assert isinstance(h_row["rouge1_recall"], float)
        assert np.isfinite(t_row["loss"]) and np.isfinite(h_row["loss"])
        assert t_row["lr"] == h_row["lr"] > 0


def test_non_finite_loss_raises_with_location():
    data = _dataset(4)
    model = Model(_tiny_cfg())
    model.parameters()["segment_table"].data[0, 0] = float("nan")
    with pytest.raises(TrainingError, match=r"non-finite loss .* epoch 1, update 1, doc "):
        train(model, data, TrainConfig(epochs=1, holdout_ratio=0.0, seed=0))


def test_reinforced_mode_trains_without_non_finite_losses():
    data = _dataset(6)
    model = Model(_tiny_cfg())
    tcfg = TrainConfig(
        lr_scale=0.5, warmup_steps=5, accumulation_steps=4, epochs=2,
        holdout_ratio=0.0, reinforced=True, candidates_k=3, seed=2,
    )
    result = train(model, data, tcfg)
    # 6 docs / accumulation 4 -> 1 full update + 1 partial flush per epoch
    assert (result.updates, result.flush_updates) == (4, 2)
    assert all(np.isfinite(row["loss"]) for row in result.metrics)


def test_reinforced_documents_sharing_an_id_each_use_their_own_candidates(monkeypatch):
    # only the CLI rejects repeated ids; a library caller may pass them
    twins = [doc_from_sections("twin", _sections_of(n, n), reference="alpha beta gamma") for n in (3, 5)]
    data = [LabeledDocument(doc, (1,) + (0,) * (doc.n_sentences - 1)) for doc in twins]
    sampled_from = {}

    def sample(doc, labels, k, seed):
        cands = sample_candidates(doc, labels, k, seed)
        sampled_from[id(cands)] = doc
        return cands

    used = []
    original_loss = training.candidate_loss

    def loss(p, cands):
        used.append((p.p.shape[0], sampled_from[id(cands)]))
        return original_loss(p, cands)

    monkeypatch.setattr(training, "sample_candidates", sample)
    monkeypatch.setattr(training, "candidate_loss", loss)
    tcfg = TrainConfig(warmup_steps=2, accumulation_steps=1, epochs=2, holdout_ratio=0.0,
                       reinforced=True, candidates_k=2, seed=3)
    result = train(Model(_tiny_cfg()), data, tcfg)
    assert result.updates == 4
    assert sorted((n, doc.n_sentences) for n, doc in used) == [(3, 3), (3, 3), (5, 5), (5, 5)]
    assert all(doc is twins[0 if n == 3 else 1] for n, doc in used)


def test_train_rejects_empty_and_all_holdout_datasets():
    with pytest.raises(ValueError, match="empty"):
        train(Model(_tiny_cfg()), [], TrainConfig())
    with pytest.raises(ConfigError, match=re.escape("holdout_ratio must be in [0, 1)")):
        TrainConfig(holdout_ratio=1.0)
    data = _dataset(3)
    with pytest.raises(ValueError, match="no training documents"):  # round(0.9 * 3) == 3 held out
        train(Model(_tiny_cfg()), data, TrainConfig(holdout_ratio=0.9))


def test_evaluate_split_leaves_gradients_untouched():
    data = _dataset(3)
    model = Model(_tiny_cfg())
    plans = [model.plan(item.document) for item in data]
    references = [tokenize(item.document.reference_summary) for item in data]
    stats = evaluate_split(model, data, TrainConfig(budget_ratio=0.5), plans, references)
    assert set(stats) == {"loss", "rouge1_recall", "rouge2_recall", "rougeL_recall"}
    assert stats["loss"] > 0
    for key in ("rouge1_recall", "rouge2_recall", "rougeL_recall"):
        assert 0.0 <= stats[key] <= 1.0
    assert all(t.grad is None for t in model.parameters().values())


def _sections_of(n_sentences: int, seed: int) -> list[list[str]]:
    """Sentences of 3-5 Greek words, four to a section."""
    rng = np.random.default_rng(stable_seed(seed, "truncation-tests"))
    texts = [
        " ".join(GREEK[int(i)] for i in rng.integers(0, len(GREEK), size=int(rng.integers(3, 6))))
        for _ in range(n_sentences)
    ]
    return [texts[s : s + 4] for s in range(0, n_sentences, 4)]


@pytest.mark.parametrize(
    "tcfg",
    [
        TrainConfig(lr_scale=1.0, warmup_steps=3, accumulation_steps=2, epochs=2, holdout_ratio=0.0),
        TrainConfig(lr_scale=1.0, warmup_steps=3, accumulation_steps=2, epochs=2, holdout_ratio=0.0,
                    reinforced=True, candidates_k=3, seed=4),
        TrainConfig(lr_scale=1.0, warmup_steps=3, accumulation_steps=2, epochs=2, holdout_ratio=0.4,
                    budget_ratio=0.3, trigram_threshold=0, seed=9),
    ],
    ids=["ce", "reinforced", "holdout"],
)
def test_training_past_max_sentences_equals_training_on_the_prefix(tcfg):
    # 12-sentence documents under max_sentences = 10 train exactly as their
    # 10-sentence prefixes with the first 10 labels
    rng = np.random.default_rng(stable_seed("truncation-labels"))
    long_set, prefix_set = [], []
    for d in range(5):
        sections = _sections_of(12, d)
        doc = doc_from_sections(f"doc{d}", sections, reference="alpha beta gamma delta")
        prefix = doc_from_sections(f"doc{d}", sections[:2] + [sections[2][:2]], reference="alpha beta gamma delta")
        assert truncate_document(doc, 10) == prefix
        labels = tuple(int(x) for x in rng.integers(0, 2, size=12))
        long_set.append(LabeledDocument(doc, labels))
        prefix_set.append(LabeledDocument(prefix, labels[:10]))
    long_model, prefix_model = Model(_tiny_cfg(max_sentences=10)), Model(_tiny_cfg(max_sentences=10))
    long_result = train(long_model, long_set, tcfg)
    prefix_result = train(prefix_model, prefix_set, tcfg)
    assert long_result.metrics == prefix_result.metrics
    assert long_result.holdout_ids == prefix_result.holdout_ids
    for name, tensor in long_model.parameters().items():
        assert np.array_equal(tensor.data, prefix_model.parameters()[name].data), name
    initial = Model(_tiny_cfg(max_sentences=10)).parameters()
    assert any(not np.array_equal(t.data, initial[n].data) for n, t in long_model.parameters().items())


# ---------------------------------------------------------------------------
# metrics file
# ---------------------------------------------------------------------------


def test_write_metrics_csv_format(tmp_path):
    rows = [
        {"epoch": 1, "split": "train", "loss": 0.123456789,
         "rouge1_recall": "", "rouge2_recall": "", "rougeL_recall": "", "lr": 0.5},
        {"epoch": 1, "split": "holdout", "loss": 2.0,
         "rouge1_recall": 0.25, "rouge2_recall": 0.125, "rougeL_recall": 1.0, "lr": 0.5},
    ]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(rows, path, config_hash="cafe01")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=cafe01"
    assert lines[1] == "epoch,split,loss,rouge1_recall,rouge2_recall,rougeL_recall,lr"
    assert lines[2] == "1,train,0.123457,,,,0.5"
    assert lines[3] == "1,holdout,2,0.25,0.125,1,0.5"
