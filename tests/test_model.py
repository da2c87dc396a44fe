"""The assembled scoring model: parameter registry, forward pass, state loading."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import doc_from_sections, planted_corpus, small_random_doc
from sectsum import autodiff as ad
from sectsum import model as model_module
from sectsum.attention import select_global
from sectsum.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from sectsum.config import RunConfig
from sectsum.model import Model
from sectsum.rouge import stable_seed
from sectsum.training import TrainConfig, ce_loss, train


def _cfg(**over):
    base = dict(
        d_model=8,
        layers=2,
        heads=2,
        window=2,
        global_ratio=25.0,
        max_sentences=12,
        s_max=3,
        len_buckets=6,
        ffn_dim=10,
        seed=0,
    )
    base.update(over)
    return RunConfig(**base)


def test_parameter_registry_is_complete_and_stable():
    model = Model(_cfg())
    params = model.parameters()
    # embeddings + per-layer tensors + feature stack + output head
    per_layer = 6 * 2 * 2 + 3 * 2 + 4  # head linears, block linears, norms
    expected = 2 + 2 * per_layer + 3 + 5 * 2 + 3 + 2
    assert len(params) == expected
    assert "layer1.head1.global_value.bias" in params
    assert "W_sents" in params
    for tensor in params.values():
        assert tensor.requires_grad
    # two models over the same config share names in the same order
    again = Model(_cfg())
    assert list(params) == list(again.parameters())


def test_identical_seeds_give_identical_parameters_and_scores():
    a, b = Model(_cfg()), Model(_cfg())
    doc = small_random_doc(4)
    for name, tensor in a.parameters().items():
        np.testing.assert_array_equal(tensor.data, b.parameters()[name].data)
    with ad.no_grad():
        np.testing.assert_array_equal(a.forward(doc).values, b.forward(doc).values)


def test_different_seed_changes_parameters():
    a, b = Model(_cfg()), Model(_cfg(seed=1))
    diffs = sum(
        (x.data != y.data).any()
        for x, y in zip(a.parameters().values(), b.parameters().values())
    )
    assert diffs > 0
    assert a.hash != b.hash  # seed participates in the model hash


def test_forward_scores_shape_and_range():
    model = Model(_cfg())
    doc = small_random_doc(8)
    with ad.no_grad():
        scores = model.forward(doc)
    assert len(scores) == doc.n_sentences
    assert np.all((scores.values > 0) & (scores.values < 1))


def test_forward_truncates_long_documents():
    model = Model(_cfg(max_sentences=4))
    doc = doc_from_sections("d", [[f"word{i} tail{i}" for i in range(9)]])
    with ad.no_grad():
        scores = model.forward(doc)
    assert len(scores) == 4


def test_global_positions_derive_from_run_seed_and_doc_id():
    model = Model(_cfg(global_policy="random", seed=3))
    doc = small_random_doc(1)
    got = model.global_positions(doc)
    assert got == model.global_positions(doc)
    assert all(0 <= p < doc.n_sentences for p in got)
    expected = select_global(
        doc.n_sentences,
        model.cfg.global_ratio,
        "random",
        seed=stable_seed(model.cfg.seed, "global", doc.id),
    )
    assert got == expected


def test_forward_backward_reaches_every_relevant_parameter():
    model = Model(_cfg(global_ratio=50.0))
    doc = small_random_doc(6)
    scores = model.forward(doc)
    ad.backward(ad.tsum(ad.mul(scores.p, scores.p)))
    got_grad = {name for name, t in model.parameters().items() if t.grad is not None}
    # position_table rows beyond the doc length never see gradient, but the
    # tensor itself must: spot-check the core stack
    for name in (
        "segment_table",
        "encoder_section_table",
        "layer0.head0.query.weight",
        "layer0.head0.global_query.weight",
        "layer1.ffn_outer.bias",
        "W_c",
        "W_s",
        "W_sents",
        "output_layer.weight",
    ):
        assert name in got_grad, name
    model.zero_grads()
    assert all(t.grad is None for t in model.parameters().values())


def _graph_nodes(loss: ad.Tensor) -> int:
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def test_loss_graph_size_does_not_grow_with_document_length():
    # window 50: one attention chunk at n=40, three at n=120, ten at n=480;
    # the band and the global rows are one node per head at every length
    model = Model(RunConfig(d_model=16, window=50))
    counts = {}
    for n in (40, 120, 480):
        item = planted_corpus(n_docs=1, n_sentences=n, n_sections=4)[0]
        counts[n] = _graph_nodes(ce_loss(model.forward(item.document), item.labels))
    assert counts[120] == counts[480]
    assert counts[40] <= 360


def test_checkpoint_round_trip_through_model(tmp_path):
    model = Model(_cfg())
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.parameters(), path, seed=model.cfg.seed, config_hash=model.hash)
    arrays, header = load_checkpoint(path, expected_hash=model.hash)

    fresh = Model(_cfg(seed=9))  # different weights, same architecture
    assert fresh.hash != model.hash or model.cfg.seed == 9
    fresh.load_state(arrays)
    doc = small_random_doc(3)
    with ad.no_grad():
        np.testing.assert_array_equal(
            fresh.forward(doc).values, model.forward(doc).values
        )


def test_load_state_rejects_name_and_shape_mismatches():
    model = Model(_cfg())
    arrays = {k: t.data.copy() for k, t in model.parameters().items()}
    missing = dict(arrays)
    missing.pop("W_c")
    with pytest.raises(CheckpointError, match="missing"):
        model.load_state(missing)
    extra = dict(arrays)
    extra["bogus"] = np.zeros(3)
    with pytest.raises(CheckpointError, match="unexpected"):
        model.load_state(extra)
    bad_shape = dict(arrays)
    bad_shape["W_c"] = np.zeros((1, 1))
    with pytest.raises(CheckpointError, match="shape"):
        model.load_state(bad_shape)


def test_concat_combine_mode_runs_end_to_end():
    model = Model(_cfg(combine="concat"))
    assert model.output_layer.in_features == 6 * model.cfg.d_model
    doc = small_random_doc(5)
    with ad.no_grad():
        scores = model.forward(doc)
    assert len(scores) == doc.n_sentences


# ---------------------------------------------------------------------------
# the per-document plan
# ---------------------------------------------------------------------------


def _plan_doc(n: int):
    if n == 1:
        return doc_from_sections("one", [["a single sentence"]])
    return planted_corpus(n_docs=1, n_sentences=n, n_sections=4)[0].document


def _scores_and_grads(model: Model, doc, plan=None) -> list:
    model.zero_grads()
    scores = model.forward(doc) if plan is None else model.forward(doc, plan)
    labels = [i % 2 for i in range(len(scores))]
    ad.backward(ce_loss(scores, labels))
    return [scores.values] + [t.grad for t in model.parameters().values()]


@pytest.mark.parametrize(
    "n, over",
    [
        (1, {}),
        (40, {}),
        (120, {}),                           # three attention chunks
        (480, {}),                           # ten chunks
        (60, {"max_sentences": 30}),         # truncated to 30
        (40, {"s_max": 2}),                  # sections 2 and 3 clamp
        (40, {"combine": "concat"}),
        (120, {"global_policy": "random"}),
    ],
    ids=["n1", "n40", "n120", "n480", "truncated", "clamped-section", "concat", "random-globals"],
)
def test_forward_with_plan_equals_forward_without_plan(n, over):
    model = Model(RunConfig(**{"d_model": 16, "heads": 2, "window": 50, **over}))
    doc = _plan_doc(n)
    plain = _scores_and_grads(model, doc)
    plan = model.plan(doc)
    for _ in range(2):  # a plan is not changed by the forwards that use it
        planned = _scores_and_grads(model, doc, plan)
        assert len(planned) == len(plain)
        for got, want in zip(planned, plain):
            assert (got is None and want is None) or (
                got.shape == want.shape and np.array_equal(got, want)
            )


def test_forward_rejects_the_plan_of_another_document():
    model = Model(_cfg())
    with pytest.raises(ValueError, match="plan for document"):
        model.forward(small_random_doc(1), model.plan(small_random_doc(2)))


def test_plan_warns_once_and_forwards_with_it_never(caplog):
    model = Model(_cfg(max_sentences=5, s_max=1))
    doc = small_random_doc(7)  # six sentences in two sections
    plan = model.plan(doc)
    with ad.no_grad():
        for _ in range(3):
            model.forward(doc, plan)
    messages = [r.getMessage() for r in caplog.records]
    for what in ("truncated", "section embedding", "section feature"):
        assert sum(what in m for m in messages) == 1, what


def _train_setup():
    data = planted_corpus(n_docs=8, n_sentences=12, n_sections=3, n_planted=3)
    cfg = _cfg(layers=1, s_max=2)  # every document has a section index 2 >= s_max
    tcfg = TrainConfig(epochs=3, holdout_ratio=0.25, accumulation_steps=2, warmup_steps=2)
    return Model(cfg), data, tcfg


def test_train_encodes_each_document_once(monkeypatch):
    model, data, tcfg = _train_setup()
    encoded = []
    original = model_module.encode_sentences

    def counting(doc, *args):
        encoded.append(doc.id)
        return original(doc, *args)

    monkeypatch.setattr(model_module, "encode_sentences", counting)
    result = train(model, data, tcfg)
    assert result.holdout_ids
    assert sorted(encoded) == sorted(item.document.id for item in data)


def test_train_warns_of_a_clamped_section_once_per_document(caplog):
    model, data, tcfg = _train_setup()
    train(model, data, tcfg)
    clamped = [r for r in caplog.records
               if "section embedding" in r.getMessage() and "clamped" in r.getMessage()]
    assert len(clamped) == len(data)
