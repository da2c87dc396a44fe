"""The assembled scoring model: parameter registry, forward pass, state loading."""

from __future__ import annotations

import ast
import contextlib
import io
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import GREEK, composed_transformer_layer, doc_from_sections, planted_corpus, small_random_doc
from sectsum import autodiff as ad
from sectsum import model as model_module
from sectsum.attention import select_global
from sectsum.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from sectsum.config import RunConfig
from sectsum.corpus import write_corpus
from sectsum.model import Model
from sectsum.rouge import sample_candidates, stable_seed
from sectsum.training import TrainConfig, candidate_loss, ce_loss, train


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


def _reachable(out: ad.Tensor) -> dict[int, ad.Tensor]:
    """The nodes a backward from `out` visits, leaves included, as perfbench counts them."""
    seen = {id(out): out}
    stack = [out]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return seen


def _graph_nodes(loss: ad.Tensor) -> int:
    return len(_reachable(loss))


def test_loss_graph_size_does_not_grow_with_document_length():
    # window 50: one attention chunk at n=40, three at n=120, ten at n=480;
    # each transformer layer is one node at every length
    model = Model(RunConfig(d_model=16, window=50))
    counts = {}
    for n in (40, 120, 480):
        item = planted_corpus(n_docs=1, n_sentences=n, n_sections=4)[0]
        counts[n] = _graph_nodes(ce_loss(model.forward(item.document), item.labels))
    assert counts[120] == counts[480]
    assert counts[40] <= 360


def test_default_config_loss_graph_has_one_node_per_layer(monkeypatch):
    # 136 parameter leaves and 55 other nodes; each layer's 49 op nodes became one
    calls = []
    layer = model_module.transformer_layer

    def recorded_layer(h, mask, params):
        calls.append((h, layer(h, mask, params)))
        return calls[-1][1]

    monkeypatch.setattr(model_module, "transformer_layer", recorded_layer)
    model = Model(RunConfig())
    item = planted_corpus(n_docs=1, n_sentences=36, n_sections=4)[0]
    loss = ce_loss(model.forward(item.document), item.labels)
    assert len(model.parameters()) == 136
    assert _graph_nodes(loss) == 191
    assert len(calls) == model.cfg.layers
    for h, out in calls:
        reachable = _reachable(out)
        added = set(reachable) - set(_reachable(h))
        assert [i for i in added if reachable[i]._backward is not None] == [id(out)]


# config overrides of the default config, whether the loss is reinforced, and
# how many of the model's parameters a backward reaches
ONE_GRADIENT_CASES = {
    "ce": ({}, False, None),
    "reinforced": ({}, True, None),
    "concat": ({"combine": "concat"}, False, None),
    "no-globals": ({"global_ratio": 0.0}, False, 88),
    "3-layers-8-heads": ({"layers": 3, "heads": 8}, False, None),
}


@pytest.mark.parametrize("case", ONE_GRADIENT_CASES)
def test_every_parameter_receives_at_most_one_gradient_per_sweep(monkeypatch, case):
    # a leaf adds each gradient as it arrives; a parameter fed twice in one sweep
    # would round (g + g1) + g2 where its checkpoint bytes were made with g + (g1 + g2)
    over, reinforced, reached = ONE_GRADIENT_CASES[case]
    model = Model(RunConfig(**over))
    item = planted_corpus(n_docs=1, n_sentences=36, n_sections=4)[0]
    names = {id(t): name for name, t in model.parameters().items()}
    received = {}
    accumulate = ad._accumulate

    def spy(t, g):
        if id(t) in names:
            received[names[id(t)]] = received.get(names[id(t)], 0) + 1
        accumulate(t, g)

    monkeypatch.setattr(ad, "_accumulate", spy)
    plan = model.plan(item.document)
    scores = model.forward(plan.doc, plan)
    if reinforced:
        loss = candidate_loss(scores, sample_candidates(plan.doc, np.asarray(item.labels), 3,
                                                        seed=stable_seed("cands", plan.doc.id)))
    else:
        loss = ce_loss(scores, item.labels)
    ad.backward(loss)
    assert set(received.values()) == {1}, {k: v for k, v in received.items() if v > 1}
    assert len(received) == (reached or len(names))
    assert all((t.grad is None) == (name not in received) for name, t in model.parameters().items())


def _composed_case_doc(seed: int, n: int):
    """A seeded n-sentence, 2-section document and 0/1 labels with both classes when n > 1."""
    rng = np.random.default_rng(seed)
    texts = [" ".join(rng.choice(GREEK, size=int(rng.integers(2, 6)))) for _ in range(n)]
    labels = np.zeros(n, dtype=np.int64)
    labels[rng.choice(n, size=max(1, n // 3), replace=False)] = 1
    reference = " ".join(texts[i] for i in np.nonzero(labels)[0])
    return doc_from_sections(f"composed{seed}", [texts[: n // 2], texts[n // 2:]], reference=reference), labels


def _loss_and_grads(model, doc, labels, reinforced):
    model.zero_grads()
    scores = model.forward(doc)
    if reinforced:
        loss = candidate_loss(scores, sample_candidates(doc, labels, 3, seed=stable_seed("cands", doc.id)))
    else:
        loss = ce_loss(scores, labels)
    ad.backward(loss)
    # copied: a parameter's .grad is its view of the store, which the next backward overwrites
    return loss.data.copy(), {name: None if t.grad is None else t.grad.copy()
                              for name, t in model.parameters().items()}


# config overrides of _cfg (two layers, window 2, 25% global; four heads here, so the
# default config's 136 parameters) and sentence counts
COMPOSED_CASES = {
    "multi-chunk": (dict(window=2), (7, 9, 10, 11, 12)),
    "no-globals": (dict(global_ratio=0.0), (5, 6, 8, 9, 12)),
    "all-globals": (dict(global_ratio=100.0, window=3), (2, 4, 7, 8, 11)),
    "pad-rows": (dict(window=4), (5, 6, 7, 9, 10)),
    "one-head": (dict(heads=1, global_ratio=40.0), (3, 6, 8, 10, 12)),
    "one-sentence-concat": (dict(combine="concat", window=3), (1, 2, 3, 4, 5)),
}


@pytest.mark.parametrize("reinforced", [False, True], ids=["ce", "reinforced"])
@pytest.mark.parametrize("case", list(COMPOSED_CASES))
def test_model_equals_composed_graph_on_seeded_documents(monkeypatch, case, reinforced):
    """The loss and every parameter gradient, None ones included, with each
    transformer layer one node equal bit for bit those of the op-by-op graph."""
    overrides, lengths = COMPOSED_CASES[case]
    model = Model(_cfg(**{"heads": 4, **overrides}))
    if model.cfg.heads == 4:
        assert len(model.parameters()) == 136
    for i, n in enumerate(lengths):
        doc, labels = _composed_case_doc(stable_seed(case, reinforced, i), n)
        fused_loss, fused = _loss_and_grads(model, doc, labels, reinforced)
        with monkeypatch.context() as m:
            m.setattr(model_module, "transformer_layer", composed_transformer_layer)
            composed_loss, composed = _loss_and_grads(model, doc, labels, reinforced)
        assert np.array_equal(fused_loss, composed_loss)
        assert list(fused) == list(composed)
        for name, want in composed.items():
            got = fused[name]
            if want is None:
                assert got is None, name
            else:
                assert got is not None and got.shape == want.shape and np.array_equal(got, want), name
        if model.cfg.global_ratio == 0.0:
            assert all(fused[name] is None for name in fused if ".global_" in name)


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


def test_load_state_replaces_nothing_when_a_later_shape_mismatches():
    model = Model(_cfg())
    before = {k: t.data for k, t in model.parameters().items()}
    values = {k: t.data.tobytes() for k, t in model.parameters().items()}
    arrays = {k: t.data + 1.0 for k, t in model.parameters().items()}
    last = list(arrays)[-1]
    arrays[last] = np.zeros((1, 1))
    with pytest.raises(CheckpointError, match=f"parameter {last}: checkpoint shape"):
        model.load_state(arrays)
    assert all(t.data is before[k] for k, t in model.parameters().items())
    # load_state copies into the store's views, so the values are what must not move
    assert all(t.data.tobytes() == values[k] for k, t in model.parameters().items())


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
    return [scores.values] + [None if t.grad is None else t.grad.copy() for t in model.parameters().values()]


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
    assert sum("truncated" in m for m in messages) == 1
    # one section clamp serves the encoder's section table and the feature's
    assert sum("section" in m and "clamped" in m for m in messages) == 1


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
               if "section" in r.getMessage() and "clamped" in r.getMessage()]
    assert len(clamped) == len(data)


def test_readme_library_example_runs_on_a_document_past_max_sentences(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    max_sentences = RunConfig().max_sentences  # the example keeps the default
    doc = planted_corpus(n_docs=1, n_sentences=max_sentences + 10, n_sections=2)[0].document
    write_corpus([doc], tmp_path / "corpus.jsonl")
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), namespace)
    printed = ast.literal_eval(out.getvalue())
    kept = {s.text for s in doc.sentences[:max_sentences]}
    assert printed and all(text in kept for text in printed)
    # the directly built RunConfig works out its FFN width: 4 * d_model
    assert namespace["model"].parameters()["layer0.ffn_inner.weight"].data.shape == (128, 32)
