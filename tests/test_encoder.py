"""Stub sentence encoder, sinusoid table, document encoding, composition."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    DATA_DIR,
    doc_from_sections,
    load_perfbench_gen,
    per_token_encode,
    semantic_matrix_bytes,
    sinusoid_rows,
    write_oracle_summaries,
)
from sectsum import autodiff as ad
from sectsum.autodiff import DimensionError, Tensor
from sectsum.cli import main
from sectsum.config import RunConfig, resolve_config
from sectsum.encoder import (
    StubEncoder,
    compose_embeddings,
    encode_sentences,
    pcg64_states,
    sinusoid_table,
)
from sectsum.model import Model

# ---------------------------------------------------------------------------
# stub encoder
# ---------------------------------------------------------------------------


def test_stub_encoder_deterministic_across_instances():
    a = StubEncoder(d=8, seed=3).encode([["hello", "world"]])
    b = StubEncoder(d=8, seed=3).encode([["hello", "world"]])
    assert (a == b).all()


def test_stub_encoder_seed_and_token_sensitivity():
    base = StubEncoder(d=8, seed=0).encode([["hello"]])
    other_seed = StubEncoder(d=8, seed=1).encode([["hello"]])
    other_token = StubEncoder(d=8, seed=0).encode([["goodbye"]])
    assert not (base == other_seed).all()
    assert not (base == other_token).all()


def test_stub_encoder_sentence_is_token_mean():
    enc = StubEncoder(d=4, seed=0)
    single = enc.encode([["cat"], ["dog"]])
    both = enc.encode([["cat", "dog"]])
    np.testing.assert_allclose(both[0], (single[0] + single[1]) / 2.0)


def test_stub_encoder_empty_sentence_is_zero():
    enc = StubEncoder(d=4, seed=0)
    assert (enc.encode([[]]) == 0.0).all()


def test_stub_encoder_order_independence_of_cache():
    enc = StubEncoder(d=4, seed=0)
    first = enc.encode([["a", "b"]]).copy()
    enc2 = StubEncoder(d=4, seed=0)
    enc2.encode([["b"], ["c"]])
    second = enc2.encode([["a", "b"]])
    np.testing.assert_array_equal(first, second)


def test_stub_encoder_validates_dimension():
    with pytest.raises(ValueError, match="positive"):
        StubEncoder(d=0)


# ---------------------------------------------------------------------------
# bulk encoding equals the per-token reference bit for bit
# ---------------------------------------------------------------------------

EDGE_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 2, 2**64 - 1]


def test_pcg64_states_equal_default_rng_at_edge_and_random_seeds():
    seeds = EDGE_SEEDS + [int(s) for s in np.random.default_rng(4).integers(0, 2**64, 300, dtype=np.uint64)]
    expected = [np.random.default_rng(s).bit_generator.state["state"] for s in seeds]
    assert list(pcg64_states(np.array(seeds, dtype=np.uint64))) == [(e["state"], e["inc"]) for e in expected]
    assert list(pcg64_states(np.array([], dtype=np.uint64))) == []


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# lower-case letters and digits, ASCII and not, as the tokenizer leaves them; a
# small alphabet makes repeated tokens within and across sentences common
TOKENS = st.text(alphabet="ab1éßж日", min_size=1, max_size=3)


@given(
    sentences=st.lists(st.lists(TOKENS, max_size=40), max_size=8),
    warm=st.lists(st.lists(TOKENS, max_size=10), max_size=4),
    d=st.sampled_from([2, 3, 8, 64]),
    seed=st.integers(min_value=-3, max_value=2**40),
)
@settings(max_examples=80, deadline=None)
def test_encode_equals_the_per_token_reference(sentences, warm, d, seed):
    enc = StubEncoder(d=d, seed=seed)
    enc.encode(warm)  # the cache then holds some of the tokens, in another order
    assert _same_bits(enc.encode(sentences), per_token_encode(d, seed, sentences))


@pytest.mark.parametrize("max_chunk_tokens", [1, 7, 3072])
def test_encode_sentences_equals_the_reference_up_to_max_chunk_tokens(max_chunk_tokens):
    rng = np.random.default_rng(max_chunk_tokens)
    lengths = [max_chunk_tokens, 0, 1, max(1, max_chunk_tokens // 2), max_chunk_tokens]
    texts = [" ".join(f"w{int(i)}" for i in rng.integers(0, 400, n)) for n in lengths]
    doc = doc_from_sections("d", [texts[:2], texts[2:]])
    enc = StubEncoder(d=16, seed=2)
    got = encode_sentences(doc, enc, max_chunk_tokens)
    assert _same_bits(got, per_token_encode(16, 2, [s.tokens for s in doc.sentences]))
    assert _same_bits(encode_sentences(doc, enc, max_chunk_tokens), got)  # warm cache


def test_one_wide_vectors_equal_the_mean_within_rounding():
    # at d = 1 np.mean sums a sentence's tokens pairwise, the bulk encoder in order,
    # so the last bits may differ; no model reaches d = 1 (d_model is even)
    sentences = [[f"t{i % 37}" for i in range(n)] for n in (0, 1, 9, 200, 3072)]
    np.testing.assert_allclose(StubEncoder(d=1, seed=0).encode(sentences),
                               per_token_encode(1, 0, sentences), rtol=0, atol=1e-13)


@pytest.fixture(scope="module")
def seed1_inputs(tmp_path_factory):
    """Every raw corpus and run.cfg of the seed-1 benchmark workloads, by workload name."""
    gen = load_perfbench_gen()
    root = tmp_path_factory.mktemp("seed1")
    return {name: gen.workload_files(w, 1, root / name) for name, w in gen.WORKLOADS.items()}


def _recorded(name: str) -> dict:
    return dict(line.split()[::-1] for line in (DATA_DIR / name).read_text().splitlines())


def test_semantic_matrices_of_the_benchmark_corpora_keep_their_bytes(seed1_inputs):
    """The recorded SHA-256s were taken with the per-token encoder."""
    got = {}
    for name, paths in seed1_inputs.items():
        for prefix in ("", "train_"):
            raw = paths.get(f"{prefix}raw")
            if raw is not None:
                data = semantic_matrix_bytes(paths["config"], raw)
                got[f"{name}/{prefix}semantic.f64"] = hashlib.sha256(data).hexdigest()
    assert got == _recorded("semantic.sha256")


def test_oracle_labels_of_the_benchmark_corpora_keep_their_bytes(seed1_inputs):
    """`ingest` and `label` on each seed-1 corpus give the recorded labels files, and the
    ingested corpora the recorded semantic matrices."""
    got, semantic = {}, {}
    for name, paths in seed1_inputs.items():
        work = paths["config"].parent
        for prefix in ("", "train_"):
            raw = paths.get(f"{prefix}raw")
            if raw is not None:
                cfg = ["--config", str(paths["config"])]
                corpus, labels = work / f"{prefix}corpus.jsonl", work / f"{prefix}labels.jsonl"
                assert main(["ingest", *cfg, "--input", str(raw), "--out", str(corpus)]) == 0
                assert main(["label", *cfg, "--corpus", str(corpus), "--out", str(labels)]) == 0
                got[f"{name}/{prefix}labels.jsonl"] = hashlib.sha256(labels.read_bytes()).hexdigest()
                data = semantic_matrix_bytes(paths["config"], corpus)
                semantic[f"{name}/{prefix}semantic.f64"] = hashlib.sha256(data).hexdigest()
    assert got == _recorded("labels.sha256")
    assert semantic == _recorded("semantic.sha256")


def test_scores_of_the_oracle_extracts_of_the_benchmark_corpora_keep_their_bytes(seed1_inputs):
    """`evaluate` of each seed-1 corpus's oracle extract (its labelled sentences, no
    checkpoint, so no BLAS) gives the recorded scores table.  Those extracts score
    1.000000 throughout, so each labelled sentence's successor is scored too."""
    got = {}
    for name, paths in seed1_inputs.items():
        work = paths["config"].parent / "oracle"
        work.mkdir()
        for prefix in ("", "train_"):
            raw = paths.get(f"{prefix}raw")
            if raw is not None:
                cfg = ["--config", str(paths["config"])]
                corpus, labels = work / f"{prefix}corpus.jsonl", work / f"{prefix}labels.jsonl"
                assert main(["ingest", *cfg, "--input", str(raw), "--out", str(corpus)]) == 0
                assert main(["label", *cfg, "--corpus", str(corpus), "--out", str(labels)]) == 0
                for shift, kind in ((0, "scores"), (1, "shifted_scores")):
                    summaries, scores = work / f"{prefix}{kind}.jsonl", work / f"{prefix}{kind}.tsv"
                    write_oracle_summaries(paths["config"], corpus, labels, summaries, shift)
                    assert main(["evaluate", *cfg, "--summaries", str(summaries),
                                 "--corpus", str(corpus), "--out", str(scores)]) == 0
                    got[f"{name}/{scores.name}"] = hashlib.sha256(scores.read_bytes()).hexdigest()
    assert got == _recorded("scores.sha256")


def test_model_encodes_with_the_configured_stub():
    enc = Model(resolve_config(None, {"d_model": 6, "heads": 2, "encoder_seed": 9})).encoder
    assert isinstance(enc, StubEncoder)
    assert enc.d == 6 and enc.seed == 9


# ---------------------------------------------------------------------------
# sinusoid positions
# ---------------------------------------------------------------------------


def test_sinusoid_table_row_zero_alternates_zero_one():
    np.testing.assert_array_equal(sinusoid_table(1, 6)[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


def test_sinusoid_table_row_one_fixture():
    vec = sinusoid_table(2, 4)[1]
    assert vec[0] == pytest.approx(math.sin(1.0))
    assert vec[1] == pytest.approx(math.cos(1.0))
    assert vec[2] == pytest.approx(math.sin(1.0 / 10000.0 ** (2.0 / 4.0)))
    assert vec[3] == pytest.approx(math.cos(1.0 / 10000.0 ** (2.0 / 4.0)))


def test_sinusoid_table_validates_arguments():
    for n in (0, 1, 2, 40):
        with pytest.raises(ValueError, match="sinusoid_table: d must be even"):
            sinusoid_table(n, 3)
    with pytest.raises(ValueError, match="sinusoid_table: n"):
        sinusoid_table(-1, 4)


def test_sinusoid_table_shapes():
    assert sinusoid_table(0, 4).shape == (0, 4)
    assert sinusoid_table(3, 4).shape == (3, 4)


@pytest.mark.parametrize("n", [0, 1, 40, 500])
@pytest.mark.parametrize("d", [2, 64])
def test_sinusoid_table_equals_row_by_row_reference(n, d):
    assert np.array_equal(sinusoid_table(n, d), sinusoid_rows(n, d))


@given(st.integers(min_value=0, max_value=500), st.sampled_from([2, 8, 64]))
@settings(max_examples=40)
def test_sinusoid_entries_bounded(pos, d):
    vec = sinusoid_table(pos + 1, d)[pos]
    assert np.all(np.abs(vec) <= 1.0)


# ---------------------------------------------------------------------------
# document encoding
# ---------------------------------------------------------------------------


class SpyEncoder:
    """Stub wrapper that records every call to encode."""

    def __init__(self, d=4):
        self.d = d
        self.calls: list[list[tuple[str, ...]]] = []
        self.inner = StubEncoder(d=d, seed=0)

    def encode(self, sentences):
        self.calls.append([tuple(s) for s in sentences])
        return self.inner.encode(sentences)


def test_encode_sentences_matches_unchunked_result():
    doc = doc_from_sections(
        "d", [["one two three", "four five", "six"], ["seven eight", "nine ten eleven"]]
    )
    tight = encode_sentences(doc, StubEncoder(d=4, seed=0), max_chunk_tokens=3)
    loose = encode_sentences(doc, StubEncoder(d=4, seed=0), max_chunk_tokens=1000)
    np.testing.assert_allclose(tight, loose)
    assert tight.shape == (5, 4)


def test_encode_sentences_respects_budget_and_section_boundaries():
    doc = doc_from_sections("d", [["one two", "three four"], ["five six"]])
    enc = SpyEncoder()
    out = encode_sentences(doc, enc, max_chunk_tokens=2)
    # every sentence is at the budget; the one call crosses the section boundary in document order
    assert enc.calls == [[("one", "two"), ("three", "four"), ("five", "six")]]
    np.testing.assert_array_equal(out, StubEncoder(d=4, seed=0).encode([s.tokens for s in doc.sentences]))
    enc = SpyEncoder()
    with pytest.raises(ValueError, match="doc d: sentence 0 has 2 tokens, exceeding max_chunk_tokens=1"):
        encode_sentences(doc, enc, max_chunk_tokens=1)
    assert enc.calls == []


def test_encode_sentences_makes_one_call_when_budget_tight():
    doc = doc_from_sections("d", [["one two", "three four", "five"]])
    enc = SpyEncoder()
    out = encode_sentences(doc, enc, max_chunk_tokens=3)
    # five tokens in all exceed the budget of 3, yet no sentence does: nothing is split
    assert enc.calls == [[("one", "two"), ("three", "four"), ("five",)]]
    np.testing.assert_array_equal(out, encode_sentences(doc, StubEncoder(d=4, seed=0), max_chunk_tokens=1000))


def test_encode_sentences_oversize_sentence_raises():
    doc = doc_from_sections("d", [["one two three four"]])
    with pytest.raises(ValueError, match="exceeding max_chunk_tokens"):
        encode_sentences(doc, StubEncoder(d=4), max_chunk_tokens=3)


# ---------------------------------------------------------------------------
# embedding composition
# ---------------------------------------------------------------------------


def _tables(d, s_max):
    rng = np.random.default_rng(0)
    return (
        Tensor(rng.standard_normal((2, d))),
        Tensor(rng.standard_normal((s_max, d))),
    )


def _inputs(semantic, doc):
    """A plan's base, parity and section rows for a document whose sections fit the table."""
    n, d = semantic.shape
    section = np.array([s.section_index for s in doc.sentences], dtype=np.int64)
    return Tensor(semantic + sinusoid_table(n, d)), np.arange(n) % 2, section


def test_compose_embeddings_is_the_four_way_sum():
    doc = doc_from_sections("d", [["a b", "c d"], ["e f"]])
    d = 4
    segment, section = _tables(d, s_max=3)
    semantic = np.arange(3 * d, dtype=np.float64).reshape(3, d)
    out = compose_embeddings(*_inputs(semantic, doc), segment, section).data
    positions = sinusoid_table(3, d)
    for i, sent in enumerate(doc.sentences):
        expected = (
            semantic[i]
            + positions[i]
            + segment.data[i % 2]
            + section.data[sent.section_index]
        )
        np.testing.assert_allclose(out[i], expected)


def test_compose_embeddings_clamps_section_index(caplog):
    doc = doc_from_sections("d", [["a"], ["b"], ["c"]])  # three sections
    segment, section = _tables(4, s_max=2)
    model = Model(RunConfig(d_model=4, layers=1, heads=2, window=2, s_max=2))
    plan = model.plan(doc)
    out = compose_embeddings(plan.base, plan.parity, plan.features.section, segment, section).data
    # the plan clamps the section rows once, for the encoder's and the feature's table alike
    clamped = [r.message for r in caplog.records if "section" in r.message and "clamped" in r.message]
    assert len(clamped) == 1
    # sentence 2 (section 2) clamps to section row 1
    semantic = model.encoder.encode([s.tokens for s in doc.sentences])
    np.testing.assert_allclose(
        out[2], semantic[2] + sinusoid_table(3, 4)[2] + segment.data[0] + section.data[1]
    )


def test_compose_embeddings_validates_shapes():
    doc = doc_from_sections("d", [["a b", "c d"]])
    segment, section = _tables(4, s_max=2)
    with pytest.raises(DimensionError, match="inconsistent"):
        compose_embeddings(*_inputs(np.zeros((2, 4)), doc), Tensor(np.zeros((3, 4))), section)
    with pytest.raises(DimensionError, match="inconsistent"):
        compose_embeddings(*_inputs(np.zeros((2, 4)), doc), segment, Tensor(np.zeros((2, 3))))


def test_compose_embeddings_gradients_reach_tables():
    doc = doc_from_sections("d", [["a b", "c d", "e f"]])
    segment = Tensor(np.zeros((2, 4)), requires_grad=True)
    section = Tensor(np.zeros((1, 4)), requires_grad=True)
    out = compose_embeddings(*_inputs(np.zeros((3, 4)), doc), segment, section)
    ad.backward(ad.tsum(out))
    # parity 0 appears twice (positions 0 and 2), parity 1 once
    np.testing.assert_allclose(segment.grad[:, 0], [2.0, 1.0])
    np.testing.assert_allclose(section.grad[:, 0], [3.0])
