"""Sentence feature channels and the softmax-weighted document embedding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import doc_from_sections
from sectsum import autodiff as ad
from sectsum.autodiff import DimensionError, Tensor
from sectsum.features import (
    all_features,
    correlation_feature,
    document_embedding,
    init_feature_params,
    length_bucket,
    length_features,
    position_features,
    saliency_feature,
    section_features,
)


def _params(seed=0, d=4, len_buckets=5, pos_buckets=6, s_max=3, width=10):
    return init_feature_params(
        np.random.default_rng(seed), d, len_buckets, pos_buckets, s_max, width
    )


# ---------------------------------------------------------------------------
# bucketing
# ---------------------------------------------------------------------------


def test_length_bucket_boundaries():
    assert length_bucket(0, 5) == 0
    assert length_bucket(9, 5) == 0
    assert length_bucket(10, 5) == 1
    assert length_bucket(49, 5) == 4
    assert length_bucket(5000, 5) == 4  # clamps to last bucket
    assert length_bucket(7, 5, width=3) == 2


def test_length_bucket_rejects_negative():
    with pytest.raises(ValueError, match=">= 0"):
        length_bucket(-1, 5)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=50))
def test_length_bucket_in_range(char_length, n_buckets):
    assert 0 <= length_bucket(char_length, n_buckets) < n_buckets


# ---------------------------------------------------------------------------
# embedded feature channels
# ---------------------------------------------------------------------------


def test_embedded_features_match_manual_composition():
    params = _params()
    feats = length_features(np.array([0, 12, 999]), params)
    table, lin = params.length_table.data, params.length_linear
    expected_rows = table[[0, 1, 4]]
    expected = np.maximum(expected_rows @ lin.weight.data.T + lin.bias.data, 0.0)
    np.testing.assert_allclose(feats.data, expected)


def test_position_and_section_clamp_with_warning(caplog):
    params = _params(pos_buckets=4, s_max=2)
    np.testing.assert_allclose(
        position_features(np.array([9]), params).data,
        position_features(np.array([3]), params).data,
    )
    np.testing.assert_allclose(
        section_features(np.array([7]), params).data,
        section_features(np.array([1]), params).data,
    )
    assert sum("clamped" in r.message for r in caplog.records) == 2


def test_singular_variants_reject_negatives():
    # a single negative index anywhere in the batch is refused by clamp_indices
    params = _params()
    with pytest.raises(ValueError, match="position feature: negative index -1"):
        position_features(np.array([-1]), params)
    with pytest.raises(ValueError, match="section feature: negative index -2"):
        section_features(np.array([0, -2]), params)


def test_feature_channels_are_nonnegative():
    params = _params(seed=3)
    rng = np.random.default_rng(1)
    E = Tensor(rng.standard_normal((6, 4)))
    doc_vec = document_embedding(E, params.doc_weight)
    for feat in (
        length_features(np.array([5, 15, 25, 35, 45, 55]), params),
        position_features(np.arange(6), params),
        section_features(np.zeros(6, dtype=np.int64), params),
        correlation_feature(E, params),
        saliency_feature(E, doc_vec, params),
    ):
        assert feat.shape == (6, 4)
        assert (feat.data >= 0.0).all()


# ---------------------------------------------------------------------------
# correlation / document embedding / saliency against numpy oracles
# ---------------------------------------------------------------------------


def test_correlation_feature_matches_numpy_oracle():
    params = _params(seed=5)
    rng = np.random.default_rng(2)
    E = rng.standard_normal((5, 4))
    corr = np.tanh(E @ params.correlation_matrix.data @ E.T)
    mixed = corr @ E
    expected = np.maximum(
        mixed @ params.correlation_linear.weight.data.T + params.correlation_linear.bias.data, 0.0
    )
    got = correlation_feature(Tensor(E), params)
    np.testing.assert_allclose(got.data, expected, atol=1e-12)


def test_document_embedding_matches_numpy_oracle():
    params = _params(seed=6)
    rng = np.random.default_rng(3)
    E = rng.standard_normal((7, 4))
    logits = E @ params.doc_weight.data  # (7, 1)
    w = np.exp(logits - logits.max())
    w = w / w.sum()
    expected = (w[:, 0] @ E) / 7.0
    got = document_embedding(Tensor(E), params.doc_weight)
    assert got.shape == (4,)
    np.testing.assert_allclose(got.data, expected, atol=1e-12)


def test_document_embedding_constant_rows_returns_scaled_row():
    v = np.array([1.0, -2.0, 0.5, 3.0])
    E = np.tile(v, (5, 1))
    got = document_embedding(Tensor(E), Tensor(np.zeros((4, 1))))
    np.testing.assert_allclose(got.data, v / 5.0, atol=1e-12)


def test_saliency_feature_matches_numpy_oracle():
    params = _params(seed=7)
    rng = np.random.default_rng(4)
    E = rng.standard_normal((5, 4))
    doc_vec = rng.standard_normal(4)
    sal = np.tanh(E @ params.saliency_matrix.data @ doc_vec[:, None])  # (5, 1)
    expected = np.maximum(
        (sal * E) @ params.saliency_linear.weight.data.T + params.saliency_linear.bias.data, 0.0
    )
    got = saliency_feature(Tensor(E), Tensor(doc_vec), params)
    np.testing.assert_allclose(got.data, expected, atol=1e-12)


def test_feature_shape_validation():
    params = _params()
    with pytest.raises(DimensionError, match="correlation"):
        correlation_feature(Tensor(np.zeros((3, 5))), params)
    with pytest.raises(DimensionError, match="document_embedding"):
        document_embedding(Tensor(np.zeros((3, 5))), params.doc_weight)
    with pytest.raises(DimensionError, match="saliency"):
        saliency_feature(Tensor(np.zeros((3, 4))), Tensor(np.zeros(5)), params)


def test_all_features_keys_shapes_and_consistency():
    params = _params(seed=8)
    doc = doc_from_sections("d", [["alpha beta gamma", "delta"], ["epsilon zeta"]])
    rng = np.random.default_rng(5)
    E = Tensor(rng.standard_normal((3, 4)))
    feats = all_features(doc, E, params)
    assert sorted(feats) == ["correlation", "length", "position", "saliency", "section"]
    for mat in feats.values():
        assert mat.shape == (3, 4)
    np.testing.assert_allclose(
        feats["length"].data,
        length_features(np.array([s.char_length for s in doc.sentences]), params).data,
    )
    doc_vec = document_embedding(E, params.doc_weight)
    np.testing.assert_allclose(
        feats["saliency"].data, saliency_feature(E, doc_vec, params).data
    )


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "pick",
    ["correlation_matrix", "saliency_matrix", "doc_weight", "length_table"],
)
def test_feature_parameter_gradients_against_finite_differences(pick):
    params = _params(seed=9)
    rng = np.random.default_rng(6)
    E_data = rng.standard_normal((5, 4))
    doc = doc_from_sections("d", [["alpha beta", "gamma delta epsilon"], ["zeta", "eta theta", "iota"]])

    def loss(_t):
        E = Tensor(E_data)
        feats = all_features(doc, E, params)
        total = feats["length"]
        for key in ("position", "section", "correlation", "saliency"):
            total = ad.add(total, feats[key])
        return ad.tsum(ad.mul(total, total))

    target = getattr(params, pick)
    assert ad.grad_check(loss, target) < 1e-4
