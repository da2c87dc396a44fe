"""Sentence feature embeddings and the document embedding.

Five feature channels accompany the sentence representation itself: bucketed
character length, document position, section index (each an embedding lookup
followed by ReLU(Linear(·))), inter-sentence correlation, and saliency
against a softmax-weighted document embedding.  All of them produce an
n × d matrix so the score predictor can combine them by plain addition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import Document


@dataclass
class FeatureParams:
    length_table: ad.Tensor        # [B_len x d]
    position_table: ad.Tensor      # [B_pos x d]
    section_table: ad.Tensor       # [S_max x d]
    length_linear: ad.Linear
    position_linear: ad.Linear
    section_linear: ad.Linear
    correlation_linear: ad.Linear
    saliency_linear: ad.Linear
    correlation_matrix: ad.Tensor  # [d x d], checkpointed as W_c
    saliency_matrix: ad.Tensor     # [d x d], checkpointed as W_s
    doc_weight: ad.Tensor          # [d x 1], checkpointed as W_sents
    length_bucket_width: int = 10


def init_feature_params(
    rng: np.random.Generator,
    d: int,
    len_buckets: int,
    pos_buckets: int,
    s_max: int,
    len_bucket_width: int = 10,
) -> FeatureParams:
    return FeatureParams(
        length_table=ad.init_param(rng, (len_buckets, d)),
        position_table=ad.init_param(rng, (pos_buckets, d)),
        section_table=ad.init_param(rng, (s_max, d)),
        length_linear=ad.init_linear(rng, d, d),
        position_linear=ad.init_linear(rng, d, d),
        section_linear=ad.init_linear(rng, d, d),
        correlation_linear=ad.init_linear(rng, d, d),
        saliency_linear=ad.init_linear(rng, d, d),
        correlation_matrix=ad.init_param(rng, (d, d)),
        saliency_matrix=ad.init_param(rng, (d, d)),
        doc_weight=ad.init_param(rng, (d, 1)),
        length_bucket_width=len_bucket_width,
    )


def _embedded_feature(table: ad.Tensor, lin: ad.Linear, indices: np.ndarray) -> ad.Tensor:
    rows = ad.gather_rows(table, indices)
    return ad.relu(lin(rows))


def length_bucket(char_length, n_buckets: int, width: int = 10):
    """Bucket ⌊c / width⌋ of a character length c, or of each in an array,
    capped at the last of n_buckets."""
    c = np.asarray(char_length, dtype=np.int64)
    if c.size and c.min() < 0:
        raise ValueError(f"char_length must be >= 0, got {int(c.min())}")
    return np.minimum(c // width, n_buckets - 1)


def length_features(char_lengths: np.ndarray, params: FeatureParams) -> ad.Tensor:
    """Batched bucketed-length feature, one row per sentence."""
    buckets = length_bucket(char_lengths, params.length_table.shape[0], params.length_bucket_width)
    return _embedded_feature(params.length_table, params.length_linear, buckets)


def position_features(positions: np.ndarray, params: FeatureParams) -> ad.Tensor:
    idx = ad.clamp_indices(positions, params.position_table.shape[0], warn_label="position feature")
    return _embedded_feature(params.position_table, params.position_linear, idx)


def section_features(section_indices: np.ndarray, params: FeatureParams) -> ad.Tensor:
    idx = ad.clamp_indices(section_indices, params.section_table.shape[0], warn_label="section feature")
    return _embedded_feature(params.section_table, params.section_linear, idx)


def correlation_feature(sent_vecs: ad.Tensor, params: FeatureParams) -> ad.Tensor:
    """ReLU(Linear(C · E)) with C = tanh(E · W_c · Eᵀ), the n×n correlation map."""
    if sent_vecs.ndim != 2 or sent_vecs.shape[1] != params.correlation_matrix.shape[0]:
        raise ad.DimensionError(
            f"correlation_feature: {sent_vecs.shape} incompatible with "
            f"W_c {params.correlation_matrix.shape}"
        )
    corr = ad.tanh(ad.matmul(ad.matmul(sent_vecs, params.correlation_matrix), ad.transpose(sent_vecs)))
    return ad.relu(params.correlation_linear(ad.matmul(corr, sent_vecs)))


def document_embedding(sent_vecs: ad.Tensor, doc_weight: ad.Tensor) -> ad.Tensor:
    """(1/n) · Σ softmax(E·W)_i · E_i — note the deliberate double
    normalization (softmax weights and the extra 1/n); downstream learned
    layers absorb the scale."""
    if sent_vecs.ndim != 2 or doc_weight.shape != (sent_vecs.shape[1], 1):
        raise ad.DimensionError(
            f"document_embedding: {sent_vecs.shape} incompatible with weight {doc_weight.shape}"
        )
    n, d = sent_vecs.shape
    weights = ad.softmax(ad.matmul(sent_vecs, doc_weight), axis=0)
    weighted = ad.matmul(ad.transpose(weights), sent_vecs)
    return ad.reshape(ad.scale(weighted, 1.0 / n), (d,))


def saliency_feature(sent_vecs: ad.Tensor, doc_vec: ad.Tensor, params: FeatureParams) -> ad.Tensor:
    """ReLU(Linear(s ⊙ E)) where s = tanh(E · W_s · E_D) scales each row."""
    n, d = sent_vecs.shape
    if doc_vec.shape != (d,):
        raise ad.DimensionError(
            f"saliency_feature: document vector {doc_vec.shape} incompatible with d={d}"
        )
    column = ad.reshape(doc_vec, (d, 1))
    sal = ad.tanh(ad.matmul(ad.matmul(sent_vecs, params.saliency_matrix), column))
    return ad.relu(params.saliency_linear(ad.mul(sal, sent_vecs)))


@dataclass(frozen=True)
class FeatureIndices:
    """Table rows of the three embedded channels, one per sentence."""

    length: np.ndarray    # length bucket
    position: np.ndarray  # document position, clamped to the table
    section: np.ndarray   # section index, clamped to the table (the encoder's section rows too)


def feature_indices(doc: Document, params: FeatureParams) -> FeatureIndices:
    sentences = doc.sentences
    positions = np.array([s.doc_position for s in sentences], dtype=np.int64)
    sections = np.array([s.section_index for s in sentences], dtype=np.int64)
    return FeatureIndices(
        length=length_bucket(
            np.array([s.char_length for s in sentences], dtype=np.int64),
            params.length_table.shape[0],
            params.length_bucket_width,
        ),
        position=ad.clamp_indices(positions, params.position_table.shape[0], warn_label="position feature"),
        section=ad.clamp_indices(sections, params.section_table.shape[0], warn_label="section feature"),
    )


def all_features(
    doc: Document, sent_vecs: ad.Tensor, params: FeatureParams, indices: FeatureIndices | None = None
) -> dict[str, ad.Tensor]:
    """The five feature matrices for a document given its sentence vectors.

    `indices` is `feature_indices(doc, params)`, built here when not given.
    """
    if indices is None:
        indices = feature_indices(doc, params)
    doc_vec = document_embedding(sent_vecs, params.doc_weight)
    return {
        "length": _embedded_feature(params.length_table, params.length_linear, indices.length),
        "position": _embedded_feature(params.position_table, params.position_linear, indices.position),
        "section": _embedded_feature(params.section_table, params.section_linear, indices.section),
        "correlation": correlation_feature(sent_vecs, params),
        "saliency": saliency_feature(sent_vecs, doc_vec, params),
    }
