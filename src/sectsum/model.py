"""End-to-end scoring model: encoder → sparse attention stack → features → p.

Owns every learned tensor under a stable name so training, checkpointing and
the CLI all see one flat parameter dict.  Construction order (and therefore
update order) is fixed, and all randomness flows from the run seed, which is
what makes two identically-configured training runs bit-identical.

The parameters' values live in one float64 vector and their gradients in
another (:class:`sectsum.autodiff.ParamStore`, :attr:`Model.store`): each
tensor's ``.data`` is a view into the first, and a backward adds into its
view of the second, so `train` updates every parameter in place with a few
whole-vector passes.  :meth:`Model.load_state` copies into the same views.

A forward pass splits in two: :meth:`Model.plan` does the work that depends
only on the document and the config (truncation, encoding, the mask, table
rows), and :meth:`Model.forward` the work that uses parameters.  The planned
inputs are the very arrays the forward would have built itself, so a reused
plan gives the same bits as a fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import (
    AttentionMask,
    AttentionParams,
    build_attention_mask,
    init_attention_params,
    select_global,
    transformer_layer,
)
from .checkpoint import CheckpointError
from .config import RunConfig, model_hash
from .corpus import Document, truncate_document
from .encoder import StubEncoder, compose_embeddings, encode_sentences, sinusoid_table
from .extractor import SentenceScores, predict_scores
from .features import FeatureIndices, FeatureParams, all_features, feature_indices, init_feature_params
from .rouge import stable_seed


@dataclass(frozen=True)
class DocumentPlan:
    """The parameter-free inputs of one document's forward pass.

    Built by :meth:`Model.plan` and valid for models of the same config; a
    plan held across epochs saves re-encoding, and re-warning about, the
    same document.
    """

    doc: Document                 # truncated to max_sentences
    base: ad.Tensor               # semantic + sinusoid position, [n x d]
    parity: np.ndarray            # segment-table row per sentence
    mask: AttentionMask
    pad: ad.Tensor | None         # zero rows from n up to mask.padded_len
    features: FeatureIndices


class Model:
    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.hash = model_hash(cfg)
        self.encoder = StubEncoder(cfg.d_model, cfg.encoder_seed)
        rng = np.random.default_rng(cfg.seed)
        d = cfg.d_model

        self.segment_table = ad.init_param(rng, (2, d))
        self.encoder_section_table = ad.init_param(rng, (cfg.s_max, d))
        self.layers: list[AttentionParams] = [
            init_attention_params(rng, d, cfg.heads, cfg.ffn_dim) for _ in range(cfg.layers)
        ]
        self.features: FeatureParams = init_feature_params(
            rng,
            d,
            len_buckets=cfg.len_buckets,
            pos_buckets=cfg.max_sentences,
            s_max=cfg.s_max,
            len_bucket_width=cfg.len_bucket_width,
        )
        out_width = d if cfg.combine == "sum" else 6 * d
        self.output_layer = ad.init_linear(rng, 1, out_width)
        self._params = self._collect_params()
        self.store = ad.ParamStore(self._params.values())

    # -- parameter registry ------------------------------------------------
    def _collect_params(self) -> dict[str, ad.Tensor]:
        params: dict[str, ad.Tensor] = {
            "segment_table": self.segment_table,
            "encoder_section_table": self.encoder_section_table,
        }
        for li, layer in enumerate(self.layers):
            prefix = f"layer{li}"
            for hi, head in enumerate(layer.heads):
                for part in ("query", "key", "value", "global_query", "global_key", "global_value"):
                    lin: ad.Linear = getattr(head, part)
                    params[f"{prefix}.head{hi}.{part}.weight"] = lin.weight
                    params[f"{prefix}.head{hi}.{part}.bias"] = lin.bias
            for part in ("output", "ffn_inner", "ffn_outer"):
                lin = getattr(layer, part)
                params[f"{prefix}.{part}.weight"] = lin.weight
                params[f"{prefix}.{part}.bias"] = lin.bias
            params[f"{prefix}.attn_norm.gain"] = layer.attn_gain
            params[f"{prefix}.attn_norm.bias"] = layer.attn_bias
            params[f"{prefix}.ffn_norm.gain"] = layer.ffn_gain
            params[f"{prefix}.ffn_norm.bias"] = layer.ffn_bias
        feats = self.features
        params["length_table"] = feats.length_table
        params["position_table"] = feats.position_table
        params["feature_section_table"] = feats.section_table
        for part in ("length_linear", "position_linear", "section_linear",
                     "correlation_linear", "saliency_linear"):
            lin = getattr(feats, part)
            params[f"{part}.weight"] = lin.weight
            params[f"{part}.bias"] = lin.bias
        params["W_c"] = feats.correlation_matrix
        params["W_s"] = feats.saliency_matrix
        params["W_sents"] = feats.doc_weight
        params["output_layer.weight"] = self.output_layer.weight
        params["output_layer.bias"] = self.output_layer.bias
        return params

    def parameters(self) -> dict[str, ad.Tensor]:
        return self._params

    def zero_grads(self) -> None:
        self.store.zero_grads()

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy checkpoint arrays into the parameters' places in the store,
        strictly by name; all or nothing, as every shape is checked first."""
        missing = sorted(set(self._params) - set(arrays))
        extra = sorted(set(arrays) - set(self._params))
        if missing or extra:
            raise CheckpointError(
                f"checkpoint does not match this configuration "
                f"(missing: {missing[:5]}{'…' if len(missing) > 5 else ''}, "
                f"unexpected: {extra[:5]}{'…' if len(extra) > 5 else ''})"
            )
        for name, tensor in self._params.items():
            arr = arrays[name]
            if arr.shape != tensor.data.shape:
                raise CheckpointError(
                    f"parameter {name}: checkpoint shape {arr.shape} != model shape {tensor.data.shape}"
                )
        for name, tensor in self._params.items():
            tensor.data[...] = arrays[name]
        self.zero_grads()

    # -- forward -----------------------------------------------------------
    def global_positions(self, doc: Document) -> list[int]:
        """Global attention slots for a document, fixed under the run seed."""
        return select_global(
            doc.n_sentences,
            self.cfg.global_ratio,
            self.cfg.global_policy,
            seed=stable_seed(self.cfg.seed, "global", doc.id),
        )

    def plan(self, doc: Document) -> DocumentPlan:
        """Everything `forward` needs from `doc` that no parameter changes."""
        cfg = self.cfg
        if doc.n_sentences > cfg.max_sentences:
            doc = truncate_document(doc, cfg.max_sentences)
        n = doc.n_sentences
        semantic = encode_sentences(doc, self.encoder, cfg.max_chunk_tokens)
        mask = build_attention_mask([n], cfg.window, [self.global_positions(doc)])
        return DocumentPlan(
            doc=doc,
            base=ad.Tensor(semantic + sinusoid_table(n, cfg.d_model)),
            parity=np.arange(n, dtype=np.int64) % 2,
            mask=mask,
            pad=ad.Tensor(np.zeros((mask.padded_len - n, cfg.d_model))) if mask.padded_len > n else None,
            features=feature_indices(doc, self.features),
        )

    def forward(self, doc: Document, plan: DocumentPlan | None = None) -> SentenceScores:
        """Sentence scores for `doc`; `plan` is `self.plan(doc)`, built here when not given."""
        if plan is None:
            plan = self.plan(doc)
        elif plan.doc.id != doc.id:
            raise ValueError(f"plan for document {plan.doc.id!r} passed with document {doc.id!r}")
        # the feature table has s_max rows too, so its clamped section rows serve both tables
        embedded = compose_embeddings(
            plan.base, plan.parity, plan.features.section, self.segment_table, self.encoder_section_table
        )
        h = embedded if plan.pad is None else ad.concat([embedded, plan.pad], axis=0)
        for layer in self.layers:
            h = transformer_layer(h, plan.mask, layer)
        sent_vecs = ad.narrow(h, 0, 0, plan.doc.n_sentences)

        feats = all_features(plan.doc, sent_vecs, self.features, plan.features)
        return predict_scores(
            sent_vecs,
            feats["length"],
            feats["position"],
            feats["section"],
            feats["correlation"],
            feats["saliency"],
            self.output_layer,
            combine=self.cfg.combine,
        )
