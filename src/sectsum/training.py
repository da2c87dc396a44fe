"""Losses, NOAM scheduling, gradient accumulation/clipping, and the loop.

Batch size is one document; gradients accumulate across a fixed number of
documents before each SGD step under the NOAM learning-rate curve, and the
partial batch left at an epoch boundary is flushed (applied) so no gradient
ever crosses epochs.  In reinforced mode each document's loss is the mean of
reward-weighted cross-entropies over sampled candidate summaries.
The loop reads its settings from the run's RunConfig (`TrainConfig` is
another name for it) and the architecture from the model's.

An update works on the model's parameter store (:attr:`Model.store`) in
place: the global gradient norm (each parameter's sum of squares, added in
parameter order), one scaling of the gradient vector when the clip fires,
``grad *= lr`` then ``data -= grad``, and one fill to clear it.  These are
the roundings the per-tensor ``data - lr * grad`` made, so every output
keeps its bits.  Each document's graph is freed before the update.

Documents are trained one after another in this process, as each update
feeds the next.  Once every plan is built nothing is encoded again, so the
model's encoder is replaced by a fresh one, freeing the token vectors that
planning drew.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .config import RunConfig
from .corpus import LabeledDocument, tokenize, write_table
from .encoder import StubEncoder
from .extractor import SentenceScores, select_sentences
from .model import DocumentPlan, Model
from .rouge import CandidateSet, rouge_l, rouge_n, sample_candidates, stable_seed

log = logging.getLogger(__name__)


class TrainingError(RuntimeError):
    pass


TrainConfig = RunConfig


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def ce_loss(p: SentenceScores | ad.Tensor, labels) -> ad.Tensor:
    """Binary cross-entropy summed over sentences: -Σ [y·log p + (1-y)·log(1-p)].

    The two label groups are gathered separately so a saturated probability on
    the *correct* side contributes exactly 0 rather than 0·(-inf).
    """
    probs = p.p if isinstance(p, SentenceScores) else p
    y = np.asarray(labels, dtype=np.int64)
    n = probs.shape[0]
    if probs.ndim != 1 or y.shape != (n,):
        raise ValueError(f"ce_loss: scores shape {probs.shape} vs labels shape {y.shape}")
    pos = np.nonzero(y == 1)[0]
    neg = np.nonzero(y == 0)[0]
    terms = []
    if pos.size:
        terms.append(ad.tsum(ad.log(ad.gather_rows(probs, pos))))
    if neg.size:
        one_minus = ad.add(1.0, ad.neg(ad.gather_rows(probs, neg)))
        terms.append(ad.tsum(ad.log(one_minus)))
    return ad.neg(terms[0] if len(terms) == 1 else ad.add(*terms))


def reinforced_loss(p: SentenceScores | ad.Tensor, candidate_labels, reward_value: float) -> ad.Tensor:
    """Reward-scaled cross-entropy against one candidate labeling."""
    if not 0.0 <= reward_value <= 1.0:
        raise ValueError(f"reward must be in [0, 1], got {reward_value}")
    return ad.scale(ce_loss(p, candidate_labels), reward_value)


def candidate_loss(p: SentenceScores, candidates: CandidateSet) -> ad.Tensor:
    """Mean reward-weighted CE over a sampled candidate set."""
    terms = [reinforced_loss(p, c.labels, c.reward.value) for c in candidates.candidates]
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return ad.scale(total, 1.0 / len(terms))


# ---------------------------------------------------------------------------
# optimization pieces
# ---------------------------------------------------------------------------


def noam_lr(step: int, d_model: int, warmup: int, scale: float = 1.0) -> float:
    """scale · d_model^-0.5 · min(step^-0.5, step · warmup^-1.5), peak at warmup."""
    if step < 1:
        raise ValueError(f"noam_lr: step must be >= 1, got {step}")
    if warmup < 1:
        raise ValueError(f"noam_lr: warmup must be >= 1, got {warmup}")
    return scale * d_model ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


def clip_gradients(store: ad.ParamStore, max_norm: float) -> float:
    """Global-L2 clip of the store's gradients in place; returns the applied scale factor."""
    norm = store.grad_norm()
    if norm <= max_norm or norm == 0.0:
        return 1.0
    factor = max_norm / norm
    store.grad *= factor
    return factor


def sgd_step(store: ad.ParamStore, lr: float) -> None:
    """data -= lr * grad over the whole store; it leaves lr * grad in the
    gradient vector, for ``zero_grads`` to clear.  A parameter with no
    gradient is updated by ``-= 0.0``, which keeps its bits."""
    store.grad *= lr
    store.data -= store.grad


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    metrics: list[dict] = field(default_factory=list)
    holdout_ids: list[str] = field(default_factory=list)
    updates: int = 0
    flush_updates: int = 0


def split_holdout(
    dataset: list[LabeledDocument], ratio: float, seed: int
) -> tuple[list[LabeledDocument], list[LabeledDocument]]:
    order = np.random.default_rng(stable_seed(seed, "holdout-split")).permutation(len(dataset))
    n_hold = int(round(ratio * len(dataset)))
    hold_idx = set(int(i) for i in order[:n_hold])
    train = [dataset[i] for i in range(len(dataset)) if i not in hold_idx]
    hold = [dataset[i] for i in sorted(hold_idx)]
    return train, hold


def _candidates(item: LabeledDocument, plan: DocumentPlan, cfg: RunConfig) -> CandidateSet:
    """The reinforced candidate set of one training document, sampled from its plan's document."""
    return sample_candidates(
        plan.doc,
        np.asarray(item.labels[: plan.doc.n_sentences], dtype=np.int64),
        cfg.candidates_k,
        seed=stable_seed(cfg.seed, "candidates", plan.doc.id),
    )


def _doc_loss(model: Model, item: LabeledDocument, plan: DocumentPlan,
              cands: CandidateSet | None) -> ad.Tensor:
    scores = model.forward(plan.doc, plan)
    if cands is not None:
        return candidate_loss(scores, cands)
    return ce_loss(scores, item.labels[: plan.doc.n_sentences])  # plan.doc is truncated to max_sentences


def evaluate_split(
    model: Model,
    items: list[LabeledDocument],
    cfg: RunConfig,
    plans: list[DocumentPlan],
    references: list[list[str]],
) -> dict:
    """Frozen-parameter evaluation: mean CE loss + selection ROUGE recalls.

    `plans` and `references` hold each item's plan and tokenized reference
    summary.
    """
    losses, r1s, r2s, rls = [], [], [], []
    with ad.no_grad():
        for item, plan, ref_tokens in zip(items, plans, references):
            scores = model.forward(plan.doc, plan)
            losses.append(float(ce_loss(scores, item.labels[: plan.doc.n_sentences]).data))
            picked = select_sentences(plan.doc, scores, cfg)
            sentences = plan.doc.sentences
            cand_tokens: list[str] = []
            for i in picked:
                cand_tokens.extend(sentences[i].tokens)
            r1s.append(rouge_n(cand_tokens, ref_tokens, 1).recall)
            r2s.append(rouge_n(cand_tokens, ref_tokens, 2).recall)
            rls.append(rouge_l(cand_tokens, ref_tokens).recall)
    return {
        "loss": float(np.mean(losses)) if losses else 0.0,
        "rouge1_recall": float(np.mean(r1s)) if r1s else 0.0,
        "rouge2_recall": float(np.mean(r2s)) if r2s else 0.0,
        "rougeL_recall": float(np.mean(rls)) if rls else 0.0,
    }


def train(model: Model, dataset: list[LabeledDocument], cfg: RunConfig) -> TrainResult:
    """Run the full loop; deterministic given (dataset order, config, seed).

    With no holdout the shortest training document is scored after the last
    update, so a diverged model raises TrainingError rather than returning.
    """
    if not dataset:
        raise ValueError("train: dataset is empty")
    train_set, holdout = split_holdout(dataset, cfg.holdout_ratio, cfg.seed)
    if not train_set:
        raise ValueError("train: holdout ratio left no training documents")
    result = TrainResult(holdout_ids=[it.document.id for it in holdout])
    d_model = model.cfg.d_model
    epoch_rng = np.random.default_rng(stable_seed(cfg.seed, "epoch-order"))
    # parameter-free inputs, built once and reused by every epoch
    train_plans = [model.plan(item.document) for item in train_set]
    train_cands = [_candidates(item, plan, cfg) if cfg.reinforced else None
                   for item, plan in zip(train_set, train_plans)]
    holdout_plans = [model.plan(item.document) for item in holdout]
    holdout_refs = [tokenize(item.document.reference_summary) for item in holdout]
    # nothing is encoded after this: a later plan draws the same vectors again
    model.encoder = StubEncoder(model.encoder.d, model.encoder.seed)

    pending = 0
    last_lr = 0.0

    def apply_update(flush: bool) -> None:
        nonlocal pending, last_lr
        clip_gradients(model.store, cfg.clip_norm)
        step = result.updates + 1
        last_lr = noam_lr(step, d_model, cfg.warmup_steps, cfg.lr_scale)
        sgd_step(model.store, last_lr)
        model.zero_grads()
        result.updates += 1
        if flush:
            result.flush_updates += 1
        pending = 0

    for epoch in range(1, cfg.epochs + 1):
        order = epoch_rng.permutation(len(train_set))
        epoch_losses = []
        for idx in order:
            item = train_set[int(idx)]
            loss = _doc_loss(model, item, train_plans[int(idx)], train_cands[int(idx)])
            loss_val = float(loss.data)
            if not math.isfinite(loss_val):
                raise TrainingError(
                    f"non-finite loss {loss_val} at epoch {epoch}, update {result.updates + 1}, "
                    f"doc {item.document.id}"
                )
            epoch_losses.append(loss_val)
            ad.backward(loss)
            del loss  # free this graph before the next forward builds one
            pending += 1
            if pending == cfg.accumulation_steps:
                apply_update(flush=False)
        if pending:
            apply_update(flush=True)  # partial batch at epoch end

        train_row = {
            "epoch": epoch, "split": "train", "loss": float(np.mean(epoch_losses)),
            "rouge1_recall": "", "rouge2_recall": "", "rougeL_recall": "", "lr": last_lr,
        }
        result.metrics.append(train_row)
        if holdout:
            ev = evaluate_split(model, holdout, cfg, holdout_plans, holdout_refs)
            if not math.isfinite(ev["loss"]):
                raise TrainingError(f"non-finite holdout loss {ev['loss']} at epoch {epoch}")
            result.metrics.append({"epoch": epoch, "split": "holdout", "lr": last_lr, **ev})
        log.info(
            "epoch %d: train loss %.4f%s", epoch, train_row["loss"],
            f", holdout loss {result.metrics[-1]['loss']:.4f}" if holdout else "",
        )
    if not holdout:
        plan = min(train_plans, key=lambda pl: pl.doc.n_sentences)
        with ad.no_grad():
            scores = model.forward(plan.doc, plan)
        if not np.isfinite(scores.values).all():
            raise TrainingError(f"doc {plan.doc.id}: non-finite sentence scores after the last update")
    return result


def write_metrics_csv(rows: list[dict], path, config_hash: str) -> None:
    columns = ["epoch", "split", "loss", "rouge1_recall", "rouge2_recall", "rougeL_recall", "lr"]
    write_table(path, config_hash, columns, ([_fmt(row.get(c, "")) for c in columns] for row in rows), ",")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
