"""Section-aware extractive summarization for long documents.

The pipeline: JSONL corpus ingestion → ROUGE-oracle sentence labels → a
scoring model (hash-stub sentence encoder, additive sentence embeddings,
sliding-window + global sparse attention layers, five feature channels)
trained with cross-entropy or reward-weighted cross-entropy →
budgeted, trigram-blocked sentence selection.
"""

__version__ = "0.1.0"

from .config import RunConfig, model_hash, resolve_config
from .corpus import Document, LabeledDocument, Section, Sentence, tokenize
from .extractor import SelectionConfig, select_sentences
from .model import Model
from .rouge import oracle_labels, reward, rouge_l, rouge_n

__all__ = [
    "Document",
    "LabeledDocument",
    "Model",
    "RunConfig",
    "Section",
    "SelectionConfig",
    "Sentence",
    "model_hash",
    "oracle_labels",
    "resolve_config",
    "reward",
    "rouge_l",
    "rouge_n",
    "select_sentences",
    "tokenize",
    "__version__",
]
