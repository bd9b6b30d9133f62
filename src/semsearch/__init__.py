"""Semantic search over tabular text: embeddings, ANN index, evaluation."""

import os

# One BLAS thread unless the user chose otherwise: a query's matrix-vector
# product is too small to gain from more, and an unpinned one swings by
# 10x with the machine's load. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

from .ann import IndexConfig, build_index, load_index, save_index  # noqa: E402
from .corpus import (  # noqa: E402
    build_vocab,
    encode_sentences,
    load_csv,
    load_records,
    save_records,
)
from .embeddings import TrainConfig, load_model, save_model, train  # noqa: E402
from .errors import SemSearchError  # noqa: E402
from .evaluate import ExactOracle, gen_synthetic  # noqa: E402
from .search import SearchEngine, build_engine, embed_query  # noqa: E402

__all__ = [
    "ExactOracle",
    "IndexConfig",
    "SearchEngine",
    "SemSearchError",
    "TrainConfig",
    "build_engine",
    "build_index",
    "build_vocab",
    "embed_query",
    "encode_sentences",
    "gen_synthetic",
    "load_csv",
    "load_index",
    "load_model",
    "load_records",
    "save_index",
    "save_model",
    "save_records",
    "train",
]
