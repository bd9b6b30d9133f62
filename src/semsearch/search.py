"""Text-level search over a records + model + index triple.

Every (record, text column) cell becomes one indexed item: the mean of
its in-vocabulary token embeddings. Queries embed the same way, through
the same function, so a query that repeats an indexed text lands on that
item at angular distance 0 up to float32 rounding.

The three artifacts carry the same corpus content hash, stamped at
ingest time. Assembling an engine compares the model's and the index's
hash with the record store's header hash, which loading has already
verified against the raw lines, so a model trained on one corpus can
never silently answer over another corpus's records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .ann import AnnIndex, IndexConfig, ItemMap, build_index, load_index
from .corpus import Record, RecordSet, load_records, tokenize
from .embeddings import EmbeddingModel, load_model
from .errors import (
    ConfigError,
    DimensionMismatchError,
    ProvenanceError,
    UnresolvableQueryError,
)

MANIFEST_NAME = "manifest.json"
RECORDS_NAME = "records.ndjson"
MODEL_NAME = "model.bin"
INDEX_NAME = "index.ann"
MANIFEST_FORMAT = "semsearch-engine"
MANIFEST_VERSION = 1


def text_vector(model: EmbeddingModel, tokens: Sequence[str]) -> np.ndarray | None:
    """Mean embedding of the in-vocabulary tokens, in float64.

    Returns None when no token is in vocabulary; a text with nothing to
    embed has no position in the space.
    """
    ids = [i for i in (model.vocab.id(t) for t in tokens) if i is not None]
    if not ids:
        return None
    return model.w_in[np.array(ids, dtype=np.int64)].astype(np.float64).mean(axis=0)


def embed_query(model: EmbeddingModel, text: str) -> tuple[np.ndarray, list[str]]:
    """Embed free text; returns (vector, out-of-vocabulary tokens dropped).

    Raises UnresolvableQueryError when the text has no tokens at all or
    none of them are in vocabulary.
    """
    tokens = tokenize(text)
    if not tokens:
        raise UnresolvableQueryError([])
    dropped = list(dict.fromkeys(t for t in tokens if t not in model.vocab))
    vec = text_vector(model, tokens)
    if vec is None:
        raise UnresolvableQueryError(dropped)
    return vec, dropped


def cell_vectors(
    model: EmbeddingModel, records: RecordSet
) -> tuple[np.ndarray, ItemMap, int]:
    """One vector per (record, text column) cell that can be embedded.

    Cells with no in-vocabulary tokens (or a zero-norm mean, which cannot
    be direction-indexed) are skipped; the skip count is returned so
    callers can report coverage.
    """
    vectors: list[np.ndarray] = []
    row_ids: list[int] = []
    col_ids: list[int] = []
    skipped = 0
    for rec in records:
        for col_idx, (_, value) in enumerate(rec.text_fields):
            vec = text_vector(model, tokenize(value))
            if vec is None or not np.any(vec):
                skipped += 1
                continue
            vectors.append(vec)
            row_ids.append(rec.row_id)
            col_ids.append(col_idx)
    if not vectors:
        raise ConfigError("no indexable text cells (every cell is out of vocabulary)")
    matrix = np.vstack(vectors)
    item_map = ItemMap(
        columns=list(records.text_columns),
        row_ids=np.array(row_ids, dtype=np.uint32),
        col_ids=np.array(col_ids, dtype=np.uint16),
    )
    return matrix, item_map, skipped


def _check_corpus(name: str, other: bytes, records: RecordSet) -> None:
    if other != records.corpus_hash:
        raise ProvenanceError(
            f"{name} was built from a different corpus (hash "
            f"{other.hex()[:12]}.. != {records.corpus_hash.hex()[:12]}..)"
        )


def index_records(
    model: EmbeddingModel,
    records: RecordSet,
    config: IndexConfig | None = None,
) -> tuple[AnnIndex, int]:
    """Build the ANN index for a record set; returns (index, skipped cells)."""
    _check_corpus("model", model.corpus_hash, records)
    matrix, item_map, skipped = cell_vectors(model, records)
    index = build_index(
        matrix, config, corpus_hash=model.corpus_hash, item_map=item_map
    )
    return index, skipped


@dataclass
class SearchResult:
    """One ranked hit."""

    rank: int
    distance: float
    row_id: int
    column: str
    text: str
    record: Record

    def to_dict(self) -> dict[str, Any]:
        return {
            "rank": self.rank,
            "distance": self.distance,
            "row_id": self.row_id,
            "column": self.column,
            "text": self.text,
            "metadata": dict(self.record.metadata),
        }


@dataclass
class SearchEngine:
    """A validated records + model + index triple, ready to answer queries."""

    records: RecordSet
    model: EmbeddingModel
    index: AnnIndex

    def __post_init__(self) -> None:
        if self.model.dim != self.index.dim:
            raise DimensionMismatchError(
                f"model dim {self.model.dim} != index dim {self.index.dim}"
            )
        if self.index.item_map is None:
            raise ProvenanceError("index has no item map; rebuild it from records")
        _check_corpus("model", self.model.corpus_hash, self.records)
        _check_corpus("index", self.index.corpus_hash, self.records)
        n = len(self.index.item_map.row_ids)
        if n and int(self.index.item_map.row_ids.max()) >= len(self.records.records):
            raise ProvenanceError("item map points past the end of the record store")

    def query(
        self, text: str, k: int = 10, search_k: int | None = None
    ) -> tuple[list[SearchResult], list[str]]:
        """Rank records for free text; returns (results, dropped query tokens)."""
        vec, dropped = embed_query(self.model, text)
        ids, dists = self.index.query_vector(vec, k, search_k)
        imap = self.index.item_map
        results = []
        for rank, (item, dist) in enumerate(zip(ids, dists), start=1):
            row = int(imap.row_ids[item])
            col = imap.columns[int(imap.col_ids[item])]
            rec = self.records.records[row]
            results.append(
                SearchResult(
                    rank=rank,
                    distance=float(dist),
                    row_id=row,
                    column=col,
                    text=rec.text(col),
                    record=rec,
                )
            )
        return results, dropped


def build_engine(
    model_path: str | Path,
    index_path: str | Path,
    records_path: str | Path,
) -> SearchEngine:
    """Load and cross-validate the three artifacts."""
    records = load_records(records_path)
    model = load_model(model_path)
    index = load_index(index_path)
    return SearchEngine(records=records, model=model, index=index)


# --- engine directory convention -------------------------------------------


def manifest_path(engine_dir: str | Path) -> Path:
    return Path(engine_dir) / MANIFEST_NAME


def load_manifest(engine_dir: str | Path) -> dict[str, Any]:
    path = manifest_path(engine_dir)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        manifest = {"format": MANIFEST_FORMAT, "version": MANIFEST_VERSION}
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ConfigError(f"{path}: not an engine manifest")
    return manifest


def update_manifest(engine_dir: str | Path, updates: dict[str, Any]) -> None:
    """Merge ``updates`` into the manifest. Deterministic bytes: sorted keys,
    two-space indent, no timestamps, trailing newline."""
    manifest = load_manifest(engine_dir)
    manifest.update(updates)
    manifest_path(engine_dir).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
