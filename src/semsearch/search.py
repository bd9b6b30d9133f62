"""Text-level search over a records + model + index triple.

Every (record, text column) cell becomes one indexed item: the mean of
its in-vocabulary token embeddings. Queries embed the same way, through
the same function (``_token_means``), so a query that repeats an indexed
text lands on that item at angular distance 0 up to float32 rounding.

The three artifacts carry the same corpus content hash, stamped at
ingest time. Assembling an engine compares the model's and the index's
hash with the record store's header hash, which loading has already
verified against the raw lines, so a model trained on one corpus can
never silently answer over another corpus's records. The index also
carries the sha256 of the model file that embedded its cells, so a model
changed in any byte after the index was built is refused too.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .ann import (
    AnnIndex,
    IndexConfig,
    ItemMap,
    build_forest,
    load_index,
    normalize_rows,
)
from .corpus import Record, RecordSet, encode_sentences, load_records, tokenize
from .embeddings import EmbeddingModel, load_model
from .errors import (
    ConfigError,
    DimensionMismatchError,
    ProvenanceError,
    UnresolvableQueryError,
)

RECORDS_NAME = "records.ndjson"
MODEL_NAME = "model.bin"
INDEX_NAME = "index.ann"
# float64 values summed per batch in cell_vectors, bounding its scratch memory
CELL_CHUNK_VALUES = 1 << 16


def _token_means(w_in: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Mean embedding of each row of a ``(texts, tokens)`` id block, in
    float64: the rows' vectors summed in token order, then divided by the
    token count. Every text vector, a query's or a cell's, is this."""
    return w_in[ids].astype(np.float64).sum(axis=1) / ids.shape[1]


def embed_query(model: EmbeddingModel, text: str) -> tuple[np.ndarray, list[str]]:
    """Embed free text; returns (vector, out-of-vocabulary tokens dropped).

    Raises UnresolvableQueryError when the text has no tokens at all or
    none of them are in vocabulary.
    """
    tokens = tokenize(text)
    ids = [model.vocab.id(t) for t in tokens]
    dropped = list(dict.fromkeys(t for t, i in zip(tokens, ids) if i is None))
    known = [i for i in ids if i is not None]
    if not known:
        raise UnresolvableQueryError(dropped)
    return _token_means(model.w_in, np.array([known]))[0], dropped


def cell_vectors(
    model: EmbeddingModel, records: RecordSet, unit: bool = False
) -> tuple[np.ndarray, ItemMap, int]:
    """One vector per (record, text column) cell that can be embedded.

    Cells with no in-vocabulary tokens (or a zero-norm mean, which cannot
    be direction-indexed) are skipped; the skip count is returned so
    callers can report coverage. The cells' token ids are
    ``encode_sentences`` of the records under the model's vocabulary, the
    numbering training read. Each row is ``_token_means`` of its cell's
    ids, so it equals ``embed_query`` of the cell's text bit for bit;
    cells with the same token count take one call per batch.

    With ``unit``, each row is normalized batch by batch, exactly as
    ``normalize_rows`` of the float64 matrix would give it, into a float32
    matrix: the forest's items, without a float64 copy of every cell.
    """
    _check_corpus("model", model.corpus_hash, records)
    stream = encode_sentences(records, model.vocab)
    heads = stream.bounds[:-1]
    counts = np.diff(stream.bounds)
    matrix = np.zeros((len(counts), model.dim), np.float32 if unit else np.float64)
    lengths = np.flatnonzero(np.bincount(counts))  # token counts that occur
    for count in lengths[lengths > 0].tolist():
        cells = np.flatnonzero(counts == count)
        step = max(1, CELL_CHUNK_VALUES // (count * model.dim))
        for lo in range(0, len(cells), step):
            chunk = cells[lo:lo + step]
            ids = stream.tokens[heads[chunk, None] + np.arange(count)]
            means = _token_means(model.w_in, ids)
            if unit:
                # zero means stay zero rows, skipped below
                live = np.any(means, axis=1)
                chunk, means = chunk[live], normalize_rows(means[live])
            matrix[chunk] = means
    keep = np.flatnonzero(np.any(matrix, axis=1))
    if not len(keep):
        raise ConfigError("no indexable text cells (every cell is out of vocabulary)")
    n_cols = len(records.text_columns)
    item_map = ItemMap(
        columns=list(records.text_columns),
        row_ids=(keep // n_cols).astype(np.uint32),  # row_id is the position
        col_ids=(keep % n_cols).astype(np.uint16),
        model_digest=model.digest,
    )
    skipped = len(counts) - len(keep)
    # matrix[keep] is a copy, which only skipped cells need
    return (matrix[keep] if skipped else matrix), item_map, skipped


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
    items, item_map, skipped = cell_vectors(model, records, unit=True)
    index = build_forest(
        items, config, corpus_hash=model.corpus_hash, item_map=item_map
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
        if self.index.item_map.columns != self.records.text_columns:
            raise ProvenanceError(
                f"index was built over text columns {self.index.item_map.columns}, "
                f"the record store has {self.records.text_columns}; rebuild it"
            )
        _check_corpus("model", self.model.corpus_hash, self.records)
        _check_corpus("index", self.index.corpus_hash, self.records)
        built_with = self.index.item_map.model_digest
        if built_with != self.model.digest:
            raise ProvenanceError(
                f"index was built from a different model (digest "
                f"{built_with.hex()[:12]}.. != {self.model.digest.hex()[:12]}..); "
                "rebuild it"
            )
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
