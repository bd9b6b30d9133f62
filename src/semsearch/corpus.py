"""CSV ingestion, tokenization, and vocabulary construction.

A dataset flows in as an RFC-4180 CSV with a header row. Rows with any
missing or empty cell are dropped whole, surviving rows become
:class:`Record` objects numbered densely from 0, and the selected text
columns are tokenized into the sentence stream the embedding trainer
consumes.

Tokenizer rule: lowercase the text, then split on every maximal run of
non-alphanumeric characters (Unicode-aware; digits are kept, underscores
split). The rule is deliberately dependency-free so that ingestion is
reproducible everywhere.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ConfigError,
    CsvFormatError,
    EmptyVocabularyError,
    StoreFormatError,
    StoreVersionError,
    TruncatedFileError,
)

RECORDS_FORMAT = "semsearch-records"
RECORDS_VERSION = 1
_HEADER_KEYS = ("columns", "text_columns", "id_column", "kept", "dropped", "corpus_hash")

# alphanumeric runs; [^\W_] is \w minus the underscore
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Split ``text`` into lowercase alphanumeric tokens.

    Deterministic, never yields an empty token, and returns [] for empty
    or all-punctuation input.
    """
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Record:
    """One surviving CSV row.

    ``row_id`` is the 0-based position after cleaning. ``text_fields``
    holds the indexed (column, value) pairs in column order; ``metadata``
    holds every remaining column the same way.
    """

    row_id: int
    text_fields: tuple[tuple[str, str], ...]
    metadata: tuple[tuple[str, str], ...]

    def text(self, column: str) -> str:
        for name, value in self.text_fields:
            if name == column:
                return value
        raise KeyError(column)


@dataclass
class RecordSet:
    """Cleaned records plus the ingest bookkeeping."""

    records: list[Record]
    columns: list[str]
    text_columns: list[str]
    id_column: str | None
    dropped: int
    corpus_hash: bytes  # records_digest, taken once by load_csv or load_records

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    @property
    def kept(self) -> int:
        return len(self.records)

    @property
    def raw_rows(self) -> int:
        return self.kept + self.dropped


def load_csv(
    path: str | Path,
    text_columns: Sequence[str],
    id_column: str | None = None,
) -> RecordSet:
    """Ingest a CSV file, dropping rows with any missing or empty cell.

    A cell is missing when it is absent (short row) or blank after
    stripping whitespace. Rows with more cells than the header, or with
    broken quoting, are hard errors reported with their row number.
    """
    path = Path(path)
    if not text_columns:
        raise ConfigError("at least one text column is required")
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        reader = csv.reader(f, strict=True)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise CsvFormatError(f"{path}: no header row") from None
            seen = set()
            for name in header:
                if name in seen:
                    raise ConfigError(f"{path}: duplicate column {name!r}")
                seen.add(name)
            for col in list(text_columns) + ([id_column] if id_column else []):
                if col not in seen:
                    raise ConfigError(
                        f"column {col!r} not in header {header!r}"
                    )
            records: list[Record] = []
            dropped = 0
            text_cols = list(text_columns)
            meta_cols = [c for c in header if c not in text_cols]
            col_pos = {c: i for i, c in enumerate(header)}
            for row in reader:
                if len(row) > len(header):
                    raise CsvFormatError(
                        f"{path}: row {reader.line_num} has {len(row)} fields, "
                        f"header has {len(header)}"
                    )
                cells = [c.strip() for c in row]
                if len(cells) < len(header) or any(c == "" for c in cells):
                    dropped += 1
                    continue
                records.append(
                    Record(
                        row_id=len(records),
                        text_fields=tuple((c, cells[col_pos[c]]) for c in text_cols),
                        metadata=tuple((c, cells[col_pos[c]]) for c in meta_cols),
                    )
                )
        except csv.Error as e:
            raise CsvFormatError(f"{path}: row {reader.line_num}: {e}") from e
    return RecordSet(
        records=records,
        columns=header,
        text_columns=text_cols,
        id_column=id_column,
        dropped=dropped,
        corpus_hash=records_digest(records),
    )


def iter_cell_tokens(records: RecordSet) -> Iterator[list[str]]:
    """Yield one raw token sentence per (record, text column) cell."""
    for rec in records:
        for _, value in rec.text_fields:
            yield tokenize(value)


@dataclass
class Vocabulary:
    """Dense token ids ordered by descending frequency (ties: lexicographic)."""

    token_to_id: dict[str, int]
    id_to_token: list[str]
    counts: np.ndarray  # int64, indexed by id
    total_tokens: int
    min_count: int

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def id(self, token: str) -> int | None:
        return self.token_to_id.get(token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id


def build_vocab(sentences: Iterable[Sequence[str]], min_count: int = 1) -> Vocabulary:
    """Count tokens and assign dense ids, dropping tokens seen < min_count times."""
    if min_count < 1:
        raise ConfigError("min_count must be >= 1")
    freqs: Counter[str] = Counter()
    for sent in sentences:
        freqs.update(sent)
    items = [(t, c) for t, c in freqs.items() if c >= min_count]
    if not items:
        raise EmptyVocabularyError("empty vocabulary")
    items.sort(key=lambda tc: (-tc[1], tc[0]))
    id_to_token = [t for t, _ in items]
    counts = np.array([c for _, c in items], dtype=np.int64)
    return Vocabulary(
        token_to_id={t: i for i, t in enumerate(id_to_token)},
        id_to_token=id_to_token,
        counts=counts,
        total_tokens=int(counts.sum()),
        min_count=min_count,
    )


@dataclass
class SentenceStream:
    """Encoded sentences, one per (record, text column) cell, in record order.

    Sentence ``i`` belongs to record ``i // n_text_columns``, column
    ``i % n_text_columns``. Empty sentences are kept so this mapping holds.
    """

    sentences: list[np.ndarray]  # int32 id arrays
    n_text_columns: int

    def __len__(self) -> int:
        return len(self.sentences)

    def cell_of(self, sentence_index: int) -> tuple[int, int]:
        return divmod(sentence_index, self.n_text_columns)

    @property
    def total_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)


def encode_sentences(records: RecordSet, vocab: Vocabulary) -> SentenceStream:
    """Map cell tokens to vocabulary ids, silently dropping OOV tokens."""
    sentences = []
    lookup = vocab.token_to_id
    for tokens in iter_cell_tokens(records):
        ids = [lookup[t] for t in tokens if t in lookup]
        sentences.append(np.array(ids, dtype=np.int32))
    return SentenceStream(
        sentences=sentences, n_text_columns=len(records.text_columns)
    )


# --- record store (newline-delimited JSON, versioned header line) ---------


def _record_line(rec: Record) -> str:
    return json.dumps(
        {
            "row_id": rec.row_id,
            "text": [v for _, v in rec.text_fields],
            "meta": [v for _, v in rec.metadata],
        },
        ensure_ascii=True,
        separators=(",", ":"),
    )


def records_digest(records: Iterable[Record]) -> bytes:
    """SHA-256 over the canonical serialized record lines.

    This is the corpus content hash stamped into every downstream artifact
    so mismatched model/index/records trios fail fast.
    """
    h = hashlib.sha256()
    for rec in records:
        h.update(_record_line(rec).encode("utf-8"))
        h.update(b"\n")
    return h.digest()


def save_records(records: RecordSet, path: str | Path) -> bytes:
    """Write the record store and return its content hash."""
    digest = records.corpus_hash
    header = json.dumps(
        {
            "format": RECORDS_FORMAT,
            "version": RECORDS_VERSION,
            "columns": records.columns,
            "text_columns": records.text_columns,
            "id_column": records.id_column,
            "kept": records.kept,
            "dropped": records.dropped,
            "corpus_hash": digest.hex(),
        },
        ensure_ascii=True,
        separators=(",", ":"),
    )
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for rec in records:
            f.write(_record_line(rec) + "\n")
    return digest


def load_records(path: str | Path) -> RecordSet:
    """Read a record store, verifying version, row count, and content hash."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as f:
        header_line = f.readline()
        if not header_line:
            raise StoreFormatError(f"{path}: empty record store")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as e:
            raise StoreFormatError(f"{path}: bad header line: {e}") from e
        if not isinstance(header, dict) or header.get("format") != RECORDS_FORMAT:
            raise StoreFormatError(f"{path}: not a record store")
        if header.get("version") != RECORDS_VERSION:
            raise StoreVersionError(
                f"{path}: record store version {header.get('version')} "
                f"not supported (expected {RECORDS_VERSION})"
            )
        missing = [k for k in _HEADER_KEYS if k not in header]
        if missing:
            raise StoreFormatError(f"{path}: line 1: header lacks {', '.join(missing)}")
        text_cols = header["text_columns"]
        meta_cols = [c for c in header["columns"] if c not in text_cols]
        records: list[Record] = []
        h = hashlib.sha256()
        for lineno, line in enumerate(f, start=2):
            h.update(line.encode("utf-8"))
            try:
                obj = json.loads(line)
                text, meta = obj["text"], obj["meta"]
                if len(text) != len(text_cols) or len(meta) != len(meta_cols):
                    raise ValueError("value counts differ from the header's columns")
                records.append(Record(obj["row_id"], tuple(zip(text_cols, text)),
                                      tuple(zip(meta_cols, meta))))
            except (ValueError, KeyError, TypeError) as e:
                raise StoreFormatError(
                    f"{path}: line {lineno}: bad record ({type(e).__name__}: {e})"
                ) from e
    if len(records) != header["kept"]:
        raise TruncatedFileError(
            f"{path}: header declares {header['kept']} records, found {len(records)}"
        )
    if h.hexdigest() != header["corpus_hash"]:
        raise StoreFormatError(f"{path}: content hash mismatch")
    return RecordSet(
        records=records,
        columns=header["columns"],
        text_columns=text_cols,
        id_column=header["id_column"],
        dropped=header["dropped"],
        corpus_hash=h.digest(),
    )
