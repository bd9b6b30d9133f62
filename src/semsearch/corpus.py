"""CSV ingestion, tokenization, and vocabulary construction.

A dataset flows in as an RFC-4180 CSV with a header row. Rows with any
missing or empty cell are dropped whole, and each surviving row, numbered
densely from 0, becomes its record store line at once: a
:class:`RecordSet` holds those lines and parses one into a
:class:`Record` when it is read. The selected text columns are tokenized
into the sentence stream the embedding trainer consumes.

Tokenizer rule: lowercase the text, then split on every maximal run of
non-alphanumeric characters (Unicode-aware; digits are kept, underscores
split). The rule is deliberately dependency-free so that ingestion is
reproducible everywhere.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    CsvFormatError,
    EmptyVocabularyError,
    StoreFormatError,
    StoreVersionError,
    TruncatedFileError,
)
from .fileio import atomic_write

RECORDS_FORMAT = "semsearch-records"
RECORDS_VERSION = 1
# a set's newlines are found this many bytes at a time, so splitting its
# lines takes one chunk of scratch whatever its size
SPLIT_CHUNK = 1 << 20
# the scanner behind json.loads: (value, end) of the JSON value starting
# exactly at an index of a str, without json.loads's per-call wrapping
_scan_json = json.JSONDecoder().scan_once

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


class RecordSet:
    """Cleaned records as their store lines, plus the ingest bookkeeping.

    ``lines`` is a record store's bytes after its header: each record's
    :func:`_record_line` and a newline. ``corpus_hash`` is their sha256,
    ``kept`` their count, and ``records``, made on first use, parses them
    as they are read, naming ``path`` in errors.
    """

    def __init__(self, lines: bytes, columns: list[str], text_columns: list[str],
                 id_column: str | None, dropped: int, path: str | Path):
        self.lines = lines
        self.columns = columns
        self.text_columns = text_columns
        self.id_column = id_column
        self.dropped = dropped
        self.corpus_hash = hashlib.sha256(lines).digest()
        self.kept = _line_count(lines)
        self._path = Path(path)

    @cached_property
    def records(self) -> _StoreRecords:
        meta_cols = [c for c in self.columns if c not in self.text_columns]
        return _StoreRecords(self.lines, _line_bounds(self.lines, self.kept),
                             self.text_columns, meta_cols, self._path)

    def __len__(self) -> int:
        return self.kept

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)


def _line_count(lines: bytes) -> int:
    """How many lines ``lines`` holds, the last perhaps without its
    newline, counted a chunk at a time: the scratch is a chunk's comparison."""
    view = np.frombuffer(lines, np.uint8)
    newlines = sum(int(np.count_nonzero(view[at:at + SPLIT_CHUNK] == 10))
                   for at in range(0, len(view), SPLIT_CHUNK))
    return newlines + bool(len(view) and view[-1] != 10)


def _line_bounds(lines: bytes, count: int) -> np.ndarray:
    """Line i of the ``count`` lines of ``lines`` (:func:`_line_count`) is
    ``lines[bounds[i] + 1:bounds[i + 1]]``. The newlines are placed a chunk
    at a time: the scratch is a chunk's comparison and positions."""
    view = np.frombuffer(lines, np.uint8)
    bounds = np.full(count + 1, len(view), np.int64)
    bounds[0], k = -1, 1
    for at in range(0, len(view), SPLIT_CHUNK):
        ends = np.flatnonzero(view[at:at + SPLIT_CHUNK] == 10)
        np.add(ends, at, out=bounds[k:k + len(ends)])
        k += len(ends)
    return bounds


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
    for i, col in enumerate(text_columns):
        if col in text_columns[:i]:
            raise ConfigError(f"text column {col!r} is named twice")
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
            out = io.BytesIO()
            kept = dropped = 0
            text_cols = list(text_columns)
            text_pos = [header.index(c) for c in text_cols]
            meta_pos = [i for i, c in enumerate(header) if c not in text_cols]
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
                out.write((_store_line(kept, [cells[i] for i in text_pos],
                                       [cells[i] for i in meta_pos]) + "\n").encode())
                kept += 1
        except csv.Error as e:
            raise CsvFormatError(f"{path}: row {reader.line_num}: {e}") from e
        except UnicodeDecodeError as e:
            # the file is decoded a block at a time, ahead of the reader
            data = path.read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as first:
                row = data.count(b"\n", 0, first.start) + 1
                raise CsvFormatError(f"{path}: row {row}: not UTF-8 ({first})") from e
            raise
    # getvalue hands over the stream's own buffer, without a copy
    return RecordSet(out.getvalue(), header, text_cols, id_column, dropped, path)


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
    numbering, seen = _number(sentences)
    return _vocabulary(numbering, seen.tokens, min_count)


def _vocabulary(numbering: dict[str, int], numbers: np.ndarray,
                min_count: int) -> Vocabulary:
    """The vocabulary of the tokens ``numbers`` holds at least
    ``min_count`` times, ``numbering`` giving each token's number."""
    if min_count < 1:
        raise ConfigError("min_count must be >= 1")
    counts = np.bincount(numbers, minlength=len(numbering)).tolist()
    items = [(t, c) for t, c in zip(numbering, counts) if c >= min_count]
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

    The sentences lie end to end in ``tokens``: sentence ``s`` is
    ``tokens[bounds[s]:bounds[s + 1]]``. Empty sentences are kept.
    """

    tokens: np.ndarray  # int64 token ids
    bounds: np.ndarray  # int64, one more than there are sentences

    @classmethod
    def from_ids(cls, ids: Sequence[int], sizes: Sequence[int]) -> "SentenceStream":
        """A stream from every sentence's ids laid end to end, and the sizes."""
        bounds = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        return cls(np.array(ids, dtype=np.int64), bounds)

    def __len__(self) -> int:
        return len(self.bounds) - 1

    @property
    def total_tokens(self) -> int:
        return len(self.tokens)


def _number(sentences: Iterable[Sequence[str]]) -> tuple[dict[str, int], SentenceStream]:
    """Each token numbered in order of first appearance, and the sentences
    in those numbers. This numbering underlies every vocabulary and
    stream, so that all of them agree."""
    numbering: dict[str, int] = {}
    ids: list[int] = []
    sizes: list[int] = []
    for tokens in sentences:
        ids += [numbering.setdefault(t, len(numbering)) for t in tokens]
        sizes.append(len(tokens))
    return numbering, SentenceStream.from_ids(ids, sizes)


def _renumber(numbering: dict[str, int], seen: SentenceStream,
              vocab: Vocabulary) -> SentenceStream:
    """``seen`` in ``vocab``'s ids; tokens it lacks drop out of their
    sentences."""
    ids = np.array([vocab.token_to_id.get(t, -1) for t in numbering], dtype=np.int64)
    tokens, bounds = ids[seen.tokens], seen.bounds
    if (ids < 0).any():
        kept = tokens >= 0
        bounds = np.concatenate(([0], np.cumsum(kept)))[bounds]
        tokens = tokens[kept]
    return SentenceStream(tokens, bounds)


def encode_sentences(records: RecordSet, vocab: Vocabulary) -> SentenceStream:
    """Map cell tokens to vocabulary ids, silently dropping OOV tokens."""
    return _renumber(*_number(iter_cell_tokens(records)), vocab)


def encode_corpus(
    records: RecordSet, min_count: int = 1
) -> tuple[Vocabulary, SentenceStream]:
    """``build_vocab(iter_cell_tokens(records), min_count)`` and
    ``encode_sentences`` under that vocabulary, from one pass over the
    records that tokenizes each cell once."""
    numbering, seen = _number(iter_cell_tokens(records))
    vocab = _vocabulary(numbering, seen.tokens, min_count)
    return vocab, _renumber(numbering, seen, vocab)


# --- record store (newline-delimited JSON, versioned header line) ---------


def _store_line(row_id: int, text: list[str], meta: list[str]) -> str:
    """A record's line, without its newline: what ``json.dumps`` writes
    for its object with ``ensure_ascii=True`` and ``separators=(",", ":")``,
    built from the encoder's own C string quoting without an encoder per
    record."""
    return '{"row_id":%d,"text":[%s],"meta":[%s]}' % (
        row_id,
        ",".join([_quote(v) for v in text]),
        ",".join([_quote(v) for v in meta]),
    )


def _record_line(rec: Record) -> str:
    """:func:`_store_line` of a :class:`Record`."""
    return _store_line(rec.row_id, [v for _, v in rec.text_fields],
                       [v for _, v in rec.metadata])


def records_digest(records: Iterable[Record]) -> bytes:
    """SHA-256 over the canonical serialized record lines.

    This is the corpus content hash stamped into every downstream artifact
    so mismatched model/index/records trios fail fast.
    """
    h = hashlib.sha256()
    for rec in records:
        h.update((_record_line(rec) + "\n").encode("utf-8"))
    return h.digest()


def save_records(records: RecordSet, path: str | Path) -> bytes:
    """Write the record store, a header line and then the set's lines as
    they are, and return its content hash."""
    header = {
        "format": RECORDS_FORMAT,
        "version": RECORDS_VERSION,
        "columns": records.columns,
        "text_columns": records.text_columns,
        "id_column": records.id_column,
        "kept": records.kept,
        "dropped": records.dropped,
        "corpus_hash": records.corpus_hash.hex(),
    }
    header["header_digest"] = _header_digest(header)
    with atomic_write(path) as f:
        f.write(json.dumps(header, ensure_ascii=True, separators=(",", ":"))
                .encode("ascii") + b"\n")
        f.write(records.lines)
    return records.corpus_hash


def _names(v) -> bool:
    return isinstance(v, list) and all(isinstance(c, str) for c in v)


def _count(v) -> bool:
    return type(v) is int and v >= 0


# every header field with its type; the content hash covers only the
# record lines, and header_digest covers the fields before it
_HEADER_FIELDS = {
    "columns": (_names, "a list of strings"),
    "text_columns": (_names, "a list of strings"),
    "id_column": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "kept": (_count, "a non-negative integer"),
    "dropped": (_count, "a non-negative integer"),
    "corpus_hash": (lambda v: isinstance(v, str), "a string"),
    "header_digest": (lambda v: isinstance(v, str), "a string"),
}
_DIGESTED = ("columns", "text_columns", "id_column", "kept", "dropped", "corpus_hash")


def _header_digest(header: dict) -> str:
    """Hex sha256 over the canonical JSON (sorted keys, no spaces, ASCII)
    of the store header's fields that describe its records. The content
    hash covers only the record lines, so without this a renamed column
    or a changed ``id_column`` would load."""
    fields = {key: header[key] for key in _DIGESTED}
    canonical = json.dumps(fields, ensure_ascii=True, separators=(",", ":"),
                           sort_keys=True)
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def _check_header(header: dict, path: Path) -> None:
    missing = [k for k in _HEADER_FIELDS if k not in header]
    if missing:
        raise StoreFormatError(f"{path}: line 1: header lacks {', '.join(missing)}")
    for key, (ok, what) in _HEADER_FIELDS.items():
        if not ok(header[key]):
            raise StoreFormatError(
                f"{path}: line 1: header field {key!r} must be {what}, "
                f"not {type(header[key]).__name__}"
            )
    if _header_digest(header) != header["header_digest"]:
        raise StoreFormatError(f"{path}: line 1: header digest mismatch")


def _record(obj, row: int, text_cols: list[str], meta_cols: list[str]) -> Record:
    """Type-check record ``row`` parsed from its line; raises ValueError,
    KeyError or TypeError."""
    row_id, text, meta = obj["row_id"], obj["text"], obj["meta"]
    # the content hash vouches for these values, not their types
    if type(row_id) is not int or row_id != row:
        raise ValueError(f"row_id {row_id!r} is not the record's position {row}")
    if type(text) is not list or type(meta) is not list:
        raise TypeError("text and meta must be lists")
    if len(text) != len(text_cols) or len(meta) != len(meta_cols):
        raise ValueError("value counts differ from the header's columns")
    "".join(text + meta)  # TypeError names a value that is not a str
    return Record(row, tuple(zip(text_cols, text)), tuple(zip(meta_cols, meta)))


def _parse_line(
    raw: bytes, row: int, text_cols: list[str], meta_cols: list[str], path: Path
) -> Record:
    """Decode, parse and type-check record line ``row`` (file line ``row + 2``).

    The JSON decoder's scanner reads the line's value from its first byte,
    and the value must end where the line does, trailing whitespace aside.
    A line that does not start with whitespace fails with the message
    ``json.loads`` of it gives.
    """
    try:
        text = str(raw, "utf-8")
        try:
            obj, end = _scan_json(text, 0)
        except StopIteration as e:
            raise json.JSONDecodeError("Expecting value", text, e.value) from None
        if end != len(text):
            end = json.decoder.WHITESPACE.match(text, end).end()
            if end != len(text):
                raise json.JSONDecodeError("Extra data", text, end)
        return _record(obj, row, text_cols, meta_cols)
    except (ValueError, KeyError, TypeError) as e:
        raise StoreFormatError(
            f"{path}: line {row + 2}: bad record ({type(e).__name__}: {e})"
        ) from e


class _StoreRecords(Sequence[Record]):
    """The lines of a :class:`RecordSet`, each parsed when it is read.

    :func:`load_records` has checked the header, the line count and the
    content hash of these bytes; a line's JSON, ``row_id`` and value types
    are checked each time it is parsed, by :func:`_parse_line` alone.
    Indexing, the query path, parses a line the first time and keeps its
    :class:`Record` in its slot. Iterating, the build path, parses one line
    at a time and keeps nothing, so a pass over the whole store holds one
    record beside the bytes; every pass parses the lines not indexed again.
    """

    def __init__(self, data: bytes, bounds: np.ndarray, text_cols: list[str],
                 meta_cols: list[str], path: Path):
        self._data = data
        self._bounds = bounds  # line i is data[bounds[i] + 1:bounds[i + 1]]
        self._slots: list[Record | None] = [None] * (len(bounds) - 1)
        self._columns = (text_cols, meta_cols, path)

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, i: int) -> Record:
        rec = self._slots[i]
        if rec is None:
            i %= len(self._slots)
            lo, hi = self._bounds[i:i + 2].tolist()
            rec = self._slots[i] = _parse_line(self._data[lo + 1:hi], i, *self._columns)
        return rec

    def __iter__(self) -> Iterator[Record]:
        # indexing a memoryview gives each bound as an int, without a list
        data, bounds = self._data, memoryview(self._bounds)
        for i, rec in enumerate(self._slots):
            if rec is None:
                rec = _parse_line(data[bounds[i] + 1:bounds[i + 1]], i, *self._columns)
            yield rec

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, tuple, _StoreRecords)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def load_records(path: str | Path) -> RecordSet:
    """Open a record store: check its header, line count and content hash.

    The set's lines are a view of the file after its header, parsed on
    demand (see :class:`_StoreRecords`). When the count or the hash does
    not match, the first line that fails to parse is named before the
    mismatch is reported.
    """
    path = Path(path)
    data = path.read_bytes()
    if not data:
        raise StoreFormatError(f"{path}: empty record store")
    header_end = data.find(b"\n")
    if header_end < 0:
        header_end = len(data)
    try:
        header = json.loads(data[:header_end].decode("utf-8"))
    except ValueError as e:
        raise StoreFormatError(f"{path}: bad header line: {e}") from e
    if not isinstance(header, dict) or header.get("format") != RECORDS_FORMAT:
        raise StoreFormatError(f"{path}: not a record store")
    if header.get("version") != RECORDS_VERSION:
        raise StoreVersionError(
            f"{path}: record store version {header.get('version')} "
            f"not supported (expected {RECORDS_VERSION})"
        )
    _check_header(header, path)
    records = RecordSet(memoryview(data)[header_end + 1:], header["columns"],
                        header["text_columns"], header["id_column"],
                        header["dropped"], path)
    counted = records.kept == header["kept"]
    if not counted or records.corpus_hash.hex() != header["corpus_hash"]:
        for _ in records:  # a line that does not parse is the better report
            pass
        if not counted:
            raise TruncatedFileError(f"{path}: header declares {header['kept']} "
                                     f"records, found {records.kept}")
        raise StoreFormatError(f"{path}: content hash mismatch")
    return records
