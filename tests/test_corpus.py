"""Ingestion, tokenization, vocabulary, and record store behavior, and
fuzzed damage to each artifact."""

import hashlib
import json
import signal
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semsearch.ann import IndexConfig, ItemMap, build_index, load_index, save_index
from semsearch.corpus import (
    SPLIT_CHUNK,
    Record,
    RecordSet,
    _line_bounds,
    _parse_line,
    _record,
    _record_line,
    build_vocab,
    encode_corpus,
    encode_sentences,
    iter_cell_tokens,
    load_csv,
    load_records,
    records_digest,
    save_records,
    tokenize,
)
from semsearch.embeddings import load_model, save_model
from semsearch.errors import (
    ConfigError,
    CsvFormatError,
    EmptyVocabularyError,
    SemSearchError,
    StoreFormatError,
    StoreVersionError,
    TruncatedFileError,
)
from semsearch.evaluate import gaussian_vectors, gen_synthetic
from semsearch.search import embed_query

from conftest import TEXT_COLUMNS, record_set, synthetic_sentences


# --- tokenizer --------------------------------------------------------------


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Ram's Center-12") == ["ram", "s", "center", "12"]


def test_tokenize_keeps_digits_splits_underscore():
    assert tokenize("alpha_beta 42x") == ["alpha", "beta", "42x"]


def test_tokenize_empty_and_punctuation_only():
    assert tokenize("") == []
    assert tokenize("--- !!! ,,,") == []


def test_tokenize_never_yields_empty_token():
    for text in ("a  b", " x ", "..a..", "1,2,3"):
        assert all(tok for tok in tokenize(text))


# --- csv loading ------------------------------------------------------------


def test_fixture_drops_rows_with_any_blank(students_records):
    assert students_records.kept == 97
    assert students_records.dropped == 3
    assert [r.row_id for r in students_records] == list(range(97))


def test_strip_only_cells_count_as_missing(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("a,b\nx,   \ny,z\n", encoding="utf-8")
    rs = load_csv(p, ["a"])
    assert rs.kept == 1 and rs.dropped == 1
    assert rs.records[0].text("a") == "y"


def test_short_row_is_dropped_not_an_error(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("a,b\nonly\nx,y\n", encoding="utf-8")
    rs = load_csv(p, ["a", "b"])
    assert rs.kept == 1 and rs.dropped == 1


def test_overlong_row_is_an_error_with_row_number(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("a,b\nx,y\n1,2,3\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="row 3"):
        load_csv(p, ["a"])


def test_broken_quoting_is_an_error(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text('a,b\n"unterminated,cell\n', encoding="utf-8")
    with pytest.raises(CsvFormatError):
        load_csv(p, ["a"])


def test_unknown_text_column_is_config_error(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("a,b\nx,y\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="nope"):
        load_csv(p, ["nope"])
    with pytest.raises(ConfigError):
        load_csv(p, ["a"], id_column="nope")


def test_duplicate_header_is_config_error(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("a,a\nx,y\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="duplicate"):
        load_csv(p, ["a"])


def test_no_header_is_format_error(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="header"):
        load_csv(p, ["a"])


def test_no_text_columns_is_config_error(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("a,b\nx,y\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_csv(p, [])


def test_utf8_bom_is_transparent(tmp_path):
    p = tmp_path / "c.csv"
    p.write_bytes(b"\xef\xbb\xbfa,b\nx,y\n")
    rs = load_csv(p, ["a"])
    assert rs.columns == ["a", "b"]


def test_metadata_keeps_non_text_columns(students_records):
    rec = students_records.records[0]
    meta = dict(rec.metadata)
    assert set(meta) == {"id", "grade"}
    assert dict(rec.text_fields).keys() == set(TEXT_COLUMNS)


# --- vocabulary -------------------------------------------------------------


def test_vocab_matches_independent_frequency_count():
    """Ids are dense ranks by (count desc, token asc), counts exact."""
    sents = synthetic_sentences()
    vocab = build_vocab(sents)
    oracle = Counter()
    for s in sents:
        oracle.update(s)
    assert vocab.size == len(oracle)
    assert vocab.total_tokens == sum(oracle.values())
    expected_order = sorted(oracle, key=lambda t: (-oracle[t], t))
    assert vocab.id_to_token == expected_order
    for tok, count in oracle.items():
        assert vocab.counts[vocab.token_to_id[tok]] == count


def test_vocab_min_count_filters():
    vocab = build_vocab([["a", "a", "b"]], min_count=2)
    assert vocab.id_to_token == ["a"]
    assert "b" not in vocab


def test_vocab_empty_is_error():
    with pytest.raises(EmptyVocabularyError):
        build_vocab([[]])
    with pytest.raises(EmptyVocabularyError):
        build_vocab([["rare"]], min_count=2)


def test_vocab_min_count_below_one_is_config_error():
    with pytest.raises(ConfigError):
        build_vocab([["a"]], min_count=0)


# --- sentence encoding ------------------------------------------------------


def test_encode_covers_every_cell_in_order(students_records):
    vocab = build_vocab(iter_cell_tokens(students_records))
    stream = encode_sentences(students_records, vocab)
    assert len(stream) == students_records.kept * len(TEXT_COLUMNS)
    # sentence s is the cell of record s // columns, column s % columns
    for s in (0, 1, len(TEXT_COLUMNS), len(stream) - 1):
        record, column = divmod(s, len(TEXT_COLUMNS))
        text = students_records.records[record].text(TEXT_COLUMNS[column])
        lo, hi = stream.bounds[s:s + 2]
        assert [vocab.id_to_token[t] for t in stream.tokens[lo:hi]] == tokenize(text)


def test_encoded_token_count_matches_brute_force():
    sents = synthetic_sentences(n=300)
    vocab = build_vocab(sents, min_count=10)

    class FakeRecords:
        text_columns = ["t"]

        def __iter__(self):
            return iter(
                Record(i, (("t", " ".join(s)),), ()) for i, s in enumerate(sents)
            )

    stream = encode_sentences(FakeRecords(), vocab)
    expected = sum(1 for s in sents for t in s if t in vocab.token_to_id)
    assert stream.total_tokens == expected
    assert expected < sum(len(s) for s in sents)  # min_count dropped some


def test_encode_drops_oov_keeps_empty_sentences():
    vocab = build_vocab([["a", "b", "a"]])

    class FakeRecords:
        text_columns = ["t"]

        def __iter__(self):
            return iter([Record(0, (("t", "a zzz"),), ()),
                         Record(1, (("t", "??"),), ())])

    stream = encode_sentences(FakeRecords(), vocab)
    assert stream.tokens.tolist() == [vocab.token_to_id["a"]]
    assert stream.bounds.tolist() == [0, 1, 1]


@pytest.mark.parametrize("min_count", [1, 2, 5])
def test_encode_corpus_is_vocab_then_encode(students_records, min_count):
    """One pass that tokenizes each cell once gives the vocabulary and the
    stream that build_vocab and encode_sentences give in two."""
    sents = synthetic_sentences(n=300) + [[], ["??"], ["tok1", "tok1"]]

    class FakeRecords:
        text_columns = ["t", "u"]

        def __iter__(self):
            return iter(Record(i, (("t", " ".join(s)), ("u", " ".join(s[::-1]))), ())
                        for i, s in enumerate(sents))

    for records in (students_records, FakeRecords()):
        vocab = build_vocab(iter_cell_tokens(records), min_count=min_count)
        stream = encode_sentences(records, vocab)
        got_vocab, got = encode_corpus(records, min_count=min_count)
        assert got_vocab.id_to_token == vocab.id_to_token
        assert got_vocab.token_to_id == vocab.token_to_id
        assert np.array_equal(got_vocab.counts, vocab.counts)
        assert (got_vocab.total_tokens, got_vocab.min_count) == (
            vocab.total_tokens, vocab.min_count)
        assert got.tokens.dtype == stream.tokens.dtype == np.int64
        assert np.array_equal(got.tokens, stream.tokens)
        assert np.array_equal(got.bounds, stream.bounds)


def test_encode_corpus_refuses_what_build_vocab_refuses(students_records):
    with pytest.raises(ConfigError):
        encode_corpus(students_records, min_count=0)
    with pytest.raises(EmptyVocabularyError):
        encode_corpus(students_records, min_count=10**6)


_text = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u00e9",
                     "\U0001d11e", "\ud800", "\udfff"]),
    st.characters(exclude_categories=()),
), max_size=12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(row_id=st.integers(0, 2**40), text=st.lists(_text, min_size=1, max_size=3),
       meta=st.lists(_text, max_size=3))
def test_record_line_is_json_dumps(row_id, text, meta):
    """The record line equals json.dumps of the record's object: quotes,
    backslashes, control, non-ASCII, astral and lone surrogate characters
    included."""
    rec = Record(row_id, tuple((f"t{i}", v) for i, v in enumerate(text)),
                 tuple((f"m{i}", v) for i, v in enumerate(meta)))
    assert _record_line(rec) == json.dumps(
        {"row_id": row_id, "text": text, "meta": meta},
        ensure_ascii=True, separators=(",", ":"),
    )


# --- record store -----------------------------------------------------------


def test_records_round_trip(students_records, tmp_path):
    p = tmp_path / "r.ndjson"
    digest = save_records(students_records, p)
    loaded = load_records(p)
    assert digest == records_digest(loaded) == students_records.corpus_hash
    assert loaded.corpus_hash == digest
    assert loaded.columns == students_records.columns
    assert loaded.text_columns == students_records.text_columns
    assert loaded.id_column == students_records.id_column
    assert loaded.dropped == students_records.dropped
    assert loaded.records == students_records.records


def test_records_save_is_deterministic(students_records, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    save_records(students_records, a)
    save_records(students_records, b)
    assert a.read_bytes() == b.read_bytes()


def test_records_content_tamper_detected(students_records, tmp_path):
    p = tmp_path / "r.ndjson"
    save_records(students_records, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    target = next(i for i, line in enumerate(lines) if "Academy" in line)
    lines[target] = lines[target].replace("Academy", "Acadamy")
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(StoreFormatError, match="hash"):
        load_records(p)


def test_records_truncation_detected(students_records, tmp_path):
    p = tmp_path / "r.ndjson"
    save_records(students_records, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    p.write_text("\n".join(lines[:-10]) + "\n", encoding="utf-8")
    with pytest.raises(TruncatedFileError):
        load_records(p)


def test_records_wrong_version_detected(students_records, tmp_path):
    p = tmp_path / "r.ndjson"
    save_records(students_records, p)
    text = p.read_text(encoding="utf-8")
    p.write_text(text.replace('"version":1', '"version":9', 1), encoding="utf-8")
    with pytest.raises(StoreVersionError):
        load_records(p)


def test_records_not_a_store(tmp_path):
    p = tmp_path / "r.ndjson"
    p.write_text('{"something": "else"}\n', encoding="utf-8")
    with pytest.raises(StoreFormatError):
        load_records(p)
    p.write_text("", encoding="utf-8")
    with pytest.raises(StoreFormatError):
        load_records(p)


def _drop_key(line, key):
    obj = json.loads(line)
    del obj[key]
    return json.dumps(obj)


def _shorten(line, key):
    obj = json.loads(line)
    obj[key] = obj[key][:-1]
    return json.dumps(obj)


@pytest.mark.parametrize("lineno, damage", [
    (4, lambda line: line[:-7]),
    (1, lambda line: _drop_key(line, "kept")),
    (1, lambda line: _drop_key(line, "header_digest")),
    (3, lambda line: _shorten(line, "text")),
    (3, lambda line: _shorten(line, "meta")),
    (3, lambda line: _drop_key(line, "row_id")),
    (3, lambda line: "[1, 2]"),
], ids=["truncated-line", "header-without-kept", "header-without-digest",
        "short-text", "short-meta", "no-row-id", "not-an-object"])
def test_records_malformed_line_named(students_records, tmp_path, lineno, damage):
    p = tmp_path / "r.ndjson"
    save_records(students_records, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    lines[lineno - 1] = damage(lines[lineno - 1])
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(StoreFormatError, match=f"line {lineno}:"):
        load_records(p)


def test_store_records_index_like_a_list(students_records, tmp_path):
    p = tmp_path / "r.ndjson"
    save_records(students_records, p)
    loaded = load_records(p).records
    original = students_records.records
    assert len(loaded) == len(original)
    assert loaded[-1] == original[-1] and loaded[3] == original[3]
    assert loaded[5] is loaded[5]  # parsed once, then kept
    with pytest.raises(IndexError):
        loaded[len(original)]
    assert list(loaded) == original and loaded == tuple(original)
    assert loaded != original[:-1]


def test_store_iteration_keeps_no_record(students_records, tmp_path):
    """Iterating a store, the build path, parses each line and keeps no
    record; indexing, the query path, keeps what it parses."""
    p = tmp_path / "r.ndjson"
    save_records(students_records, p)
    loaded = load_records(p).records
    assert list(loaded) == students_records.records
    assert list(loaded) == students_records.records
    assert all(slot is None for slot in loaded._slots)
    rec = loaded[7]
    assert [i for i, slot in enumerate(loaded._slots) if slot is not None] == [7]
    assert next(r for r in loaded if r.row_id == 7) is rec


def test_csv_set_holds_its_store_lines(students_records, tmp_path):
    """A set from load_csv holds the bytes its store holds after the
    header, and its corpus hash is their sha256."""
    p = tmp_path / "r.ndjson"
    save_records(students_records, p)
    lines = p.read_bytes().split(b"\n", 1)[1]
    assert students_records.lines == lines
    assert students_records.corpus_hash == hashlib.sha256(lines).digest()
    assert load_records(p).lines == lines


def _traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_csv_holds_little_beside_its_lines(tmp_path):
    """load_csv keeps each kept row as its store line alone: its peak
    stays below twice the store it makes."""
    p = tmp_path / "c.csv"
    gen_synthetic(p, 20000, n_clusters=8, seed=3)
    records, peak = _traced_peak(load_csv, p, ["center_name", "state"], id_column="id")
    assert records.kept + records.dropped == 20000 and records.kept > 0
    assert peak < 2 * len(records.lines)


def test_written_csv_set_makes_nothing_per_row(tmp_path):
    """A set that load_csv makes and save_records writes holds its lines
    and little else: no line bounds and no record slots, which take 16
    bytes a row, until a record is read."""
    p = tmp_path / "c.csv"
    gen_synthetic(p, 20000, n_clusters=8, seed=3)
    tracemalloc.start()
    try:
        records = load_csv(p, ["center_name", "state"], id_column="id")
        save_records(records, tmp_path / "r.ndjson")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert records.kept == 20000 - records.dropped > 0
    assert held < len(records.lines) + 4 * records.kept
    assert records.records[-1].row_id == records.kept - 1


@pytest.mark.parametrize("lines", [b"", b"\n", b"a", b"a\n", b"a\nb", b"a\n\nb\n"])
def test_kept_counts_the_lines_bounds_place(lines):
    """``kept`` counts lines without placing them, a last line without its
    newline included, and :func:`_line_bounds` places that many."""
    records = RecordSet(lines, ["t"], ["t"], None, 0, "<records>")
    assert records.kept == len(records) == len(lines.splitlines())
    bounds = _line_bounds(lines, records.kept).tolist()
    assert [lines[lo + 1:hi] for lo, hi in zip(bounds, bounds[1:])] == lines.splitlines()


def test_load_records_splits_lines_in_one_chunk(tmp_path):
    """Opening a store of several MB takes its bytes, the int64 line
    bounds and one chunk of scratch for the newline split: the chunk's
    comparison, a byte per byte, and its newlines' positions, 8 bytes
    each, with 16 KiB for the parsed header and the objects that hold
    all this. The whole file compared at once would take its size again."""
    recs = [Record(i, (("t", f"text {i} " + "x" * 90),), (("m", str(i % 7)),))
            for i in range(40000)]
    records = record_set(recs, ["t", "m"], ["t"])
    shortest = min(len(line) for line in records.lines.split(b"\n")[:-1])
    assert shortest >= 100
    p = tmp_path / "r.ndjson"
    save_records(records, p)
    size = p.stat().st_size
    assert size > 4 * SPLIT_CHUNK
    loaded, peak = _traced_peak(load_records, p)
    assert loaded.kept == len(recs) and loaded.records[-1] == recs[-1]
    chunk = SPLIT_CHUNK + 8 * (SPLIT_CHUNK // shortest) + 16 * 1024
    assert peak < size + 8 * (len(recs) + 1) + chunk


def _restamped_store(path, damage):
    """Rewrite the store at ``path`` with its lines (the header being
    ``lines[0]``) damaged in place by ``damage(lines)``, and its content
    hash and header digest recomputed, so it opens."""
    from semsearch.corpus import _header_digest

    lines = path.read_bytes().split(b"\n")[:-1]
    damage(lines)
    body = b"".join(line + b"\n" for line in lines[1:])
    header = {**json.loads(lines[0]), "corpus_hash": hashlib.sha256(body).hexdigest()}
    header["header_digest"] = _header_digest(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


def _damage_line(n, damage):
    """A ``_restamped_store`` damage: file line ``n`` becomes ``damage(line)``."""
    def damaged(lines):
        lines[n - 1] = damage(lines[n - 1])
    return damaged


def _merge_three(comma):
    """A ``_restamped_store`` damage: record 0 is spread over file lines 2
    and 3, cut before its ``"meta"`` with the comma there kept on line 2
    or dropped, and line 4 holds records 1 and 2. Joined by ``",\\n"``
    (comma dropped) or scanned across the newline (comma kept), the lines
    still give one valid record per line, in order."""
    def damaged(lines):
        head, _, tail = lines[1].partition(b',"meta"')
        lines[1:4] = [head + comma, b'"meta"' + tail, lines[2] + b"," + lines[3]]
    return damaged


def _store_of(tmp_path, n):
    records = [Record(i, (("t", f"text {i}"),), (("m", str(i % 7)),))
               for i in range(n)]
    p = tmp_path / "r.ndjson"
    save_records(record_set(records, ["t", "m"], ["t"]), p)
    return p, records


@pytest.mark.parametrize("damage, why", [
    (lambda line: line[:-3],
     "JSONDecodeError: Unterminated string starting at: line 1 column 45 (char 44)"),
    (lambda line: line.replace(b'"row_id":1498', b'"row_id":"1498"'),
     "ValueError: row_id '1498' is not the record's position 1498"),
], ids=["truncated-json", "row-id-a-string"])
def test_store_pass_names_bad_line_as_lookup(tmp_path, monkeypatch, damage, why):
    """A pass over the store scans each line in place, with no json.loads
    call, and names the first bad line with exactly the message a lookup
    of that line gives, as json.loads of the line words it."""
    p, records = _store_of(tmp_path, 2000)
    loads, calls = json.loads, []

    def counting(text, *args, **kwargs):
        calls.append(len(text))
        return loads(text, *args, **kwargs)

    store = load_records(p).records
    monkeypatch.setattr(json, "loads", counting)
    assert list(store) == records
    assert calls == []
    monkeypatch.setattr(json, "loads", loads)
    _restamped_store(p, _damage_line(1500, damage))
    store = load_records(p).records
    monkeypatch.setattr(json, "loads", counting)
    seen = []
    with pytest.raises(StoreFormatError) as err:
        seen.extend(store)
    assert str(err.value) == f"{p}: line 1500: bad record ({why})"
    assert seen == records[:1498]
    assert calls == []
    with pytest.raises(StoreFormatError) as looked:
        load_records(p).records[1498]
    assert str(looked.value) == str(err.value)


def _absorb_next(lines):
    """A ``_restamped_store`` damage: record 0 gains a key whose value is
    record 1's line, on line 3 with a closing brace after it."""
    lines[1:3] = [lines[1][:-1] + b',"x":', lines[2] + b"}"]


@pytest.mark.parametrize("damage", [_merge_three(b""), _merge_three(b","), _absorb_next],
                         ids=["comma-dropped", "comma-kept", "next-line-absorbed"])
def test_store_pass_refuses_values_across_lines(tmp_path, damage):
    """Lines that do not each hold one record fail a pass as they fail
    indexing, even when joined they hold one valid record per line."""
    p, _ = _store_of(tmp_path, 5)
    _restamped_store(p, damage)
    store = load_records(p).records
    with pytest.raises(StoreFormatError) as indexed:
        store[0]
    assert f"{p}: line 2: bad record" in str(indexed.value)
    with pytest.raises(StoreFormatError) as passed:
        list(load_records(p).records)
    assert str(passed.value) == str(indexed.value)


# --- fuzzed record store ----------------------------------------------------

_positions = st.integers(0, 1 << 20)
_mutations = st.lists(st.one_of(
    st.tuples(st.just("flip"), _positions, st.integers(1, 255)),
    st.tuples(st.just("truncate"), _positions),
    st.tuples(st.just("insert"), _positions, st.binary(min_size=1, max_size=4)),
), min_size=1, max_size=3)


def _mutate(data: bytes, mutation) -> bytes:
    kind, pos = mutation[0], mutation[1] % (len(data) + 1)
    if kind == "flip":
        if not data:
            return data
        pos %= len(data)
        return data[:pos] + bytes([data[pos] ^ mutation[2]]) + data[pos + 1:]
    if kind == "truncate":
        return data[:pos]
    return data[:pos] + mutation[2] + data[pos:]


_LINE = _record_line(Record(0, (("t", 'a "b" \u00e9'),), (("m", "7"),))).encode()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutations=_mutations)
@example(mutations=[("insert", len(_LINE), b"\r")])
@example(mutations=[("insert", len(_LINE), b" 7")])
@example(mutations=[("truncate", 0)])
def test_parse_line_fails_as_json_loads(mutations):
    """A damaged record line is accepted or refused as json.loads of it
    and the record check would, with json.loads's message."""
    p, raw = Path("r.ndjson"), _LINE
    for mutation in mutations:
        raw = _mutate(raw, mutation)
    assume(not raw.startswith((b" ", b"\t", b"\n", b"\r", b"\xef\xbb\xbf")))
    try:
        want = _record(json.loads(raw.decode("utf-8")), 0, ["t"], ["m"])
    except (ValueError, KeyError, TypeError) as e:
        want = f"{p}: line 2: bad record ({type(e).__name__}: {e})"
    try:
        got = _parse_line(raw, 0, ["t"], ["m"], p)
    except StoreFormatError as e:
        got = str(e)
    assert got == want


@pytest.fixture(scope="module")
def fuzz_store(students_records, tmp_path_factory):
    p = tmp_path_factory.mktemp("fuzz") / "r.ndjson"
    save_records(students_records, p)
    return p, p.read_bytes()


@settings(max_examples=200, deadline=2000, derandomize=True, database=None)
@given(mutations=_mutations)
# header edits that keep it well formed: column "grade" renamed "gradd",
# and id_column "id" changed to "jd"
@example(mutations=[("flip", 100, 1)])
@example(mutations=[("flip", 171, 3)])
def test_fuzzed_store_loads_whole_or_fails_named(fuzz_store, students_records,
                                                 mutations):
    """Flipped, truncated or inserted bytes anywhere in a store: opening it
    and reading every record gives the original records or raises a
    SemSearchError, never another exception."""
    p, original = fuzz_store
    data = original
    for mutation in mutations:
        data = _mutate(data, mutation)
    p.write_bytes(data)
    try:
        loaded = load_records(p)
        records = list(loaded.records)
    except SemSearchError:
        return
    # the content hash covers the record lines and the header digest the
    # header's fields, so whatever loads is the original store
    assert records == students_records.records
    assert (loaded.columns, loaded.text_columns, loaded.id_column, loaded.dropped) \
        == (students_records.columns, students_records.text_columns,
            students_records.id_column, students_records.dropped)


# --- fuzzed index -----------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_index(tmp_path_factory):
    """A small index with duplicate rows (so some splits are basis-vector
    fallbacks) and an item map."""
    n = 60
    vecs = gaussian_vectors(5, n, 4)
    vecs[40:] = vecs[0]
    imap = ItemMap(columns=["name", "state"], row_ids=np.arange(n, dtype=np.uint32),
                   col_ids=(np.arange(n) % 2).astype(np.uint16),
                   model_digest=bytes(range(32)))
    p = tmp_path_factory.mktemp("fuzz") / "i.ann"
    save_index(build_index(vecs, IndexConfig(n_trees=3, leaf_capacity=4, seed=2),
                           item_map=imap), p)
    return p, p.read_bytes(), gaussian_vectors(6, 1, 4)[0]


def _too_slow(signum, frame):
    raise TimeoutError("a fuzzed case ran past 5 s")


@settings(max_examples=200, deadline=2000, derandomize=True, database=None)
@given(mutations=_mutations)
def test_fuzzed_index_answers_or_fails_named(fuzz_index, mutations):
    """Flipped, truncated or inserted bytes anywhere in an index: loading it
    and answering one scan query and one forest-walk query either works or
    raises a SemSearchError, never another exception, within 5 s."""
    p, original, query = fuzz_index
    data = original
    for mutation in mutations:
        data = _mutate(data, mutation)
    p.write_bytes(data)
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(5)
    try:
        index = load_index(p)
        index.query_vector(query, 3)
        index.query_vector(query, 3, search_k=5)
    except SemSearchError:
        pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# --- fuzzed model -----------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_model(students_model, tmp_path_factory):
    p = tmp_path_factory.mktemp("fuzz") / "m.bin"
    save_model(students_model, p)
    return p, p.read_bytes()


@settings(max_examples=200, deadline=2000, derandomize=True, database=None)
@given(mutations=_mutations)
def test_fuzzed_model_answers_or_fails_named(fuzz_model, mutations):
    """Flipped, truncated or inserted bytes anywhere in a model: loading it
    and embedding one query either works or raises a SemSearchError, never
    another exception, within 5 s."""
    p, original = fuzz_model
    data = original
    for mutation in mutations:
        data = _mutate(data, mutation)
    p.write_bytes(data)
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(5)
    try:
        embed_query(load_model(p), "cedar park kansas")
    except SemSearchError:
        pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
