"""Ingestion, tokenization, vocabulary, and record store behavior."""

import json
from collections import Counter

import pytest

from semsearch.corpus import (
    Record,
    build_vocab,
    encode_sentences,
    iter_cell_tokens,
    load_csv,
    load_records,
    records_digest,
    save_records,
    tokenize,
)
from semsearch.errors import (
    ConfigError,
    CsvFormatError,
    EmptyVocabularyError,
    StoreFormatError,
    StoreVersionError,
    TruncatedFileError,
)

from conftest import TEXT_COLUMNS, synthetic_sentences


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
    assert stream.cell_of(0) == (0, 0)
    assert stream.cell_of(len(TEXT_COLUMNS)) == (1, 0)


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
    assert stream.sentences[0].tolist() == [vocab.token_to_id["a"]]
    assert stream.sentences[1].tolist() == []


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
    (3, lambda line: _shorten(line, "text")),
    (3, lambda line: _shorten(line, "meta")),
    (3, lambda line: _drop_key(line, "row_id")),
    (3, lambda line: "[1, 2]"),
], ids=["truncated-line", "header-without-kept", "short-text", "short-meta",
        "no-row-id", "not-an-object"])
def test_records_malformed_line_named(students_records, tmp_path, lineno, damage):
    p = tmp_path / "r.ndjson"
    save_records(students_records, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    lines[lineno - 1] = damage(lines[lineno - 1])
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(StoreFormatError, match=f"line {lineno}:"):
        load_records(p)
