"""Query embedding, engine assembly, and provenance validation."""

import numpy as np
import pytest

from semsearch.ann import IndexConfig, save_index
from semsearch.corpus import build_vocab, save_records
from semsearch.embeddings import TrainConfig, save_model, train
from semsearch.errors import (
    ConfigError,
    DimensionMismatchError,
    ProvenanceError,
    UnresolvableQueryError,
)
from semsearch.search import (
    SearchEngine,
    build_engine,
    cell_vectors,
    embed_query,
    index_records,
    load_manifest,
    text_vector,
    update_manifest,
)

from conftest import encode, two_cluster_sentences


def test_text_vector_is_token_mean(students_model):
    m = students_model
    toks = m.vocab.id_to_token[:3]
    vec = text_vector(m, toks)
    expected = m.w_in[[m.vocab.token_to_id[t] for t in toks]] \
        .astype(np.float64).mean(axis=0)
    assert np.array_equal(vec, expected)
    assert text_vector(m, ["definitely-oov"]) is None


def test_embed_query_reports_dropped(students_model):
    known = students_model.vocab.id_to_token[0]
    vec, dropped = embed_query(students_model, f"{known} qqqzzz {known}")
    assert dropped == ["qqqzzz"]
    assert vec.shape == (students_model.dim,)


def test_embed_query_unresolvable(students_model):
    with pytest.raises(UnresolvableQueryError, match="no tokens"):
        embed_query(students_model, "!!! ---")
    with pytest.raises(UnresolvableQueryError, match="qqqzzz"):
        embed_query(students_model, "qqqzzz wwwyyy")
    try:
        embed_query(students_model, "qqqzzz")
    except UnresolvableQueryError as e:
        assert e.dropped == ["qqqzzz"]


def test_cell_vectors_cover_every_cell(students_model, students_records):
    matrix, imap, skipped = cell_vectors(students_model, students_records)
    n_cells = students_records.kept * len(students_records.text_columns)
    assert skipped == 0
    assert matrix.shape == (n_cells, students_model.dim)
    assert imap.columns == students_records.text_columns
    assert imap.row_ids.max() == students_records.kept - 1
    # items appear in record-major, column-minor order
    assert imap.row_ids[0] == 0 and imap.col_ids[0] == 0
    assert imap.col_ids[1] == 1


def test_engine_exact_text_hit(students_model, students_records, students_index):
    """A query that repeats an indexed cell lands on it at distance ~0."""
    engine = SearchEngine(records=students_records, model=students_model,
                          index=students_index)
    rec = students_records.records[48]
    text = rec.text("center_name")
    results, dropped = engine.query(text, k=3, search_k=students_index.size)
    assert dropped == []
    top = results[0]
    assert top.distance <= 1e-5
    assert top.text == text
    assert top.rank == 1


def test_two_cluster_queries_stay_in_cluster(tmp_path):
    """Trained on disjoint co-occurrence, top hits share the query's cluster."""
    sents = two_cluster_sentences(n=400)
    vocab = build_vocab(sents)
    model = train(encode(sents, vocab), vocab,
                  TrainConfig(dim=16, window=3, negatives=3, epochs=3, seed=4))

    from semsearch.corpus import Record, RecordSet, records_digest

    recs = [Record(i, (("text", " ".join(s)),), ()) for i, s in enumerate(sents)]
    records = RecordSet(
        records=recs,
        columns=["text"],
        text_columns=["text"],
        id_column=None,
        dropped=0,
        corpus_hash=records_digest(recs),
    )
    model.corpus_hash = records.corpus_hash
    index, skipped = index_records(model, records, IndexConfig(n_trees=5, seed=4))
    assert skipped == 0
    engine = SearchEngine(records=records, model=model, index=index)
    results, _ = engine.query("a1 a2", k=5, search_k=index.size)
    for r in results:
        tokens = set(r.text.split())
        assert tokens <= {f"a{i}" for i in range(1, 6)}, r.text


def test_engine_rejects_mismatched_hash(students_model, students_records,
                                         students_index):
    model = students_model
    altered = type(model)(
        vocab=model.vocab, w_in=model.w_in, w_out=model.w_out,
        config=model.config, corpus_hash=bytes(32),
    )
    with pytest.raises(ProvenanceError, match="model"):
        SearchEngine(records=students_records, model=altered,
                     index=students_index)


def test_engine_rejects_dim_mismatch(students_model, students_records,
                                      students_index):
    model = students_model
    altered = type(model)(
        vocab=model.vocab, w_in=model.w_in[:, :-1], w_out=model.w_out,
        config=model.config, corpus_hash=model.corpus_hash,
    )
    with pytest.raises(DimensionMismatchError):
        SearchEngine(records=students_records, model=altered,
                     index=students_index)


def test_engine_requires_item_map(students_model, students_records,
                                   students_index):
    bare = type(students_index)(
        items=students_index.items, trees=students_index.trees,
        config=students_index.config, corpus_hash=students_index.corpus_hash,
        item_map=None,
    )
    with pytest.raises(ProvenanceError, match="item map"):
        SearchEngine(records=students_records, model=students_model, index=bare)


def test_build_engine_from_files(students_model, students_records,
                                 students_index, tmp_path):
    save_records(students_records, tmp_path / "r.ndjson")
    save_model(students_model, tmp_path / "m.bin")
    save_index(students_index, tmp_path / "i.ann")
    engine = build_engine(tmp_path / "m.bin", tmp_path / "i.ann",
                          tmp_path / "r.ndjson")
    results, _ = engine.query("cedar park academy", k=2)
    assert results and results[0].column in students_records.text_columns


def test_results_expose_metadata(students_model, students_records,
                                 students_index):
    engine = SearchEngine(records=students_records, model=students_model,
                          index=students_index)
    results, _ = engine.query("arizona", k=1, search_k=students_index.size)
    d = results[0].to_dict()
    assert set(d) == {"rank", "distance", "row_id", "column", "text", "metadata"}
    assert "grade" in d["metadata"] and "id" in d["metadata"]


# --- manifest ----------------------------------------------------------------


def test_manifest_updates_are_deterministic(tmp_path):
    update_manifest(tmp_path, {"records": "r.ndjson"})
    first = (tmp_path / "manifest.json").read_bytes()
    update_manifest(tmp_path, {"records": "r.ndjson"})
    assert (tmp_path / "manifest.json").read_bytes() == first
    update_manifest(tmp_path, {"model": "m.bin"})
    m = load_manifest(tmp_path)
    assert m["records"] == "r.ndjson" and m["model"] == "m.bin"


def test_manifest_rejects_foreign_json(tmp_path):
    (tmp_path / "manifest.json").write_text('{"format": "other"}')
    with pytest.raises(ConfigError):
        load_manifest(tmp_path)

