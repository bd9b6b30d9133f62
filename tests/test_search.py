"""Query embedding, engine assembly, and provenance validation."""

import numpy as np
import pytest

from semsearch.ann import (
    IndexConfig,
    build_index,
    load_index,
    normalize_rows,
    save_index,
)
from semsearch.corpus import build_vocab, save_records
from semsearch.embeddings import TrainConfig, save_model, train
from semsearch.errors import (
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
)

from semsearch import rng
from semsearch.evaluate import gaussian_vectors

from conftest import encode, record_set, two_cluster_sentences


def test_embed_query_is_token_mean(students_model):
    """The float64 mean of the in-vocabulary tokens' rows; ``definitely-oov``
    is two tokens, both dropped."""
    m = students_model
    toks = m.vocab.id_to_token[:3]
    vec, dropped = embed_query(m, f"{toks[0]} definitely-oov {toks[1]} {toks[2]}")
    expected = m.w_in[[m.vocab.token_to_id[t] for t in toks]] \
        .astype(np.float64).mean(axis=0)
    assert np.array_equal(vec, expected)
    assert dropped == ["definitely", "oov"]
    with pytest.raises(UnresolvableQueryError, match="definitely"):
        embed_query(m, "definitely-oov")


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


def test_build_index_keeps_cell_vectors_rows(students_model, students_records):
    """The forest's rows are the cells' float32 unit rows, not a copy."""
    items, imap, _ = cell_vectors(students_model, students_records)
    index = build_index(items, IndexConfig(n_trees=2, seed=1), item_map=imap)
    assert np.shares_memory(index.rows, items)


def test_cell_vectors_match_per_cell_loop():
    """Bit for bit normalize_rows of the per-cell embed_query vectors,
    with the same skips."""
    from semsearch.corpus import Record
    from semsearch.embeddings import EmbeddingModel

    vocab = build_vocab([[f"t{i}" for i in range(30)]])
    w_in = gaussian_vectors(23, 30, 7).astype(np.float32)
    w_in[vocab.token_to_id["t1"]] = -w_in[vocab.token_to_id["t0"]]
    model = EmbeddingModel(vocab=vocab, w_in=w_in, w_out=w_in,
                           config=TrainConfig(dim=7), corpus_hash=bytes(32))
    sm = rng.SplitMix64(5)
    texts = [" ".join(f"t{sm.next_below(36)}" for _ in range(sm.next_below(9)))
             for _ in range(150)]
    texts += [" ".join(f"t{sm.next_below(30)}" for _ in range(200)),
              "zz1 zz2, zz3", "t0 t1", "t1 T0 t1 t0", "", "t5"]
    recs = [Record(i, (("a", t), ("b", texts[-1 - i])), ())
            for i, t in enumerate(texts)]
    records = record_set(recs, ["a", "b"], ["a", "b"])
    model.corpus_hash = records.corpus_hash
    expected, row_ids, col_ids, skipped = [], [], [], 0
    for rec in recs:
        for c, (_, value) in enumerate(rec.text_fields):
            try:
                vec = embed_query(model, value)[0]
            except UnresolvableQueryError:
                vec = None
            if vec is None or not np.any(vec):
                skipped += 1
                continue
            expected.append(vec)
            row_ids.append(rec.row_id)
            col_ids.append(c)
    # unit rows, batch by batch, are normalize_rows of the per-cell vectors
    items, imap, got_skipped = cell_vectors(model, records)
    assert skipped >= 8 and got_skipped == skipped
    assert items.dtype == np.float32
    assert items.tobytes() == normalize_rows(np.array(expected)).tobytes()
    assert imap.row_ids.tolist() == row_ids
    assert imap.col_ids.tolist() == col_ids


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

    from semsearch.corpus import Record, records_digest

    recs = [Record(i, (("text", " ".join(s)),), ()) for i, s in enumerate(sents)]
    records = record_set(recs, ["text"], ["text"])
    assert records.corpus_hash == records_digest(recs)
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
        rows=students_index.rows, trees=students_index.trees,
        config=students_index.config, corpus_hash=students_index.corpus_hash,
        item_map=None,
    )
    with pytest.raises(ProvenanceError, match="item map"):
        SearchEngine(records=students_records, model=students_model, index=bare)


def test_engine_rejects_item_map_past_the_store(students_model, students_records,
                                                 students_index, tmp_path):
    imap = students_index.item_map
    row_ids = imap.row_ids.copy()
    row_ids[-1] = students_records.kept  # still after the item before it
    damaged = type(students_index)(
        rows=students_index.rows, trees=students_index.trees,
        config=students_index.config, corpus_hash=students_index.corpus_hash,
        item_map=type(imap)(imap.columns, row_ids, imap.col_ids, imap.model_digest),
    )
    save_index(damaged, tmp_path / "i.ann")
    with pytest.raises(ProvenanceError, match="past the end of the record store"):
        SearchEngine(records=students_records, model=students_model,
                     index=load_index(tmp_path / "i.ann"))


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
