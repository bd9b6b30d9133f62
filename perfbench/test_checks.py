"""Each correctness check accepts the program's answer and rejects a corrupted one.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import semsearch  # noqa: E402
from semsearch.search import index_records  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS, make_inputs, tokenize  # noqa: E402

K = 10


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    d = tmp_path_factory.mktemp("engine")
    semsearch.gen_synthetic(d / "c.csv", 300, n_clusters=4, seed=3)
    records = semsearch.load_csv(d / "c.csv", ["center_name", "state"], id_column="id")
    digest = semsearch.save_records(records, d / "records.ndjson")
    vocab = semsearch.build_vocab(semsearch.corpus.iter_cell_tokens(records))
    config = semsearch.TrainConfig(dim=16, epochs=2, seed=3)
    model = semsearch.train(semsearch.encode_sentences(records, vocab), vocab, config,
                            corpus_hash=digest)
    semsearch.save_model(model, d / "model.bin")
    index, _ = index_records(model, records, semsearch.IndexConfig(n_trees=4, seed=3))
    semsearch.save_index(index, d / "index.ann")
    eng = semsearch.build_engine(d / "model.bin", d / "index.ann", d / "records.ndjson")
    return d, eng, model


@pytest.fixture(scope="module")
def query(engine):
    d, eng, _ = engine
    text = "harbor1 quarry1 ridge1"
    own = checks.embed(checks.read_model(d / "model.bin"), [text])[0]
    row = checks.ExactScan(eng.index.items).distances(own)[0]
    vec = semsearch.embed_query(eng.model, text)[0]
    oracle = semsearch.ExactOracle.from_unit(eng.index.items)
    return text, vec, row, oracle.query(vec, K)


def rejects(fn, *args):
    with pytest.raises(checks.CheckError):
        fn(*args)


def test_oracle_agrees_with_own_scan(query):
    _, _, row, (ids, dists) = query
    checks.check_oracle(row, ids, dists, K)
    far = int(np.argmax(row))
    rejects(checks.check_oracle, row, np.r_[ids[:-1], far], dists, K)
    rejects(checks.check_oracle, row, ids, dists + np.r_[np.zeros(K - 1), 1e-4], K)
    rejects(checks.check_oracle, row, ids[::-1].copy(), dists[::-1].copy(), K)


def test_full_scan_walk_is_bit_equal(engine, query):
    _, eng, _ = engine
    _, vec, _, ans = query
    full = eng.index.query_vector(vec, K, search_k=eng.index.size)
    checks.check_bit_equal(full, ans)
    rejects(checks.check_bit_equal, (full[0], np.nextafter(full[1], 3.0)), ans)
    rejects(checks.check_bit_equal, (full[0][::-1], full[1]), ans)


def test_exact_text_ranks_first(engine):
    _, eng, _ = engine
    text = eng.records.records[5].text("center_name")
    results, _ = eng.query(text, k=K)
    checks.check_exact_text(results[0].distance, text)
    rejects(checks.check_exact_text, results[0].distance + 1e-3, text)


def test_oneshot_json_equals_in_process(engine):
    _, eng, _ = engine
    results, dropped = eng.query("harbor1 qxzzz", k=K)
    expected = {"query": "harbor1 qxzzz", "dropped": dropped,
                "results": [r.to_dict() for r in results]}
    printed = json.dumps(expected, sort_keys=True)
    checks.check_oneshot(printed, expected)
    corrupt = json.loads(printed)
    corrupt["results"][3]["distance"] += 1e-9
    rejects(checks.check_oneshot, json.dumps(corrupt), expected)


def own_cells(engine):
    d, eng, _ = engine
    model = checks.read_model(d / "model.bin")
    return checks.own_items(model, checks.read_cells(d / "records.ndjson"))


def test_items_are_recomputed_cell_means(engine):
    _, eng, _ = engine
    item_cells, item_vecs = own_cells(engine)
    imap = eng.index.item_map
    items = eng.index.items
    checks.check_items(items, imap.row_ids, imap.col_ids, item_cells, item_vecs)
    bent = items.copy()
    bent[70, 3] += 1e-4
    rejects(checks.check_items, bent, imap.row_ids, imap.col_ids, item_cells, item_vecs)
    rows = imap.row_ids.copy()
    rows[[10, 11]] = rows[[11, 10]] + 1
    rejects(checks.check_items, items, rows, imap.col_ids, item_cells, item_vecs)
    rejects(checks.check_items, items[:-1], imap.row_ids, imap.col_ids, item_cells, item_vecs)


def test_walk_answers_are_scored_from_recomputed_distances(engine, query):
    _, eng, _ = engine
    text, _, row, _ = query
    item_cells, _ = own_cells(engine)
    columns = ["center_name", "state"]
    item_of = {(r, columns[c]): i for i, (r, c, _) in enumerate(item_cells)}
    results, _ = eng.query(text, k=K)
    ids = checks.answer_items(results, item_of, item_cells)
    dists = np.array([r.distance for r in results])
    own = checks.check_walk(row, ids, dists, K)
    kth = np.sort(row)[K - 1]
    assert checks.recall_hits(own, kth) == checks.recall_hits(dists, kth)

    # the nearest cell ten times over
    rejects(checks.check_walk, row, np.repeat(ids[:1], K), np.repeat(dists[:1], K), K)
    # far cells reported at the near cells' distances: recall 1.0 if trusted
    far = np.argsort(row)[-K:]
    rejects(checks.check_walk, row, far, dists, K)
    rejects(checks.check_walk, row, ids[:-1], dists[:-1], K)
    rejects(checks.check_walk, row, ids[::-1].copy(), dists[::-1].copy(), K)
    rejects(checks.check_walk, row, ids, dists - np.r_[np.zeros(K - 1), 1e-4], K)

    # a result naming a cell it does not hold, or one that is not indexed
    wrong = copy.copy(results[2])
    wrong.text = results[3].text + " x"
    rejects(checks.answer_items, results[:2] + [wrong], item_of, item_cells)
    ghost = copy.copy(results[2])
    ghost.row_id = len(eng.records.records) + 5
    rejects(checks.answer_items, [ghost], item_of, item_cells)


def test_leaves_partition_the_items(engine):
    _, eng, _ = engine
    tree, n = eng.index.trees[0], eng.index.size
    checks.check_tree(tree.leaf_bounds, tree.leaf_items, n)
    dup = tree.leaf_items.copy()
    dup[1] = dup[0]
    rejects(checks.check_tree, tree.leaf_bounds, dup, n)
    bounds = tree.leaf_bounds.copy()
    bounds[-1] = n - 1
    rejects(checks.check_tree, bounds, tree.leaf_items, n)


def test_losses_fall_and_clusters_hold(engine):
    _, _, model = engine
    checks.check_losses_fall(model.epoch_losses)
    rejects(checks.check_losses_fall, [0.9, 0.8, 0.85])
    rejects(checks.check_losses_fall, [0.9])
    checks.check_cluster(2, [2, 2, 2], "q")
    rejects(checks.check_cluster, 2, [2, 1, 2], "q")


def test_same_and_recall_hits():
    checks.check_same(["a", "b"], ["a", "b"], "digests")
    rejects(checks.check_same, ["a", "b"], ["a", "c"], "digests")
    assert checks.recall_hits([0.1, 0.2, 0.3 + 1e-7, 0.31], 0.3) == 3


def test_inputs_repeat_for_a_seed_and_no_query_is_wholly_oov(tmp_path):
    w = WORKLOADS["build-2k"]
    a = make_inputs(w, 4, tmp_path / "a", semsearch.gen_synthetic)
    b = make_inputs(w, 4, tmp_path / "b", semsearch.gen_synthetic)
    assert a.digest() == b.digest()
    assert a.digest() != make_inputs(w, 5, tmp_path / "c", semsearch.gen_synthetic).digest()
    with open(a.csv_path, encoding="utf-8") as f:
        vocab = {t for line in list(f)[1:] for t in tokenize(line.split(",")[1])
                 + tokenize(line.split(",")[2])}
    for text, kind in zip(a.queries, a.kinds):
        toks = tokenize(text)
        assert any(t in vocab for t in toks)
        assert (kind == "oov") == any(t not in vocab for t in toks)
