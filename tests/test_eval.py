"""Oracle correctness, metrics, benchmark plumbing, synthetic data."""

import numpy as np
import pytest

from semsearch.ann import IndexConfig, build_index
from semsearch.corpus import load_csv
from semsearch.evaluate import (
    ExactOracle,
    bench,
    gaussian_vectors,
    gen_synthetic,
    recall_at_k,
)


# --- exact oracle -----------------------------------------------------------


def test_exact_knn_brute_force_agreement():
    """Cross-check the oracle against the plainest possible scan."""
    vecs = gaussian_vectors(41, 200, 7)
    for q in gaussian_vectors(42, 20, 7):
        ids, dists = ExactOracle(vecs).query(q, 9)
        unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        qn = q / np.linalg.norm(q)
        ref = np.linalg.norm(unit - qn, axis=1)
        order = sorted(range(200), key=lambda i: (ref[i], i))[:9]
        assert ids.tolist() == order
        assert np.allclose(dists, ref[order], atol=1e-6)
        assert np.all(np.diff(dists) >= 0)


def test_exact_knn_breaks_ties_by_lowest_id():
    base = np.array([[1.0, 0.0], [0.0, 1.0]])
    vecs = np.vstack([base[0], base[1], 2 * base[0], 3 * base[0], base[1]])
    oracle = ExactOracle(vecs)
    ids, dists = oracle.query([1.0, 0.0], 3)
    # items 0, 2, 3 are all at distance exactly 0; 1 and 4 tie further out
    assert ids.tolist() == [0, 2, 3]
    assert np.all(dists == 0.0)
    ids, _ = oracle.query([1.0, 0.0], 4)
    assert ids.tolist() == [0, 2, 3, 1]


def test_exact_knn_k_at_least_n_returns_all():
    vecs = gaussian_vectors(43, 6, 3)
    ids, dists = ExactOracle(vecs).query(vecs[2], 100)
    assert sorted(ids.tolist()) == list(range(6))
    assert ids[0] == 2 and dists[0] == 0.0


def test_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        ExactOracle(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ExactOracle(np.empty((0, 3)))
    oracle = ExactOracle(gaussian_vectors(44, 5, 3))
    with pytest.raises(ValueError):
        oracle.query([0.0, 0.0, 0.0], 2)
    with pytest.raises(ValueError):
        oracle.query([1.0, 0.0, 0.0], 0)


def test_from_unit_adopts_rows_verbatim():
    items = build_index(gaussian_vectors(45, 40, 5), IndexConfig(seed=1)).items
    oracle = ExactOracle.from_unit(items)
    assert oracle.items is not None
    assert np.array_equal(oracle.items, items)


# --- metrics ----------------------------------------------------------------


def test_recall_at_k_values():
    assert recall_at_k([1, 2, 3], [1, 2, 3]) == 1.0
    assert recall_at_k([1, 9, 8], [1, 2, 3]) == pytest.approx(1 / 3)
    assert recall_at_k([], [1, 2]) == 0.0
    with pytest.raises(ValueError):
        recall_at_k([1], [])


# --- benchmark --------------------------------------------------------------


def test_bench_rows_and_exact_recall():
    vecs = gaussian_vectors(46, 300, 8)
    index = build_index(vecs, IndexConfig(n_trees=3, seed=2))
    oracle = ExactOracle(vecs)
    queries = gaussian_vectors(47, 5, 8)
    rows = bench(index, oracle, queries, 5, [None, 10, 300], warmup=1, reps=3)
    assert [r.label for r in rows] == ["exact", "search_k=10", "search_k=300"]
    for row in rows:
        assert row.mean_us > 0
        assert row.p50_us <= row.p95_us <= row.p99_us
        assert 0.0 <= row.recall <= 1.0
    assert rows[0].recall == 1.0   # oracle against itself
    assert rows[2].recall == 1.0   # search_k = N is exhaustive
    assert rows[2].recall >= rows[1].recall


# --- synthetic corpus -------------------------------------------------------


def test_gen_synthetic_shape_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    gen_synthetic(a, 120, n_clusters=4, seed=9)
    gen_synthetic(b, 120, n_clusters=4, seed=9)
    assert a.read_bytes() == b.read_bytes()
    records = load_csv(a, ["center_name", "state"], id_column="id")
    assert records.kept == 120 and records.dropped == 0
    assert records.columns == ["id", "center_name", "state", "score"]


def test_gen_synthetic_clusters_use_disjoint_pools(tmp_path):
    p = tmp_path / "c.csv"
    gen_synthetic(p, 200, n_clusters=3, seed=1)
    records = load_csv(p, ["center_name", "state"])
    suffix_of = {}
    for rec in records:
        name_suffixes = {tok[-1] for tok in rec.text("center_name").split()}
        state_suffix = rec.text("state")[-1]
        assert len(name_suffixes) == 1
        assert state_suffix in name_suffixes
        suffix_of.setdefault(state_suffix, 0)
        suffix_of[state_suffix] += 1
    assert set(suffix_of) == {"0", "1", "2"}


def test_gen_synthetic_validation(tmp_path):
    with pytest.raises(ValueError):
        gen_synthetic(tmp_path / "x.csv", 0)
    with pytest.raises(ValueError):
        gen_synthetic(tmp_path / "x.csv", 5, n_clusters=0)


def test_gaussian_vectors_deterministic():
    a = gaussian_vectors(5, 10, 4)
    b = gaussian_vectors(5, 10, 4)
    assert a.shape == (10, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, gaussian_vectors(6, 10, 4))
