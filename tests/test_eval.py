"""Oracle correctness, metrics, benchmark plumbing, synthetic data."""

import tracemalloc

import numpy as np
import pytest

from semsearch.ann import IndexConfig, build_index, normalize_rows
from semsearch.corpus import load_csv
from semsearch.evaluate import (
    ORACLE_BLOCK,
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


def plain_scan(items, q, k):
    """Top ``k`` of float32 unit ``items`` by a difference-form scan of every
    item, sorted by (distance, id): the oracle's arithmetic, no row found
    twice."""
    q = np.asarray(q, dtype=np.float64)
    qn = (q / np.sqrt(np.dot(q, q))).astype(np.float32)
    diff = items - qn
    d = np.minimum(np.sqrt(np.einsum("ij,ij->i", diff, diff).astype(np.float64)), 2.0)
    ids = np.lexsort((np.arange(len(d)), d))[:k]
    return ids, d[ids]


def test_oracle_over_repeated_rows_equals_a_scan_of_every_item():
    """The oracle scans each distinct row once and expands to items; its
    answers equal a scan of every item, ids and distances bit for bit."""
    # rows 1 and 2 mirror each other about the query axis, so they lie at
    # equal distance from it; rows 3 and 4 too
    rows = np.array([[1.0, 0.1, 0, 0], [1.0, 0.5, 0, 0], [1.0, -0.5, 0, 0],
                     [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    picks = [3, 1, 0, 2, 4, 1, 3, 0, 2, 4, 3, 1, 4, 3]
    vecs = rows[picks]
    oracle = ExactOracle(vecs)
    assert oracle._row_of is not None  # it scans the 5 distinct rows
    axis = [1.0, 0, 0, 0]
    queries = np.vstack([axis, gaussian_vectors(48, 6, 4)])
    # k = 1; the 3rd to 7th distances from the axis are held by three items
    # of row 1 and two of row 2; 5 distinct rows < k = 7 < 14 items; k >= N
    for k in (1, 3, 4, 7, 13, 14, 20):
        for q in queries:
            ids, dists = oracle.query(q, k)
            ref_ids, ref_d = plain_scan(oracle.items, q, k)
            assert ids.dtype == np.int64 and dists.dtype == np.float64
            assert ids.tolist() == ref_ids.tolist()
            assert dists.tobytes() == ref_d.tobytes()
    ids, dists = oracle.query(axis, 4)
    assert ids.tolist() == [2, 7, 1, 3] and dists[2] == dists[3]
    # the same items adopted through from_unit, as an index hands them over
    adopted = ExactOracle.from_unit(oracle.items)
    for q in queries:
        for k in (1, 3, 7, 20):
            a, b = adopted.query(q, k), oracle.query(q, k)
            assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()


def block_rows(dim, u):
    """``u`` float32 rows for the oracle at ``dim``, with an exact repeat
    and, when a block boundary falls inside, a tie at it: the last row of
    the first block and the first of the second mirror each other about
    the first axis (at dim 1, both are 1), nearer to it than any other
    row.

    At dim 1 unit rows are only +1 and -1, so the rows are values from -1
    to 1 adopted as they are: the arithmetic is the same, and -1 lies
    antipodal to a positive query, where ``D`` is exactly 4.
    """
    block = ORACLE_BLOCK // dim
    if dim == 1:
        rows = np.linspace(-1.0, 1.0, u, dtype=np.float32)[:, None]
        if u > block:
            rows[block - 1] = rows[block] = 1.0
    else:
        rows = normalize_rows(gaussian_vectors(dim + u, u, dim))
        if u > block:
            near = np.zeros((2, dim))
            near[:, 0], near[:, 1] = 1.0, [0.01, -0.01]
            rows[block - 1:block + 1] = normalize_rows(near)
    if u >= 2:
        rows[1] = rows[0]
    return rows


@pytest.mark.parametrize("dim", [1, 7, 64, 300])
def test_blocked_oracle_equals_a_whole_matrix_scan(dim):
    """Rows taken in blocks of ORACLE_BLOCK values give the ids and the
    distances of one difference-form pass over the whole matrix, bit for
    bit, at every row count around the block size, for the oracle that
    scans its items and for the one that scans distinct rows through a
    map."""
    block = ORACLE_BLOCK // dim
    axis = np.eye(1, dim)[0]
    for u in (1, block - 1, block, block + 1, 2 * block + 1):
        rows = block_rows(dim, u)
        oracles = [(ExactOracle.from_unit(rows), rows)]
        assert oracles[0][0]._row_of is None
        if dim > 1:
            # three items to a row: the oracle scans the distinct rows
            items = rows[np.argsort(gaussian_vectors(u, 3 * u, 1)[:, 0]) % u]
            oracles.append((ExactOracle.from_unit(items), items))
            assert oracles[1][0]._row_of is not None
            assert len(oracles[1][0]._rows) == len(np.unique(rows, axis=0))
        queries = np.vstack([axis, -axis, rows[:1], gaussian_vectors(u, 2, dim)])
        for oracle, items in oracles:
            for q in queries:
                ref_ids, ref_d = plain_scan(items, q, len(items))
                for k in (1, 10, u, u + 5):
                    ids, dists = oracle.query(q, k)
                    assert ids.tolist() == ref_ids[:k].tolist()
                    assert dists.tobytes() == ref_d[:k].tobytes()
    # the tie at the boundary holds the nearest distance twice, and at
    # dim 1 the antipodal row is at distance 2 exactly
    rows = block_rows(dim, block + 1)
    oracle = ExactOracle.from_unit(rows)
    ids, dists = oracle.query(axis, 2)
    assert ids.tolist() == [block - 1, block] and dists[0] == dists[1]
    if dim == 1:
        assert oracle.query(-axis, 1)[1][0] == 0.0
        assert oracle.query(axis, block + 1)[1][-2:].tolist() == [2.0, 2.0]


def test_oracle_query_scratch_is_one_block():
    """A query over 20,000 distinct rows at dim 64 allocates about one
    block of scratch, never a (U, dim) difference (5.1 MB)."""
    oracle = ExactOracle(gaussian_vectors(50, 20_000, 64))
    assert oracle._row_of is None
    q = gaussian_vectors(51, 1, 64)[0]
    oracle.query(q, 10)
    tracemalloc.start()
    try:
        oracle.query(q, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_from_unit_adopts_rows_verbatim():
    items = build_index(gaussian_vectors(45, 40, 5), IndexConfig(seed=1)).items
    oracle = ExactOracle.from_unit(items)
    assert oracle.items is not None
    assert np.array_equal(oracle.items, items)
    # the constructor keeps an index's unit rows as they are too
    assert ExactOracle(items).items.tobytes() == oracle.items.tobytes()


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


def test_gen_synthetic_equals_a_sequential_walk(tmp_path, monkeypatch):
    """Rows drawn from the counter stream in blocks are the rows of one
    sequential SplitMix64 walk, across block bounds and for any cluster
    count."""
    import csv

    import semsearch.evaluate as evaluate
    from semsearch import rng

    def walk(path, n_rows, n_clusters, seed):
        sm = rng.SplitMix64(rng.derive(seed, "synthetic"))
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["id", "center_name", "state", "score"])
            for row_id in range(n_rows):
                c = sm.next_below(n_clusters)
                words = [f"{evaluate.BASE_WORDS[sm.next_below(20)]}{c}"
                         for _ in range(3 + sm.next_below(3))]
                state = f"{evaluate.STATE_WORDS[sm.next_below(4)]}{c}"
                writer.writerow([row_id, " ".join(words), state, 1 + sm.next_below(100)])

    monkeypatch.setattr(evaluate, "SYNTHETIC_CHUNK", 7)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for n_rows, n_clusters, seed in ((1, 1, 0), (7, 3, 1), (50, 8, 2), (30, 10**24, 3)):
        gen_synthetic(a, n_rows, n_clusters=n_clusters, seed=seed)
        walk(b, n_rows, n_clusters, seed)
        assert a.read_bytes() == b.read_bytes()


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
