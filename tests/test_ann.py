"""Forest construction, traversal, and the exact-rerank contract."""

import struct
import warnings

import numpy as np
import pytest

from semsearch.ann import (
    AnnIndex,
    IndexConfig,
    ItemMap,
    build_index,
    load_index,
    normalize_rows,
    save_index,
    Tree,
    unit_normalize,
    _planes,
)
from semsearch.errors import (
    ConfigError,
    DimensionMismatchError,
    StoreFormatError,
    StoreVersionError,
    TruncatedFileError,
)
from semsearch import rng
from semsearch.evaluate import ExactOracle, gaussian_vectors


def leaf_ranges(tree):
    b = tree.leaf_bounds
    return [(int(b[i]), int(b[i + 1])) for i in range(len(b) - 1)]


# --- geometry helpers -------------------------------------------------------


def test_unit_normalize_basics():
    v = unit_normalize([3.0, 4.0])
    assert v.dtype == np.float32
    assert np.allclose(v, [0.6, 0.8])
    with pytest.raises(ValueError):
        unit_normalize([0.0, 0.0])
    with pytest.raises(ValueError, match="zero norm"):
        unit_normalize([])
    with pytest.raises(ValueError):
        unit_normalize(np.zeros((2, 2)))


def test_normalize_rows_reports_zero_rows():
    with pytest.raises(ValueError, match=r"\[1\]"):
        normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))


@pytest.fixture(scope="module")
def routes():
    """An index and an oracle over the same 50 rows at dim 8, and the
    three ways to query them: the scan, the walk and the oracle."""
    vecs = gaussian_vectors(61, 50, 8)
    index = build_index(vecs, IndexConfig(seed=1))
    oracle = ExactOracle(vecs)
    return vecs, {
        "scan": lambda q: index.query_vector(q, 5),
        "walk": lambda q: index.query_vector(q, 5, search_k=10),
        "oracle": lambda q: oracle.query(q, 5),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_is_refused_by_name(routes, bad):
    """A NaN or an infinity has no direction: every route refuses it with a
    ValueError that says so, and numpy warns of nothing."""
    _, answer = routes
    q = gaussian_vectors(62, 1, 8)[0]
    q[3] = bad
    for route in answer.values():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="a NaN or an infinity"):
                route(q)


def test_scaled_vectors_keep_their_answers(routes):
    """A vector scaled by a power of two whose squared norm overflows or
    underflows in float64 answers exactly as the vector itself on every
    route, and rows so scaled normalize to exactly the same rows."""
    vecs, answer = routes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in gaussian_vectors(63, 4, 8):
            for scale in (2.0**600, 2.0**-600):
                # vdot overflows without a warning, where dot warns
                ss = np.vdot(q * scale, q * scale)
                assert ss == np.inf or ss < np.finfo(np.float64).tiny
                for name, route in answer.items():
                    ids, d = route(q * scale)
                    ref_ids, ref_d = route(q)
                    assert ids.tolist() == ref_ids.tolist(), name
                    assert d.tobytes() == ref_d.tobytes(), name
        for scale in (2.0**600, 2.0**-600):
            assert normalize_rows(vecs * scale).tobytes() == normalize_rows(vecs).tobytes()
            assert ExactOracle(vecs * scale).items.tobytes() == (
                ExactOracle(vecs).items.tobytes())
        # one row too large and one too small among ordinary ones
        mixed = vecs.copy()
        mixed[[3, 7]] *= [[2.0**700], [2.0**-700]]
        assert normalize_rows(mixed).tobytes() == normalize_rows(vecs).tobytes()
        with pytest.raises(ValueError, match=r"a NaN or an infinity.*\[2, 5\]"):
            normalize_rows(np.where(np.isin(np.arange(50), [2, 5])[:, None],
                                    np.inf, vecs))


# --- construction invariants ------------------------------------------------


def test_leaf_capacity_respected_everywhere():
    vecs = gaussian_vectors(1, 700, 8)
    index = build_index(vecs, IndexConfig(n_trees=4, leaf_capacity=16, seed=2))
    for tree in index.trees:
        sizes = [hi - lo for lo, hi in leaf_ranges(tree)]
        assert max(sizes) <= 16
        assert min(sizes) >= 1


def test_every_tree_partitions_all_items():
    n = 300
    index = build_index(gaussian_vectors(2, n, 6), IndexConfig(n_trees=3, seed=5))
    for tree in index.trees:
        assert sorted(tree.leaf_items.tolist()) == list(range(n))
        ranges = leaf_ranges(tree)
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))


def test_children_reference_each_split_and_leaf_once():
    index = build_index(gaussian_vectors(3, 400, 5), IndexConfig(n_trees=2, seed=1))
    for tree in index.trees:
        refs = tree.children.ravel().tolist()
        split_refs = [r for r in refs if r < tree.n_splits]
        leaf_refs = [r - tree.n_splits for r in refs if r >= tree.n_splits]
        # every split but the root, and every leaf, appears exactly once
        assert sorted(split_refs) == list(range(1, tree.n_splits))
        assert sorted(leaf_refs) == list(range(tree.n_leaves))


def test_identical_points_still_respect_capacity():
    """Unsplittable duplicates fall back to coin routing, never a huge leaf."""
    vecs = np.tile(np.array([[1.0, 2.0, 3.0]]), (100, 1))
    index = build_index(vecs, IndexConfig(n_trees=2, leaf_capacity=8, seed=4))
    for tree in index.trees:
        assert max(hi - lo for lo, hi in leaf_ranges(tree)) <= 8
    # exhaustive query: all items tie at 0, lowest ids win
    ids, dists = index.query_vector([1.0, 2.0, 3.0], 5, search_k=100)
    assert np.array_equal(ids, [0, 1, 2, 3, 4])
    assert np.all(dists == 0.0)


def test_single_leaf_tree():
    vecs = gaussian_vectors(4, 10, 4)
    index = build_index(vecs, IndexConfig(n_trees=2, leaf_capacity=16, seed=3))
    for tree in index.trees:
        # the root, ref 0, is leaf 0 when there are no splits
        assert tree.n_splits == 0 and tree.n_leaves == 1
        assert tree.children.shape == (0, 2)
    ids, _ = index.query_vector(vecs[3], 1, search_k=1)
    assert ids[0] == 3


def test_build_rejects_empty_and_mismatched_map():
    with pytest.raises(ValueError):
        build_index(np.empty((0, 4)))
    imap = ItemMap(columns=["t"], row_ids=np.zeros(3, np.uint32),
                   col_ids=np.zeros(3, np.uint16))
    with pytest.raises(DimensionMismatchError):
        build_index(gaussian_vectors(5, 4, 3), item_map=imap)


def mixed_vectors(seed=19):
    """Distinct points mixed with groups of 40 duplicates: on one level some
    nodes split at once, some only after a retry, some by coin flips."""
    distinct = gaussian_vectors(seed, 300, 6)
    groups = [np.tile(distinct[i], (40, 1)) for i in (0, 1, 2)]
    rows = np.concatenate([distinct] + groups)
    return rows[np.argsort(gaussian_vectors(seed + 1, len(rows), 1)[:, 0])]


def test_same_seed_saves_identical_bytes(tmp_path):
    vecs = mixed_vectors()
    paths = [tmp_path / f"{name}.ann" for name in ("a", "b", "c")]
    for p, seed in zip(paths, (4, 4, 5)):
        save_index(build_index(vecs, IndexConfig(n_trees=3, leaf_capacity=8,
                                                 seed=seed)), p)
    a, b, c = (p.read_bytes() for p in paths)
    assert a == b
    assert a != c


def test_splits_numbered_breadth_first():
    index = build_index(mixed_vectors(),
                        IndexConfig(n_trees=3, leaf_capacity=8, seed=2))
    for tree in index.trees:
        order, queue = [], [0]
        for ref in queue:
            order.append(ref)
            for child in tree.children[ref].tolist():
                if child < tree.n_splits:
                    assert child > ref
                    queue.append(child)
        assert order == list(range(tree.n_splits))
        bounds = tree.leaf_bounds.astype(np.int64)
        assert np.all(np.diff(bounds) > 0)


def record_levels(monkeypatch):
    """Patch the builder to record, level after level, the arguments and
    result of ``_split_level`` and the normals and offsets it routed with:
    the arrays of the level's last ``_sides`` call, which hold each node's
    last sampled plane. A node that fell back to coin flips stores its
    first item twice; it gets the zero plane the ``Tree`` docstring gives
    such a pair."""
    import semsearch.ann as ann

    levels, routed = [], []
    split_level, sides = ann._split_level, ann._sides

    def recording_sides(items, rows, seg, normals, offsets):
        routed.append((normals, offsets))
        return sides(items, rows, seg, normals, offsets)

    def recording(*args):
        routed.clear()
        out = split_level(*args)
        items, pairs = args[0], out[0]
        k = len(pairs)
        normals, offsets = routed[-1] if routed else (
            np.zeros((k, items.shape[1]), np.float32), np.zeros(k, np.float32))
        normals, offsets = normals.copy(), offsets.copy()
        coin = pairs[:, 0] == pairs[:, 1]
        normals[coin], offsets[coin] = 0.0, 0.0
        levels.append((args, out, normals, offsets))
        return out

    monkeypatch.setattr(ann, "_sides", recording_sides)
    monkeypatch.setattr(ann, "_split_level", recording)
    return levels


def test_mixed_duplicates_respect_capacity_and_partition(monkeypatch):
    import semsearch.ann as ann

    split_level = ann._split_level
    levels = record_levels(monkeypatch)
    vecs = mixed_vectors()
    index = build_index(vecs, IndexConfig(n_trees=2, leaf_capacity=8, seed=3))
    assert index.coin_splits > 0
    for tree in index.trees:
        assert ann._check_tree(tree, len(vecs)) is None
        sizes = [hi - lo for lo, hi in leaf_ranges(tree)]
        assert max(sizes) <= 8 and min(sizes) >= 1
        assert sorted(tree.leaf_items.tolist()) == list(range(len(vecs)))
    # coin flips and planes share a level
    assert any(0 < coins < len(args[2]) for args, (_, _, coins, _), _, _ in levels)
    # each node splits the same when batched alone, and the plane it routed
    # with is the one its stored pair gives
    for (items, rows, sizes, node_ids, seed), out, normals, offsets in levels:
        pairs, n_left, coins, reordered = out
        # a coin-flip split, and only one, stores one item twice
        assert np.count_nonzero(pairs[:, 0] == pairs[:, 1]) == coins
        derived = ann._planes(items, pairs)
        assert derived[0].tobytes() == normals.tobytes()
        assert derived[1].tobytes() == offsets.tobytes()
        heads = np.cumsum(sizes) - sizes
        for s in range(len(sizes)):
            part = slice(heads[s], heads[s] + sizes[s])
            one = split_level(items, rows[part], sizes[s:s + 1], node_ids[s:s + 1],
                              seed)
            assert np.array_equal(one[0][0], pairs[s])
            assert one[1][0] == n_left[s]
            assert np.array_equal(one[3], reordered[part])


def test_dim_one_and_leaf_capacity_one():
    vecs = np.array([[v] for v in (3.0, -1.0, 2.0, -2.0, 5.0, 0.5, -0.1, 7.0)])
    index = build_index(vecs, IndexConfig(n_trees=3, leaf_capacity=1, seed=6))
    assert index.coin_splits > 0  # only two directions exist at dim 1
    for tree in index.trees:
        assert tree.n_splits == len(vecs) - 1
        assert [hi - lo for lo, hi in leaf_ranges(tree)] == [1] * len(vecs)
    assert_matches_oracle(index, [[1.0], [-4.0]], [1, 3, 8])
    ids, dists = index.query_vector([1.0], 3, search_k=4)
    assert len(set(ids.tolist())) == 3
    assert set(dists.tolist()) <= {0.0, 2.0}


def test_config_validation():
    for bad in (
        dict(n_trees=0),
        dict(leaf_capacity=0),
    ):
        with pytest.raises(ConfigError):
            IndexConfig(**bad)


def build_with_planes(vecs, config):
    """``build_index(vecs, config)`` and, per tree, the normals and offsets
    the builder routed with (see :func:`record_levels`), level after
    level: in split order."""
    with pytest.MonkeyPatch.context() as mp:
        levels = record_levels(mp)
        index = build_index(vecs, config)
    planes = []
    for t in range(config.n_trees):
        seed = rng.derive(config.seed, "tree", t)
        mine = [(n, o) for args, _, n, o in levels if args[4] == seed]
        planes.append((
            np.concatenate([np.empty((0, index.dim), np.float32)] + [n for n, _ in mine]),
            np.concatenate([np.empty(0, np.float32)] + [o for _, o in mine]),
        ))
    return index, planes


def test_build_deterministic_per_seed():
    vecs = gaussian_vectors(6, 250, 8)
    a, planes_a = build_with_planes(vecs, IndexConfig(n_trees=3, seed=9))
    b, planes_b = build_with_planes(vecs, IndexConfig(n_trees=3, seed=9))
    c = build_index(vecs, IndexConfig(n_trees=3, seed=10))
    for ta, tb, pa, pb in zip(a.trees, b.trees, planes_a, planes_b):
        assert np.array_equal(ta.leaf_items, tb.leaf_items)
        assert np.array_equal(ta.pairs, tb.pairs)
        assert np.array_equal(pa[0], pb[0])
        assert np.array_equal(_planes(a.items, ta.pairs)[0], pb[0])
    assert any(
        not np.array_equal(ta.leaf_items, tc.leaf_items)
        for ta, tc in zip(a.trees, c.trees)
    )


# --- query behavior ---------------------------------------------------------


def test_traverse_collects_distinct_candidates():
    n = 500
    vecs = gaussian_vectors(7, n, 8)
    index = build_index(vecs, IndexConfig(n_trees=5, seed=6))
    qn = unit_normalize(gaussian_vectors(8, 1, 8)[0])
    for sk in (1, 20, 100, n):
        cand = index._traverse(qn, sk)
        assert len(set(cand.tolist())) == len(cand)
        assert len(cand) >= min(sk, n)
    assert len(index._traverse(qn, n)) == n  # full walk reaches every item


def test_exhaustive_query_matches_oracle_bitwise():
    vecs = gaussian_vectors(9, 400, 12)
    index = build_index(vecs, IndexConfig(n_trees=4, seed=8))
    oracle = ExactOracle(vecs)
    assert np.array_equal(index.items, oracle.items)
    for q in gaussian_vectors(10, 30, 12):
        ai, ad = index.query_vector(q, 7, search_k=400)
        ei, ed = oracle.query(q, 7)
        assert np.array_equal(ai, ei)
        assert np.array_equal(ad, ed)


def test_results_sorted_distance_then_id():
    vecs = gaussian_vectors(11, 300, 6)
    index = build_index(vecs, IndexConfig(seed=2))
    ids, dists = index.query_vector(gaussian_vectors(12, 1, 6)[0], 20)
    pairs = list(zip(dists.tolist(), ids.tolist()))
    assert pairs == sorted(pairs)
    assert len(set(ids.tolist())) == len(ids)


def test_query_k_larger_than_candidates():
    vecs = gaussian_vectors(13, 50, 4)
    index = build_index(vecs, IndexConfig(seed=1))
    ids, dists = index.query_vector(vecs[0], 200)
    assert len(ids) == 50
    assert ids[0] == 0 and dists[0] == 0.0


def test_query_validation():
    index = build_index(gaussian_vectors(14, 20, 4), IndexConfig(seed=1))
    with pytest.raises(ValueError):
        index.query_vector([1, 0, 0, 0], 0)
    with pytest.raises(ValueError):
        index.query_vector([1, 0, 0, 0], 3, search_k=0)
    with pytest.raises(ValueError):
        index.query_vector([0, 0, 0, 0], 3)
    with pytest.raises(DimensionMismatchError):
        index.query_vector([1, 0, 0], 3)


def test_default_search_k_is_trees_times_k():
    index = build_index(gaussian_vectors(15, 30, 4),
                        IndexConfig(n_trees=7, seed=1))
    assert index.default_search_k(9) == 63


def test_exact_text_distance_zero_at_full_search():
    """An indexed vector queried verbatim comes back first at distance 0."""
    vecs = gaussian_vectors(16, 120, 10)
    index = build_index(vecs, IndexConfig(n_trees=3, seed=7))
    for i in (0, 57, 119):
        ids, dists = index.query_vector(vecs[i], 3, search_k=120)
        assert ids[0] == i
        assert dists[0] == 0.0


# --- the exact scan: shortlist bound ----------------------------------------


def assert_matches_oracle(index, queries, ks):
    """The exact scan and ExactOracle agree bit for bit."""
    oracle = ExactOracle.from_unit(index.items)
    for q in queries:
        for k in ks:
            ei, ed = oracle.query(q, k)
            ai, ad = index.query_vector(q, k, search_k=index.size)
            assert np.array_equal(ai, ei)
            assert ad.tobytes() == ed.tobytes()


@pytest.mark.parametrize("dim", [1, 7, 300])
def test_scan_matches_oracle_across_dims(dim):
    """Tight clusters put the k-th distance where the float32 dot product
    cannot order items; a slack of a few ulps loses true neighbours there."""
    index = build_index(gaussian_vectors(40 + dim, 300, dim), IndexConfig(seed=3))
    assert_matches_oracle(index, gaussian_vectors(41 + dim, 10, dim), [1, 10, 37])
    center = gaussian_vectors(42 + dim, 1, dim)[0]
    scale = np.linalg.norm(center) / np.sqrt(dim)
    for sigma in (1e-4, 1e-5):
        vecs = center + sigma * scale * gaussian_vectors(43 + dim, 400, dim)
        index = build_index(vecs, IndexConfig(n_trees=2, seed=3))
        queries = center + sigma * scale * gaussian_vectors(44 + dim, 8, dim)
        assert_matches_oracle(index, [center, *queries], [1, 5, 10, 50])


def test_scan_keeps_exact_duplicates_in_id_order():
    base = gaussian_vectors(70, 30, 12)
    vecs = np.repeat(base, 9, axis=0) * np.linspace(0.5, 3.0, 9).repeat(30)[:, None]
    index = build_index(vecs, IndexConfig(n_trees=2, seed=1))
    ids, dists = index.query_vector(base[4], 12)
    assert np.array_equal(ids[:9], np.arange(36, 45))
    assert np.all(dists[:9] == 0.0)
    assert_matches_oracle(index, [base[4], base[29], -base[0]], [5, 9, 10, 20])


def test_scan_resolves_ties_one_ulp_apart():
    """Rows differing from the query by one float32 ulp in one component sit
    far inside the dot product's rounding; the shortlist must keep them all."""
    dim = 24
    q = unit_normalize(gaussian_vectors(71, 1, dim)[0])
    rows = []
    for j in range(dim):
        for step in (np.inf, -np.inf):
            row = q.copy()
            row[j] = np.nextafter(row[j], np.float32(step))
            rows.append(row)
    rows += [q] * 3 + list(gaussian_vectors(72, 200, dim))
    index = build_index(np.array(rows, dtype=np.float64), IndexConfig(seed=2))
    oracle_d = ExactOracle.from_unit(index.items).query(q, 60)[1]
    assert len(np.unique(oracle_d[:50])) > 2  # distinct, near-equal distances
    assert oracle_d[49] < 1e-6
    assert_matches_oracle(index, [q, np.nextafter(q, np.float32(1))], [1, 3, 4, 20, 50])


def test_scan_with_k_at_least_n():
    vecs = gaussian_vectors(73, 40, 5)
    index = build_index(vecs, IndexConfig(seed=1))
    for k in (40, 41, 1000):
        ids, _ = index.query_vector(vecs[7], k)
        assert sorted(ids.tolist()) == list(range(40))
    assert_matches_oracle(index, gaussian_vectors(74, 5, 5), [39, 40, 45])


def test_scan_antipodal_query_at_dim_one():
    """At dim 1 every item is +1 or -1: the far side sits at exactly 2.0
    where the distance clamps, and every clamped item ties."""
    signs = np.array([1, -1, -1, 1, -1, 1, -1, -1, 1, -1], dtype=np.float64)
    index = build_index((signs * np.arange(1, 11))[:, None], IndexConfig(seed=1))
    ids, dists = index.query_vector([-2.0], 7)
    assert ids.tolist() == [1, 2, 4, 6, 7, 9, 0]
    assert dists.tolist() == [0.0] * 6 + [2.0]
    assert_matches_oracle(index, [[-2.0], [5.0]], [1, 4, 5, 6, 8, 10])


def test_scan_antipodal_duplicates_clamp_and_tie():
    v = gaussian_vectors(75, 1, 9)[0]
    vecs = np.vstack([np.tile(-v, (6, 1)), gaussian_vectors(76, 10, 9),
                      np.tile(-2.5 * v, (4, 1))])
    index = build_index(vecs, IndexConfig(seed=4))
    ids, dists = index.query_vector(v, 20)
    assert ids[10:].tolist() == [0, 1, 2, 3, 4, 5, 16, 17, 18, 19]
    assert np.all(dists[10:] == dists[10])
    assert_matches_oracle(index, [v, -v], [3, 10, 11, 13, 20])


# --- routing -----------------------------------------------------------------


def shaped_index(n, dim, n_trees=10):
    """An index of the given shape, holding no data, for routing questions."""
    return AnnIndex(rows=np.broadcast_to(np.float32(0), (n, dim)), trees=[],
                    config=IndexConfig(n_trees=n_trees))


def test_unset_search_k_scans_at_every_shape():
    for n, dim in ((4000, 64), (30000, 64), (100000, 100), (200000, 64),
                   (1000000, 64)):
        assert shaped_index(n, dim).walk_budget() is None
    assert shaped_index(100000, 100).walk_budget(100000) is None
    assert shaped_index(100000, 100).walk_budget(250) == 250
    assert shaped_index(30000, 64).walk_budget(29999) == 29999
    with pytest.raises(ValueError):
        shaped_index(10, 4).walk_budget(0)


def test_default_answer_is_the_exact_scan(students_index):
    vecs = gaussian_vectors(80, 25, students_index.dim)
    assert students_index.walk_budget() is None
    for q in vecs:
        a = students_index.query_vector(q, 10)
        b = students_index.query_vector(q, 10, search_k=students_index.size)
        assert np.array_equal(a[0], b[0]) and a[1].tobytes() == b[1].tobytes()


def test_explicit_budget_below_n_walks(monkeypatch):
    """Only an explicit search_k below N walks. A default query derives no
    plane and equals the scan at search_k = N bit for bit, whether N * dim
    is small (400 x 8) or large (2,100 x 16) against n_trees * k."""
    walks, derived = [], []
    walk, derive = AnnIndex._traverse, AnnIndex.derive_planes

    def counting(self, qn, search_k):
        walks.append(search_k)
        return walk(self, qn, search_k)

    def counting_derive(self):
        derived.append(self)
        return derive(self)

    monkeypatch.setattr(AnnIndex, "_traverse", counting)
    monkeypatch.setattr(AnnIndex, "derive_planes", counting_derive)
    for n, dim, n_trees, k in ((400, 8, 3, 5), (2100, 16, 1, 1)):
        index = build_index(gaussian_vectors(81, n, dim),
                            IndexConfig(n_trees=n_trees, seed=5))
        q = gaussian_vectors(82, 1, dim)[0]
        a = index.query_vector(q, k)
        b = index.query_vector(q, k, search_k=n)
        assert walks == [] and derived == []
        assert all(tree.normals is None for tree in index.trees)
        assert np.array_equal(a[0], b[0]) and a[1].tobytes() == b[1].tobytes()
        index.query_vector(q, k, search_k=30)
        index.query_vector(q, k, search_k=n - 1)
        assert walks == [30, n - 1] and derived
        walks.clear()
        derived.clear()


def test_route_reads_no_clock(monkeypatch):
    import time

    def stopped(*args):
        raise AssertionError("the route read a clock")

    for name in ("time", "monotonic", "perf_counter", "perf_counter_ns",
                 "process_time", "time_ns", "monotonic_ns"):
        monkeypatch.setattr(time, name, stopped)
    a = build_index(gaussian_vectors(83, 2100, 16), IndexConfig(n_trees=1, seed=1))
    b = build_index(gaussian_vectors(84, 2100, 16), IndexConfig(n_trees=1, seed=2))
    q = gaussian_vectors(85, 1, 16)[0]
    for _ in range(3):
        assert a.walk_budget() is None and b.walk_budget() is None
        assert a.walk_budget(1) == b.walk_budget(1) == 1
        assert a.walk_budget(2100) is None and b.walk_budget(2100) is None
        a.query_vector(q, 1)
        a.query_vector(q, 1, search_k=1)
        a.query_vector(q, 1, search_k=2100)


# --- serialization ----------------------------------------------------------


def make_index(with_map=True):
    n = 180
    imap = None
    if with_map:
        imap = ItemMap(
            columns=["name", "state"],
            row_ids=np.arange(n, dtype=np.uint32),
            col_ids=(np.arange(n) % 2).astype(np.uint16),
            model_digest=bytes(range(32)),
        )
    return build_index(
        gaussian_vectors(17, n, 9),
        IndexConfig(n_trees=3, leaf_capacity=8, seed=12),
        corpus_hash=bytes(reversed(range(32))),
        item_map=imap,
    )


def test_load_refuses_item_map_out_of_cell_order(tmp_path):
    """Items are cells in cell order, so a row id with one bit flipped in
    the file, to a cell not after the item before it or not before the
    item after it, is refused at load by item. Here no cell is skipped."""
    n = 180
    imap = ItemMap(columns=["name", "state"], row_ids=np.arange(n, dtype=np.uint32) // 2,
                   col_ids=(np.arange(n) % 2).astype(np.uint16))
    p = tmp_path / "i.ann"
    save_index(build_index(gaussian_vectors(17, n, 9),
                           IndexConfig(n_trees=2, leaf_capacity=8, seed=12),
                           item_map=imap), p)
    data = p.read_bytes()
    at = data.rfind(imap.row_ids.astype(np.uint16).tobytes())
    for item, bit, named in ((57, 0, "item row 58 names cell 58"),
                             (57, 12, "item row 58 names cell 58"),
                             (0, 3, "item row 1 names cell 1"),
                             (n - 1, 0, f"item row {n - 1} names cell {n - 3}")):
        damaged = bytearray(data)
        damaged[at + 2 * item + bit // 8] ^= 1 << (bit % 8)
        p.write_bytes(bytes(damaged))
        with pytest.raises(StoreFormatError, match=named + ".*items follow cell order"):
            load_index(p)


def test_index_round_trip_preserves_queries(tmp_path):
    index = make_index()
    p = tmp_path / "i.ann"
    save_index(index, p)
    loaded = load_index(p)
    assert loaded.config == index.config
    assert loaded.corpus_hash == index.corpus_hash
    assert np.array_equal(loaded.items, index.items)
    assert loaded.item_map.columns == ["name", "state"]
    assert np.array_equal(loaded.item_map.row_ids, index.item_map.row_ids)
    assert np.array_equal(loaded.item_map.col_ids, index.item_map.col_ids)
    assert loaded.item_map.model_digest == bytes(range(32))
    for q in gaussian_vectors(18, 10, 9):
        for sk in (5, 40, 180):
            a = index.query_vector(q, 6, search_k=sk)
            b = loaded.query_vector(q, 6, search_k=sk)
            assert np.array_equal(a[0], b[0])
            assert np.array_equal(a[1], b[1])


def test_index_save_deterministic(tmp_path):
    a, b = tmp_path / "a.ann", tmp_path / "b.ann"
    save_index(make_index(), a)
    save_index(make_index(), b)
    assert a.read_bytes() == b.read_bytes()


def test_index_without_map_round_trips(tmp_path):
    p = tmp_path / "i.ann"
    save_index(make_index(with_map=False), p)
    assert load_index(p).item_map is None


def test_index_truncation_and_garbage(tmp_path):
    p = tmp_path / "i.ann"
    save_index(make_index(), p)
    data = p.read_bytes()
    p.write_bytes(data[:-5])
    with pytest.raises(TruncatedFileError):
        load_index(p)
    p.write_bytes(data + b"\0")
    with pytest.raises(StoreFormatError):
        load_index(p)


def test_index_wrong_magic_and_version(tmp_path):
    p = tmp_path / "i.ann"
    save_index(make_index(), p)
    data = bytearray(p.read_bytes())
    original = bytes(data)
    data[:4] = b"XXXX"
    p.write_bytes(bytes(data))
    with pytest.raises(StoreFormatError, match="magic"):
        load_index(p)
    data = bytearray(original)
    data[4] = 99
    p.write_bytes(bytes(data))
    with pytest.raises(StoreVersionError):
        load_index(p)


# --- splits stored as item pairs --------------------------------------------


def duplicate_heavy(seed, dim):
    """300 distinct rows plus 20 of them repeated 40 times each."""
    distinct = gaussian_vectors(seed, 300, dim)
    rows = np.concatenate([distinct, np.repeat(distinct[:20], 40, axis=0)])
    return rows[np.argsort(gaussian_vectors(seed + 1, len(rows), 1)[:, 0])]


@pytest.mark.parametrize("dim", [1, 7, 64, 300])
@pytest.mark.parametrize("shape", ["duplicates", "identical"])
def test_loaded_planes_are_the_built_planes(tmp_path, dim, shape):
    if shape == "duplicates":
        vecs = duplicate_heavy(dim, dim)
    else:
        vecs = np.tile(gaussian_vectors(dim, 1, dim), (200, 1))
    index, planes = build_with_planes(
        vecs, IndexConfig(n_trees=3, leaf_capacity=8, seed=dim))
    assert index.coin_splits > 0
    p = tmp_path / "i.ann"
    save_index(index, p)
    loaded = load_index(p)
    assert all(t.normals is None for t in loaded.trees)
    loaded.derive_planes()
    for built, back, (normals, offsets) in zip(index.trees, loaded.trees, planes):
        assert np.array_equal(built.pairs, back.pairs)
        assert back.normals.tobytes() == normals.tobytes()
        assert back.offsets.tobytes() == offsets.tobytes()
    if shape == "identical":
        # every split is a coin flip, stored as one item twice
        for tree in loaded.trees:
            assert np.array_equal(tree.pairs[:, 0], tree.pairs[:, 1])
    for q in gaussian_vectors(dim + 50, 5, dim):
        for sk in (5, 40, len(vecs)):
            a = index.query_vector(q, 6, search_k=sk)
            b = loaded.query_vector(q, 6, search_k=sk)
            assert a[0].tobytes() == b[0].tobytes()
            assert a[1].tobytes() == b[1].tobytes()


def test_planes_row_by_row_equal_batch():
    for dim in (1, 7, 64, 300):
        index = build_index(duplicate_heavy(dim + 3, dim),
                            IndexConfig(n_trees=2, leaf_capacity=8, seed=4))
        pairs = np.concatenate([t.pairs for t in index.trees])
        normals, offsets = _planes(index.items, pairs)
        for s in range(0, len(pairs), 7):
            one = _planes(index.items, pairs[s:s + 1])
            assert one[0].tobytes() == normals[s:s + 1].tobytes()
            assert one[1].tobytes() == offsets[s:s + 1].tobytes()


def test_planes_refuse_coinciding_pair():
    items = normalize_rows(np.array([[1.0, 2.0], [1.0, 2.0], [2.0, -1.0]]))
    normals, offsets = _planes(items, np.array([[0, 2], [1, 1]], dtype=np.uint32))
    assert not np.any(normals[1]) and offsets[1] == 0.0
    with pytest.raises(StoreFormatError, match="split 1 .* items 0 and 1, which coincide"):
        _planes(items, np.array([[0, 2], [0, 1]], dtype=np.uint32))


def test_scan_never_derives_planes(tmp_path, monkeypatch):
    import semsearch.ann as ann

    p = tmp_path / "i.ann"
    save_index(make_index(), p)
    loaded = load_index(p)
    calls = []
    planes = ann._planes

    def counting(rows, pairs, row_map):
        calls.append(len(pairs))
        return planes(rows, pairs, row_map)

    monkeypatch.setattr(ann, "_planes", counting)
    q = gaussian_vectors(3, 1, 9)[0]
    loaded.query_vector(q, 5)  # 180 x 9 routes to the scan
    loaded.query_vector(q, 5, search_k=loaded.size)
    assert calls == [] and all(t.normals is None for t in loaded.trees)
    loaded.query_vector(q, 5, search_k=20)
    loaded.query_vector(q, 5, search_k=30)
    assert calls == [t.n_splits for t in loaded.trees]


def test_built_trees_hold_no_planes_until_first_walk():
    """A built index keeps only its pairs; its first walk derives the
    planes the builder split with, bit for bit, and answers as an index
    holding those planes does."""
    vecs = duplicate_heavy(11, 16)
    config = IndexConfig(n_trees=4, leaf_capacity=8, seed=5)
    index, planes = build_with_planes(vecs, config)
    assert all(t.normals is None and t.offsets is None for t in index.trees)
    with_planes = AnnIndex(
        rows=index.rows,
        trees=[Tree(t.pairs, t.children, t.leaf_bounds, t.leaf_items, n, o)
               for t, (n, o) in zip(index.trees, planes)],
        config=config,
    )
    queries = gaussian_vectors(12, 6, 16)
    index.query_vector(queries[0], 5, search_k=index.size)  # the scan
    assert all(t.normals is None for t in index.trees)
    for q in queries:
        for sk in (5, 25, index.size):
            a = index.query_vector(q, 10, search_k=sk)
            b = with_planes.query_vector(q, 10, search_k=sk)
            assert a[0].tobytes() == b[0].tobytes()
            assert a[1].tobytes() == b[1].tobytes()
    for tree, (normals, offsets) in zip(index.trees, planes):
        assert tree.normals.tobytes() == normals.tobytes()
        assert tree.offsets.tobytes() == offsets.tobytes()


def test_pair_out_of_range_refused(tmp_path):
    index = make_index()
    index.trees[1].pairs[3, 1] = index.size
    p = tmp_path / "i.ann"
    save_index(index, p)
    with pytest.raises(StoreFormatError, match="tree 1: split 3 .* item 180, not below 180"):
        load_index(p)


@pytest.mark.parametrize("damage, named", [
    (lambda t, m: setattr(t, "leaf_bounds", t.leaf_bounds[:-1]),
     r"tree 1: \d+ splits need (\d+) leaves, not (?!\1)"),
    (lambda t, m: t.children.__setitem__((2, 0), 1),
     "tree 1: split 2 has child split 1, not one after it"),
    (lambda t, m: t.children.__setitem__((0, 0), t.n_splits + t.n_leaves),
     r"tree 1: a split has child leaf (\d+), not below \1"),
    (lambda t, m: t.leaf_bounds.__setitem__(0, 1),
     "tree 1: leaf bounds run from 1 to 180, not 0 to 180"),
    (lambda t, m: t.leaf_bounds.__setitem__(1, t.leaf_bounds[2] + 1),
     "tree 1: leaf 1 ends before it starts"),
    (lambda t, m: m.col_ids.__setitem__(5, 2), "item row 5 names column 2 of 2"),
])
def test_tree_and_item_map_damage_refused(tmp_path, damage, named):
    """``save_index`` writes a damaged tree or item map as it is; loading
    the file names the damage."""
    index = make_index()
    damage(index.trees[1], index.item_map)
    p = tmp_path / "i.ann"
    save_index(index, p)
    with pytest.raises(StoreFormatError, match=named):
        load_index(p)


HEADER = 104  # index.ann v3: bytes before the first array's padding


def repeated_index():
    """``make_index``'s shape over 1,100 items of 300 distinct rows: the
    file stores each row once and maps items to rows."""
    n = 1100
    return build_index(
        duplicate_heavy(17, 9),
        IndexConfig(n_trees=3, leaf_capacity=8, seed=12),
        corpus_hash=bytes(32),
        item_map=ItemMap(columns=["name", "state"],
                         row_ids=np.arange(n, dtype=np.uint32) // 2,
                         col_ids=(np.arange(n) % 2).astype(np.uint16)),
    )


def stored_shape(path):
    """The stored-row count and id width of an index file's header."""
    return struct.unpack_from("<IB", path.read_bytes(), 99)


def test_index_arrays_are_aligned_writable_views(tmp_path):
    from semsearch.fileio import ALIGN

    def check_views(arrays, start, size):
        last = -1
        for arr in arrays:
            assert arr.ctypes.data % ALIGN == 0
            assert arr.flags.writeable and not arr.flags.owndata
            # each array sits at its own file offset in one buffer: no copy
            offset = arr.ctypes.data - start
            assert last < offset and offset % ALIGN == 0 and offset + arr.nbytes <= size
            last = offset

    p = tmp_path / "i.ann"
    save_index(make_index(), p)
    loaded = load_index(p)
    tree = loaded.trees[0]
    size = p.stat().st_size
    # without a row map the items are the first array, at byte 128
    check_views([loaded.items, tree.pairs, tree.children, tree.leaf_bounds,
                 tree.leaf_items, loaded.item_map.row_ids, loaded.item_map.col_ids],
                loaded.items.ctypes.data - 128, size)
    # nonzero padding is refused: byte 104 is the first after the header
    data = bytearray(p.read_bytes())
    assert data[HEADER:128] == bytes(128 - HEADER)
    data[HEADER + 1] = 1
    p.write_bytes(bytes(data))
    with pytest.raises(StoreFormatError, match="nonzero padding"):
        load_index(p)

    # with a row map, the U stored rows and the map are views of the file
    # too, at byte 128 and after the rows: no (N, dim) matrix is made
    index = repeated_index()
    save_index(index, p)
    loaded = load_index(p)
    n_rows, width = stored_shape(p)
    assert (n_rows, width) == (300, 2)
    assert loaded.rows.shape == (n_rows, index.dim) and len(loaded.row_map) == index.size
    tree = loaded.trees[0]
    check_views([loaded.rows, loaded.row_map, tree.pairs, tree.children,
                 tree.leaf_bounds, tree.leaf_items, loaded.item_map.row_ids,
                 loaded.item_map.col_ids], loaded.rows.ctypes.data - 128, p.stat().st_size)
    assert loaded.items.tobytes() == index.items.tobytes()


def expected_index_bytes(index, n_rows, width):
    """Bytes of an index file without its padding, and its array count."""
    n, dim = index.size, index.dim
    ids = sum(t.n_splits * 4 + t.n_leaves + 1 + n for t in index.trees) + n
    arrays = n_rows * dim * 4 + (n if n_rows < n else 0) * width + ids * width + n * 2
    columns = index.item_map.columns
    header = HEADER + len(index.trees) * 8 + 1 + 2 + sum(4 + len(c) for c in columns)
    return arrays + header, 1 + (n_rows < n) + 4 * len(index.trees) + 2


def test_index_size_counts_pairs_not_planes(tmp_path):
    """Each split costs its two item ids: 4 bytes at 16 bits, whatever the
    dim; a repeated row costs one id, not a row."""
    p = tmp_path / "i.ann"
    for index, n_rows in ((make_index(), 180), (repeated_index(), 300)):
        save_index(index, p)
        assert stored_shape(p) == (n_rows, 2)
        least, n_arrays = expected_index_bytes(index, n_rows, 2)
        assert least <= p.stat().st_size < least + 64 * n_arrays


def index_shapes(shape):
    if shape == "distinct":
        return make_index(), 180, 2
    if shape == "repeated":
        return repeated_index(), 300, 2
    if shape == "few-repeats":
        # 4 repeated rows save 144 bytes; a 2-byte map of 184 items costs 368
        vecs = gaussian_vectors(17, 180, 9)
        vecs = np.concatenate([vecs, vecs[[3, 3, 50, 7]]])
        return build_index(vecs, IndexConfig(n_trees=3, leaf_capacity=8, seed=12)), 184, 2
    # ids past 65,535 need 32 bits
    n = 70_000
    index = build_index(gaussian_vectors(21, n, 2), IndexConfig(n_trees=1, seed=3),
                        item_map=ItemMap(columns=["t"], row_ids=np.arange(n, dtype=np.uint32),
                                         col_ids=np.zeros(n, np.uint16)))
    return index, n, 4


@pytest.mark.parametrize("shape", ["distinct", "repeated", "few-repeats", "wide"])
def test_index_v3_round_trip(tmp_path, shape):
    """The file stores rows and ids as the data allows; loading gives back
    the built rows bit for bit, every array by value, and the same answers,
    which for the scan are ExactOracle's: a loaded index with a row map
    scans its stored rows and reads items' rows through the map."""
    index, n_rows, width = index_shapes(shape)
    p = tmp_path / "i.ann"
    save_index(index, p)
    assert stored_shape(p) == (n_rows, width)
    loaded = load_index(p)
    assert loaded.items.dtype == np.float32
    assert loaded.items.tobytes() == index.items.tobytes()
    ids = {2: np.uint16, 4: np.uint32}[width]
    for built, back in zip(index.trees, loaded.trees):
        for name in ("pairs", "children", "leaf_bounds", "leaf_items"):
            assert getattr(back, name).dtype == ids
            assert np.array_equal(getattr(back, name), getattr(built, name))
    if index.item_map is not None:
        assert loaded.item_map.row_ids.dtype == ids
        assert np.array_equal(loaded.item_map.row_ids, index.item_map.row_ids)
        assert np.array_equal(loaded.item_map.col_ids, index.item_map.col_ids)
    assert (loaded.row_map is None) == (n_rows == index.size)
    oracle = ExactOracle.from_unit(index.items)
    for q in gaussian_vectors(22, 4, index.dim):
        for k in (1, 10, n_rows + 1):
            truth = oracle.query(q, k)
            for sk in (None, 25, index.size):
                a = index.query_vector(q, k, search_k=sk)
                b = loaded.query_vector(q, k, search_k=sk)
                assert a[0].tobytes() == b[0].tobytes()
                assert a[1].tobytes() == b[1].tobytes()
                if sk != 25:
                    assert b[0].tobytes() == truth[0].tobytes()
                    assert b[1].tobytes() == truth[1].tobytes()


def test_mapped_scan_shortlists_by_item_count(tmp_path):
    """A row stands for every item mapped to it: a query at a row that 41
    items share shortlists those 41 for k = 10, not the items of the 10
    nearest rows."""
    from semsearch.ann import unit_normalize

    index = repeated_index()
    p = tmp_path / "i.ann"
    save_index(index, p)
    loaded = load_index(p)
    row = loaded.rows[int(np.argmax(np.bincount(loaded.row_map)))]
    ids = loaded._shortlist(unit_normalize(row), 10)
    assert len(ids) == 41 and np.all(index.items[ids] == row)
    assert ids.tolist() == index._shortlist(unit_normalize(row), 10).tolist()


def test_mapped_load_allocates_no_item_matrix(tmp_path):
    """Loading a file of few distinct rows for many items allocates far less
    than the (N, dim) item matrix: the rows stay in the file's buffer."""
    import tracemalloc

    n, dim = 4000, 256
    vecs = np.repeat(gaussian_vectors(25, 20, dim), n // 20, axis=0)
    p = tmp_path / "i.ann"
    save_index(build_index(vecs, IndexConfig(n_trees=2, seed=3)), p)
    assert stored_shape(p) == (20, 2)
    tracemalloc.start()
    try:
        loaded = load_index(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.rows.shape == (20, dim) and loaded.size == n
    assert peak < n * dim * 4 / 4


def test_distinct_rows_match_a_dict_of_row_bytes(monkeypatch):
    import semsearch.ann as ann

    def reference(items):
        first = {}
        ranks = [first.setdefault(row.tobytes(), len(first)) for row in items]
        heads = [ranks.index(r) for r in range(len(first))]
        return heads, ranks

    rows = normalize_rows(gaussian_vectors(23, 40, 5))
    signed = np.zeros((2, 5), np.float32)
    signed[:, 0] = 1.0
    signed[1, 1] = -0.0  # equal to row 0 as floats, not as bits
    picks = gaussian_vectors(24, 5000, 1)[:, 0]
    items = np.concatenate([rows[(np.abs(picks) * 40).astype(int) % 40], signed, signed])
    first, row_of = ann._distinct_rows(items)
    assert (first.tolist(), row_of.tolist()) == reference(items)
    assert len(first) == 42
    # multipliers of 1 hash a row and its swapped columns alike: rows that
    # collide are kept apart, never merged
    monkeypatch.setattr(ann.rng, "u64_block", lambda seed, start, count:
                        np.zeros(count, np.uint64))
    swapped = np.concatenate([rows[:3], rows[:3, ::-1], rows[:3]])
    first, row_of = ann._distinct_rows(np.ascontiguousarray(swapped))
    assert np.array_equal(swapped[first][row_of], swapped)
    assert first.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8]


def test_index_row_map_and_width_damage(tmp_path):
    from semsearch.fileio import ALIGN

    index = repeated_index()
    p = tmp_path / "i.ann"
    save_index(index, p)
    data = p.read_bytes()
    n_rows = stored_shape(p)[0]
    map_at = 128 + -(-n_rows * index.dim * 4 // ALIGN) * ALIGN
    assert np.frombuffer(data, np.uint16, index.size, map_at).max() == n_rows - 1

    def load_damaged(damage):
        bad = bytearray(data)
        damage(bad)
        p.write_bytes(bytes(bad))
        return load_index(p)

    with pytest.raises(StoreFormatError, match="item 5 is stored in row 300, not below 300"):
        load_damaged(lambda d: d.__setitem__(slice(map_at + 10, map_at + 12),
                                             struct.pack("<H", n_rows)))
    with pytest.raises(StoreFormatError, match="id width 3, not 2 or 4"):
        load_damaged(lambda d: d.__setitem__(103, 3))
    with pytest.raises(StoreFormatError, match="1101 stored rows for 1100 items"):
        load_damaged(lambda d: d.__setitem__(slice(99, 103), struct.pack("<I", 1101)))
    p.write_bytes(data[:map_at + 100])
    with pytest.raises(TruncatedFileError):
        load_index(p)
    # a version 2 file, from before rows were stored once
    with pytest.raises(StoreVersionError, match="version 2 not supported"):
        load_damaged(lambda d: d.__setitem__(slice(4, 6), struct.pack("<H", 2)))
    # a bad stored row names the first item stored there
    row = index.items[int(np.flatnonzero(np.any(index.items != index.items[0], axis=1))[0])]
    item = int(np.flatnonzero(np.all(index.items == row, axis=1))[0])
    rank = len(np.unique(index.items[:item + 1], axis=0)) - 1
    at = 128 + rank * index.dim * 4
    with pytest.raises(StoreFormatError, match=f"item row {item} is not a finite unit"):
        load_damaged(lambda d: d.__setitem__(slice(at, at + 4), struct.pack("<f", np.nan)))


def test_index_column_name_not_utf8(tmp_path):
    p = tmp_path / "i.ann"
    save_index(make_index(), p)
    data = bytearray(p.read_bytes())
    data[data.rfind(b"state")] = 0xFF
    p.write_bytes(bytes(data))
    with pytest.raises(StoreFormatError, match="column name is not UTF-8"):
        load_index(p)
