"""Approximate nearest neighbor search over a random-projection forest.

Each tree recursively splits the item set with the perpendicular bisector
of two sampled points until every leaf holds at most ``leaf_capacity``
items. A query descends all trees at once through a single priority
queue ordered by signed margin, collects leaf candidates until
``search_k`` distinct items have been seen, then reranks candidates
exactly.

Distances are angular: items and queries are unit-normalized, and
d(x, y) = ||x_hat - y_hat|| in [0, 2]. Identical texts therefore land at
distance exactly 0. The rerank computes the difference form directly
(never sqrt(2 - 2 cos) in float32, which cannot resolve near-zero
distances), squares in float32, and takes the square root in float64.

Invariant the evaluation harness leans on: with search_k >= N every item
becomes a candidate, so the result equals an exact scan bit for bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import rng
from .errors import ConfigError, DimensionMismatchError
from .fileio import ByteReader, array_bytes, check_magic, check_version, pack

INDEX_MAGIC = b"ANNF"
INDEX_VERSION = 1
LEAF_BIT = 1 << 31
METRIC_CODES = {"angular": 0}
NULL_HASH = bytes(32)

_TINY_NORM = 1e-12


@dataclass(frozen=True)
class IndexConfig:
    """Forest shape parameters."""

    n_trees: int = 10
    leaf_capacity: int = 16
    max_split_retries: int = 3
    metric: str = "angular"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ConfigError("n_trees must be >= 1")
        if self.leaf_capacity < 1:
            raise ConfigError("leaf_capacity must be >= 1")
        if self.max_split_retries < 1:
            raise ConfigError("max_split_retries must be >= 1")
        if self.metric not in METRIC_CODES:
            raise ConfigError(f"unsupported metric {self.metric!r}")


def unit_normalize(vector: np.ndarray | Sequence[float]) -> np.ndarray:
    """Unit-normalize one vector: float64 norm, float32 result.

    Zero-norm input is a ValueError; there is no direction to index.
    """
    v = np.asarray(vector, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    ss = float(np.dot(v, v))
    if ss == 0.0:
        raise ValueError("cannot normalize a zero-norm vector")
    return (v / np.sqrt(ss)).astype(np.float32)


def normalize_rows(vectors: np.ndarray) -> np.ndarray:
    """Unit-normalize each row the same way ``unit_normalize`` does."""
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {v.shape}")
    ss = np.einsum("ij,ij->i", v, v)
    zero = np.flatnonzero(ss == 0.0)
    if len(zero):
        raise ValueError(f"zero-norm rows cannot be indexed: {zero[:8].tolist()}")
    return (v / np.sqrt(ss)[:, None]).astype(np.float32)


def angular_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Angular distance ||a_hat - b_hat|| in [0, 2]."""
    diff = unit_normalize(a) - unit_normalize(b)
    dsq = np.dot(diff, diff)
    return min(float(np.sqrt(np.float64(dsq))), 2.0)


@dataclass
class Tree:
    """One tree, flattened to arrays.

    Split ``s`` routes by sign of ``normals[s] . x + offsets[s]``:
    non-positive goes to ``children[s, 0]``, positive to
    ``children[s, 1]``. A child value with ``LEAF_BIT`` set names a leaf;
    leaf ``i`` owns ``leaf_items[leaf_bounds[i]:leaf_bounds[i+1]]``. The
    root is split 0, or leaf 0 when there are no splits.
    """

    normals: np.ndarray  # (S, dim) float32
    offsets: np.ndarray  # (S,) float32
    children: np.ndarray  # (S, 2) uint32
    leaf_bounds: np.ndarray  # (L+1,) uint32
    leaf_items: np.ndarray  # (N,) uint32

    @property
    def n_splits(self) -> int:
        return len(self.normals)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_bounds) - 1

    @property
    def root_ref(self) -> int:
        return 0 if self.n_splits else LEAF_BIT


@dataclass
class ItemMap:
    """Maps item index -> (record row_id, text column) for search results."""

    columns: list[str]
    row_ids: np.ndarray  # (N,) uint32
    col_ids: np.ndarray  # (N,) uint16


@dataclass
class AnnIndex:
    """A built forest over unit-normalized item vectors."""

    items: np.ndarray  # (N, dim) float32, rows unit norm
    trees: list[Tree]
    config: IndexConfig
    corpus_hash: bytes = NULL_HASH
    item_map: ItemMap | None = None

    @property
    def size(self) -> int:
        return len(self.items)

    @property
    def dim(self) -> int:
        return self.items.shape[1]

    def default_search_k(self, k: int) -> int:
        return self.config.n_trees * k

    def _traverse(self, qn: np.ndarray, search_k: int) -> np.ndarray:
        """Candidate ids from the forest walk, in discovery order.

        One max-heap over all trees, keyed by min(parent priority, signed
        margin); roots enter at +inf. Distinct items count toward
        ``search_k``, so a leaf already covered by another tree does not
        exhaust the budget. Ties pop in insertion order.
        """
        n = self.size
        seen = np.zeros(n, dtype=bool)
        chunks: list[np.ndarray] = []
        unique = 0
        heap: list[tuple[float, int, int, int]] = []
        seq = 0
        for t, tree in enumerate(self.trees):
            heap.append((-math.inf, seq, t, tree.root_ref))
            seq += 1
        heapq.heapify(heap)
        while heap and unique < search_k and unique < n:
            neg_p, _, t, ref = heapq.heappop(heap)
            p = -neg_p
            tree = self.trees[t]
            if ref & LEAF_BIT:
                leaf = ref & ~LEAF_BIT
                lo = int(tree.leaf_bounds[leaf])
                hi = int(tree.leaf_bounds[leaf + 1])
                ids = tree.leaf_items[lo:hi]
                fresh = ids[~seen[ids]]
                if len(fresh):
                    seen[fresh] = True
                    unique += len(fresh)
                    chunks.append(fresh)
            else:
                margin = float(tree.normals[ref] @ qn + tree.offsets[ref])
                left, right = tree.children[ref]
                heapq.heappush(heap, (-min(p, margin), seq, t, int(right)))
                seq += 1
                heapq.heappush(heap, (-min(p, -margin), seq, t, int(left)))
                seq += 1
        if not chunks:
            return np.empty(0, dtype=np.uint32)
        return np.concatenate(chunks)

    def query_vector(
        self, query: np.ndarray | Sequence[float], k: int, search_k: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top ``k`` item ids and angular distances for a query vector.

        ``search_k`` bounds the number of distinct candidates examined
        (default ``n_trees * k``). Only the examined set is approximate:
        candidates are reranked by exact distance and returned best first,
        ties broken by ascending id. With ``search_k >= size`` every item
        is examined, which is exactly an exhaustive scan, so that case
        skips the walk and scores all items directly.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        qn = unit_normalize(query)
        if len(qn) != self.dim:
            raise DimensionMismatchError(
                f"query has dim {len(qn)}, index has dim {self.dim}"
            )
        if search_k is None:
            search_k = self.default_search_k(k)
        if search_k < 1:
            raise ValueError("search_k must be >= 1")
        if search_k >= self.size:
            ids = np.arange(self.size, dtype=np.int64)
            sub = self.items
        else:
            ids = self._traverse(qn, search_k).astype(np.int64)
            sub = self.items[ids]
        diff = sub - qn
        dsq = np.einsum("ij,ij->i", diff, diff)
        d = np.sqrt(dsq.astype(np.float64))
        np.minimum(d, 2.0, out=d)
        kk = min(k, len(d))
        keep = np.flatnonzero(d <= np.partition(d, kk - 1)[kk - 1])
        order = keep[np.lexsort((ids[keep], d[keep]))[:kk]]
        return ids[order], d[order]


def _split_node(
    sub: np.ndarray, tree_seed: int, node_id: int, max_retries: int
) -> tuple[np.ndarray, np.float32, np.ndarray]:
    """Pick a splitting hyperplane for the rows of ``sub``.

    Samples two distinct rows, normalizes their difference, and keeps the
    plane if both sides are non-empty. After ``max_retries`` failures the
    rows are routed by seeded coin flips (with a fix-up guaranteeing two
    non-empty sides) so leaf capacity holds even for degenerate data; the
    last plane, or a basis-vector fallback, still serves query routing.
    """
    m = len(sub)
    sm = rng.SplitMix64(rng.derive(tree_seed, "node", node_id))
    normal = None
    offset = np.float32(0.0)
    mask_left = None
    for _ in range(max_retries):
        i = sm.next_below(m)
        j = sm.next_below(m - 1)
        if j >= i:
            j += 1
        p = sub[i].astype(np.float64)
        q = sub[j].astype(np.float64)
        diff = p - q
        nn = float(np.sqrt(np.dot(diff, diff)))
        if nn < _TINY_NORM:
            continue
        cand_normal = (diff / nn).astype(np.float32)
        mid = (p + q) * 0.5
        cand_offset = np.float32(-np.dot(cand_normal.astype(np.float64), mid))
        sides = sub @ cand_normal + cand_offset
        cand_mask = sides <= 0
        n_left = int(cand_mask.sum())
        normal, offset = cand_normal, cand_offset
        if 0 < n_left < m:
            mask_left = cand_mask
            break
    if mask_left is None:
        if normal is None:
            # every sampled pair coincided; any plane through the points works
            normal = np.zeros(sub.shape[1], dtype=np.float32)
            normal[0] = 1.0
            offset = np.float32(-sub[0, 0])
        coins = rng.unit_block(rng.derive(tree_seed, "coin", node_id), 0, m)
        mask_left = coins < 0.5
        if mask_left.all():
            mask_left[m - 1] = False
        elif not mask_left.any():
            mask_left[0] = True
    return normal, offset, mask_left


def _build_tree(
    items: np.ndarray, tree_seed: int, leaf_capacity: int, max_retries: int
) -> Tree:
    """Grow one tree by iterative preorder descent over a permutation array."""
    n = len(items)
    perm = np.arange(n, dtype=np.int64)
    normals: list[np.ndarray] = []
    offsets: list[np.float32] = []
    children: list[list[int]] = []
    leaf_bounds = [0]
    # (start, end, parent split, child slot); right pushed first so the
    # left range pops first and leaves come out in ascending order
    stack: list[tuple[int, int, int, int]] = [(0, n, -1, 0)]
    while stack:
        start, end, parent, slot = stack.pop()
        if end - start <= leaf_capacity:
            ref = (len(leaf_bounds) - 1) | LEAF_BIT
            leaf_bounds.append(end)
            if parent >= 0:
                children[parent][slot] = ref
            continue
        node_id = len(normals)
        segment = perm[start:end]
        normal, offset, mask_left = _split_node(
            items[segment], tree_seed, node_id, max_retries
        )
        mid = start + int(mask_left.sum())
        reordered = np.concatenate((segment[mask_left], segment[~mask_left]))
        perm[start:end] = reordered
        normals.append(normal)
        offsets.append(offset)
        children.append([0, 0])
        if parent >= 0:
            children[parent][slot] = node_id
        stack.append((mid, end, node_id, 1))
        stack.append((start, mid, node_id, 0))
    n_splits = len(normals)
    dim = items.shape[1]
    return Tree(
        normals=(
            np.array(normals, dtype=np.float32)
            if n_splits
            else np.empty((0, dim), dtype=np.float32)
        ),
        offsets=np.array(offsets, dtype=np.float32),
        children=(
            np.array(children, dtype=np.uint32)
            if n_splits
            else np.empty((0, 2), dtype=np.uint32)
        ),
        leaf_bounds=np.array(leaf_bounds, dtype=np.uint32),
        leaf_items=perm.astype(np.uint32),
    )


def build_index(
    vectors: np.ndarray,
    config: IndexConfig | None = None,
    corpus_hash: bytes = NULL_HASH,
    item_map: ItemMap | None = None,
) -> AnnIndex:
    """Build a forest over ``vectors`` (any norm; rows are normalized here)."""
    config = config or IndexConfig()
    items = normalize_rows(vectors)
    n = len(items)
    if n == 0:
        raise ValueError("cannot build an index over zero items")
    if item_map is not None and len(item_map.row_ids) != n:
        raise DimensionMismatchError(
            f"item map covers {len(item_map.row_ids)} items, index has {n}"
        )
    trees = [
        _build_tree(
            items,
            rng.derive(config.seed, "tree", t),
            config.leaf_capacity,
            config.max_split_retries,
        )
        for t in range(config.n_trees)
    ]
    return AnnIndex(
        items=items,
        trees=trees,
        config=config,
        corpus_hash=corpus_hash,
        item_map=item_map,
    )


def save_index(index: AnnIndex, path: str | Path) -> None:
    """Write the index in its versioned little-endian binary format."""
    cfg = index.config
    if len(index.corpus_hash) != 32:
        raise ValueError("corpus_hash must be 32 bytes")
    parts = [
        INDEX_MAGIC,
        pack("H", INDEX_VERSION),
        pack("IIII", index.dim, index.size, cfg.n_trees, cfg.leaf_capacity),
        pack("IB", cfg.max_split_retries, METRIC_CODES[cfg.metric]),
        pack("Q", cfg.seed & (2**64 - 1)),
        index.corpus_hash,
        array_bytes(index.items, np.float32),
    ]
    for tree in index.trees:
        parts.append(pack("II", tree.n_splits, tree.n_leaves))
        parts.append(array_bytes(tree.normals, np.float32))
        parts.append(array_bytes(tree.offsets, np.float32))
        parts.append(array_bytes(tree.children, np.uint32))
        parts.append(array_bytes(tree.leaf_bounds, np.uint32))
        parts.append(array_bytes(tree.leaf_items, np.uint32))
    if index.item_map is None:
        parts.append(pack("B", 0))
    else:
        imap = index.item_map
        parts.append(pack("B", 1))
        parts.append(pack("H", len(imap.columns)))
        for col in imap.columns:
            raw = col.encode("utf-8")
            parts.append(pack("I", len(raw)))
            parts.append(raw)
        parts.append(array_bytes(imap.row_ids, np.uint32))
        parts.append(array_bytes(imap.col_ids, np.uint16))
    Path(path).write_bytes(b"".join(parts))


def load_index(path: str | Path) -> AnnIndex:
    """Read an index file, validating magic, version, and exact length."""
    reader = ByteReader(Path(path).read_bytes(), str(path))
    check_magic(reader, INDEX_MAGIC, "index")
    check_version(reader, INDEX_VERSION, "index")
    dim, n, n_trees, leaf_capacity = reader.unpack("IIII")
    max_retries, metric_code = reader.unpack("IB")
    (seed,) = reader.unpack("Q")
    corpus_hash = reader.take(32)
    metric = {v: k for k, v in METRIC_CODES.items()}.get(metric_code)
    if metric is None:
        raise ConfigError(f"{path}: unknown metric code {metric_code}")
    items = reader.array(np.float32, (n, dim))
    trees = []
    for _ in range(n_trees):
        n_splits, n_leaves = reader.unpack("II")
        trees.append(
            Tree(
                normals=reader.array(np.float32, (n_splits, dim)),
                offsets=reader.array(np.float32, (n_splits,)),
                children=reader.array(np.uint32, (n_splits, 2)),
                leaf_bounds=reader.array(np.uint32, (n_leaves + 1,)),
                leaf_items=reader.array(np.uint32, (n,)),
            )
        )
    (has_map,) = reader.unpack("B")
    item_map = None
    if has_map:
        (n_cols,) = reader.unpack("H")
        columns = []
        for _ in range(n_cols):
            (clen,) = reader.unpack("I")
            columns.append(reader.take(clen).decode("utf-8"))
        item_map = ItemMap(
            columns=columns,
            row_ids=reader.array(np.uint32, (n,)),
            col_ids=reader.array(np.uint16, (n,)),
        )
    reader.expect_end()
    config = IndexConfig(
        n_trees=n_trees,
        leaf_capacity=leaf_capacity,
        max_split_retries=max_retries,
        metric=metric,
        seed=seed,
    )
    return AnnIndex(
        items=items,
        trees=trees,
        config=config,
        corpus_hash=corpus_hash,
        item_map=item_map,
    )
