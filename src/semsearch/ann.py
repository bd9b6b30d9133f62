"""Nearest-neighbor search over unit vectors: exact scan or forest walk.

Each tree splits the item set with the perpendicular bisector of two
sampled points until every leaf holds at most ``leaf_capacity`` items,
growing level by level: every node of one depth is split in one batch of
numpy calls, and splits are numbered breadth-first. A node that no
sampled bisector splits routes its items by coin flips, and its plane is
zero, so a query's margin there is 0 and the walk weighs both sides
alike, as Annoy's ``_make_tree`` does. The walk descends
all trees at once through a single priority queue ordered by signed
margin, collects leaf candidates until ``search_k`` distinct items have
been seen, then reranks candidates exactly.

Distances are angular: items and queries are unit-normalized, and
d(x, y) = ||x_hat - y_hat|| in [0, 2]. Identical texts therefore land at
distance exactly 0. Unit float32 rows (:func:`_unit`) keep their bits,
so normalizing twice changes nothing. The rerank computes the difference
form directly (never sqrt(2 - 2 cos) in float32, which cannot resolve
near-zero distances), squares in float32, and takes the square root in
float64.

Which path answers (:meth:`AnnIndex.walk_budget`): with ``search_k``
unset, or N or more, the exact scan; an explicit ``search_k`` below N
walks the forest with that budget. The exact scan shortlists with one
float32 matrix-vector product over the index's distinct rows and
reranks the shortlist's items in the difference form; its answers equal
an exhaustive difference-form scan (``evaluate.ExactOracle``) bit for
bit.

Each split is kept as the two item ids whose bisector it is, not as a
plane: the builder splits a level with the :func:`_bisectors` of its
sampled pairs, and :func:`_planes` turns the kept pairs into normals and
offsets once, on an index's first forest walk, with the same float64
arithmetic and the same float32 cast, so the walk routes exactly as the
builder split. The builder drops each level's planes once the level is
split, so a built index and a loaded one both derive theirs from the
pairs; the exact scan never needs them.

The file stores each distinct item row once when that makes it smaller,
with a map from item to stored row, and every id array at 16 bits when
every id fits (see :func:`save_index`). A damaged file fails with a
named :class:`StoreFormatError` instead of looping or answering wrongly:
loading checks what every query reads (unit rows, row map, item map),
and the first walk checks each tree. The file is mapped, its arrays
views at multiples of 64 bytes, so a query touches only what it reads.
A loaded index keeps the stored rows and the row map as they are: the
scan, the rerank and the planes read each item's row through the map,
so no (N, dim) matrix is made.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import rng
from .errors import ConfigError, DimensionMismatchError, StoreFormatError
from .fileio import (
    ByteReader,
    align_parts,
    array_part,
    check_magic,
    check_version,
    map_file,
    pack,
    write_parts,
)

INDEX_MAGIC = b"ANNF"
INDEX_VERSION = 3
NULL_HASH = bytes(32)

_TINY_NORM = 1e-12
# the least normal float64; squared norms below it have lost bits
_NORMAL_MIN = float(np.finfo(np.float64).tiny)

# unit roundoff of float32
U32 = 2.0**-24

# A float32 row within this squared-norm deviation from 1 is unit (see
# _unit); rows from normalize_rows deviate by at most this, and by 2u(1 + u)
# when divided. query_vector's shortlist bound assumes no more than this.
UNIT_NORM_TOL = 4 * U32

# rows normalize_rows, the forest builder and _planes take per batch;
# bounds their scratch memory
ROW_CHUNK = 2048

# pairs a node samples before it falls back to coin flips
SPLIT_TRIES = 3
# the header's metric byte: distances are angular, the only metric
ANGULAR_CODE = 0
# the dtype of every stored id, by the header's id-width byte
ID_WIDTHS = {2: np.uint16, 4: np.uint32}


@dataclass(frozen=True)
class IndexConfig:
    """Forest shape parameters."""

    n_trees: int = 10
    leaf_capacity: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ConfigError("n_trees must be >= 1")
        if self.leaf_capacity < 1:
            raise ConfigError("leaf_capacity must be >= 1")


def _rescaled(v: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
    """Rows of ``v`` whose float64 squared norm is not a normal, finite,
    non-zero number (it overflowed, underflowed, or is NaN), each scaled
    by the power of two that puts its largest magnitude in [0.5, 1).
    Scaling by a power of two is exact, so a scaled row points the same
    way and normalizes to the same bits as any copy of it scaled by
    another power of two. A row with a NaN or an infinity, or with no
    non-zero value, has no direction and is a ValueError, naming the
    rows by their ids ``at``, or the one vector when ``at`` is None.
    """
    top = np.abs(v).max(axis=1, initial=0.0)
    for what, bad in (("a NaN or an infinity", ~np.isfinite(top)),
                      ("zero norm", top == 0.0)):
        if bad.any():
            raise ValueError(
                f"cannot normalize a vector with {what}" if at is None
                else f"rows with {what} cannot be indexed: {at[bad][:8].tolist()}"
            )
    return np.ldexp(v, -np.frexp(top)[1][:, None])


def _normal(ss: np.ndarray | float) -> np.ndarray | bool:
    """Where float64 squared norms are normal, finite, non-zero numbers:
    the vectors that divide by their norm as they are."""
    return (ss >= _NORMAL_MIN) & (ss < math.inf)


def _unit(rows: np.ndarray) -> np.ndarray:
    """Which rows are unit: float32, with a squared norm summed in float64
    (einsum, no float64 copy) within ``UNIT_NORM_TOL`` of 1."""
    if rows.dtype.type is not np.float32:
        return np.zeros(len(rows), dtype=bool)
    sq = np.einsum("ij,ij->i", rows, rows, dtype=np.float64)
    return np.abs(sq - 1.0) <= UNIT_NORM_TOL


def unit_normalize(vector: np.ndarray | Sequence[float]) -> np.ndarray:
    """Unit-normalize one vector: float64 norm, float32 result, or the
    vector itself when it is float32 and unit by :func:`_unit`.

    A vector whose squared norm over- or underflows is first scaled as
    :func:`_rescaled` does; a NaN, an infinity or a zero vector is a
    ValueError, since there is no direction to compare.
    """
    v = np.asarray(vector)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if v.dtype.type is np.float32 and _unit(v[None])[0]:
        return v
    v = np.asarray(v, dtype=np.float64)
    # vdot is dot's arithmetic without its overflow warning
    ss = float(np.vdot(v, v))
    if not _normal(ss):
        v = _rescaled(v[None])[0]
        ss = float(np.vdot(v, v))
    return (v / np.sqrt(ss)).astype(np.float32)


def normalize_rows(vectors: np.ndarray) -> np.ndarray:
    """Unit-normalize each row the way ``unit_normalize`` does, with a
    float64 squared norm summed by ``einsum``; all-unit ``vectors`` as is."""
    v = np.asarray(vectors)
    if v.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {v.shape}")
    unit = _unit(v)
    if unit.all():
        return v.astype(np.float32, copy=False)
    ss = np.einsum("ij,ij->i", v, v, dtype=np.float64)
    odd = np.flatnonzero(~_normal(ss))
    if len(odd):
        v = v.astype(np.float64)
        v[odd] = _rescaled(v[odd], odd)
        ss[odd] = np.einsum("ij,ij->i", v[odd], v[odd])
    out = np.empty(v.shape, dtype=np.float32)
    for lo in range(0, len(v), ROW_CHUNK):
        hi = lo + ROW_CHUNK
        out[lo:hi] = v[lo:hi] / np.sqrt(ss[lo:hi])[:, None]
    out[unit] = v[unit]
    return out


@dataclass
class Tree:
    """One tree, flattened to arrays.

    Split ``s`` is the perpendicular bisector of items ``pairs[s]``, or,
    when ``pairs[s]`` names one item twice, a coin-flip split whose normal
    and offset are zero (see :func:`_planes`). It routes by
    sign of ``normals[s] . x + offsets[s]``: non-positive goes to
    ``children[s, 0]``, positive to ``children[s, 1]``. A child value below
    ``n_splits`` names a split, and ``n_splits + i`` names leaf ``i``,
    which owns ``leaf_items[leaf_bounds[i]:leaf_bounds[i+1]]``. The root is
    ref 0: split 0, or leaf 0 when there are no splits. Planes always come
    from the pairs:
    a tree, built or loaded, has ``normals`` and ``offsets`` None until
    :meth:`AnnIndex.derive_planes` fills them in on its first walk.
    """

    # uint32 when built; loaded at the file's id width, uint16 or uint32
    pairs: np.ndarray  # (S, 2)
    children: np.ndarray  # (S, 2)
    leaf_bounds: np.ndarray  # (L+1,)
    leaf_items: np.ndarray  # (N,)
    normals: np.ndarray | None = None  # (S, dim) float32
    offsets: np.ndarray | None = None  # (S,) float32

    @property
    def n_splits(self) -> int:
        return len(self.pairs)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_bounds) - 1


@dataclass
class ItemMap:
    """Maps item index -> (record row_id, text column) for search results.

    ``model_digest`` is the :attr:`EmbeddingModel.digest` of the model that
    embedded the cells, so an engine can refuse an index built from a
    model that has since been replaced.
    """

    columns: list[str]
    row_ids: np.ndarray  # (N,) uint32, or uint16 loaded from a 16-bit file
    col_ids: np.ndarray  # (N,) uint16
    model_digest: bytes = NULL_HASH


@dataclass
class AnnIndex:
    """A forest over unit-normalized item vectors.

    Item ``i``'s vector is ``rows[row_map[i]]``, or ``rows[i]`` when
    ``row_map`` is None, as for a built index or a file that stores every
    row. Items with equal rows share one, so the exact scan takes one dot
    product per distinct row.
    """

    rows: np.ndarray  # (U, dim) float32, rows unit norm
    trees: list[Tree]
    config: IndexConfig
    corpus_hash: bytes = NULL_HASH
    item_map: ItemMap | None = None
    row_map: np.ndarray | None = None  # (N,) ids below U
    # splits that fell back to coin flips, set by build_index; not stored
    coin_splits: int = 0
    # the file load_index read, which errors name; None for a built index
    path: str | None = None

    @property
    def items(self) -> np.ndarray:
        """The (N, dim) item matrix: ``rows`` itself without a row map,
        otherwise a new expansion. No query reads it."""
        return self.rows if self.row_map is None else self.rows[self.row_map]

    @property
    def size(self) -> int:
        return len(self.rows) if self.row_map is None else len(self.row_map)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @cached_property
    def _row_counts(self) -> np.ndarray:
        """How many items map to each row; the scan reads it."""
        return np.bincount(self.row_map, minlength=len(self.rows))

    def default_search_k(self, k: int) -> int:
        return self.config.n_trees * k

    def derive_planes(self) -> None:
        """Check each tree without planes, then derive them from its pairs;
        the walk calls this, the scan never does. A fault in a tree's
        structure or pairs is a StoreFormatError naming the tree, after the
        file it was loaded from, and leaves the tree without planes."""
        for t, tree in enumerate(self.trees):
            try:
                if tree.normals is None:
                    problem = _check_tree(tree, self.size)
                    if problem:
                        raise StoreFormatError(problem)
                    tree.normals, tree.offsets = _planes(self.rows, tree.pairs,
                                                         self.row_map)
            except StoreFormatError as e:
                where = "" if self.path is None else f"{self.path}: "
                raise StoreFormatError(f"{where}tree {t}: {e}") from None

    def _traverse(self, qn: np.ndarray, search_k: int) -> np.ndarray:
        """Candidate ids from the forest walk, in discovery order.

        One max-heap over all trees, keyed by min(parent priority, signed
        margin); roots enter at +inf. Distinct items count toward
        ``search_k``, so a leaf already covered by another tree does not
        exhaust the budget. Ties pop in insertion order.
        """
        self.derive_planes()
        n = self.size
        seen = np.zeros(n, dtype=bool)
        chunks: list[np.ndarray] = []
        unique = 0
        # every root is ref 0, and refs from n_splits up name leaves
        heap = [(-math.inf, t, t, 0) for t in range(len(self.trees))]
        seq = len(heap)
        splits = [tree.n_splits for tree in self.trees]
        while heap and unique < search_k and unique < n:
            neg_p, _, t, ref = heapq.heappop(heap)
            p = -neg_p
            tree = self.trees[t]
            if ref >= splits[t]:
                leaf = ref - splits[t]
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

    def walk_budget(self, search_k: int | None = None) -> int | None:
        """The forest walk's ``search_k``, or None when the exact scan
        answers.

        An explicit ``search_k`` below N walks with that budget; one of N
        or more, or none, scans. No count rule sends a default query to
        the walk: on 200k phrase rows at dim 64 the default walk
        (``n_trees * k`` = 100) found recall 0.145, and a one-shot query
        took 780 ms and 189 MB against the scan's 464 ms and 132 MB.
        """
        if search_k is None:
            return None
        if search_k < 1:
            raise ValueError("search_k must be >= 1")
        return None if search_k >= self.size else search_k

    def _shortlist(self, qn: np.ndarray, k: int) -> np.ndarray:
        """Ascending ids of every item that can rank among the ``k``
        nearest to ``qn``; ``query_vector`` derives the bound."""
        dots = self.rows @ qn
        u = len(dots)
        kk = min(k, u)
        if self.row_map is None:
            kth = np.partition(dots, u - kk)[u - kk]
        else:
            # the kk rows of largest product hold at least min(k, N) items;
            # going down them, the row where their items reach that count
            # holds the k-th largest item product
            top = np.argpartition(dots, u - kk)[u - kk:]
            top = top[np.argsort(dots[top])[::-1]]
            reach = np.cumsum(self._row_counts[top])
            kth = dots[top[np.searchsorted(reach, min(k, self.size))]]
        dim = self.dim
        eps = (6 * dim + 24) * U32 / (1 - (dim + 2) * U32)
        floor = float(kth) - eps
        # a float32 is >= floor exactly when it is >= floor rounded to
        # nearest float32, whichever way that rounding went
        keep = dots >= np.float32(floor)
        if self.row_map is not None:
            # take casts a uint16 or uint32 map in half the time indexing does
            keep = np.take(keep, self.row_map)
        return np.flatnonzero(keep)

    def query_vector(
        self, query: np.ndarray | Sequence[float], k: int, search_k: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top ``k`` item ids and angular distances for a query vector.

        Candidates come from the exact scan's shortlist or from the forest
        walk, as :meth:`walk_budget` routes ``search_k``; the walk examines
        ``search_k`` distinct candidates, so only its candidate set is
        approximate. Candidates are reranked by the difference form,
        ``d = min(sqrt(float64(D)), 2)`` with ``D`` the float32 sum of
        squares of ``x - q``, and returned best first, ties broken by
        ascending id.

        **Exact scan.** Let ``S = 2 - 2 * fl(x . q)``, one float32
        matrix-vector product (Higham, *Accuracy and Stability of
        Numerical Algorithms*, section 3.1, for the bounds below). With
        ``u = 2**-24`` and ``g(n) = n u / (1 - n u)``, split ``|S - D|``
        at the real values ``T = ||x - q||**2`` and ``2 - 2 x . q``:

        1. ``|fl(x . q) - x . q| <= g(dim) ||x|| ||q||`` in any summation
           order, FMA included, so that term is ``<= 2 g(dim) ||x|| ||q||``.
        2. ``|(2 - 2 x . q) - T| = |(1 - ||x||**2) + (1 - ||q||**2)|``.
           Load refuses rows with ``|1 - ||x||**2| > 4u``; ``unit_normalize``
           keeps a float32 query only within that ``4u`` and leaves any
           other within ``2u + u**2``: at most about ``8u`` in all.
        3. ``D`` rounds ``dim + 2`` times per term (subtraction, squaring,
           ``dim - 1`` additions) over non-negative terms, so
           ``|D - T| <= g(dim + 2) T`` with ``T <= (||x|| + ||q||)**2``,
           just over 4.

        With ``||x||, ||q|| <= 1 + 2u`` the sum is below
        ``(6 dim + 8) u (1 + 5u) / (1 - (dim + 2) u) + 8.01u``, which
        ``eps = (6 dim + 24) u / (1 - (dim + 2) u)`` exceeds by about
        ``8u`` for any dim below 10**6; that margin also covers the one
        float64 rounding of the threshold and underflow, which adds at
        most ``dim * 2**-149``. So ``|S - D| <= eps`` for every item.
        The largest ``|S - D|`` measured on a 30k x 64 index is 6.0e-7,
        against ``eps`` = 2.4e-5.

        The shortlist keeps every item with ``S <= S_(k) + 2 eps``,
        written in dot products: ``fl(x . q) >= fl(x . q)_(k) - eps``.
        The ``k`` items of smallest ``S`` have ``D <= S_(k) + eps``, so
        ``D_(k) <= S_(k) + eps``. ``sqrt`` in float64 is strictly
        increasing on float32 inputs, so when ``D_(k) < 4`` the answer
        needs exactly the items with ``D <= D_(k)``, ties included, and
        each has ``S <= D_(k) + eps <= S_(k) + 2 eps``. When
        ``D_(k) >= 4`` the k-th distance clamps to 2 and every item ties
        with it or beats it, as at dim 1 where the far side is exactly
        antipodal; then ``S_(k) >= 4 - eps`` puts the floor at
        ``-1 - eps / 2`` or below, under every ``fl(x . q)``, which is
        at least ``-1 - (dim + 4) u``, so every item is kept. Either way
        the shortlist holds the true top ``k`` with every tie, and the
        rerank is the same float arithmetic on the same rows as a full
        scan, so the answer equals ``ExactOracle`` bit for bit.
        ``k >= N`` keeps every item.

        Items with equal rows have equal dot products, so the scan takes
        them once per distinct row, U in all, and reads
        ``fl(x . q)_(k)`` off the rows: taken in descending product, each
        row stands for as many items as map to it, and the row at which
        those counts first reach ``min(k, N)`` has the k-th largest item
        product. The floor is the one above, and the kept rows' items
        are the items it keeps.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        qn = unit_normalize(query)
        if len(qn) != self.dim:
            raise DimensionMismatchError(
                f"query has dim {len(qn)}, index has dim {self.dim}"
            )
        budget = self.walk_budget(search_k)
        if budget is None:
            ids = self._shortlist(qn, k)
        else:
            ids = self._traverse(qn, budget).astype(np.int64)
        diff = self.rows[ids if self.row_map is None else self.row_map[ids]] - qn
        dsq = np.einsum("ij,ij->i", diff, diff)
        d = np.sqrt(dsq.astype(np.float64))
        np.minimum(d, 2.0, out=d)
        kk = min(k, len(d))
        keep = np.flatnonzero(d <= np.partition(d, kk - 1)[kk - 1])
        order = keep[np.lexsort((ids[keep], d[keep]))[:kk]]
        return ids[order], d[order]


def _sides(
    items: np.ndarray, rows: np.ndarray, seg: np.ndarray,
    normals: np.ndarray, offsets: np.ndarray,
) -> np.ndarray:
    """Signed side ``normals[s] . x + offsets[s]`` of each item of ``rows``
    against the plane of its node ``s`` in ``seg``, in float32.

    Rows are gathered and projected ``ROW_CHUNK`` at a time, so the
    scratch memory stays small whatever the level's size; each row's
    product is the same whatever the chunk.
    """
    sides = np.empty(len(rows), dtype=np.float32)
    for lo in range(0, len(rows), ROW_CHUNK):
        part = seg[lo:lo + ROW_CHUNK]
        x = np.take(items, rows[lo:lo + ROW_CHUNK], axis=0)
        planes = np.take(normals, part, axis=0)
        sides[lo:lo + ROW_CHUNK] = np.einsum("ij,ij->i", x, planes)
    sides += np.take(offsets, seg)
    return sides


def _bisectors(
    items: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which rows ``a[i]``, ``b[i]`` have a perpendicular bisector, and the
    normal and offset of each that does.

    The normal is ``(p - q) / ||p - q||`` rounded to float32 and the offset
    ``-normal . (p + q) / 2``, both taken in float64 from the float32 rows;
    rows closer than ``_TINY_NORM`` coincide and have none. Each result is
    the same whichever other rows share the call.
    """
    p = items[a].astype(np.float64)
    q = items[b].astype(np.float64)
    diff = p - q
    nn = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    ok = nn >= _TINY_NORM
    normal = (diff[ok] / nn[ok, None]).astype(np.float32)
    mid = (p[ok] + q[ok]) * 0.5
    offset = -np.einsum("ij,ij->i", normal.astype(np.float64), mid)
    return ok, normal, offset.astype(np.float32)


def _planes(
    rows: np.ndarray, pairs: np.ndarray, row_map: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Normals and offsets of the splits whose item pairs are ``pairs``,
    item ``i``'s row being ``rows[row_map[i]]``, or ``rows[i]`` without a
    map.

    A pair ``(a, b)`` of two items gives their perpendicular bisector (see
    :func:`_bisectors`) by the builder's arithmetic, row by row, so a
    loaded index's planes equal the built ones bit for bit. A pair
    ``(a, a)`` is a coin-flip split: its normal and offset are zero. Two
    distinct items whose rows coincide have no bisector; the builder never
    stores such a pair, so it is a StoreFormatError. Pairs are taken
    ``ROW_CHUNK`` at a time, which bounds the float64 scratch. Deriving
    10 trees' planes over 30k x 64 items (33k splits) took about 0.1 s in
    a fresh process on a 2-vCPU VM, and 45 ms once the allocator was warm.
    """
    normals = np.zeros((len(pairs), rows.shape[1]), dtype=np.float32)
    offsets = np.zeros(len(pairs), dtype=np.float32)
    for lo in range(0, len(pairs), ROW_CHUNK):
        a = pairs[lo:lo + ROW_CHUNK, 0].astype(np.int64)
        b = pairs[lo:lo + ROW_CHUNK, 1].astype(np.int64)
        two = np.flatnonzero(a != b)
        ra, rb = a[two], b[two]
        if row_map is not None:
            ra, rb = row_map[ra], row_map[rb]
        ok, normal, offset = _bisectors(rows, ra, rb)
        bad = _first(~ok)
        if bad is not None:
            raise StoreFormatError(
                f"split {lo + two[bad]} is the bisector of items {a[two[bad]]} "
                f"and {b[two[bad]]}, which coincide"
            )
        normals[lo + two], offsets[lo + two] = normal, offset
    return normals, offsets


def _member(nodes: np.ndarray, k: int) -> np.ndarray:
    mask = np.zeros(k, dtype=bool)
    mask[nodes] = True
    return mask


def _split_level(
    items: np.ndarray,
    rows: np.ndarray,
    sizes: np.ndarray,
    node_ids: np.ndarray,
    tree_seed: int,
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Split every node of one depth in one batch.

    ``rows`` lists the items of the level's nodes, node after node: node
    ``s`` owns the next ``sizes[s]``. Each try samples two distinct rows of
    a node, takes the perpendicular bisector of the pair, and keeps it if
    both sides are non-empty. A node still unsplit after ``SPLIT_TRIES``
    tries routes its rows by seeded coin flips (fixed up so both sides are
    non-empty), so leaf capacity holds even for degenerate data; it stores
    its first row twice, whose plane (see :func:`_planes`) is zero.
    Pairs are drawn at counter ``(node id, try)`` and coins at
    ``(node id, position in node)``, so no draw depends on how a level is
    batched.

    Returns each node's item pair, its left-side count, the number of
    nodes that fell back to coin flips, and ``rows`` reordered so that in
    each node the rows on the non-positive side come first, each side in
    its previous order.
    """
    k, dim = len(sizes), items.shape[1]
    seg = np.repeat(np.arange(k), sizes)
    heads = np.cumsum(sizes) - sizes  # each node's first entry in rows
    pairs = np.zeros((k, 2), dtype=np.int64)
    normals = np.zeros((k, dim), dtype=np.float32)
    offsets = np.zeros(k, dtype=np.float32)
    left = np.zeros(len(rows), dtype=bool)
    todo = np.arange(k)
    pair_seed = rng.derive(tree_seed, "pair")
    for t in range(SPLIT_TRIES):
        m = sizes[todo].astype(np.uint64)
        counter = (node_ids[todo].astype(np.uint64) << np.uint64(32)) + np.uint64(2 * t)
        i = (rng.u64_at(pair_seed, counter) % m).astype(np.int64)
        j = rng.u64_at(pair_seed, counter + np.uint64(1)) % (m - np.uint64(1))
        j = j.astype(np.int64)
        j += j >= i
        a, b = rows[heads[todo] + i], rows[heads[todo] + j]
        ok, normal, offset = _bisectors(items, a, b)
        cand = todo[ok]
        pairs[cand, 0], pairs[cand, 1] = a[ok], b[ok]
        normals[cand], offsets[cand] = normal, offset
        # the rows of every node with a candidate plane
        r = slice(None) if len(cand) == k else np.flatnonzero(_member(cand, k)[seg])
        on_left = _sides(items, rows[r], seg[r], normals, offsets) <= 0
        n_left = np.bincount(seg[r][on_left], minlength=k)
        good = np.zeros(k, dtype=bool)
        good[cand] = (n_left[cand] > 0) & (n_left[cand] < sizes[cand])
        left[r] = on_left & good[seg[r]]
        todo = todo[~good[todo]]
        if not len(todo):
            break
    if len(todo):
        pairs[todo] = rows[heads[todo], None]
        r = np.flatnonzero(_member(todo, k)[seg])
        counter = (node_ids[seg[r]].astype(np.uint64) << np.uint64(32)) + (
            r - heads[seg[r]]
        ).astype(np.uint64)
        # a fair coin: the top bit of the draw
        coins = rng.u64_at(rng.derive(tree_seed, "coin"), counter)
        left[r] = coins < np.uint64(1 << 63)
        n_left = np.bincount(seg[r][left[r]], minlength=k)
        all_left = todo[n_left[todo] == sizes[todo]]
        left[heads[all_left] + sizes[all_left] - 1] = False
        left[heads[todo[n_left[todo] == 0]]] = True
    order = np.lexsort((~left, seg))
    n_left = np.bincount(seg[left], minlength=k)
    return pairs, n_left, len(todo), rows[order]


def _build_tree(
    items: np.ndarray, tree_seed: int, leaf_capacity: int
) -> tuple[Tree, int]:
    """Grow one tree level by level; returns it with its coin-flip split count.

    Every node of one depth that holds more than ``leaf_capacity`` items
    is split in one :func:`_split_level` batch. Splits are numbered
    breadth-first, left child before right, so each child split comes
    after its parent; leaves are numbered by start position, so
    ``leaf_bounds`` ascends. The tree keeps its pairs, not the planes it
    split with.
    """
    n = len(items)
    perm = np.empty(n, dtype=np.int64)
    pairs = [np.empty((0, 2), dtype=np.int64)]
    # a node's slot in the flat children array is 2 * parent + side;
    # the root's is -1
    split_slots = [np.empty(0, dtype=np.int64)]
    leaf_starts: list[np.ndarray] = []
    leaf_slots: list[np.ndarray] = []
    # the level's nodes: where each starts in perm, its size and its slot,
    # and its items, node after node
    starts = np.zeros(1, dtype=np.int64)
    sizes = np.full(1, n, dtype=np.int64)
    slots = np.full(1, -1, dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)
    n_splits = coin_splits = 0
    while True:
        is_leaf = sizes <= leaf_capacity
        leaf_starts.append(starts[is_leaf])
        leaf_slots.append(slots[is_leaf])
        # leaves take their items' final places in perm
        in_leaf = np.repeat(is_leaf, sizes)
        shift = (starts - (np.cumsum(sizes) - sizes))[is_leaf]
        perm[np.flatnonzero(in_leaf) + np.repeat(shift, sizes[is_leaf])] = rows[in_leaf]
        starts, sizes, slots = starts[~is_leaf], sizes[~is_leaf], slots[~is_leaf]
        if not len(starts):
            break
        ids = n_splits + np.arange(len(starts))
        # the level's planes only route its own rows; a walk derives them
        level_pairs, n_left, coins, rows = _split_level(
            items, rows[~in_leaf], sizes, ids, tree_seed
        )
        pairs.append(level_pairs)
        split_slots.append(slots)
        n_splits += len(starts)
        coin_splits += coins
        starts = np.stack((starts, starts + n_left), axis=1).ravel()
        sizes = np.stack((n_left, sizes - n_left), axis=1).ravel()
        slots = np.stack((2 * ids, 2 * ids + 1), axis=1).ravel()
    children = np.zeros(2 * n_splits, dtype=np.uint32)
    children[np.concatenate(split_slots)[1:]] = np.arange(1, n_splits)
    leaf_starts_all = np.concatenate(leaf_starts)
    order = np.argsort(leaf_starts_all)
    if n_splits:
        children[np.concatenate(leaf_slots)[order]] = n_splits + np.arange(len(order))
    return Tree(
        pairs=np.concatenate(pairs).astype(np.uint32),
        children=children.reshape(n_splits, 2),
        leaf_bounds=np.append(leaf_starts_all[order], n).astype(np.uint32),
        leaf_items=perm.astype(np.uint32),
    ), coin_splits


def build_index(
    vectors: np.ndarray,
    config: IndexConfig | None = None,
    corpus_hash: bytes = NULL_HASH,
    item_map: ItemMap | None = None,
) -> AnnIndex:
    """Build a forest over the rows of ``vectors``, of any norm. The
    index's rows, with no row map, are :func:`normalize_rows` of them:
    ``vectors`` itself, with no copy, when every row is a float32 unit
    vector, as ``cell_vectors`` returns them."""
    config = config or IndexConfig()
    n = len(vectors)
    if n == 0:
        raise ValueError("cannot build an index over zero items")
    if item_map is not None and len(item_map.row_ids) != n:
        raise DimensionMismatchError(
            f"item map covers {len(item_map.row_ids)} items, index has {n}"
        )
    items = normalize_rows(vectors)
    built = [
        _build_tree(
            items,
            rng.derive(config.seed, "tree", t),
            config.leaf_capacity,
        )
        for t in range(config.n_trees)
    ]
    return AnnIndex(
        rows=items,
        trees=[tree for tree, _ in built],
        config=config,
        corpus_hash=corpus_hash,
        item_map=item_map,
        coin_splits=sum(coins for _, coins in built),
    )


def _distinct_rows(items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first item of each distinct row of float32 ``items``, ascending,
    and each item's row as a rank among those.

    Rows are equal when their bits are. Each row hashes to 64 bits, the
    sum of its words times odd multipliers modulo 2**64, ``ROW_CHUNK``
    rows at a time; after a stable sort by hash only neighbours of equal
    hash are compared, so the scratch is a few N-long integer arrays and
    no copy of the rows. Two different rows of equal hash are never
    merged; a row that shares its hash with another may be stored again.
    """
    n, dim = items.shape
    bits = items.view(np.uint32)
    mult = rng.u64_block(rng.derive(0, "row hash"), 0, dim) | np.uint64(1)
    h = np.empty(n, dtype=np.uint64)
    for lo in range(0, n, ROW_CHUNK):
        h[lo:lo + ROW_CHUNK] = (bits[lo:lo + ROW_CHUNK] * mult).sum(axis=1)
    order = np.argsort(h, kind="stable")
    sorted_h = h[order]
    # sorted position i starts a run of equal rows unless it equals i - 1
    starts = np.ones(n, dtype=bool)
    same_h = np.flatnonzero(sorted_h[1:] == sorted_h[:-1])
    for lo in range(0, len(same_h), ROW_CHUNK):
        i = same_h[lo:lo + ROW_CHUNK]
        starts[i + 1] = ~np.all(bits[order[i]] == bits[order[i + 1]], axis=1)
    # a run's items ascend, so its head is the row's first occurrence
    first_of = np.empty(n, dtype=np.int64)
    first_of[order] = order[starts][np.cumsum(starts) - 1]
    is_first = first_of == np.arange(n)
    return np.flatnonzero(is_first), (np.cumsum(is_first) - 1)[first_of]


def _map_pays(n: int, u: int, dim: int, width: int) -> bool:
    """Whether ``u`` distinct float32 rows and a map of ``n`` ids of
    ``width`` bytes take fewer bytes than ``n`` rows, which is also
    whether a scan through the map reads fewer bytes."""
    return (n - u) * dim * 4 > n * width


def save_index(index: AnnIndex, path: str | Path) -> None:
    """Write the index in its versioned little-endian binary format.

    The header holds the shape, the config, the corpus hash, the item
    map's model digest (zeros without a map), the number U of stored rows
    and the width in bytes of every stored id. Then come the rows: each
    distinct item row once, in first-occurrence order, and a map from item
    to stored row, when the map takes fewer bytes than the repeats it
    saves, ``(N - U) * dim * 4 > N * width``; otherwise all N rows and no
    map. Ids (row map, split pairs, children, leaf bounds, leaf items and
    the item map's row ids) take 2 bytes when N and every id fit in 16
    bits, and 4 otherwise. Every array starts at a multiple of
    ``fileio.ALIGN`` bytes, after zero padding.
    """
    cfg = index.config
    imap = index.item_map
    model_digest = NULL_HASH if imap is None else imap.model_digest
    if len(index.corpus_hash) != 32 or len(model_digest) != 32:
        raise ValueError("corpus_hash and model_digest must be 32 bytes")
    id_arrays = [arr for tree in index.trees for arr in
                 (tree.pairs, tree.children, tree.leaf_bounds, tree.leaf_items)]
    if imap is not None:
        id_arrays.append(imap.row_ids)
    top = max([index.size] + [int(arr.max()) for arr in id_arrays if arr.size])
    width = 2 if top <= 0xFFFF else 4
    ids = ID_WIDTHS[width]
    items = array_part(index.items, np.float32)
    n, dim = items.shape
    first, row_of = _distinct_rows(items)
    rows = [items]
    if _map_pays(n, len(first), dim, width):
        rows = [items[first], array_part(row_of, ids)]
    parts = [
        INDEX_MAGIC,
        pack("H", INDEX_VERSION),
        pack("IIII", dim, n, cfg.n_trees, cfg.leaf_capacity),
        pack("IB", SPLIT_TRIES, ANGULAR_CODE),
        pack("Q", cfg.seed & (2**64 - 1)),
        index.corpus_hash,
        model_digest,
        pack("IB", len(rows[0]), width),
        *rows,
    ]
    for tree in index.trees:
        parts.append(pack("II", tree.n_splits, tree.n_leaves))
        parts.extend(array_part(arr, ids) for arr in
                     (tree.pairs, tree.children, tree.leaf_bounds, tree.leaf_items))
    if imap is None:
        parts.append(pack("B", 0))
    else:
        parts.append(pack("B", 1))
        parts.append(pack("H", len(imap.columns)))
        for col in imap.columns:
            raw = col.encode("utf-8")
            parts.append(pack("I", len(raw)))
            parts.append(raw)
        parts.append(array_part(imap.row_ids, ids))
        parts.append(array_part(imap.col_ids, np.uint16))
    write_parts(path, align_parts(parts))


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else None


def _check_tree(tree: Tree, n: int) -> str | None:
    """What is wrong with one tree's structure, or None. O(N) numpy passes."""
    n_splits, n_leaves = tree.n_splits, tree.n_leaves
    if n_leaves != n_splits + 1:
        return f"{n_splits} splits need {n_splits + 1} leaves, not {n_leaves}"
    bad = _first(tree.pairs.ravel() >= n)
    if bad is not None:
        return (f"split {bad // 2} is the bisector of item "
                f"{tree.pairs.ravel()[bad]}, not below {n}")
    refs = tree.children.ravel().astype(np.int64)
    parents = np.repeat(np.arange(n_splits), 2)
    is_leaf = refs >= n_splits
    split_refs, split_parents = refs[~is_leaf], parents[~is_leaf]
    bad = _first(split_refs <= split_parents)
    if bad is not None:
        return (f"split {split_parents[bad]} has child split {split_refs[bad]}, "
                "not one after it")
    leaf_refs = refs[is_leaf] - n_splits
    bad = _first(leaf_refs >= n_leaves)
    if bad is not None:
        return f"a split has child leaf {leaf_refs[bad]}, not below {n_leaves}"
    # each split but the root, and each leaf, hangs under exactly one split;
    # with no splits the only leaf is the root
    once = np.concatenate((np.bincount(split_refs, minlength=n_splits)[1:],
                           np.bincount(leaf_refs, minlength=n_leaves)))
    if n_splits and not np.all(once == 1):
        return "a split or leaf is not the child of exactly one split"
    bounds = tree.leaf_bounds.astype(np.int64)
    if bounds[0] != 0 or bounds[-1] != n:
        return f"leaf bounds run from {bounds[0]} to {bounds[-1]}, not 0 to {n}"
    bad = _first(np.diff(bounds) < 0)
    if bad is not None:
        return f"leaf {bad} ends before it starts"
    bad = _first(tree.leaf_items >= n)
    if bad is not None:
        return f"leaf item {tree.leaf_items[bad]} at position {bad} is not below {n}"
    bad = _first(np.bincount(tree.leaf_items, minlength=n) != 1)
    if bad is not None:
        return f"leaf items are not a permutation: item {bad} is not there once"
    return None


def _check_structure(
    rows: np.ndarray,
    row_map: np.ndarray | None,
    n: int,
    item_map: ItemMap | None,
    name: str,
) -> None:
    """Refuse an index the scan cannot serve correctly.

    Each item's stored row must exist, and stored rows must be unit by
    :func:`_unit`, which ``query_vector``'s shortlist bound assumes;
    item-map columns must exist and items follow cell order (see
    ``cell_vectors``).
    """
    if n == 0:
        raise StoreFormatError(f"{name}: index holds no items")
    if row_map is not None:
        bad = _first(row_map >= len(rows))
        if bad is not None:
            raise StoreFormatError(
                f"{name}: item {bad} is stored in row {row_map[bad]}, "
                f"not below {len(rows)}"
            )
    bad = _first(~_unit(rows))
    if bad is not None:
        # rows are stored in first-occurrence order: name the first item
        item = bad if row_map is None else _first(row_map == bad)
        where = f"stored row {bad}" if item is None else f"item row {item}"
        raise StoreFormatError(
            f"{name}: {where} is not a finite unit vector "
            f"(squared norm {rows[bad].astype(np.float64) @ rows[bad]!r})"
        )
    if item_map is not None:
        bad = _first(item_map.col_ids >= len(item_map.columns))
        if bad is not None:
            raise StoreFormatError(
                f"{name}: item row {bad} names column {item_map.col_ids[bad]} "
                f"of {len(item_map.columns)}"
            )
        cells = item_map.row_ids.astype(np.int64) * len(item_map.columns)
        cells += item_map.col_ids
        bad = _first(np.diff(cells) <= 0)
        if bad is not None:
            raise StoreFormatError(
                f"{name}: item row {bad + 1} names cell {cells[bad + 1]}, "
                f"not one after item row {bad}'s cell {cells[bad]}; "
                "items follow cell order"
            )


def load_index(path: str | Path) -> AnnIndex:
    """Map an index file, validating magic, version, exact length and
    what every query reads (see ``_check_structure``).

    Every array of the index is a view of one private mapping (see
    ``fileio.map_file``), ids at the file's width: the U stored rows and,
    when U < N, the item-to-row map, which queries read rows through.
    Trees come unchecked and without planes; the first forest walk checks
    them and derives their planes (:meth:`AnnIndex.derive_planes`).
    """
    reader = ByteReader(map_file(path), str(path))
    check_magic(reader, INDEX_MAGIC, "index")
    check_version(reader, INDEX_VERSION, "index")
    dim, n, n_trees, leaf_capacity = reader.unpack("IIII")
    split_tries, metric_code = reader.unpack("IB")
    if split_tries != SPLIT_TRIES:
        raise StoreFormatError(
            f"{path}: split-try count {split_tries}, not {SPLIT_TRIES}"
        )
    if metric_code != ANGULAR_CODE:
        raise StoreFormatError(
            f"{path}: metric code {metric_code}, not {ANGULAR_CODE} (angular)"
        )
    (seed,) = reader.unpack("Q")
    corpus_hash = reader.take(32)
    model_digest = reader.take(32)
    n_rows, width = reader.unpack("IB")
    if width not in ID_WIDTHS:
        raise StoreFormatError(f"{path}: id width {width}, not 2 or 4")
    if n_rows > n:
        raise StoreFormatError(f"{path}: {n_rows} stored rows for {n} items")
    ids = ID_WIDTHS[width]
    rows = reader.aligned_array(np.float32, (n_rows, dim))
    row_map = reader.aligned_array(ids, (n,)) if n_rows < n else None
    trees = []
    for _ in range(n_trees):
        n_splits, n_leaves = reader.unpack("II")
        trees.append(
            Tree(
                pairs=reader.aligned_array(ids, (n_splits, 2)),
                children=reader.aligned_array(ids, (n_splits, 2)),
                leaf_bounds=reader.aligned_array(ids, (n_leaves + 1,)),
                leaf_items=reader.aligned_array(ids, (n,)),
            )
        )
    (has_map,) = reader.unpack("B")
    item_map = None
    if has_map:
        (n_cols,) = reader.unpack("H")
        columns = []
        for _ in range(n_cols):
            (clen,) = reader.unpack("I")
            try:
                columns.append(reader.take(clen).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise StoreFormatError(f"{path}: column name is not UTF-8") from exc
        item_map = ItemMap(
            columns=columns,
            row_ids=reader.aligned_array(ids, (n,)),
            col_ids=reader.aligned_array(np.uint16, (n,)),
            model_digest=model_digest,
        )
    reader.expect_end()
    _check_structure(rows, row_map, n, item_map, str(path))
    config = IndexConfig(
        n_trees=n_trees,
        leaf_capacity=leaf_capacity,
        seed=seed,
    )
    return AnnIndex(
        rows=rows,
        trees=trees,
        config=config,
        corpus_hash=corpus_hash,
        item_map=item_map,
        row_map=row_map,
        path=str(path),
    )
