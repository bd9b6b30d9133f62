"""Evaluation harness: exact oracle, retrieval metrics, and benchmarks.

The oracle is a brute-force scan kept deliberately separate from the ANN
implementation so the two can check each other. It shares the index's
arithmetic contract (float32 unit vectors, difference-form distances,
float64 square root, ties broken by ascending id), which makes its
results comparable bit for bit when the ANN side examines every item.
It takes its rows in cache-sized blocks (``ORACLE_BLOCK`` float32
values), so a query's scratch is one block whatever the item count, and
selects in float32 before any square root; neither changes a bit of the
answer.

Benchmarks use the monotonic clock, warm up before measuring, and report
per-query medians aggregated into mean and percentile summaries, in
microseconds.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import rng
from .ann import (
    AnnIndex,
    _distinct_rows,
    _map_pays,
    normalize_rows,
    unit_normalize,
)

BASE_WORDS = [
    "alpha", "bravo", "cedar", "delta", "east", "field", "grove", "harbor",
    "iris", "junction", "kiln", "lake", "meadow", "north", "oak", "park",
    "quarry", "ridge", "summit", "tower",
]
STATE_WORDS = ["redland", "blueford", "greenvale", "amberton"]
# rows gen_synthetic draws and writes at a time; bounds its scratch memory
SYNTHETIC_CHUNK = 512
# float32 values of the rows ExactOracle.query takes per block: 1,024 rows
# at dim 64, 256 KB, so a block and its difference stay in L2 cache
ORACLE_BLOCK = 2**16


class ExactOracle:
    """Exhaustive nearest-neighbor scan over a fixed item set.

    Rows are unit-normalized once at construction, by ``normalize_rows``,
    and items whose rows are equal bit for bit are found once. When the
    distinct rows and an item-to-row map take fewer bytes than the items,
    the rule by which ``save_index`` stores rows, a query computes each
    distance once per distinct row; otherwise once per item. Each query
    pays only for its own normalization, that pass of distances, taken in
    blocks of at most ``ORACLE_BLOCK`` values through one reused buffer,
    and top-k selection with exact tie handling (distance ascending, then
    id ascending). The oracle finds repeats from the rows alone, never
    from an index's row map or shortlist, so it checks the index
    independently.
    """

    def __init__(self, vectors: np.ndarray):
        v = np.asarray(vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] == 0:
            raise ValueError(f"expected a non-empty 2-d matrix, got {v.shape}")
        self._adopt(normalize_rows(v))

    @classmethod
    def from_unit(cls, items: np.ndarray) -> "ExactOracle":
        """Adopt rows that are already float32 unit vectors, unchanged."""
        oracle = cls.__new__(cls)
        oracle._adopt(np.asarray(items, dtype=np.float32))
        return oracle

    def _adopt(self, items: np.ndarray) -> None:
        self.items = items
        first, row_of = _distinct_rows(items)
        mapped = _map_pays(len(items), len(first), items.shape[1], row_of.itemsize)
        # the blocks read the rows as one flat array
        self._rows = np.ascontiguousarray(items[first] if mapped else items)
        self._row_of = row_of if mapped else None

    def query(
        self, query: np.ndarray | Sequence[float], k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact top ``k``: (ids int64, angular distances float64).

        ``D``, the float32 sum of squares of ``x - q`` for each row ``x``,
        is computed block by block: one flat subtraction of the query,
        tiled once per query, into a reused buffer, then one ``einsum``
        over the block. Subtraction is exact per element and ``einsum``
        reduces each row with the same kernel whatever the block, so every
        ``D`` has the bits of one whole-matrix pass. Selection stays in
        float32: ``D`` clamped at 4 orders the rows as
        ``min(sqrt(float64(D)), 2)`` does, since ``sqrt`` of a widened
        float32 is strictly increasing and maps 4 to exactly 2, so only
        the kept rows' distances take a square root.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        qn = unit_normalize(query)
        u, dim = self._rows.shape
        if len(qn) != dim:
            raise ValueError(f"query has dim {len(qn)}, the items have dim {dim}")
        step = max(1, ORACLE_BLOCK // dim)
        tiled = np.tile(qn, min(step, u))
        diff = np.empty_like(tiled)
        flat = self._rows.reshape(-1)
        dsq = np.empty(u, dtype=np.float32)
        for lo in range(0, u, step):
            hi = min(lo + step, u)
            n = (hi - lo) * dim
            np.subtract(flat[lo * dim:hi * dim], tiled[:n], out=diff[:n])
            block = diff[:n].reshape(hi - lo, dim)
            np.einsum("ij,ij->i", block, block, out=dsq[lo:hi])
        np.minimum(dsq, np.float32(4.0), out=dsq)
        # every row at or below the kk-th row distance holds an item, so
        # those rows' items include every item that can rank
        kk = min(k, u)
        near = dsq <= np.partition(dsq, kk - 1)[kk - 1]
        if self._row_of is None:
            ids = np.flatnonzero(near)
            dsq = dsq[ids]
        else:
            ids = np.flatnonzero(near[self._row_of])
            dsq = dsq[self._row_of[ids]]
        d = np.sqrt(dsq.astype(np.float64))
        order = np.lexsort((ids, d))[:k]
        return ids[order], d[order]


def recall_at_k(approx_ids: Iterable[int], exact_ids: Iterable[int]) -> float:
    """Fraction of the exact top-k the approximate result found."""
    exact = set(map(int, exact_ids))
    if not exact:
        raise ValueError("exact id set is empty")
    return len(exact.intersection(map(int, approx_ids))) / len(exact)


def tied_hits(approx_d: np.ndarray, exact_d: np.ndarray) -> int:
    """Returned cells at most the exact k-th distance away.

    A cell that ties the oracle's k-th distance is as good an answer as
    the one the oracle picked by id, so it counts as a hit. The walk and
    the oracle compute each item's distance bit-identically.
    """
    return int(np.count_nonzero(np.asarray(approx_d) <= exact_d[-1]))


def gaussian_vectors(seed: int, n: int, dim: int) -> np.ndarray:
    """Deterministic standard-normal matrix, float64 (n, dim)."""
    return rng.normal_block(seed, 0, n * dim).reshape(n, dim)


@dataclass
class BenchRow:
    """Latency and recall summary for one search_k setting (or the oracle)."""

    label: str
    search_k: int | None  # None marks the exact oracle row
    mean_us: float
    p50_us: float
    p95_us: float
    p99_us: float
    recall: float


def _time_call(fn, warmup: int, reps: int) -> float:
    """Median duration of ``fn()`` over ``reps`` runs, in microseconds."""
    for _ in range(warmup):
        fn()
    samples = np.empty(reps, dtype=np.float64)
    for r in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        samples[r] = time.perf_counter_ns() - t0
    return float(np.median(samples)) / 1e3


def bench(
    index: AnnIndex,
    oracle: ExactOracle,
    queries: np.ndarray,
    k: int,
    search_ks: Sequence[int | None],
    warmup: int = 3,
    reps: int = 10,
) -> list[BenchRow]:
    """Measure query latency and recall across ``search_ks``.

    ``None`` inside ``search_ks`` requests the exact-oracle row. Recall is
    :func:`tied_hits` over the oracle's top-k size, averaged over queries;
    latencies are per-query medians aggregated over queries.
    """
    queries = np.asarray(queries, dtype=np.float64)
    truth = [oracle.query(q, k)[1] for q in queries]
    rows = []
    for sk in search_ks:
        per_query = np.empty(len(queries), dtype=np.float64)
        hits = 0.0
        for qi, q in enumerate(queries):
            if sk is None:
                per_query[qi] = _time_call(
                    lambda: oracle.query(q, k), warmup, reps
                )
                hits += 1.0
            else:
                per_query[qi] = _time_call(
                    lambda: index.query_vector(q, k, search_k=sk), warmup, reps
                )
                dists = index.query_vector(q, k, search_k=sk)[1]
                hits += tied_hits(dists, truth[qi]) / len(truth[qi])
        p50, p95, p99 = np.percentile(per_query, [50, 95, 99])
        rows.append(
            BenchRow(
                label="exact" if sk is None else f"search_k={sk}",
                search_k=sk,
                mean_us=float(per_query.mean()),
                p50_us=float(p50),
                p95_us=float(p95),
                p99_us=float(p99),
                recall=hits / len(queries),
            )
        )
    return rows


def gen_synthetic(
    path: str | Path, n_rows: int, n_clusters: int = 8, seed: int = 0
) -> None:
    """Write a synthetic CSV corpus of clustered facility records.

    Columns: id, center_name, state, score. Each cluster draws its name
    tokens from its own suffixed pool, so rows cluster cleanly in any
    reasonable embedding and searches have unambiguous right answers.
    """
    if n_rows < 1:
        raise ValueError("n_rows must be >= 1")
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    stream = rng.derive(seed, "synthetic")
    n_base, n_state = np.uint64(len(BASE_WORDS)), np.uint64(len(STATE_WORDS))
    # Draw i of the counter stream is the i-th draw of a SplitMix64 walk,
    # so the rows are the walk's: cluster, token count, 3 to 5 tokens,
    # state and score, each row starting where the previous one ended.
    pos = 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["id", "center_name", "state", "score"])
        for lo in range(0, n_rows, SYNTHETIC_CHUNK):
            count = min(SYNTHETIC_CHUNK, n_rows - lo)
            # a row takes at most 9 draws
            draws = rng.u64_block(stream, pos, 9 * count)
            extra = (draws % np.uint64(3)).tolist()
            starts = []
            at = 0
            for _ in range(count):
                starts.append(at)
                at += 7 + extra[at + 1]
            pos += at
            s = np.array(starts)
            n_tokens = [3 + extra[i + 1] for i in starts]
            # n_clusters may pass 2**64, so the cluster is taken in Python
            clusters = draws[s].tolist()
            words = (draws[s[:, None] + np.arange(2, 7)] % n_base).tolist()
            tail = s + 2 + np.array(n_tokens)
            state = (draws[tail] % n_state).tolist()
            score = (draws[tail + 1] % np.uint64(100) + np.uint64(1)).tolist()
            rows = []
            for i in range(count):
                c = str(clusters[i] % n_clusters)
                rows.append([
                    lo + i,
                    " ".join([BASE_WORDS[w] + c for w in words[i][:n_tokens[i]]]),
                    STATE_WORDS[state[i]] + c,
                    score[i],
                ])
            writer.writerows(rows)
