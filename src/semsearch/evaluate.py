"""Evaluation harness: exact oracle, retrieval metrics, and benchmarks.

The oracle is a brute-force scan kept deliberately separate from the ANN
implementation so the two can check each other. It shares the index's
arithmetic contract (float32 unit vectors, difference-form distances,
float64 square root, ties broken by ascending id), which makes its
results comparable bit for bit when the ANN side examines every item.

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
from .ann import AnnIndex

BASE_WORDS = [
    "alpha", "bravo", "cedar", "delta", "east", "field", "grove", "harbor",
    "iris", "junction", "kiln", "lake", "meadow", "north", "oak", "park",
    "quarry", "ridge", "summit", "tower",
]
STATE_WORDS = ["redland", "blueford", "greenvale", "amberton"]


class ExactOracle:
    """Exhaustive nearest-neighbor scan over a fixed item set.

    Rows are unit-normalized once at construction; each query pays only
    for its own normalization, one pass of distances, and top-k selection
    with exact tie handling (distance ascending, then id ascending).
    """

    def __init__(self, vectors: np.ndarray):
        v = np.asarray(vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] == 0:
            raise ValueError(f"expected a non-empty 2-d matrix, got {v.shape}")
        ss = np.einsum("ij,ij->i", v, v)
        if np.any(ss == 0.0):
            raise ValueError("zero-norm rows have no direction to compare")
        self.items = (v / np.sqrt(ss)[:, None]).astype(np.float32)

    @classmethod
    def from_unit(cls, items: np.ndarray) -> "ExactOracle":
        """Adopt rows that are already float32 unit vectors, unchanged."""
        oracle = cls.__new__(cls)
        oracle.items = np.asarray(items, dtype=np.float32)
        return oracle

    @property
    def size(self) -> int:
        return len(self.items)

    def query(
        self, query: np.ndarray | Sequence[float], k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact top ``k``: (ids int64, angular distances float64)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        q = np.asarray(query, dtype=np.float64)
        ss = float(np.dot(q, q))
        if ss == 0.0:
            raise ValueError("cannot normalize a zero-norm vector")
        qn = (q / np.sqrt(ss)).astype(np.float32)
        diff = self.items - qn
        dsq = np.einsum("ij,ij->i", diff, diff)
        d = np.sqrt(dsq.astype(np.float64))
        np.minimum(d, 2.0, out=d)
        n = len(d)
        if k >= n:
            ids = np.arange(n, dtype=np.int64)
        else:
            # exact tie handling: all strictly-closer ids, then the
            # lowest-id holders of the threshold distance
            tau = np.partition(d, k - 1)[k - 1]
            strict = np.flatnonzero(d < tau)
            ties = np.flatnonzero(d == tau)
            ids = np.concatenate((strict, ties[: k - len(strict)]))
        order = np.lexsort((ids, d[ids]))
        ids = ids[order]
        return ids, d[ids]


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
    sm = rng.SplitMix64(rng.derive(seed, "synthetic"))
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["id", "center_name", "state", "score"])
        for row_id in range(n_rows):
            c = sm.next_below(n_clusters)
            n_tokens = 3 + sm.next_below(3)
            words = [
                f"{BASE_WORDS[sm.next_below(len(BASE_WORDS))]}{c}"
                for _ in range(n_tokens)
            ]
            state = f"{STATE_WORDS[sm.next_below(len(STATE_WORDS))]}{c}"
            score = 1 + sm.next_below(100)
            writer.writerow([row_id, " ".join(words), state, score])
