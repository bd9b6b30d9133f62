"""Workload definitions and the inputs each one generates from its seed.

A workload's inputs are a CSV, the ingest arguments that go with it, and
a mixed list of query texts. Everything here is a pure function of the
workload name and the seed; the program under test only sees the files.
"""

from __future__ import annotations

import csv
import hashlib
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the program's tokenizer rule, restated so the checks do not lean on it
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "gen-data": the program's synthetic corpus; "phrases": ours
    rows: int
    epochs: int
    queries: int  # distinct query texts; the closed loop cycles over them
    exact_queries: int  # of those, timed through ExactOracle.query
    eval_queries: int  # of those, written to the `semsearch eval` file
    oneshots: int  # `semsearch query --json` processes, a multiple of 5
    dim: int = 64
    trees: int = 10
    clusters: int = 8
    vocab: int = 5000  # "phrases" only: Zipf vocabulary size


WORKLOADS = {
    w.name: w
    for w in (
        Workload("build-2k", "gen-data", rows=2000, epochs=5, queries=1200,
                 exact_queries=1200, eval_queries=600, oneshots=10),
        Workload("distinct-30k", "phrases", rows=30000, epochs=0, queries=1200,
                 exact_queries=400, eval_queries=200, oneshots=5),
    )
}

QUERY_KINDS = ("indexed", "combo", "oov")


@dataclass
class Inputs:
    csv_path: Path
    text_columns: list[str]
    queries: list[str]
    kinds: list[str]  # QUERY_KINDS entry per query
    clusters: list[int]  # gen-data: the cluster each query draws from; else -1
    queries_path: Path  # the eval file: the first eval_queries texts

    def digest(self) -> str:
        h = hashlib.sha256(self.csv_path.read_bytes())
        h.update(self.queries_path.read_bytes())
        h.update("\n".join(self.queries).encode())
        return h.hexdigest()


def _pseudo_words(rs: np.random.Generator, n: int) -> list[str]:
    """``n`` distinct lowercase words of two to four syllables."""
    onsets = list("bcdfghjklmnprstvwz") + ["br", "ch", "st", "tr", "sh"]
    vowels = list("aeiou") + ["ai", "ou"]
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n:
        w = "".join(
            onsets[rs.integers(len(onsets))] + vowels[rs.integers(len(vowels))]
            for _ in range(int(rs.integers(2, 5)))
        )
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def _write_phrases(w: Workload, seed: int, path: Path) -> None:
    """One text column of ``w.rows`` distinct phrases of 4-8 Zipf tokens."""
    rs = np.random.default_rng([seed, 30])
    vocab = _pseudo_words(rs, w.vocab)
    p = 1.0 / np.arange(1, w.vocab + 1)
    p /= p.sum()
    seen: set[str] = set()
    with open(path, "w", encoding="utf-8", newline="") as f:
        out = csv.writer(f)
        out.writerow(["id", "phrase"])
        while len(seen) < w.rows:
            lengths = rs.integers(4, 9, size=w.rows)
            ids = rs.choice(w.vocab, size=int(lengths.sum()), p=p).tolist()
            ends = np.cumsum(lengths).tolist()
            for lo, hi in zip([0] + ends[:-1], ends):
                phrase = " ".join(vocab[i] for i in ids[lo:hi])
                if phrase not in seen and len(seen) < w.rows:
                    seen.add(phrase)
                    out.writerow([len(seen) - 1, phrase])


def _oov_token(rs: np.random.Generator, vocab: set[str]) -> str:
    while True:
        t = "qx" + "".join(
            "abcdefghijklmnopqrstuvwxyz"[i] for i in rs.integers(26, size=5)
        )
        if t not in vocab:
            return t


def make_inputs(w: Workload, seed: int, out_dir: Path, gen_synthetic) -> Inputs:
    """Write the workload's CSV and eval query file under ``out_dir``.

    Queries come in equal thirds, interleaved: the text of an indexed
    cell; a new combination of in-vocabulary tokens (never an indexed
    text); and such a combination with one out-of-vocabulary token added.
    On gen-data corpora every combination draws from one cluster's tokens,
    so its answers must come from that cluster.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "corpus.csv"
    if w.kind == "gen-data":
        gen_synthetic(csv_path, w.rows, n_clusters=w.clusters, seed=seed)
        text_columns = ["center_name", "state"]
    else:
        _write_phrases(w, seed, csv_path)
        text_columns = ["phrase"]

    with open(csv_path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        cols = [header.index(c) for c in text_columns]
        state = header.index("state") if w.kind == "gen-data" else -1
        # (text, its tokens joined by one space, the row's cluster) per cell
        cells = [(row[c], " ".join(tokenize(row[c])),
                  int(re.search(r"\d+$", row[state]).group()) if state >= 0 else -1)
                 for row in reader for c in cols]
    indexed = {joined for _, joined, _ in cells}
    pools: dict[int, set[str]] = {}
    for _, joined, cluster in cells:
        pools.setdefault(cluster, set()).update(joined.split())
    vocab = set().union(*pools.values())
    pools = {c: sorted(toks) for c, toks in pools.items()}
    pool_keys = sorted(pools)

    rs = np.random.default_rng([seed, 7])
    queries: list[str] = []
    kinds: list[str] = []
    clusters: list[int] = []
    while len(queries) < w.queries:
        kind = QUERY_KINDS[len(queries) % 3]
        if kind == "indexed":
            text, _, cluster = cells[int(rs.integers(len(cells)))]
        else:
            cluster = pool_keys[int(rs.integers(len(pool_keys)))]
            pool = pools[cluster]
            n = int(rs.integers(2, 5)) if w.kind == "gen-data" else int(rs.integers(3, 7))
            toks = [pool[int(i)] for i in rs.integers(len(pool), size=n)]
            if " ".join(toks) in indexed:
                continue
            if kind == "oov":
                toks.insert(int(rs.integers(len(toks) + 1)), _oov_token(rs, vocab))
            text = " ".join(toks)
        queries.append(text)
        kinds.append(kind)
        clusters.append(cluster)

    queries_path = out_dir / "queries.txt"
    queries_path.write_text("\n".join(queries[: w.eval_queries]) + "\n", encoding="utf-8")
    return Inputs(csv_path, text_columns, queries, kinds, clusters, queries_path)
