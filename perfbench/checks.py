"""Correctness checks, each against a computation made apart from the program
or a property the method must have, never against saved output.

Every check raises :class:`CheckError` naming what disagreed. The exact
scan here is the benchmark's own: float64 arithmetic over the index's
float32 items, with the query embedded by the benchmark's own tokenizer
and reader of ``model.bin``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import tokenize

# float32 rounding of a distance in [0, 2]: the oracle squares and sums
# float32 differences, so its error grows with the distance
DIST_ATOL = 1e-6
DIST_RTOL = 4e-6
# recall and exact-text hits: an answer at most this far past a distance
# counts as reaching it
RECALL_EPS = 1e-6
EXACT_TEXT_MAX = 1e-5


class CheckError(AssertionError):
    pass


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckError(msg)


@dataclass
class Model:
    token_to_id: dict[str, int]
    w_in: np.ndarray  # float64


def read_model(path: Path) -> Model:
    """Vocabulary and input vectors from a ``model.bin``, read independently."""
    data = Path(path).read_bytes()
    _require(data[:4] == b"W2VM", f"{path}: bad magic")
    dim, size = struct.unpack_from("<II", data, 6)
    pos = 6 + 8 + 32 + struct.calcsize("<IIIIddQ")
    token_to_id = {}
    for i in range(size):
        (n,) = struct.unpack_from("<I", data, pos)
        token_to_id[data[pos + 4:pos + 4 + n].decode("utf-8")] = i
        pos += 4 + n + 8
    w_in = np.frombuffer(data, dtype="<f4", count=size * dim, offset=pos)
    _require(len(data) == pos + 2 * size * dim * 4, f"{path}: bad length")
    return Model(token_to_id, w_in.reshape(size, dim).astype(np.float64))


def read_cells(records_path: Path) -> list[tuple[int, int, str]]:
    """(row_id, text column position, text) per cell of a record store."""
    cells = []
    with open(records_path, encoding="utf-8") as f:
        f.readline()
        for line in f:
            obj = json.loads(line)
            cells.extend((obj["row_id"], c, t) for c, t in enumerate(obj["text"]))
    return cells


def embed(model: Model, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Unit float64 mean token vectors; returns (vectors, embeddable mask).

    The mean's direction is the sum's, so rows are normalized sums; a text
    with no in-vocabulary token, or a zero sum, is not embeddable.
    """
    ids, owner = [], []
    for i, text in enumerate(texts):
        for t in tokenize(text):
            j = model.token_to_id.get(t)
            if j is not None:
                ids.append(j)
                owner.append(i)
    sums = np.zeros((len(texts), model.w_in.shape[1]))
    if ids:
        np.add.at(sums, np.array(owner), model.w_in[np.array(ids)])
    norms = np.sqrt(np.einsum("ij,ij->i", sums, sums))
    ok = norms > 0
    vecs = np.zeros_like(sums)
    vecs[ok] = sums[ok] / norms[ok, None]
    return vecs, ok


class ExactScan:
    """Float64 exhaustive scan over an index's item rows."""

    def __init__(self, items: np.ndarray):
        self.items = np.asarray(items, dtype=np.float64)
        self.sq = np.einsum("ij,ij->i", self.items, self.items)

    def distances(self, queries: np.ndarray) -> np.ndarray:
        """(Q, N) angular distances for unit float64 query rows."""
        dsq = self.sq[None, :] + 1.0 - 2.0 * (queries @ self.items.T)
        return np.sqrt(np.maximum(dsq, 0.0))


def _tol(d):
    return DIST_ATOL + DIST_RTOL * np.asarray(d)


def check_walk(own_row: np.ndarray, ids, dists, k: int) -> np.ndarray:
    """An answer holds min(k, N) distinct items, best first, each at the
    distance the benchmark's own scan gives that item.

    ``own_row`` is the benchmark's distance to every item. Returns the own
    distances of the answered items, from which recall is scored, so an
    answer cannot raise its recall by understating its distances.
    """
    ids = np.asarray(ids, dtype=np.int64)
    dists = np.asarray(dists, dtype=np.float64)
    n = len(own_row)
    _require(len(ids) == min(k, n) and len(dists) == len(ids)
             and len(set(ids.tolist())) == len(ids),
             f"answer has {len(set(ids.tolist()))} distinct of {len(ids)} items, "
             f"not {min(k, n)}")
    _require(bool(np.all((ids >= 0) & (ids < n))), "an answered id is not an item")
    _require(bool(np.all(np.diff(dists) >= 0)), "answer distances not ascending")
    own = own_row[ids]
    _require(bool(np.all(np.abs(own - dists) <= _tol(own))),
             "an answered item's own distance differs from the distance reported for it")
    return own


def check_oracle(own_row: np.ndarray, ids: np.ndarray, dists: np.ndarray, k: int) -> None:
    """An ExactOracle answer agrees with the benchmark's own float64 scan.

    Beyond :func:`check_walk`, its distances must match the own k smallest,
    so ids agree up to ties at the k-th distance.
    """
    check_walk(own_row, ids, dists, k)
    own_top = np.sort(np.partition(own_row, k - 1)[:k])
    _require(bool(np.all(np.abs(dists - own_top) <= _tol(own_top))),
             f"oracle distances {dists[:3]}.. differ from own top-k {own_top[:3]}..")


def answer_items(results, item_of: dict[tuple[int, str], int],
                 item_cells: list[tuple[int, int, str]]) -> np.ndarray:
    """Item ids of a ``SearchEngine.query`` answer.

    Each result must name an indexed (row id, column) cell and carry that
    cell's text as read from the record store.
    """
    ids = []
    for r in results:
        item = item_of.get((r.row_id, r.column))
        _require(item is not None, f"answered cell ({r.row_id}, {r.column!r}) is not indexed")
        _require(r.text == item_cells[item][2],
                 f"answered cell ({r.row_id}, {r.column!r}) carries text {r.text!r}, "
                 f"not {item_cells[item][2]!r}")
        ids.append(item)
    return np.array(ids, dtype=np.int64)


def check_bit_equal(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> None:
    """`query_vector(search_k >= N)` equals the oracle bit for bit."""
    _require(np.array_equal(a[0], b[0]), "full-scan ids differ from the oracle's")
    _require(a[1].tobytes() == b[1].tobytes(), "full-scan distances differ from the oracle's")


def check_exact_text(first_distance: float, text: str) -> None:
    _require(first_distance <= EXACT_TEXT_MAX,
             f"indexed text {text!r} ranked first a cell at distance {first_distance}")


def check_oneshot(stdout: str, expected: dict) -> None:
    """The JSON a `query --json` process printed equals the in-process answer."""
    got = json.loads(stdout)
    _require(got == expected, f"one-shot answer for {expected['query']!r} differs from in-process")


def own_items(model: Model, cells: list[tuple[int, int, str]]):
    """The cells the method indexes, in cell order, and their unit mean vectors.

    A cell is indexed when its text has an in-vocabulary token.
    """
    vecs, ok = embed(model, [t for _, _, t in cells])
    return [c for c, good in zip(cells, ok) if good], vecs[ok]


def check_items(items: np.ndarray, row_ids: np.ndarray, col_ids: np.ndarray,
                item_cells: list[tuple[int, int, str]], item_vecs: np.ndarray) -> None:
    """Index rows equal the normalized token-vector means, in cell order."""
    _require(len(items) == len(item_cells),
             f"index has {len(items)} items, not the {len(item_cells)} embeddable cells")
    _require(np.allclose(items, item_vecs.astype(np.float32), rtol=0, atol=1e-6),
             "index items differ from recomputed cell means")
    _require(np.array_equal(row_ids, [c[0] for c in item_cells])
             and np.array_equal(col_ids, [c[1] for c in item_cells]),
             "item map does not follow cell order")


def check_tree(leaf_bounds: np.ndarray, leaf_items: np.ndarray, n: int) -> None:
    """A tree's leaves partition the items: ``leaf_items`` is a permutation."""
    _require(len(leaf_items) == n and bool(np.all(np.bincount(leaf_items, minlength=n) == 1)),
             "leaf_items is not a permutation of the items")
    _require(int(leaf_bounds[0]) == 0 and int(leaf_bounds[-1]) == n
             and bool(np.all(np.diff(leaf_bounds.astype(np.int64)) >= 0)),
             "leaf_bounds is not monotone from 0 to N")


def check_losses_fall(losses: list[float]) -> None:
    _require(len(losses) >= 2 and all(b < a for a, b in zip(losses, losses[1:])),
             f"epoch losses do not fall: {losses}")


def check_cluster(cluster: int, answer_clusters: list[int], text: str) -> None:
    _require(all(c == cluster for c in answer_clusters),
             f"query {text!r} from cluster {cluster} answered clusters {answer_clusters}")


def check_same(a, b, what: str) -> None:
    _require(a == b, f"{what} differ: {a} != {b}")


def recall_hits(dists: np.ndarray, kth_exact: float) -> int:
    """Answers at most the exact k-th distance (plus epsilon) away."""
    return int(np.sum(np.asarray(dists) <= kth_exact + RECALL_EPS))
