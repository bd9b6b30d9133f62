"""Skip-gram word embeddings trained with negative sampling.

The trainer is written against a counter-based random stream so that a
run is a pure function of (sentences, config). Each epoch draws from one
stream per purpose, ``derive(seed, "sub" | "win" | "neg", epoch)``:
subsampling coins are indexed by token position in the epoch's sentences
laid end to end, window sizes by kept-token position, and negatives by
pair position. An epoch is therefore planned with a few numpy calls, and
a counting pass over the window sizes alone gives exactly the pairs the
training pass will visit. The learning rate decays linearly over that
exact pair total, pair by pair, from ``initial_lr`` down to one
hundredth of it.

Training takes one block step (:func:`sgns_block`) per fixed block of
``B`` consecutive pairs of the epoch: block ``m`` is pairs ``m * B`` on,
across sentence bounds. ``B`` is ``BLOCK_PAIRS`` at the default
negatives and learning rate, and smaller above them
(:func:`_block_pairs`). The gradients of all the block's pairs are taken
at the parameters from before the block, as in the minibatched SGNS of
Ji et al., "Parallelizing Word2Vec in Shared and Distributed Memory"
(2016): larger blocks cost fewer numpy calls per pair but use staler
gradients. An epoch's pairs and negatives are expanded in chunks of
whole blocks, each drawn at its own counter offset, so the chunk size
bounds memory and never changes the result. :func:`sgns_step`, one pair
at a time, is the reference the block step is tested against.

Numerics: training updates the model's float32 matrices in place, and
the block step computes in float32 too, so ``np.add.at`` adds float32
updates to a float32 target on its fast path; updates to a row repeated
inside one block accumulate instead of overwriting each other. The loss
is summed in float64. :func:`sgns_step` and :func:`sgns_loss` compute in
float64.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import rng
from .corpus import SentenceStream, Vocabulary
from .errors import (
    ConfigError,
    DimensionMismatchError,
    StoreFormatError,
    TruncatedFileError,
)
from .fileio import (
    ByteReader,
    array_part,
    check_magic,
    check_version,
    pack,
    write_parts,
)

MODEL_MAGIC = b"W2VM"
MODEL_VERSION = 1
NOISE_POWER = 0.75
LR_FLOOR_FACTOR = 0.01
NULL_HASH = bytes(32)
# a vocabulary entry's token length
_LENGTH = struct.Struct("<I")
# pairs that take one sgns_block step at the default negatives and
# learning rate, all with gradients taken at the parameters from before
# the block. Larger blocks amortize numpy's per-call cost but use staler
# gradients, summed over rows a block repeats: at 256, 2- and 3-token
# vocabularies diverge to NaN. See _block_pairs for other settings.
BLOCK_PAIRS = 64
# pairs expanded at once while training, rounded down to whole blocks
# (at least one). It bounds memory; the trained model does not depend on it.
CHUNK_PAIRS = 2048
# initial word-vector values drawn at once; bounds the float64 scratch
CHUNK_DRAWS = 1 << 16


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run."""

    dim: int = 100
    window: int = 5
    min_count: int = 1
    negatives: int = 5
    epochs: int = 5
    initial_lr: float = 0.025
    subsample_t: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.min_count < 1:
            raise ConfigError("min_count must be >= 1")
        if self.negatives < 0:
            raise ConfigError("negatives must be >= 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not self.initial_lr > 0:
            raise ConfigError("initial_lr must be > 0")
        if not self.subsample_t >= 0:
            raise ConfigError("subsample_t must be >= 0")


def _block_pairs(config: TrainConfig) -> int:
    """Pairs per block step under ``config``: ``BLOCK_PAIRS`` at the
    default negatives and learning rate or below, and fewer in proportion
    to ``1 + negatives`` and to the square of ``initial_lr`` above them.

    A repeated row takes the sum of its stale updates, so a block that is
    safe at the defaults diverges at larger steps: with 64 pairs,
    ``negatives`` 20 or ``initial_lr`` 0.05 sent a 2- or 3-token
    vocabulary to NaN. Scaling only by ``(1 + negatives) * initial_lr``
    still diverged at ``initial_lr`` 0.1 and 0.2; the square keeps every
    case of a sweep over 2, 3 and 10 tokens, dim 8 and 64, negatives 0,
    5 and 20, window 1 and 10 and ``initial_lr`` up to 0.2 finite."""
    default = TrainConfig()
    scale = ((1 + default.negatives) / (1 + config.negatives)
             * (default.initial_lr / config.initial_lr) ** 2)
    return max(1, min(BLOCK_PAIRS, int(BLOCK_PAIRS * scale)))


@dataclass
class EmbeddingModel:
    """Trained embeddings plus everything needed to reproduce them.

    ``w_in`` rows are the word vectors used for search; ``w_out`` is the
    context matrix, kept so training state round-trips through disk.
    :attr:`digest` identifies the model file an index was built from.
    """

    vocab: Vocabulary
    w_in: np.ndarray
    w_out: np.ndarray
    config: TrainConfig
    corpus_hash: bytes = NULL_HASH
    # what the training run did; not stored in the model file
    epoch_losses: list[float] | None = None
    pairs_trained: int = 0
    final_lr: float | None = None  # learning rate of the last pair
    _digest: bytes | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.w_in.shape[1]

    @property
    def digest(self) -> bytes:
        """sha256 of the bytes :func:`save_model` writes, the file's own.

        Taken once: :func:`load_model` hashes the file it read, :func:`save_model`
        what it writes, and any other model its first reader, so the model
        must not change after that unless it is saved again.
        """
        if self._digest is None:
            self._digest = _sha256(_model_parts(self))
        return self._digest

    def vector(self, token: str) -> np.ndarray:
        """Embedding of a vocabulary token; KeyError when out of vocabulary."""
        idx = self.vocab.id(token)
        if idx is None:
            raise KeyError(token)
        return self.w_in[idx].copy()


def sigmoid(x: np.ndarray | float) -> np.ndarray:
    """Numerically stable logistic function, evaluated in float64."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log_sigmoid(x: np.ndarray | float) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return -np.logaddexp(0.0, -x)


def init_model(
    vocab: Vocabulary, config: TrainConfig, corpus_hash: bytes = NULL_HASH
) -> EmbeddingModel:
    """Fresh model: word vectors uniform in (-0.5/dim, 0.5/dim), contexts zero."""
    n = vocab.size * config.dim
    seed, half = rng.derive(config.seed, "init"), 0.5 / config.dim
    w_in = np.empty(n, dtype=np.float32)
    # drawn CHUNK_DRAWS at a time, so the float64 draws never exist whole
    for lo in range(0, n, CHUNK_DRAWS):
        count = min(CHUNK_DRAWS, n - lo)
        w_in[lo:lo + count] = rng.uniform_block(seed, lo, count, -half, half)
    w_out = np.zeros((vocab.size, config.dim), dtype=np.float32)
    return EmbeddingModel(
        vocab=vocab,
        w_in=w_in.reshape(vocab.size, config.dim),
        w_out=w_out,
        config=config,
        corpus_hash=corpus_hash,
        epoch_losses=[],
    )


def sgns_loss(
    w_in: np.ndarray,
    w_out: np.ndarray,
    center: int,
    context: int,
    negatives: Sequence[int],
) -> float:
    """Loss of one (center, context) pair with the given negative ids.

    L = -log sigma(u_ctx . v_c) - sum_neg log sigma(-u_neg . v_c),
    evaluated in float64.
    """
    v = w_in[center].astype(np.float64)
    pos = float(log_sigmoid(np.dot(w_out[context].astype(np.float64), v)))
    loss = -pos
    if len(negatives):
        s = w_out[np.asarray(negatives, dtype=np.int64)].astype(np.float64) @ v
        loss -= float(np.sum(log_sigmoid(-s)))
    return loss


def sgns_step(
    w_in: np.ndarray,
    w_out: np.ndarray,
    center: int,
    context: int,
    negatives: Sequence[int] | np.ndarray,
    lr: float,
) -> float:
    """One SGD step on a (center, context, negatives) instance, in place.

    Gradients are taken at the pre-update parameters. Returns the loss at
    those parameters. Rows listed twice (a repeated negative, or a negative
    equal to the context) receive the sum of their updates.
    """
    rows = np.empty(1 + len(negatives), dtype=np.int64)
    rows[0] = context
    rows[1:] = negatives
    v = w_in[center].astype(np.float64)
    u = w_out[rows].astype(np.float64)
    scores = u @ v
    labels = np.zeros(len(rows), dtype=np.float64)
    labels[0] = 1.0
    # d loss / d score = sigma(score) - label
    g = (sigmoid(scores) - labels) * lr
    grad_v = g @ u
    loss = -float(log_sigmoid(scores[0])) - float(np.sum(log_sigmoid(-scores[1:])))
    np.add.at(w_out, rows, -g[:, None] * v[None, :])
    w_in[center] -= grad_v
    return loss


def sgns_block(
    w_in: np.ndarray,
    w_out: np.ndarray,
    centers: np.ndarray,
    contexts: np.ndarray,
    negatives: np.ndarray,
    lrs: np.ndarray,
) -> float:
    """One SGD step on a block of pairs, in place; returns their summed loss.

    Pair ``i`` is (``centers[i]``, ``contexts[i]``, ``negatives[i]``) with
    learning rate ``lrs[i]``. Every gradient is taken at the parameters
    from before the block, and rows used more than once in the block
    receive the sum of their updates, so a block of one pair takes the
    step of :func:`sgns_step`, to rounding. The arithmetic runs in the
    matrices' own dtype, so the updates ``np.add.at`` scatters match the
    target's and take its fast path; float64 matrices give float64 math.
    The loss is summed in float64.
    """
    dtype = w_in.dtype
    rows = np.concatenate((contexts[:, None], negatives), axis=1)  # (B, 1+K)
    v = w_in[centers]  # (B, d)
    u = w_out[rows]  # (B, 1+K, d)
    scores = np.matmul(u, v[:, :, None])[:, :, 0]
    # label sign: +1 for the context, -1 for each negative. A score's loss
    # is softplus(z) with z = -sign * score, and its gradient is
    # -sign * sigma(z); sigma(z) = exp(z - softplus(z)) never overflows.
    sign = np.full(rows.shape[1], -1.0, dtype=dtype)
    sign[0] = 1.0
    z = scores * -sign
    softplus = np.logaddexp(0.0, z)
    step = np.exp(z - softplus) * sign * lrs.astype(dtype, copy=False)[:, None]
    _add_rows(w_out, rows.ravel(), step[:, :, None] * v[:, None, :])
    _add_rows(w_in, centers, np.matmul(step[:, None, :], u)[:, 0, :])
    return float(softplus.sum(dtype=np.float64))


def _add_rows(w: np.ndarray, rows: np.ndarray, updates: np.ndarray) -> None:
    """``np.add.at(w, rows, updates)``, run on flat views.

    Elements are added in the same order, so the result is identical; the
    one-dimensional form takes numpy's fast path, about 3x quicker.
    """
    dim = w.shape[1]
    cells = (rows[:, None] * dim + np.arange(dim)).ravel()
    np.add.at(w.reshape(-1), cells, updates.ravel())


class NegativeSampler:
    """Unigram^0.75 noise distribution sampled by cumulative-weight lookup."""

    def __init__(self, counts: np.ndarray):
        if len(counts) == 0:
            raise ConfigError("cannot sample from an empty vocabulary")
        weights = counts.astype(np.float64) ** NOISE_POWER
        self._cum = np.cumsum(weights)
        self._total = float(self._cum[-1])

    def sample_block(self, seed: int, count: int, start: int = 0) -> np.ndarray:
        """Noise ids for draws ``start .. start+count-1`` of the stream, as int64."""
        u = rng.unit_block(seed, start, count)
        return np.searchsorted(self._cum, u * self._total, side="right").astype(
            np.int64
        )


def _discard_probs(vocab: Vocabulary, subsample_t: float) -> np.ndarray | None:
    """P(discard) per token id: 1 - sqrt(t / f) for tokens more frequent than t."""
    if subsample_t <= 0:
        return None
    freq = vocab.counts.astype(np.float64) / float(vocab.total_tokens)
    with np.errstate(divide="ignore"):
        p = 1.0 - np.sqrt(subsample_t / freq)
    return np.clip(p, 0.0, 1.0)


@dataclass
class _EpochPlan:
    """One epoch's kept tokens and the pairs centred on each of them.

    Position ``i`` pairs with every kept position of its sentence in
    ``lo[i] .. lo[i] + first_pair[i + 1] - first_pair[i]``, skipping
    itself, in ascending order: pairs ``first_pair[i]`` to
    ``first_pair[i + 1] - 1`` of the epoch.
    """

    kept: np.ndarray  # int64 token ids
    lo: np.ndarray
    first_pair: np.ndarray  # index of each position's first pair, one extra at the end

    @classmethod
    def draw(
        cls,
        tokens: np.ndarray,
        bounds: np.ndarray,
        config: TrainConfig,
        epoch: int,
        discard_p: np.ndarray | None,
    ) -> "_EpochPlan":
        """Subsampling coins, then a window size per kept position."""
        kept = tokens
        if discard_p is not None:
            coins = rng.unit_block(
                rng.derive(config.seed, "sub", epoch), 0, len(tokens)
            )
            keep = coins >= discard_p[tokens]
            kept = tokens[keep]
            bounds = np.concatenate(([0], np.cumsum(keep)))[bounds]
        n = len(kept)
        b = 1 + (
            rng.u64_block(rng.derive(config.seed, "win", epoch), 0, n)
            % np.uint64(config.window)
        ).astype(np.int64)
        sentence = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        pos = np.arange(n, dtype=np.int64)
        lo = np.maximum(pos - b, bounds[sentence])
        counts = np.minimum(pos + b, bounds[sentence + 1] - 1) - lo
        first_pair = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=first_pair[1:])
        return cls(kept, lo, first_pair)

    def pairs(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """(centers, contexts) of the epoch's pairs ``start .. stop-1``."""
        pair = np.arange(start, stop)
        center = np.searchsorted(self.first_pair, pair, side="right") - 1
        context = self.lo[center] + (pair - self.first_pair[center])
        context += context >= center
        return self.kept[center], self.kept[context]


def scheduled_pairs(
    stream: SentenceStream, vocab: Vocabulary, config: TrainConfig
) -> int:
    """Exact number of training pairs the full run will process."""
    discard_p = _discard_probs(vocab, config.subsample_t)
    return sum(
        int(_EpochPlan.draw(stream.tokens, stream.bounds, config, epoch,
                            discard_p).first_pair[-1])
        for epoch in range(config.epochs)
    )


def _learning_rates(
    config: TrainConfig, first: int, count: int, total: int
) -> np.ndarray:
    """Learning rates of pairs ``first .. first+count-1`` of ``total``."""
    done = np.arange(first, first + count, dtype=np.int64)
    return np.maximum(
        config.initial_lr * (1.0 - done / total),
        config.initial_lr * LR_FLOOR_FACTOR,
    )


def train(
    stream: SentenceStream,
    vocab: Vocabulary,
    config: TrainConfig,
    corpus_hash: bytes = NULL_HASH,
) -> EmbeddingModel:
    """Train a model from encoded sentences.

    Every kept position draws a window size b in 1..window and pairs with
    the kept positions within b on each side; each pair draws
    ``config.negatives`` noise ids. Each block of :func:`_block_pairs`
    consecutive pairs takes one :func:`sgns_block` step on the float32
    matrices. The mean pair loss of each epoch is recorded on
    ``model.epoch_losses``; one that is not finite is a :class:`ConfigError`.
    """
    model = init_model(vocab, config, corpus_hash)
    total_pairs = scheduled_pairs(stream, vocab, config)
    if total_pairs == 0:
        return model
    discard_p = _discard_probs(vocab, config.subsample_t)
    sampler = NegativeSampler(vocab.counts)
    k = config.negatives
    block = _block_pairs(config)
    # whole blocks per chunk, so chunk bounds are block bounds
    chunk = max(CHUNK_PAIRS // block, 1) * block
    done = 0
    for epoch in range(config.epochs):
        plan = _EpochPlan.draw(stream.tokens, stream.bounds, config, epoch, discard_p)
        neg_seed = rng.derive(config.seed, "neg", epoch)
        epoch_pairs = int(plan.first_pair[-1])
        epoch_loss = 0.0
        for p0 in range(0, epoch_pairs, chunk):
            n = min(chunk, epoch_pairs - p0)
            centers, contexts = plan.pairs(p0, p0 + n)
            negs = sampler.sample_block(neg_seed, n * k, p0 * k).reshape(n, k)
            lrs = _learning_rates(config, done + p0, n, total_pairs)
            # a diverging step overflows; the epoch's loss check names it
            with np.errstate(over="ignore", invalid="ignore"):
                for a in range(0, n, block):
                    b = a + block
                    epoch_loss += sgns_block(
                        model.w_in, model.w_out,
                        centers[a:b], contexts[a:b], negs[a:b], lrs[a:b],
                    )
        done += epoch_pairs
        mean = epoch_loss / epoch_pairs if epoch_pairs else float("nan")
        model.epoch_losses.append(mean)
        if epoch_pairs and not math.isfinite(mean):
            raise ConfigError(
                f"training diverged in epoch {epoch + 1}: mean loss {mean}; "
                f"initial_lr {config.initial_lr} is too large"
            )
    model.pairs_trained = total_pairs
    model.final_lr = float(_learning_rates(config, total_pairs - 1, 1, total_pairs)[0])
    return model


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in float64; zero-norm input is a ValueError."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = float(np.dot(a, a)) ** 0.5
    nb = float(np.dot(b, b)) ** 0.5
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine of zero-norm vector")
    return float(np.dot(a, b)) / (na * nb)


def _vocab_parts(vocab: Vocabulary) -> Iterator[bytes]:
    for token, count in zip(vocab.id_to_token, vocab.counts):
        raw = token.encode("utf-8")
        yield pack("I", len(raw))
        yield raw
        yield pack("Q", int(count))


def _model_parts(model: EmbeddingModel) -> list[bytes | np.ndarray]:
    """The pieces of model.bin, in file order."""
    cfg = model.config
    return [
        MODEL_MAGIC,
        pack("H", MODEL_VERSION),
        pack("II", model.dim, model.vocab.size),
        model.corpus_hash,
        pack(
            "IIIIddQ",
            cfg.window,
            cfg.min_count,
            cfg.negatives,
            cfg.epochs,
            cfg.initial_lr,
            cfg.subsample_t,
            cfg.seed & (2**64 - 1),
        ),
        *_vocab_parts(model.vocab),
        array_part(model.w_in, np.float32),
        array_part(model.w_out, np.float32),
    ]


def _sha256(parts: list[bytes | np.ndarray]) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()


def _not_finite(w_in: np.ndarray, w_out: np.ndarray) -> str | None:
    """The name of the first matrix holding a NaN or an infinity, or None."""
    for name, w in (("w_in", w_in), ("w_out", w_out)):
        # a float64 sum of float32 values overflows never, and is not
        # finite exactly when a value is not; inf - inf is such a value
        with np.errstate(invalid="ignore"):
            if not math.isfinite(w.sum(dtype=np.float64)):
                return name
    return None


def save_model(model: EmbeddingModel, path: str | Path) -> None:
    """Write the model in its versioned little-endian binary format.

    A model :func:`load_model` would refuse is a :class:`ConfigError`,
    raised before anything is written.
    """
    cfg = model.config
    vocab = model.vocab
    if len(model.corpus_hash) != 32:
        raise ValueError("corpus_hash must be 32 bytes")
    if vocab.counts.min() < cfg.min_count:
        raise ConfigError(
            f"vocabulary has a count of {vocab.counts.min()}, below the "
            f"training config's min_count {cfg.min_count}"
        )
    bad = _not_finite(model.w_in, model.w_out)
    if bad:
        raise ConfigError(f"{bad} holds a value that is not finite")
    parts = _model_parts(model)
    write_parts(path, parts)
    model._digest = _sha256(parts)


def _read_vocab(
    data: bytes, reader: ByteReader, size: int, floor: int, name: str
) -> tuple[list[str], dict[str, int], np.ndarray]:
    """Tokens, token ids and counts of the ``size`` vocabulary entries at
    the reader's position in ``data``, each a uint32 length, that many
    UTF-8 bytes and a uint64 count.

    One pass of ``struct`` walks the lengths, one decode reads every
    token and one numpy index gathers the counts. Each rule is checked
    over all entries at once, and the refusal raised is the one a
    token-by-token read meets first: the lowest token, and within a
    token UTF-8, then repetition, then the count bounds.
    """
    start = at = reader.pos
    entries: list[int] = []
    entry, length = entries.append, _LENGTH.unpack_from
    try:
        for _ in range(size):
            entry(at)
            at += 12 + length(data, at)[0]
    except struct.error:
        at += 4  # the length that did not fit
    region = np.frombuffer(reader.take(at - start), dtype=np.uint8)
    heads = np.array(entries, dtype=np.int64) - start
    lengths = np.diff(heads, append=len(region)) - 12
    text_at = heads + 4
    count_at = text_at + lengths
    # the tokens joined by NULs: every token's bytes and, before each but
    # the first, the last byte of its length, set to 0. The NULs split
    # the text at token bounds, so it decodes when every token does.
    text = np.ones(len(region), dtype=bool)
    text[heads[:, None] + np.arange(3)] = False
    text[count_at[:, None] + np.arange(8)] = False
    text[3] = False
    joined = region[text]
    joined[np.cumsum(lengths[:-1] + 1) - 1] = 0
    try:
        tokens = joined.tobytes().decode("utf-8").split("\0")
    except UnicodeDecodeError:
        tokens = []
    if len(tokens) != size:
        # a token is not UTF-8 or holds a NUL: decode them one by one
        tokens = []
        for lo, n in zip(text_at.tolist(), lengths.tolist()):
            try:
                tokens.append(region[lo:lo + n].tobytes().decode("utf-8"))
            except UnicodeDecodeError:
                break
    faults = []
    if len(tokens) < size:
        faults.append((len(tokens), 0, f"token {len(tokens)} is not UTF-8"))
    token_to_id = dict(zip(tokens, range(len(tokens))))
    if len(token_to_id) < len(tokens):
        token_to_id = {}
        for i, token in enumerate(tokens):
            if token_to_id.setdefault(token, i) != i:
                faults.append((i, 1, f"token {i} repeats token {token_to_id[token]}"))
                break
    raw = region[count_at[:, None] + np.arange(8)].view("<u8").ravel()
    ceilings = np.concatenate((np.array([2**63 - 1], dtype=np.uint64), raw[:-1]))
    above = np.flatnonzero(raw > ceilings)
    if len(above):
        i = int(above[0])
        faults.append((i, 2, f"token {i} count {raw[i]} is above {ceilings[i]}; "
                       "counts never increase and stay below 2**63"))
    below = np.flatnonzero(raw < floor)
    if len(below):
        i = int(below[0])
        faults.append((i, 3, f"token {i} count {raw[i]} is below min_count {floor}"))
    if faults:
        raise StoreFormatError(f"{name}: {min(faults)[2]}")
    return tokens, token_to_id, raw.astype(np.int64)


def load_model(path: str | Path) -> EmbeddingModel:
    """Read a model file, validating magic, version, and exact length.

    The vocabulary must be one ``corpus.build_vocab`` can give: distinct
    tokens with counts that never increase, none below ``min_count`` or 1
    and none above the int64 range. The file must hold at least 12 bytes
    per token plus both matrices before anything is allocated, and both
    matrices must be finite.
    """
    data = Path(path).read_bytes()
    reader = ByteReader(data, str(path))
    check_magic(reader, MODEL_MAGIC, "model")
    check_version(reader, MODEL_VERSION, "model")
    dim, size = reader.unpack("II")
    if dim < 1 or size < 1:
        raise DimensionMismatchError(f"{path}: bad shape {size}x{dim}")
    corpus_hash = reader.take(32)
    window, min_count, negatives, epochs, initial_lr, subsample_t, seed = (
        reader.unpack("IIIIddQ")
    )
    # each token: its length (4 bytes), its count (8), and its two rows
    least = size * (12 + 8 * dim)
    if least > len(data) - reader.pos:
        raise TruncatedFileError(
            f"{path}: {size} tokens of dim {dim} need at least {least} bytes, "
            f"only {len(data) - reader.pos} remain"
        )
    id_to_token, token_to_id, counts = _read_vocab(
        data, reader, size, max(min_count, 1), str(path)
    )
    w_in = reader.array(np.float32, (size, dim))
    w_out = reader.array(np.float32, (size, dim))
    reader.expect_end()
    bad = _not_finite(w_in, w_out)
    if bad:
        raise StoreFormatError(f"{path}: {bad} holds a value that is not finite")
    vocab = Vocabulary(
        token_to_id=token_to_id,
        id_to_token=id_to_token,
        counts=counts,
        total_tokens=int(counts.sum()),
        min_count=min_count,
    )
    config = TrainConfig(
        dim=dim,
        window=window,
        min_count=min_count,
        negatives=negatives,
        epochs=epochs,
        initial_lr=initial_lr,
        subsample_t=subsample_t,
        seed=seed,
    )
    model = EmbeddingModel(
        vocab=vocab,
        w_in=w_in,
        w_out=w_out,
        config=config,
        corpus_hash=corpus_hash,
        epoch_losses=[],
    )
    model._digest = hashlib.sha256(data).digest()
    return model
