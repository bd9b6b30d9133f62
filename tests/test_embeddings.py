"""Embedding trainer: losses, sampling, determinism, serialization."""

import math
import struct

import numpy as np
import pytest

from semsearch import rng
from semsearch.corpus import Vocabulary, build_vocab
from semsearch.embeddings import (
    NegativeSampler,
    TrainConfig,
    init_model,
    load_model,
    save_model,
    scheduled_pairs,
    sgns_block,
    sgns_loss,
    sgns_step,
    sigmoid,
    train,
)
from semsearch.errors import ConfigError, StoreFormatError, TruncatedFileError

from conftest import encode, stream_of, synthetic_sentences, two_cluster_sentences


def small_model(dim=8, vocab_tokens=("a", "b", "c", "d"), seed=3):
    vocab = build_vocab([list(vocab_tokens) * 2])
    return init_model(vocab, TrainConfig(dim=dim, seed=seed))


# --- math primitives --------------------------------------------------------


def test_sigmoid_matches_closed_form_and_is_stable():
    xs = np.array([-800.0, -30.0, -1.0, 0.0, 1.0, 30.0, 800.0])
    out = sigmoid(xs)
    assert np.all(np.isfinite(out))
    assert out[3] == 0.5
    assert np.allclose(out[2:5], 1 / (1 + np.exp(-xs[2:5])))
    assert out[0] == 0.0 and out[-1] == 1.0


def test_zero_model_step_loss_is_entropy_anchor():
    model = small_model()
    model.w_in[:] = 0.0
    model.w_out[:] = 0.0
    loss = sgns_step(model.w_in, model.w_out, 0, 1, [2, 3, 2], lr=0.5)
    assert abs(loss - 4 * math.log(2)) < 1e-9


def test_step_reduces_pair_loss():
    model = small_model()
    model.w_out[:] = rng.uniform_block(5, 0, model.w_out.size, -0.5, 0.5) \
        .astype(np.float32).reshape(model.w_out.shape)
    negs = [2, 3]
    before = sgns_loss(model.w_in, model.w_out, 0, 1, negs)
    stepped = sgns_step(model.w_in, model.w_out, 0, 1, negs, lr=0.2)
    assert stepped == pytest.approx(before)
    after = sgns_loss(model.w_in, model.w_out, 0, 1, negs)
    assert after < before


def test_step_accumulates_duplicate_rows():
    """A negative equal to the context must receive both updates."""
    m1 = small_model(seed=9)
    m2 = small_model(seed=9)
    m1.w_out[:] = 0.25
    m2.w_out[:] = 0.25
    sgns_step(m1.w_in, m1.w_out, 0, 1, [1], lr=0.3)
    # same instance, computed by hand from the pre-update snapshot
    v = m2.w_in[0].astype(np.float64)
    u = m2.w_out[1].astype(np.float64)
    s = float(u @ v)
    g = (sigmoid(np.array([s, s])) - np.array([1.0, 0.0])) * 0.3
    expected_out = u - g.sum() * v
    expected_in = v - (g[0] * u + g[1] * u)
    assert np.allclose(m1.w_out[1], expected_out.astype(np.float32), atol=1e-7)
    assert np.allclose(m1.w_in[0], expected_in.astype(np.float32), atol=1e-7)


def random_matrices(seed, vocab_size=12, dim=5):
    """float64 parameter matrices, uniform in (-1, 1)."""
    size = vocab_size * dim
    w_in = rng.uniform_block(rng.derive(seed, "in"), 0, size, -1.0, 1.0)
    w_out = rng.uniform_block(rng.derive(seed, "out"), 0, size, -1.0, 1.0)
    return w_in.reshape(vocab_size, dim), w_out.reshape(vocab_size, dim)


@pytest.mark.parametrize("negs", [[], [2], [3, 4, 3], [1, 5], [1, 1, 6, 0]])
def test_block_of_one_pair_matches_step(negs):
    """Repeated rows and a negative equal to the context included."""
    a_in, a_out = random_matrices(17 + len(negs))
    b_in, b_out = a_in.copy(), a_out.copy()
    step_loss = sgns_step(a_in, a_out, 0, 1, negs, lr=0.3)
    block_loss = sgns_block(
        b_in, b_out, np.array([0]), np.array([1]),
        np.array([negs], dtype=np.int64), np.array([0.3]),
    )
    assert abs(block_loss - step_loss) <= 1e-12
    assert np.allclose(b_in, a_in, rtol=0, atol=1e-12)
    assert np.allclose(b_out, a_out, rtol=0, atol=1e-12)


def test_block_of_disjoint_pairs_matches_sequential_steps():
    """Pairs that share no row cannot see each other's updates, so one
    block step equals stepping them one at a time."""
    # center, context, negatives: w_in rows and w_out rows disjoint across pairs
    pairs = [(0, 0, [1, 2]), (1, 3, [4, 5]), (2, 6, [7, 8]), (3, 9, [10, 11])]
    lrs = np.array([0.4, 0.3, 0.2, 0.1])
    a_in, a_out = random_matrices(29)
    b_in, b_out = a_in.copy(), a_out.copy()
    step_loss = sum(
        sgns_step(a_in, a_out, c, ctx, negs, lr)
        for (c, ctx, negs), lr in zip(pairs, lrs)
    )
    block_loss = sgns_block(
        b_in, b_out,
        np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]),
        np.array([p[2] for p in pairs]), lrs,
    )
    assert abs(block_loss - step_loss) <= 1e-12
    assert np.allclose(b_in, a_in, rtol=0, atol=1e-12)
    assert np.allclose(b_out, a_out, rtol=0, atol=1e-12)
    assert not np.array_equal(b_out, random_matrices(29)[1])


def test_block_sums_updates_of_shared_rows():
    """Pairs sharing a center or an output row each contribute the update
    they would make from the block's starting parameters."""
    centers, contexts = np.array([0, 0, 2, 0]), np.array([1, 3, 1, 1])
    negs = np.array([[3, 4], [1, 1], [4, 0], [5, 3]])
    lrs = np.array([0.4, 0.3, 0.2, 0.1])
    start_in, start_out = random_matrices(31)
    want_in, want_out, want_loss = start_in.copy(), start_out.copy(), 0.0
    for c, ctx, ng, lr in zip(centers, contexts, negs, lrs):
        w_in, w_out = start_in.copy(), start_out.copy()
        want_loss += sgns_step(w_in, w_out, c, ctx, ng, lr)
        want_in += w_in - start_in
        want_out += w_out - start_out
    w_in, w_out = start_in.copy(), start_out.copy()
    loss = sgns_block(w_in, w_out, centers, contexts, negs, lrs)
    assert abs(loss - want_loss) <= 1e-12
    assert np.allclose(w_in, want_in, rtol=0, atol=1e-12)
    assert np.allclose(w_out, want_out, rtol=0, atol=1e-12)


def test_window_one_pairs_neighbours_in_64_pair_blocks(monkeypatch):
    """Blocks are fixed runs of BLOCK_PAIRS consecutive pairs of the epoch,
    crossing sentence bounds, whatever the chunk size."""
    import semsearch.embeddings as emb

    # window 1 pairs each position with its neighbours: 78 pairs from the
    # first sentence, none from the next two, 58 from the last
    enc = [np.arange(40), np.array([], dtype=np.int64), np.array([40]),
           np.arange(41, 71)]
    vocab = build_vocab([[f"t{i}" for i in range(71)]])
    pairs = [(c, x) for sent in enc for i, c in enumerate(sent.tolist())
             for x in sent[max(i - 1, 0):i + 2].tolist() if x != c]
    assert emb.BLOCK_PAIRS == 64 and len(pairs) == 136
    want = [pairs[:64], pairs[64:128], pairs[128:]]
    original = emb.sgns_block
    for chunk in (emb.CHUNK_PAIRS, 100, 7):
        blocks = []

        def recording(w_in, w_out, centers, contexts, *rest):
            blocks.append(list(zip(centers.tolist(), contexts.tolist())))
            return original(w_in, w_out, centers, contexts, *rest)

        monkeypatch.setattr(emb, "sgns_block", recording)
        monkeypatch.setattr(emb, "CHUNK_PAIRS", chunk)
        train(stream_of(enc), vocab,
              TrainConfig(dim=4, window=1, negatives=2, epochs=1, seed=5))
        assert blocks == want


def test_block_keeps_float32(monkeypatch):
    """float32 matrices get float32 updates, so np.add.at keeps its
    same-dtype fast path; the step lands within float32 rounding of the
    float64 step."""
    import semsearch.embeddings as emb

    dtypes = []
    add_rows = emb._add_rows

    def recording(w, rows, updates):
        dtypes.append((w.dtype, updates.dtype))
        return add_rows(w, rows, updates)

    monkeypatch.setattr(emb, "_add_rows", recording)
    w_in, w_out = random_matrices(37)
    centers, contexts = np.array([0, 2, 0]), np.array([1, 1, 3])
    negs = np.array([[3, 4], [5, 1], [6, 6]])
    lrs = np.array([0.3, 0.2, 0.1])
    a_in, a_out = w_in.astype(np.float32), w_out.astype(np.float32)
    b_in, b_out = a_in.astype(np.float64), a_out.astype(np.float64)
    loss32 = sgns_block(a_in, a_out, centers, contexts, negs, lrs)
    loss64 = sgns_block(b_in, b_out, centers, contexts, negs, lrs)
    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    assert dtypes == [(f32, f32)] * 2 + [(f64, f64)] * 2
    assert abs(loss32 - loss64) <= 1e-5
    assert np.allclose(a_in, b_in, rtol=0, atol=1e-6)
    assert np.allclose(a_out, b_out, rtol=0, atol=1e-6)
    assert not np.array_equal(a_out, w_out.astype(np.float32))


def test_step_with_zero_negatives():
    model = small_model()
    loss = sgns_step(model.w_in, model.w_out, 0, 1, [], lr=0.1)
    assert abs(loss - math.log(2)) < 1e-9


# --- negative sampler -------------------------------------------------------


def test_negative_sampler_tracks_unigram_power():
    counts = np.array([1000, 100, 10, 1], dtype=np.int64)
    sampler = NegativeSampler(counts)
    draws = sampler.sample_block(12, 200_000)
    weights = counts.astype(np.float64) ** 0.75
    expected = weights / weights.sum()
    observed = np.bincount(draws, minlength=4) / len(draws)
    assert np.allclose(observed, expected, atol=0.01)


def test_negative_sampler_deterministic():
    sampler = NegativeSampler(np.array([5, 3, 2], dtype=np.int64))
    assert np.array_equal(sampler.sample_block(4, 100), sampler.sample_block(4, 100))


# --- training ---------------------------------------------------------------


def test_init_model_shape_and_range():
    model = small_model(dim=16)
    assert model.w_in.shape == (4, 16) and model.w_in.dtype == np.float32
    assert np.all(np.abs(model.w_in) <= 0.5 / 16)
    assert not np.any(model.w_out)


def test_train_is_deterministic_and_losses_non_increasing():
    sents = synthetic_sentences(n=200, vocab_size=40)
    vocab = build_vocab(sents)
    enc = encode(sents, vocab)
    cfg = TrainConfig(dim=12, window=3, negatives=3, epochs=4, seed=21)
    m1 = train(enc, vocab, cfg)
    m2 = train(enc, vocab, cfg)
    assert np.array_equal(m1.w_in, m2.w_in)
    assert np.array_equal(m1.w_out, m2.w_out)
    assert m1.epoch_losses == m2.epoch_losses
    for prev, cur in zip(m1.epoch_losses, m1.epoch_losses[1:]):
        assert cur <= prev * 1.01  # small stochastic upticks allowed


@pytest.mark.parametrize("vocab_size", [2, 3, 10])
@pytest.mark.parametrize("dim", [8, 64])
@pytest.mark.parametrize("negatives, window, lr", [
    (5, 5, 0.025), (20, 5, 0.025), (5, 10, 0.025), (5, 5, 0.05), (20, 10, 0.05),
    (5, 10, 0.2),
], ids=["defaults", "negatives-20", "window-10", "lr-0.05", "all-three", "lr-0.2"])
def test_small_vocabulary_trains_stably(vocab_size, dim, negatives, window, lr):
    """A block over a few tokens repeats each row many times, and the
    summed step grows with the negatives and the learning rate; it must
    not diverge, at the defaults or above them."""
    sents = synthetic_sentences(n=200, vocab_size=vocab_size)
    vocab = build_vocab(sents)
    assert vocab.size == vocab_size
    config = TrainConfig(dim=dim, window=window, negatives=negatives,
                         initial_lr=lr, epochs=5, seed=3)
    model = train(encode(sents, vocab), vocab, config)
    assert np.all(np.isfinite(model.w_in)) and np.all(np.isfinite(model.w_out))
    assert all(math.isfinite(x) for x in model.epoch_losses)
    for prev, cur in zip(model.epoch_losses, model.epoch_losses[1:]):
        assert cur <= prev * 1.01


def test_trained_vectors_finite_and_not_zero():
    sents = two_cluster_sentences(n=100)
    vocab = build_vocab(sents)
    model = train(encode(sents, vocab), vocab,
                  TrainConfig(dim=8, epochs=1, seed=2))
    assert np.all(np.isfinite(model.w_in))
    assert np.all(np.any(model.w_in != 0, axis=1))


def test_seed_changes_model():
    sents = synthetic_sentences(n=50, vocab_size=20)
    vocab = build_vocab(sents)
    enc = encode(sents, vocab)
    m1 = train(enc, vocab, TrainConfig(dim=8, epochs=1, seed=1))
    m2 = train(enc, vocab, TrainConfig(dim=8, epochs=1, seed=2))
    assert not np.array_equal(m1.w_in, m2.w_in)


def test_zero_epochs_returns_initial_model():
    sents = synthetic_sentences(n=20, vocab_size=10)
    vocab = build_vocab(sents)
    cfg = TrainConfig(dim=8, epochs=0, seed=5)
    model = train(encode(sents, vocab), vocab, cfg)
    assert np.array_equal(model.w_in, init_model(vocab, cfg).w_in)
    assert model.epoch_losses == []


def test_scheduled_pairs_counts_every_step(monkeypatch):
    """The pre-pass total must equal the pairs the trainer steps on."""
    import semsearch.embeddings as emb

    sents = synthetic_sentences(n=40, vocab_size=15)
    vocab = build_vocab(sents)
    enc = encode(sents, vocab)
    cfg = TrainConfig(dim=4, window=4, negatives=2, epochs=3, seed=8)
    total = scheduled_pairs(enc, vocab, cfg)
    calls = 0
    original = emb.sgns_block

    def counting(w_in, w_out, centers, *rest):
        nonlocal calls
        calls += len(centers)
        return original(w_in, w_out, centers, *rest)

    monkeypatch.setattr(emb, "sgns_block", counting)
    model = train(enc, vocab, cfg)
    assert calls == total > 0
    assert model.pairs_trained == total
    assert model.final_lr == pytest.approx(
        max(cfg.initial_lr / total, cfg.initial_lr * 0.01)
    )


@pytest.mark.parametrize("subsample_t", [0.0, 1e-2])
def test_chunk_size_does_not_change_model(monkeypatch, tmp_path, subsample_t):
    """Chunks only bound memory: each draws at its own counter offset."""
    import semsearch.embeddings as emb

    sents = synthetic_sentences(n=120, vocab_size=30) + [[], ["tok1"]] * 3
    vocab = build_vocab(sents)
    enc = encode(sents, vocab)
    cfg = TrainConfig(dim=6, window=3, negatives=3, epochs=2, seed=4,
                      subsample_t=subsample_t)
    models = {}
    for chunk in (emb.CHUNK_PAIRS, 50, 7, 1):
        monkeypatch.setattr(emb, "CHUNK_PAIRS", chunk)
        models[chunk] = train(enc, vocab, cfg)
        save_model(models[chunk], tmp_path / f"{chunk}.bin")
    first = (tmp_path / f"{emb.CHUNK_PAIRS}.bin").read_bytes()
    for chunk, model in models.items():
        assert (tmp_path / f"{chunk}.bin").read_bytes() == first
        assert model.epoch_losses == models[emb.CHUNK_PAIRS].epoch_losses
    if subsample_t:
        assert scheduled_pairs(enc, vocab, cfg) < scheduled_pairs(
            enc, vocab, TrainConfig(dim=6, window=3, negatives=3, epochs=2, seed=4))


def test_subsampling_discards_frequent_tokens():
    sents = [["common"] * 8 + ["rare"] for _ in range(50)]
    vocab = build_vocab(sents)
    enc = encode(sents, vocab)
    base = TrainConfig(dim=4, window=2, epochs=1, seed=3)
    sub = TrainConfig(dim=4, window=2, epochs=1, seed=3, subsample_t=1e-3)
    assert scheduled_pairs(enc, vocab, sub) < scheduled_pairs(enc, vocab, base)


def test_vector_lookup_and_oov():
    model = small_model()
    tok = model.vocab.id_to_token[0]
    assert np.array_equal(model.vector(tok), model.w_in[0])
    with pytest.raises(KeyError):
        model.vector("never-seen")


def test_config_validation():
    for bad in (
        dict(dim=0),
        dict(window=0),
        dict(min_count=0),
        dict(negatives=-1),
        dict(epochs=-1),
        dict(initial_lr=0.0),
        dict(subsample_t=-1e-5),
        dict(subsample_t=float("nan")),
    ):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)


# --- serialization ----------------------------------------------------------


def test_model_round_trip_bit_identical(tmp_path):
    sents = synthetic_sentences(n=60, vocab_size=25)
    vocab = build_vocab(sents)
    cfg = TrainConfig(dim=10, window=2, negatives=2, epochs=1, seed=6,
                      initial_lr=0.05, subsample_t=1e-4, min_count=1)
    model = train(encode(sents, vocab), vocab, cfg, corpus_hash=bytes(range(32)))
    p = tmp_path / "m.bin"
    save_model(model, p)
    loaded = load_model(p)
    assert np.array_equal(loaded.w_in, model.w_in)
    assert np.array_equal(loaded.w_out, model.w_out)
    assert loaded.vocab.id_to_token == model.vocab.id_to_token
    assert np.array_equal(loaded.vocab.counts, model.vocab.counts)
    assert loaded.config == cfg
    assert loaded.corpus_hash == bytes(range(32))


def test_model_digest_is_sha256_of_the_file(tmp_path):
    """A model's digest is the sha256 of the bytes save_model writes: a
    loaded model takes it from its file, a trained one from its parts, and
    a change to any part, the corpus hash, the config and ``w_out``
    included, changes it."""
    import dataclasses
    import hashlib

    sents = synthetic_sentences(n=40, vocab_size=20)
    vocab = build_vocab(sents)
    cfg = TrainConfig(dim=6, window=2, negatives=2, epochs=1, seed=2)
    model = train(encode(sents, vocab), vocab, cfg)
    p = tmp_path / "m.bin"
    save_model(model, p)
    assert load_model(p).digest == model.digest == hashlib.sha256(p.read_bytes()).digest()
    w_out = model.w_out.copy()
    w_out[-1, -1] += 1.0
    for changed in (dataclasses.replace(model, corpus_hash=bytes(range(32))),
                    dataclasses.replace(model, config=dataclasses.replace(cfg, window=3)),
                    dataclasses.replace(model, w_out=w_out)):
        save_model(changed, p)
        assert load_model(p).digest == changed.digest == (
            hashlib.sha256(p.read_bytes()).digest())
        assert changed.digest != model.digest
    other = train(encode(sents, vocab), vocab, TrainConfig(dim=6, window=2,
                                                           negatives=2, epochs=1, seed=3))
    assert other.digest != model.digest
    renamed = small_model(vocab_tokens=("a", "b", "c", "e"))
    assert renamed.digest != small_model().digest


def test_saving_a_changed_model_restamps_its_digest(tmp_path):
    """A loaded model changed in place and saved again takes the digest
    of the bytes written, not the one its file had when it was loaded."""
    import hashlib

    p = tmp_path / "m.bin"
    save_model(small_model(), p)
    model = load_model(p)
    digests = [model.digest]
    model.corpus_hash = bytes(range(32))
    save_model(model, p)
    assert model.digest == hashlib.sha256(p.read_bytes()).digest()
    digests.append(model.digest)
    model.w_in[1, 2] += 1.0
    save_model(model, p)
    assert model.digest == hashlib.sha256(p.read_bytes()).digest()
    digests.append(model.digest)
    assert len(set(digests)) == 3


def test_model_save_deterministic(tmp_path):
    model = small_model()
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(model, a)
    save_model(model, b)
    assert a.read_bytes() == b.read_bytes()


def test_model_truncated_file(tmp_path):
    model = small_model()
    p = tmp_path / "m.bin"
    save_model(model, p)
    data = p.read_bytes()
    p.write_bytes(data[: len(data) - 7])
    with pytest.raises(TruncatedFileError):
        load_model(p)


def test_model_trailing_garbage(tmp_path):
    model = small_model()
    p = tmp_path / "m.bin"
    save_model(model, p)
    p.write_bytes(p.read_bytes() + b"xx")
    with pytest.raises(StoreFormatError):
        load_model(p)


def test_model_token_not_utf8(tmp_path):
    p = tmp_path / "m.bin"
    save_model(small_model(vocab_tokens=("alpha", "b")), p)
    data = bytearray(p.read_bytes())
    data[data.find(b"alpha")] = 0xFF
    p.write_bytes(bytes(data))
    with pytest.raises(StoreFormatError, match="token 0 is not UTF-8"):
        load_model(p)


# small_model's vocabulary starts at byte 86; each entry is a length (4
# bytes), a one-byte token and a count (8): a, b, c, d, each counted twice
@pytest.mark.parametrize("offset, value, named", [
    (86 + 13 + 5, struct.pack("<Q", 3), "token 1 count 3 is above 2"),
    (86 + 26 + 5, struct.pack("<Q", 0), "token 2 count 0 is below min_count 1"),
    (86 + 39 + 4, b"a", "token 3 repeats token 0"),
], ids=["count-increases", "count-zero", "token-repeats"])
def test_model_vocabulary_is_one_build_vocab_gives(tmp_path, offset, value, named):
    p = tmp_path / "m.bin"
    save_model(small_model(), p)
    data = bytearray(p.read_bytes())
    data[offset:offset + len(value)] = value
    p.write_bytes(bytes(data))
    with pytest.raises(StoreFormatError, match=named):
        load_model(p)


def large_vocab_file(path, size=5000):
    """Save a model of ``size`` tokens, every seventh one not ASCII, and
    return the byte offset of each vocabulary entry in the file."""
    tokens = [f"{'é' if i % 7 == 0 else 't'}{i:04d}" for i in range(size)]
    counts = np.arange(2 * size, size, -1, dtype=np.int64)
    vocab = Vocabulary({t: i for i, t in enumerate(tokens)}, tokens, counts,
                       int(counts.sum()), 1)
    save_model(init_model(vocab, TrainConfig(dim=4, seed=1)), path)
    sizes = [12 + len(t.encode()) for t in tokens]
    return [86 + at for at in np.cumsum([0] + sizes[:-1]).tolist()], tokens


# where the count starts in the entry of an ASCII token
COUNT = 4 + 5


# each damage: (token, bytes into the entry, new bytes); the refusal named
# is the one a token-by-token read meets first: the lowest token, and in
# one token UTF-8, then a repeat, then the count bounds
@pytest.mark.parametrize("damage, named", [
    ([(4000, 4, b"\xff")], "token 4000 is not UTF-8"),
    # a character split across tokens 2000 and 2001 is no token's
    ([(2000, 8, b"\xc3"), (2001, 4, b"\xa9")], "token 2000 is not UTF-8"),
    ([(3000, 4, b"t0010")], "token 3000 repeats token 10"),
    ([(1234, COUNT, struct.pack("<Q", 8768))], "token 1234 count 8768 is above 8767; c"),
    ([(0, COUNT + 1, struct.pack("<Q", 2**63))],  # token 0 is é0000
     "token 0 count 9223372036854775808 is above 9223372036854775807"),
    ([(4999, COUNT, struct.pack("<Q", 0))], "token 4999 count 0 is below min_count 1"),
    ([(4001, 4, b"\xff"), (4001, COUNT, struct.pack("<Q", 0))], "token 4001 is not UTF-8"),
    ([(3001, 4, b"t0010"), (3001, COUNT, struct.pack("<Q", 9000))],
     "token 3001 repeats token 10"),
    ([(2600, 4, b"\xff"), (2500, COUNT, struct.pack("<Q", 0))],
     "token 2500 count 0 is below min_count 1"),
    ([(2600, 4, b"t0010"), (2602, 4, b"\xff")], "token 2600 repeats token 10"),
], ids=["utf8", "split-char", "repeat", "increase", "above-int64", "zero",
        "utf8-before-count", "repeat-before-count", "lowest-token", "repeat-then-utf8"])
def test_large_vocabulary_refusals_name_the_first_fault(tmp_path, damage, named):
    p = tmp_path / "m.bin"
    at, _ = large_vocab_file(p)
    data = bytearray(p.read_bytes())
    for token, offset, value in damage:
        start = at[token] + offset
        data[start:start + len(value)] = value
    p.write_bytes(bytes(data))
    with pytest.raises(StoreFormatError, match=f"m.bin: {named}"):
        load_model(p)


def test_large_vocabulary_loads_every_token(tmp_path):
    """Tokens that are not ASCII, or hold a NUL, read back as written."""
    p = tmp_path / "m.bin"
    at, tokens = large_vocab_file(p)
    data = bytearray(p.read_bytes())
    data[at[12] + 5] = 0  # t0012 becomes t\x00012
    p.write_bytes(bytes(data))
    model = load_model(p)
    tokens[12] = "t\x00012"
    assert model.vocab.id_to_token == tokens
    assert model.vocab.token_to_id == {t: i for i, t in enumerate(tokens)}
    assert model.vocab.counts.tolist() == list(range(10_000, 5_000, -1))


def test_model_save_refuses_counts_below_min_count(tmp_path):
    model = small_model()
    model.config = TrainConfig(dim=8, seed=3, min_count=3)
    with pytest.raises(ConfigError, match="count of 2, below the training config's"):
        save_model(model, tmp_path / "m.bin")
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("name, values", [
    ("w_in", [np.nan]), ("w_out", [-np.inf]), ("w_in", [np.inf, -np.inf]),
], ids=["w_in-nan", "w_out-inf", "w_in-both-infs"])
def test_model_save_refuses_non_finite(tmp_path, name, values):
    """A matrix load_model refuses is refused before anything is written:
    no file and no temporary file is left behind."""
    model = small_model()
    getattr(model, name)[1, :len(values)] = values
    with pytest.raises(ConfigError, match=f"{name} holds a value that is not finite"):
        save_model(model, tmp_path / "m.bin")
    assert list(tmp_path.iterdir()) == []


def test_model_wrong_magic(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(StoreFormatError, match="magic"):
        load_model(p)
