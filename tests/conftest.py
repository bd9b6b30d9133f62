"""Shared fixtures: corpora, a small trained engine, path helpers."""

import os
from pathlib import Path

import pytest

import semsearch
from semsearch import rng
from semsearch.ann import IndexConfig
from semsearch.corpus import (
    RecordSet,
    SentenceStream,
    _record_line,
    build_vocab,
    encode_sentences,
    load_csv,
)
from semsearch.embeddings import TrainConfig, train
from semsearch.search import index_records

FIXTURES = Path(__file__).parent / "fixtures"
STUDENTS_CSV = FIXTURES / "students_100.csv"
TEXT_COLUMNS = ["student_name", "center_name", "state"]


def child_env():
    """Environment for `python -m semsearch` child processes.

    Puts the directory holding the imported `semsearch` package first on
    PYTHONPATH as an absolute path, so a child started in any working
    directory runs the same code as this process. A relative entry such
    as `PYTHONPATH=src` would otherwise resolve against the child's cwd.
    """
    env = os.environ.copy()
    package_root = str(Path(semsearch.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (package_root if not existing
                         else os.pathsep.join([package_root, existing]))
    return env


def two_cluster_sentences(n=2000, seed=42):
    """Sentences drawing tokens from {a1..a5} or {b1..b5}, never mixed."""
    sm = rng.SplitMix64(rng.derive(seed, "two-cluster"))
    out = []
    for _ in range(n):
        pool = "a" if sm.next_below(2) == 0 else "b"
        length = 4 + sm.next_below(3)
        out.append([f"{pool}{1 + sm.next_below(5)}" for _ in range(length)])
    return out


def encode(sentences, vocab):
    """Token sentences as a stream of vocabulary ids, OOV tokens dropped."""
    return stream_of([[vocab.token_to_id[t] for t in s if t in vocab.token_to_id]
                      for s in sentences])


def stream_of(id_sentences):
    """A SentenceStream of sentences given as sequences of token ids."""
    return SentenceStream.from_ids([i for s in id_sentences for i in s],
                                   [len(s) for s in id_sentences])


def record_set(records, columns, text_columns):
    """A RecordSet of ``records``: each one's ``_record_line`` and newline,
    joined, which the set hashes into its ``corpus_hash``."""
    lines = "".join(_record_line(rec) + "\n" for rec in records).encode("utf-8")
    return RecordSet(lines, columns, text_columns, None, 0, "<records>")


def synthetic_sentences(n=1000, seed=7, vocab_size=120):
    sm = rng.SplitMix64(rng.derive(seed, "synthetic-sentences"))
    return [
        [f"tok{sm.next_below(vocab_size)}" for _ in range(3 + sm.next_below(6))]
        for _ in range(n)
    ]


@pytest.fixture(scope="session")
def students_records():
    return load_csv(STUDENTS_CSV, TEXT_COLUMNS, id_column="id")


@pytest.fixture(scope="session")
def students_model(students_records):
    from semsearch.corpus import iter_cell_tokens

    vocab = build_vocab(iter_cell_tokens(students_records))
    stream = encode_sentences(students_records, vocab)
    config = TrainConfig(dim=24, window=3, negatives=3, epochs=2, seed=11)
    return train(stream, vocab, config, corpus_hash=students_records.corpus_hash)


@pytest.fixture(scope="session")
def students_index(students_model, students_records):
    index, skipped = index_records(
        students_model, students_records, IndexConfig(n_trees=5, seed=11)
    )
    assert skipped == 0
    return index
