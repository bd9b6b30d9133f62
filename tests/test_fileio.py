"""Atomic artifact writes: a failed write leaves the previous file whole."""

import os
from contextlib import contextmanager

import pytest

import semsearch.corpus
import semsearch.fileio
from semsearch.ann import save_index
from semsearch.corpus import save_records
from semsearch.embeddings import save_model
from semsearch.fileio import atomic_write


def test_atomic_write_keeps_previous_file_on_error(tmp_path):
    p = tmp_path / "artifact.bin"
    p.write_bytes(b"previous")
    with pytest.raises(RuntimeError):
        with atomic_write(p) as f:
            f.write(b"half of the new")
            raise RuntimeError("interrupted")
    assert p.read_bytes() == b"previous"
    assert os.listdir(tmp_path) == ["artifact.bin"]


def test_atomic_write_replaces_with_plain_permissions(tmp_path):
    plain, atomic = tmp_path / "plain", tmp_path / "atomic"
    plain.write_bytes(b"x")
    with atomic_write(atomic) as f:
        f.write(b"x")
    assert atomic.read_bytes() == b"x"
    assert os.stat(atomic).st_mode == os.stat(plain).st_mode
    assert sorted(os.listdir(tmp_path)) == ["atomic", "plain"]


def test_interrupted_record_store_write_keeps_previous(students_records, tmp_path,
                                                       monkeypatch):
    p = tmp_path / "records.ndjson"
    save_records(students_records, p)
    before = p.read_bytes()
    atomic = semsearch.corpus.atomic_write
    room = len(before) // 2
    written = []

    @contextmanager
    def filling(path, *args, **kwargs):
        """``atomic_write`` onto a disk that fills halfway through the store."""
        with atomic(path, *args, **kwargs) as f:
            class Disk:
                def write(self, data):
                    left = room - sum(written)
                    written.append(min(len(data), left))
                    f.write(data[:left])
                    if len(data) > left:
                        raise OSError("disk full")
            yield Disk()

    monkeypatch.setattr(semsearch.corpus, "atomic_write", filling)
    with pytest.raises(OSError, match="disk full"):
        save_records(students_records, p)
    assert sum(written) == room
    assert p.read_bytes() == before
    assert os.listdir(tmp_path) == ["records.ndjson"]


@pytest.mark.parametrize("name", ["records", "model", "index"])
def test_failed_flush_keeps_previous(name, students_records, students_model,
                                     students_index, tmp_path, monkeypatch):
    write = {
        "records": lambda p: save_records(students_records, p),
        "model": lambda p: save_model(students_model, p),
        "index": lambda p: save_index(students_index, p),
    }[name]
    p = tmp_path / name
    previous = b"the previous artifact\n"
    p.write_bytes(previous)

    def no_space(fd):
        raise OSError("no space left on device")

    monkeypatch.setattr(semsearch.fileio.os, "fsync", no_space)
    with pytest.raises(OSError):
        write(p)
    assert p.read_bytes() == previous
    assert os.listdir(tmp_path) == [p.name]
