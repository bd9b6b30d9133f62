"""Helpers for the binary artifact formats.

All multi-byte values are little-endian. Readers fail with
:class:`TruncatedFileError` the moment a declared quantity extends past the
end of the file, so a short read never turns into garbage arrays. Writers
go through :func:`atomic_write`, so a reader sees the old file or the new
one, never a partial one.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import StoreFormatError, StoreVersionError, TruncatedFileError


class ByteReader:
    """Cursor over an in-memory artifact blob with exact-length reads."""

    def __init__(self, data: bytes, name: str = "file"):
        self._data = data
        self._pos = 0
        self._name = name

    def take(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._data):
            raise TruncatedFileError(
                f"{self._name}: needed {n} bytes at offset {self._pos}, "
                f"only {len(self._data) - self._pos} remain"
            )
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    def unpack(self, fmt: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        dt = np.dtype(dtype)
        count = int(np.prod(shape)) if shape else 1
        raw = self.take(dt.itemsize * count)
        # copy: a view would be read-only and, at most offsets, unaligned.
        # The item matrix starts at byte 67 of index.ann, and items @ q on
        # an unaligned 30k x 64 view took 3-10x as long as on the aligned
        # copy (1,020 against 345 us on a 2-vCPU VM), so loading without a
        # copy waits for a format that pads arrays to their alignment.
        return np.frombuffer(raw, dtype=dt).reshape(shape).copy()

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise StoreFormatError(
                f"{self._name}: {len(self._data) - self._pos} unexpected "
                "trailing bytes"
            )


def check_magic(reader: ByteReader, magic: bytes, kind: str) -> None:
    got = reader.take(len(magic))
    if got != magic:
        raise StoreFormatError(f"not a {kind} file (bad magic {got!r})")


def check_version(reader: ByteReader, supported: int, kind: str) -> int:
    (version,) = reader.unpack("H")
    if version != supported:
        raise StoreVersionError(
            f"{kind} format version {version} not supported (expected {supported})"
        )
    return version


def pack(fmt: str, *values) -> bytes:
    return struct.pack("<" + fmt, *values)


def array_part(arr: np.ndarray, dtype: str) -> np.ndarray:
    """``arr`` as a C-contiguous array of ``dtype``, whose buffer
    :func:`write_parts` writes as raw bytes; no copy if it already is one."""
    return np.ascontiguousarray(arr, dtype=np.dtype(dtype))


@contextmanager
def atomic_write(path: str | Path, mode: str = "wb", **open_kwargs) -> Iterator[IO]:
    """Open a temporary file beside ``path``; on a clean exit, replace ``path``.

    The temporary file is flushed to disk before ``os.replace`` renames it
    over ``path``, so a crash at any point leaves the previous file whole.
    On any error the temporary file is removed and ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_parts(path: str | Path, parts: Iterable[bytes | np.ndarray]) -> None:
    """Atomically write ``parts`` one after another, never joined into one
    copy of the whole file."""
    with atomic_write(path) as f:
        for part in parts:
            f.write(part)
