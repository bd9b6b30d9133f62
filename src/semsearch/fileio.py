"""Helpers for the binary artifact formats.

All multi-byte values are little-endian. Readers fail with
:class:`TruncatedFileError` the moment a declared quantity extends past the
end of the file, so a short read never turns into garbage arrays. Writers
go through :func:`atomic_write`, so a reader sees the old file or the new
one, never a partial one.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import StoreFormatError, StoreVersionError, TruncatedFileError

# arrays written through align_parts start at a multiple of this many bytes,
# a cache line and the widest SIMD load
ALIGN = 64


def aligned_empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A new writable C-contiguous array, uninitialized, whose first byte
    sits at a multiple of ``ALIGN`` in memory."""
    dt = np.dtype(dtype)
    nbytes = math.prod(shape) * dt.itemsize
    raw = np.empty(nbytes + ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % ALIGN
    return raw[start:start + nbytes].view(dt).reshape(shape)


def read_aligned(path: str | Path) -> np.ndarray:
    """The bytes of ``path`` in a writable uint8 array whose first byte sits
    at a multiple of ``ALIGN`` in memory: one read, no further copy."""
    with open(path, "rb", buffering=0) as f:
        size = os.fstat(f.fileno()).st_size
        buf = aligned_empty((size,), np.uint8)
        got = 0
        while got < size:
            n = f.readinto(buf[got:])
            if not n:
                break
            got += n
    return buf[:got]


class ByteReader:
    """Cursor over an in-memory artifact blob with exact-length reads.

    ``data`` is any buffer: ``bytes``, or the writable, aligned array of
    :func:`read_aligned`, whose :meth:`aligned_array` views stay writable.
    """

    def __init__(self, data: bytes | np.ndarray, name: str = "file"):
        self._data = memoryview(data).cast("B")
        self._pos = 0
        self._name = name

    @property
    def pos(self) -> int:
        return self._pos

    def _advance(self, n: int) -> int:
        start, end = self._pos, self._pos + n
        if end > len(self._data):
            raise TruncatedFileError(
                f"{self._name}: needed {n} bytes at offset {start}, "
                f"only {len(self._data) - start} remain"
            )
        self._pos = end
        return start

    def take(self, n: int) -> bytes:
        start = self._advance(n)
        return self._data[start:self._pos].tobytes()

    def unpack(self, fmt: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack_from(fmt, self._data, self._advance(struct.calcsize(fmt)))

    def _view(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        dt = np.dtype(dtype)
        count = int(np.prod(shape)) if shape else 1
        start = self._advance(dt.itemsize * count)
        return np.frombuffer(self._data, dtype=dt, count=count, offset=start).reshape(shape)

    def array(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        """A copy of the next array; model.bin packs its arrays at
        arbitrary offsets, where a view would be unaligned."""
        return self._view(dtype, shape).copy()

    def aligned_array(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        """A view of the next array, after the zero padding that
        :func:`align_parts` wrote to start it at a multiple of ``ALIGN``.

        Over a :func:`read_aligned` buffer the view is writable and
        ``ALIGN``-aligned in memory, so ``items @ q`` runs at the speed of
        a fresh array: on an unaligned view (index.ann v1 put the item
        matrix at byte 67) it took 3-10x as long, 1,020 against 345 us at
        30k x 64 on a 2-vCPU VM.
        """
        pad = -self._pos % ALIGN
        if any(self._data[self._advance(pad):self._pos]):
            raise StoreFormatError(
                f"{self._name}: nonzero padding before offset {self._pos}"
            )
        return self._view(dtype, shape)

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


def check_version(reader: ByteReader, supported: int, kind: str) -> None:
    (version,) = reader.unpack("H")
    if version != supported:
        raise StoreVersionError(
            f"{kind} format version {version} not supported (expected {supported})"
        )


def pack(fmt: str, *values) -> bytes:
    return struct.pack("<" + fmt, *values)


def array_part(arr: np.ndarray, dtype: str) -> np.ndarray:
    """``arr`` as a C-contiguous array of ``dtype``, whose buffer
    :func:`write_parts` writes as raw bytes; no copy if it already is one."""
    return np.ascontiguousarray(arr, dtype=np.dtype(dtype))


def align_parts(
    parts: Iterable[bytes | np.ndarray],
) -> Iterator[bytes | np.ndarray]:
    """``parts`` with zero bytes before each array so that it starts at a
    multiple of ``ALIGN``; :meth:`ByteReader.aligned_array` reads it back."""
    pos = 0
    for part in parts:
        if isinstance(part, np.ndarray):
            pad = -pos % ALIGN
            yield bytes(pad)
            pos += pad + part.nbytes
        else:
            pos += len(part)
        yield part


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
