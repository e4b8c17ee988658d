"""The binary container behind the four file formats (``KGTS`` triple
store, ``DGPT`` token cache, ``KGCK`` checkpoint, ``KGEV`` export).

A file is a 4-byte magic, a little-endian u32 version, then sections in an
order the format's module fixes: ``struct`` fields, little-endian arrays
and JSON blobs behind a u32 length.  Reads are exact: the size of every
section is checked against the bytes left before anything is allocated,
and a byte after the last section is an error.  Every failure raises the
format's own error class, naming the file and the section.  Writes go to
a sibling ``<name>.tmp`` that ``os.replace`` moves over the target, so a
reader never sees a half-written file.
"""
from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np


@contextmanager
def atomic_write(path: str | Path, mode: str = "wb", **kwargs):
    """Open a sibling temp file; replace ``path`` with it on success and
    remove it on failure.  A plain ``open`` keeps the umask file mode."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def json_part(obj) -> bytes:
    """A JSON section: u32 length, then sorted-key JSON."""
    blob = json.dumps(obj, sort_keys=True).encode()
    return struct.pack("<I", len(blob)) + blob


def save(path: str | Path, magic: bytes, version: int, *parts) -> None:
    """Write magic, version, then each part: bytes as they are, arrays as
    little-endian bytes (not copied when already little-endian and
    contiguous)."""
    with atomic_write(path) as f:
        f.write(magic)
        f.write(struct.pack("<I", version))
        for part in parts:
            if not isinstance(part, bytes):
                part = np.ascontiguousarray(
                    part, dtype=part.dtype.newbyteorder("<"))
            f.write(part)


class Reader:
    """Exact, bounds-checked reads of one open container file."""

    def __init__(self, f: BinaryIO, path, error: type[Exception], what: str):
        self._f = f
        self._left = os.fstat(f.fileno()).st_size
        self._path = path
        self._error = error
        self._what = what

    def error(self, section: str, message: str) -> Exception:
        """The format's error for ``section``, naming the file."""
        return self._error(f"{self._path}: {self._what} {section}: {message}")

    def _take(self, n: int, section: str) -> None:
        if n > self._left:
            raise self.error(section, f"truncated: needs {n} bytes, "
                                      f"{self._left} left")
        self._left -= n

    def _read(self, n: int, section: str) -> bytes:
        self._take(n, section)
        return self._f.read(n)

    def unpack(self, fmt: str, section: str) -> tuple:
        return struct.unpack(fmt, self._read(struct.calcsize(fmt), section))

    def array(self, dtype, shape, section: str) -> np.ndarray:
        """A fresh, writable array of ``shape`` read from the file."""
        if any(not isinstance(n, int) or n < 0 for n in shape):
            raise self.error(section, f"bad shape {shape!r}")
        dtype = np.dtype(dtype)
        self._take(math.prod(shape) * dtype.itemsize, section)
        out = np.empty(shape, dtype)
        self._f.readinto(out)
        return out

    def json(self, section: str):
        (n,) = self.unpack("<I", section)
        raw = self._read(n, section)
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise self.error(section, f"bad JSON ({exc})") from None

    def check_ids(self, ids: np.ndarray, bound: int, section: str) -> None:
        """Every id of ``ids`` must lie in ``[0, bound)``."""
        if ids.size and (ids.min() < 0 or ids.max() >= bound):
            bad = ids[(ids < 0) | (ids >= bound)][0]
            raise self.error(section, f"id {bad} out of range [0, {bound})")


@contextmanager
def load(path: str | Path, magic: bytes, version: int,
         error: type[Exception], what: str) -> Iterator[Reader]:
    """Check magic and version, yield a :class:`Reader` for the sections,
    then reject any byte after the last one."""
    with open(path, "rb") as f:
        rd = Reader(f, path, error, what)
        got = rd._read(len(magic), "magic")
        if got != magic:
            raise rd.error("magic", f"expected {magic!r}, got {got!r}")
        (got,) = rd.unpack("<I", "version")
        if got != version:
            raise rd.error("version", f"unsupported version {got}, "
                                      f"expected {version}")
        yield rd
        if rd._left:
            raise rd.error("end", f"{rd._left} trailing bytes after the "
                                  "last section")
