"""Bounds-checked reader shared by the dataset and checkpoint formats."""
from __future__ import annotations

import numpy as np

from .errors import DataFormatError


class Reader:
    """Sequential little-endian reads from ``buf``; running past its end
    raises :class:`DataFormatError` naming the field and its byte offset."""

    def __init__(self, buf: bytes, path: str):
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise DataFormatError(
                f"{self.path}: truncated while reading {what}", offset=self.pos)
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def scalar(self, dtype: str, what: str):
        n = np.dtype(dtype).itemsize
        return np.frombuffer(self.take(n, what), dtype=dtype)[0]

    def array(self, dtype: str, shape: tuple, what: str) -> np.ndarray:
        count = int(np.prod(shape)) if shape else 0
        n = count * np.dtype(dtype).itemsize
        arr = np.frombuffer(self.take(n, what), dtype=dtype, count=count)
        return arr.reshape(shape).copy()
