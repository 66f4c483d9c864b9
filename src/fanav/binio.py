"""The one file format of datasets and checkpoints.

An uncompressed zip: ``header.json`` holds the file's ``kind``, the format
``version`` and a JSON ``meta`` block, and each named array is one
``<name>.npy`` member. Zip's per-member CRC-32 catches a flipped byte in
the header or any array; fixed member timestamps make equal contents equal
bytes.
"""
from __future__ import annotations

import json
import zipfile
import zlib

import numpy as np

from .errors import DataFormatError

FORMAT_VERSION = 2
_HEADER = "header.json"
_STAMP = (1980, 1, 1, 0, 0, 0)
_LEGACY = (b"FANAV1", b"FAMLP1")


def write(path: str, kind: str, meta: dict,
          arrays: dict[str, np.ndarray]) -> None:
    header = json.dumps({"kind": kind, "version": FORMAT_VERSION,
                         "meta": meta}, sort_keys=True, separators=(",", ":"))
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        zf.writestr(zipfile.ZipInfo(_HEADER, _STAMP), header)
        for name, arr in arrays.items():
            # np.save's bytes, written from the array's own buffer
            arr = np.ascontiguousarray(arr)
            with zf.open(zipfile.ZipInfo(f"{name}.npy", _STAMP), "w") as fh:
                np.lib.format.write_array_header_1_0(
                    fh, np.lib.format.header_data_from_array_1_0(arr))
                fh.write(arr.reshape(-1).view(np.uint8))


def read(path: str, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """``(meta, arrays)`` of a file that :func:`write` gave ``kind``."""
    with open(path, "rb") as fh:
        if fh.read(6) in _LEGACY:
            raise DataFormatError(
                f"{path}: format 1 predates checksums; re-create it")
        # write() ends a file with zip's 22-byte end record, no comment
        fh.seek(max(0, fh.seek(0, 2) - 22))
        end = fh.read()
        if not (end.startswith(b"PK\x05\x06") and end.endswith(b"\0\0")):
            raise DataFormatError(
                f"{path}: not a whole fanav {kind} file (another format, "
                "truncated, or trailing bytes)")
        try:
            with zipfile.ZipFile(fh) as zf:
                header = json.loads(zf.read(_HEADER))
                if header["version"] != FORMAT_VERSION:
                    raise DataFormatError(
                        f"{path}: format version {header['version']} is not "
                        f"supported (expected {FORMAT_VERSION})")
                if header["kind"] != kind:
                    raise DataFormatError(f"{path}: holds a {header['kind']}, "
                                          f"not a {kind}")
                arrays = {}
                for name in (n for n in zf.namelist() if n != _HEADER):
                    with zf.open(name) as member:
                        arrays[name.removesuffix(".npy")] = \
                            np.lib.format.read_array(member)
                return header["meta"], arrays
        # a damaged directory can also point before the file's start
        # (OSError) or mark a member encrypted (RuntimeError)
        except (zipfile.BadZipFile, zlib.error, ValueError, KeyError,
                TypeError, EOFError, NotImplementedError, RuntimeError,
                OSError) as exc:
            raise DataFormatError(f"{path}: damaged {kind} file "
                                  f"({type(exc).__name__}: {exc})") from exc
