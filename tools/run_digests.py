"""Print one SHA-256 digest line per artifact of a fanav run directory.

    python tools/run_digests.py RUN_DIR

Each line is ``<digest>  <relative path>``, sorted by path. A ``.fanav``
or ``.famlp`` file, an uncompressed zip, is followed by one line per
member, ``<digest>  <relative path>:<member>``, so a difference shows
which array or header changed. What differs between two runs of one
config is left out before hashing: ``started_unix`` and ``argv`` of each
manifest, and the ``seconds`` column of each ``report.csv``. ``diff`` of
two runs' output then names the artifacts whose bytes differ.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import zipfile

ARCHIVES = (".fanav", ".famlp")


def normalized(path: str) -> bytes:
    """The bytes of the artifact at ``path``, less what varies by run."""
    with open(path, "rb") as fh:
        data = fh.read()
    name = os.path.basename(path)
    if name.endswith("manifest.json"):
        manifest = json.loads(data)
        del manifest["started_unix"], manifest["argv"]
        return json.dumps(manifest, indent=2, sort_keys=True).encode()
    if name == "report.csv":
        rows = [line.split(b",") for line in data.splitlines()]
        col = rows[0].index(b"seconds")
        return b"".join(b",".join(row[:col] + row[col + 1:]) + b"\n"
                        for row in rows)
    return data


def run_tree(run_dir: str) -> dict[str, bytes]:
    """Every file under ``run_dir`` by relative path, normalized."""
    return {os.path.relpath(os.path.join(d, name), run_dir):
            normalized(os.path.join(d, name))
            for d, _, names in os.walk(run_dir) for name in names}


def digest_lines(run_dir: str) -> list[str]:
    lines = []
    for rel, data in sorted(run_tree(run_dir).items()):
        lines.append(f"{hashlib.sha256(data).hexdigest()}  {rel}")
        if rel.endswith(ARCHIVES):
            with zipfile.ZipFile(io.BytesIO(data)) as zf:
                lines += [f"{hashlib.sha256(zf.read(m)).hexdigest()}  "
                          f"{rel}:{m}" for m in zf.namelist()]
    return lines


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not os.path.isdir(args[0]):
        print("usage: python tools/run_digests.py RUN_DIR", file=sys.stderr)
        return 2
    print("\n".join(digest_lines(args[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
