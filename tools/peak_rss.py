"""Run one fanav command and print its peak resident set, lanes included.

    python tools/peak_rss.py pipeline --config desk.toml --seed 0 --out-dir RUN

The arguments are those of ``fanav``. The command runs as a child, with
this checkout's ``src`` first on ``PYTHONPATH``, and its output passes
through. When it ends, one more line follows::

    peak_rss_mb <MB> (<MiB> MiB)

That is the ``ru_maxrss`` of this program's children: the largest peak of
the command and of the lanes it forked and reaped. This program starts no
other child, so nothing else counts. The exit code is the command's.
"""
from __future__ import annotations

import os
import resource
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print("usage: python tools/peak_rss.py FANAV_ARGS...", file=sys.stderr)
        return 2
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path
                                             else ""))
    code = subprocess.run([sys.executable, "-m", "fanav.cli", *args],
                          env=env).returncode
    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"peak_rss_mb {kib * 1024 / 1e6:.2f} ({kib / 1024:.1f} MiB)",
          flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
