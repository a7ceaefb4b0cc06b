"""Digests of ``run_pipeline``'s output files over the benchmark's whole pools.

Regenerates every noise draw of each benchmark workload into a work
directory and runs ``run_pipeline`` on each draw (``pools.run_pools``),
then prints one line per output file:
``<workload>/r<k>/<file> <sha256>``, hashed with the ``seconds=`` fields of
``stages.txt`` masked.  Two checkouts whose printouts are equal wrote the
same bytes apart from timings:

    python3 tools/pool_digests.py --workdir /tmp/pools > a.txt   # in one checkout
    python3 tools/pool_digests.py --workdir /tmp/pools > b.txt   # in the other
    diff a.txt b.txt

Run from the root of a source checkout; ``src/`` and ``benchmark/`` are put
on ``sys.path``.  Nothing is written under ``benchmark/``.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
from pathlib import Path

import pools

SECONDS = re.compile(rb"seconds=[0-9.eE+-]+")


def file_digest(path: Path) -> str:
    return hashlib.sha256(SECONDS.sub(b"seconds=*", path.read_bytes())).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workdir", type=Path, required=True,
                    help="directory for the generated inputs and the outputs (both replaced)")
    args = ap.parse_args(argv)
    for name, draw, _, out in pools.run_pools(pools.setup(args.workdir)):
        for path in sorted(out.iterdir()):
            print(f"{name}/{draw}/{path.name} {file_digest(path)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
