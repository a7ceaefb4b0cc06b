"""Digests of ``run_pipeline``'s output files over the benchmark's whole pools.

Regenerates every noise draw of each benchmark workload into a work
directory and runs ``run_pipeline`` on each draw (``pools.run_pools``),
then prints a first line naming the numpy version, ``numpy <version>``,
and one line per output file: ``<workload>/r<k>/<file> <sha256>``, hashed
with the ``seconds=`` fields of ``stages.txt`` masked.  Two checkouts whose
printouts are equal wrote the same bytes apart from timings:

    python3 tools/pool_digests.py --workdir /tmp/pools > a.txt   # in one checkout
    python3 tools/pool_digests.py --workdir /tmp/pools > b.txt   # in the other
    diff a.txt b.txt

``tools/pool_digests.txt`` is such a printout, committed with the change
that last moved a byte.  ``--check FILE`` compares this checkout's digests
with one: it prints one line per file that differs, is missing or is not
recorded, and exits 1 if there is any (a numpy version other than the
recorded one is noted, since the contract holds for one numpy and BLAS):

    python3 tools/pool_digests.py --workdir /tmp/pools --check tools/pool_digests.txt

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


def differences(recorded: dict[str, str], found: dict[str, str]) -> list[str]:
    """``differs``, ``missing`` and ``unrecorded`` lines, one per file whose
    digest in ``found`` is not the one in ``recorded``."""
    return ([f"differs {name}" for name in recorded
             if name in found and found[name] != recorded[name]]
            + [f"missing {name}" for name in recorded if name not in found]
            + [f"unrecorded {name}" for name in found if name not in recorded])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workdir", type=Path, required=True,
                    help="directory for the generated inputs and the outputs (both replaced)")
    ap.add_argument("--check", type=Path, metavar="FILE",
                    help="compare with a recorded printout instead of printing; "
                         "exit 1 if any file differs, is missing or is not recorded")
    args = ap.parse_args(argv)
    workdir = pools.setup(args.workdir)
    import numpy as np

    header = f"numpy {np.__version__}"
    if args.check is None:
        print(header, flush=True)
    found = {}
    for name, draw, _, out in pools.run_pools(workdir):
        for path in sorted(out.iterdir()):
            key = f"{name}/{draw}/{path.name}"
            found[key] = file_digest(path)
            if args.check is None:
                print(key, found[key], flush=True)
    if args.check is None:
        return 0
    recorded_header, *lines = args.check.read_text().splitlines()
    if recorded_header != header:
        print(f"note: recorded under {recorded_header}, run under {header}")
    bad = differences(dict(line.split() for line in lines), found)
    print("\n".join(bad) if bad else f"{len(found)} digests equal")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
