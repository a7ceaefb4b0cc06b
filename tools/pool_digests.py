"""Digests of ``run_pipeline``'s output files over the benchmark's whole pools.

Regenerates every noise draw of each benchmark workload with
``benchmark/inputs.generate(..., whole_pool=True)`` into a work
directory, runs ``run_pipeline`` on each draw (the workload's
``iterations``, ``focal=900``) and prints one line per output file:
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
import os
import re
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("ring", "reference_coarse", "relocalize")
SECONDS = re.compile(rb"seconds=[0-9.eE+-]+")


def file_digest(path: Path) -> str:
    return hashlib.sha256(SECONDS.sub(b"seconds=*", path.read_bytes())).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workdir", type=Path, required=True,
                    help="directory for the generated inputs and the outputs (both replaced)")
    args = ap.parse_args(argv)
    workdir = args.workdir.resolve()
    if workdir == ROOT / "benchmark" or (ROOT / "benchmark") in workdir.parents:
        raise SystemExit("--workdir must lie outside benchmark/")

    # one BLAS thread, as in the benchmark, before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]
    sys.dont_write_bytecode = True  # no __pycache__ under benchmark/
    import inputs
    from msfm.config import PipelineConfig
    from msfm.pipeline import run_pipeline

    for name in WORKLOADS:
        work = workdir / name
        inputs.generate(name, 0, work / "in", whole_pool=True)
        shutil.rmtree(work / "out", ignore_errors=True)  # no stale files from an earlier run
        config = PipelineConfig(focal=900.0, iterations=inputs.workload_spec(name).iterations)
        draws = sorted((p.name for p in (work / "in").iterdir()), key=lambda n: int(n[1:]))
        for draw in draws:
            out = work / "out" / draw
            run_pipeline(config, work / "in" / draw, out_dir=out)
            for path in sorted(out.iterdir()):
                print(f"{name}/{draw}/{path.name} {file_digest(path)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
