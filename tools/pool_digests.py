"""Digests of ``run_pipeline``'s output files over the benchmark's whole pools
and the reference run.

Regenerates every noise draw of each benchmark workload into a work
directory and runs ``run_pipeline`` on each draw (``pools.run_pools``),
then runs the ROADMAP's 60-camera reference scene once (``run_reference``,
about 8 s on a 2-core host).  It prints a first line naming the numpy
version, ``numpy <version>``, and one line per output file:
``<workload>/r<k>/<file> <sha256>``, then ``reference/<file> <sha256>``,
hashed with the ``seconds=`` fields of ``stages.txt`` masked.  Two
checkouts whose printouts are equal wrote the same bytes apart from
timings:

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
import shutil
import sys
from pathlib import Path

import pools

SECONDS = re.compile(rb"seconds=[0-9.eE+-]+")


def file_digest(path: Path) -> str:
    return hashlib.sha256(SECONDS.sub(b"seconds=*", path.read_bytes())).hexdigest()


def run_reference(workdir: Path) -> Path:
    """Run ``run_pipeline`` on the ROADMAP's reference scene (60 cameras,
    5000 points, seed 2024) with ``focal=900`` and ``iterations=2`` into
    ``workdir/reference``; returns that directory."""
    from msfm.config import PipelineConfig
    from msfm.pipeline import run_pipeline
    from msfm.synth import SceneSpec, generate_scene

    scene = generate_scene(SceneSpec(n_cameras=60, n_points=5000, visibility_fraction=0.55,
                                     pixel_noise=0.5, descriptor_noise=4.0, seed=2024))
    out = workdir / "reference"
    shutil.rmtree(out, ignore_errors=True)  # no stale files from an earlier run
    run_pipeline(PipelineConfig(focal=900.0, iterations=2), None, out_dir=out,
                 store=scene.store())
    return out


def outputs(workdir: Path):
    """(``<workload>/r<k>``, output directory) of each pool draw as it is
    run, then (``reference``, the reference run's directory)."""
    for name, draw, _, out in pools.run_pools(workdir):
        yield f"{name}/{draw}", out
    yield "reference", run_reference(workdir)


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
    for prefix, out in outputs(workdir):
        for path in sorted(out.iterdir()):
            key = f"{prefix}/{path.name}"
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
