"""The benchmark's whole pools, regenerated and reconstructed outside ``benchmark/``.

Shared by the tools that compare checkouts over every pool draw.  Call
``setup`` before numpy loads: it pins BLAS to one thread, as the benchmark
does, and puts ``src/`` and ``benchmark/`` on ``sys.path``.  Nothing is
written under ``benchmark/``.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("ring", "reference_coarse", "relocalize")


def setup(workdir: Path) -> Path:
    """The resolved work directory; exits when it lies under ``benchmark/``."""
    workdir = workdir.resolve()
    if workdir == ROOT / "benchmark" or (ROOT / "benchmark") in workdir.parents:
        raise SystemExit("--workdir must lie outside benchmark/")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]
    sys.dont_write_bytecode = True  # no __pycache__ under benchmark/
    return workdir


def run_pools(workdir: Path):
    """Regenerate every noise draw of each workload with
    ``benchmark/inputs.generate(..., whole_pool=True)`` into
    ``workdir/<workload>/in`` and run ``run_pipeline`` on each (the
    workload's ``iterations``, ``focal=900``) into ``workdir/<workload>/out``.

    Yields (workload, draw name ``r<k>``, input dir, output dir) after each run.
    """
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
            yield name, draw, work / "in" / draw, out
