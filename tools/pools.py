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


def generate_pool(name: str, work: Path) -> list[str]:
    """Regenerate every noise draw of workload ``name`` with
    ``benchmark/inputs.generate(..., whole_pool=True)`` into ``work/in``.

    Returns the draw names ``r<k>`` in order.
    """
    import inputs

    inputs.generate(name, 0, work / "in", whole_pool=True)
    return sorted((p.name for p in (work / "in").iterdir()), key=lambda n: int(n[1:]))


def pool_config(name: str):
    """The configuration a workload's draws run with: its ``iterations``,
    ``focal=900``."""
    import inputs
    from msfm.config import PipelineConfig

    return PipelineConfig(focal=900.0, iterations=inputs.workload_spec(name).iterations)


def run_pools(workdir: Path):
    """Regenerate every noise draw of each workload into
    ``workdir/<workload>/in`` (``generate_pool``) and run ``run_pipeline``
    on each (``pool_config``) into ``workdir/<workload>/out``.

    Yields (workload, draw name ``r<k>``, input dir, output dir) after each run.
    """
    from msfm.pipeline import run_pipeline

    for name in WORKLOADS:
        work = workdir / name
        draws = generate_pool(name, work)
        shutil.rmtree(work / "out", ignore_errors=True)  # no stale files from an earlier run
        config = pool_config(name)
        for draw in draws:
            out = work / "out" / draw
            run_pipeline(config, work / "in" / draw, out_dir=out)
            yield name, draw, work / "in" / draw, out
