"""Traced memory of ``run_pipeline``, layer by layer, on one pool draw.

Regenerates the whole noise pool of one benchmark workload into a work
directory (``pools.generate_pool``, in a child process so that its memory
does not count here), loads one draw's feature store, then runs
``run_pipeline`` on that store under ``tracemalloc``, as the benchmark's
timed passes run it from a loaded store.  The layers are wrapped from
outside with ``benchmark/tracing.py``'s own patching (``Tracer._replace``):
every binding of the function in a loaded ``msfm`` module is replaced for
the run.  One line per layer:

    <layer> calls=<n> rise_mb=<largest rise above entry> peak_mb=<largest traced bytes>

``rise_mb`` is the most a single call raised the traced bytes above what
was allocated when it was entered; ``peak_mb`` is the most bytes traced
while any call of the layer was open, whatever allocated them.  Then the
run's traced peak, and ``ru_maxrss`` of this process (the run itself,
under tracemalloc's own overhead):

    python3 tools/stage_memory.py --workload reference_coarse --workdir /tmp/mem

Run from the root of a source checkout.  Nothing is written under
``benchmark/``.
"""

from __future__ import annotations

import argparse
import functools
import multiprocessing
import resource
import shutil
import sys
import tracemalloc
from pathlib import Path

import pools

# (layer, module of msfm, function); a layer may wrap several functions
LAYERS = (
    ("match", "matching", "build_coarse_matchgraph"),
    ("f_ransac", "geometry", "estimate_fundamental_ransac"),
    ("coarse", "reconstruct", "incremental_reconstruct"),
    ("ba", "ba", "bundle_adjust"),
    ("localize", "localize", "localize_all"),
    ("densify", "densify", "densify_stage"),
    ("guided", "guided", "guided_match_pair"),
    ("stats", "model", "model_stats"),
    ("writes", "io", "write_model"),
    ("writes", "io", "write_ply"),
)
MB = 2.0 ** 20


class LayerPeaks:
    """Per-layer call counts, largest rises and peaks of the traced bytes.

    Every wrapped entry and exit folds tracemalloc's peak since the last
    fold into each open call and resets it, so nested calls keep their
    own peaks.
    """

    def __init__(self):
        self.open: list[list[int]] = []  # per open call: [entry bytes, peak bytes]
        self.layers: dict[str, list[int]] = {}  # layer -> [calls, rise, peak]
        self.peak = 0

    def fold(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        self.peak = max(self.peak, peak)
        for frame in self.open:
            frame[1] = max(frame[1], peak)
        return current

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = self.fold()
            frame = [entry, entry]
            self.open.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self.fold()
                self.open.pop()
                calls, rise, peak = self.layers.get(layer, (0, 0, 0))
                self.layers[layer] = [calls + 1, max(rise, frame[1] - entry),
                                      max(peak, frame[1])]
        return wrapper


def install(peaks: LayerPeaks):
    """Wrap every layer in every loaded ``msfm`` module with the patching of
    ``benchmark/tracing.py``; returns the ``Tracer`` whose ``uninstall``
    puts the originals back."""
    import importlib

    import msfm.pipeline  # noqa: F401  (loads every module a run uses)
    from tracing import Tracer

    tracer = Tracer()
    for layer, module_name, attr in LAYERS:
        module = importlib.import_module(f"msfm.{module_name}")
        tracer._replace(module, attr, peaks.wrap(layer, getattr(module, attr)))
    return tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=pools.WORKLOADS)
    ap.add_argument("--draw", type=int, default=0, help="pool draw k, run from r<k> (default 0)")
    ap.add_argument("--workdir", type=Path, required=True,
                    help="directory for the generated inputs and the output (both replaced)")
    args = ap.parse_args(argv)
    work = pools.setup(args.workdir) / args.workload
    child = multiprocessing.get_context("spawn").Process(
        target=pools.generate_pool, args=(args.workload, work))
    child.start()
    child.join()
    if child.exitcode != 0:
        raise SystemExit(f"generating the {args.workload} pool failed")
    draw = work / "in" / f"r{args.draw}"
    if not draw.is_dir():
        raise SystemExit(f"{args.workload} has no pool draw {args.draw}")
    out = work / "out" / draw.name
    shutil.rmtree(out, ignore_errors=True)

    from msfm.features import FeatureStore
    from msfm.pipeline import run_pipeline

    config = pools.pool_config(args.workload)
    store = FeatureStore.load_dir(draw)
    peaks = LayerPeaks()
    tracer = install(peaks)
    tracemalloc.start()
    try:
        run_pipeline(config, None, store=store, out_dir=out)
        peaks.fold()
    finally:
        tracemalloc.stop()
        tracer.uninstall()

    print(f"{args.workload}/{draw.name}")
    for layer in dict.fromkeys(layer for layer, _, _ in LAYERS):
        calls, rise, peak = peaks.layers.get(layer, (0, 0, 0))
        print(f"{layer:<9} calls={calls:<5} rise_mb={rise / MB:7.2f} peak_mb={peak / MB:7.2f}")
    print(f"run traced_peak_mb={peaks.peak / MB:.2f}")
    # ru_maxrss is in KiB on Linux
    print(f"ru_maxrss_mb={resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
