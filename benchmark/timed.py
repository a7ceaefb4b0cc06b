"""One benchmark process: a cold set-up, then whole passes of ``run_pipeline``.

Started by ``run.py`` in a fresh interpreter with BLAS and OpenMP pinned to
one thread.  Set-up is timed from the parent's spawn timestamp (the same
monotonic clock) to the end of ``FeatureStore.load_dir`` over every
realization, so it covers interpreter start, ``import msfm`` and loading
the inputs.  A pass runs the pipeline once on each realization, each from
freshly copied feature sets with cold per-set caches; passes repeat until
``--seconds`` have passed.

Before every pipeline run, and once after the last, a fixed calibration
mix times the machine's current speed; ``run.py`` scales the measured
times by it (see ``calibration_s``).

With ``--trace 1`` one more pipeline run on realization 0 follows, with the
layer wrappers of ``tracing.py`` installed, and one more calibration after
it; the wrappers are imported only then, so the untraced passes run the
program exactly as shipped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def calibration_s() -> float:
    """Wall time of a fixed mix like the pipeline's work: BLAS, small numpy
    calls in a Python loop, plain interpreter work, and lookups in a dict
    of tuple keys far larger than the CPU caches.

    The machine's speed drifts by 2x and more over minutes as its shared
    host gets busier or quieter (CPU time drifts with wall time).  Timing
    this mix next to the pipeline measures that drift; the dict part is
    there because cache-bound work slows down the most, as the pipeline's
    tracks and owner maps do.
    """
    import numpy as np

    a = np.random.default_rng(0).normal(size=(128, 128))
    keys = [(i * 7919 % 100_003, i % 97) for i in range(40_000)]
    order = np.random.default_rng(1).permutation(len(keys)).tolist()
    t0 = time.perf_counter()
    for _ in range(48):
        b = a @ a.T
        np.argsort(b, axis=1)
        for row in b[:200]:
            np.dot(row[:3], row[3:6])
        total = 0
        for k in range(20_000):
            total += k % 7
    table = {}
    for key in keys:
        table[key] = len(table)
    for _ in range(2):
        for j in order:
            total += table[keys[j]]
    return time.perf_counter() - t0


def _pipeline(config, base_sets, out_dir: Path):
    from msfm.features import FeatureStore
    from msfm.pipeline import run_pipeline

    store = FeatureStore(dict(base_sets))
    t0 = time.perf_counter()
    result = run_pipeline(config, None, store=store, out_dir=out_dir)
    seconds = time.perf_counter() - t0
    model_digest = hashlib.sha256((out_dir / "model_final.msfm").read_bytes()).hexdigest()
    return seconds, model_digest, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", type=Path, required=True, help="holds r0/, r1/, ...")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--results", type=Path, required=True)
    ap.add_argument("--iterations", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    from msfm.config import PipelineConfig
    from msfm.features import FeatureStore

    names = sorted((p.name for p in args.inputs.iterdir()), key=lambda n: int(n[1:]))
    bases = [FeatureStore.load_dir(args.inputs / name) for name in names]
    setup_s = time.monotonic() - args.spawned_at

    config = PipelineConfig(focal=900.0, threads=1, iterations=args.iterations)
    runs = {name: {"seconds": [], "model_digests": []} for name in names}
    stages = {}
    calibration = []
    start = time.perf_counter()
    passes = 0
    while not passes or time.perf_counter() - start < args.seconds:
        for name, base in zip(names, bases):
            calibration.append(calibration_s())
            seconds, model_digest, result = _pipeline(config, base.sets, args.out / name)
            runs[name]["seconds"].append(seconds)
            runs[name]["model_digests"].append(model_digest)
            stages[name] = [
                {"name": rep.name, "cameras": rep.stats.n_cameras,
                 "added_cameras": rep.added_cameras, "extra": rep.extra}
                for rep in result.reports
            ]
        passes += 1
    calibration.append(calibration_s())

    out = {"setup_s": setup_s, "passes": passes, "runs": runs, "stages": stages,
           "calibration_s": calibration}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        with tracer.span("setup"):
            traced = FeatureStore.load_dir(args.inputs / names[0])
        with tracer.span("pipeline"):
            seconds, model_digest, _ = _pipeline(config, traced.sets, args.out / names[0])
        tracer.uninstall()
        out["traced"] = {"realization": names[0], "seconds": seconds,
                         "model_digest": model_digest, "trace": tracer.export(),
                         "calibration_s": [calibration[-1], calibration_s()]}
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.results.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
