"""Pipeline benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload ring --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout.  The run

1. checks that the workload's inputs at the digest seed still match
   ``digests.json``, then generates the inputs for ``--seed``: the noise
   draws that the seed picks from the workload's fixed pool
   (``inputs.py``);
2. starts ``timed.py`` in a fresh single-threaded interpreter, which times a
   cold set-up and then whole passes of ``run_pipeline`` over every
   realization until ``--seconds`` have passed (plus one traced pipeline
   run with ``--trace 1``);
3. checks every final model against its ground truth (``checks.py``);
4. prints one JSON line: the end-to-end metrics with ``--trace 0``, the
   per-layer metrics with ``--trace 1``.

``total_s`` and ``setup_s`` are wall times scaled by the machine speed that
the calibration mix measured during the run, so that drift of the shared
host between runs does not read as a change of the program.

An operation is one input image of one pipeline run; an image missing from
the final model is a failed operation.  Spans, counters and per-run figures
go to ``.bench_cache/results/``.  ``--smoke`` runs tiny scenes of the same
make-up instead (used by the benchmark's tests).  ``--whole-pool`` runs
and checks every draw of the pool, not the seed's pick:

    python3 benchmark/run.py --workload ring --seed 0 --seconds 0 --whole-pool
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".bench_cache"
CHILD_TIMEOUT_S = 160
POOL_TIMEOUT_S = 1800
# times are reported in seconds at the machine speed where the calibration
# mix of timed.py takes this long; a fixed scale, close to wall time when
# this 2-core machine is quiet
CALIBRATION_REF_S = 0.075

UNITS = {
    "total_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "cameras_registered": "count", "points_recovered": "count",
    "observations": "count", "pairs_connected": "count", "reproj_px": "px",
}
# one thread everywhere: the box has 2 shared cores, and default BLAS
# threading burns ~15% more CPU than wall time for nothing
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="msfm pipeline benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--whole-pool", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def run_child(inputs: Path, out: Path, results: Path, iterations: int,
              seconds: float, trace: int, timeout: float = CHILD_TIMEOUT_S) -> None:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "timed.py"), "--inputs", str(inputs),
           "--out", str(out), "--results", str(results),
           "--iterations", str(iterations), "--seconds", str(seconds),
           "--trace", str(trace), "--spawned-at", repr(spawned_at)]
    # run() kills the child on timeout and waits for it before raising
    proc = subprocess.run(cmd, env=env, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"timed process exited with code {proc.returncode}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "msfm" / "pipeline.py").is_file():
        print(f"error: no msfm sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import checks
    import inputs as gen
    import tracing

    wl = gen.workload_spec(args.workload, args.smoke)
    tag = (f"{args.workload}{'-smoke' if args.smoke else ''}"
           f"{'-pool' if args.whole_pool else f'-{args.seed}'}-trace{args.trace}")
    work = CACHE / "work" / f"{tag}-{os.getpid()}"
    try:
        if not args.smoke:
            gen.verify_digest(args.workload, work / "digest")
        summary = gen.generate(args.workload, args.seed, work / "inputs", args.smoke,
                               args.whole_pool)
        results_path = work / "timed.json"
        # a whole pool is one pass over 16-24 draws, several times a normal run
        run_child(work / "inputs", work / "out", results_path, wl.iterations,
                  args.seconds, args.trace,
                  timeout=POOL_TIMEOUT_S if args.whole_pool else CHILD_TIMEOUT_S)
        timed = json.loads(results_path.read_text())

        outcomes, failures = {}, []
        for name, run in timed["runs"].items():
            truth = checks.Truth.load(work / "inputs" / name / "truth.npz")
            out = work / "out" / name
            coarse_ids = sorted(checks.read_model_file(out / "model_coarse.msfm").cameras)
            outcome = checks.check_model(out / "model_final.msfm", work / "inputs" / name,
                                         truth, coarse_ids)
            found = outcome.failures + checks.check_stages(
                timed["stages"][name], coarse_ids, wl.n_cameras, truth.blinded, wl.iterations)
            digests = set(run["model_digests"])
            if args.trace and timed["traced"]["realization"] == name:
                digests.add(timed["traced"]["model_digest"])
            if len(digests) != 1:
                found.append(f"{len(digests)} different final models from one input")
            failures += [f"{name}: {f}" for f in found]
            outcomes[name] = outcome
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # a pass reconstructs every realization once; counts are means per
    # reconstruction, errors are pooled over all cameras / observations
    def pooled(attr):
        return np.concatenate([getattr(o, attr) for o in outcomes.values()])

    raw_total = statistics.median(t for run in timed["runs"].values() for t in run["seconds"])
    speed = CALIBRATION_REF_S / statistics.median(timed["calibration_s"])
    measured = {
        "total_s": raw_total * speed,
        "setup_s": timed["setup_s"] * speed,
        "peak_rss_mb": timed["peak_rss_mb"],
        **{key: statistics.mean(o.counts[key] for o in outcomes.values())
           for key in ("cameras_registered", "points_recovered", "observations",
                       "pairs_connected")},
        "rot_err_deg": float(np.median(pooled("rot_err_deg"))),
        "trans_err_rel": float(np.median(pooled("trans_err_rel"))),
        "reproj_px": float(pooled("reproj_px").mean()),
    }
    if args.trace:
        # layer times at the speed measured around the traced pipeline run
        traced = timed["traced"]
        traced_speed = CALIBRATION_REF_S / statistics.mean(traced["calibration_s"])
        metrics = tracing.layer_metrics(traced["trace"])
        units = {k: "s" if k.endswith(("_s", ".s")) else "count" for k in metrics}
        metrics = {k: v * traced_speed if units[k] == "s" else v for k, v in metrics.items()}
        untraced = statistics.median(timed["runs"][traced["realization"]]["seconds"]) * speed
        metrics["trace.overhead_s"] = traced["seconds"] * traced_speed - untraced
        units["trace.overhead_s"] = "s"
    else:
        metrics = {k: measured[k] for k in UNITS}
        units = UNITS

    attempted = failed = 0
    for name, run in timed["runs"].items():
        attempted += wl.n_cameras * len(run["seconds"])
        failed += (wl.n_cameras - outcomes[name].counts["cameras_registered"]) * len(run["seconds"])
    record = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "passes": timed["passes"], "inputs": summary,
        "seconds": {name: run["seconds"] for name, run in timed["runs"].items()},
        "counts": {name: o.counts for name, o in outcomes.items()},
        "purity": {name: o.purity for name, o in outcomes.items()},
        "camera_errors": {name: {"rot_deg": o.rot_err_deg.tolist(),
                                 "trans_rel": o.trans_err_rel.tolist()}
                          for name, o in outcomes.items()},
        "measured": measured, "failures": failures, "metrics": metrics,
        "raw": {"total_s": raw_total, "setup_s": timed["setup_s"],
                "calibration_s": timed["calibration_s"]},
    }
    if args.trace:
        record["traced"] = timed["traced"]
    (CACHE / "results").mkdir(parents=True, exist_ok=True)
    (CACHE / "results" / f"{tag}.json").write_text(json.dumps(record))
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
