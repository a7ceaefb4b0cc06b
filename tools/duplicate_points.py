"""Model points against true points, and every quality figure, over the benchmark's whole pools.

Regenerates every noise draw of each benchmark workload into a work
directory and runs ``run_pipeline`` on each draw (``pools.run_pools``).
Each track of ``model_final.msfm`` is attributed, through the draw's
``truth.npz``, to the true point most of its features observe.  The final
model is also measured by the benchmark's ``checks.check_model``, in the
frame of the cameras of the draw's ``model_coarse.msfm``, as the benchmark
does.  One line per draw, then one total per workload:

    <workload>/r<k> points=<n> true_points=<d> duplicates=<n - d - u> unattributed=<u>
        cameras=<c> observations=<o> pairs=<p> ba_iters=<i> reproj_px=<mean> rot_deg=<median>
        failures=<f>

(one line in the output).  ``true_points`` counts the distinct true points
the model hits, and ``duplicates`` the model points beyond the first per
true point; a track with no true feature is ``unattributed``.  ``cameras``,
``observations`` and ``pairs`` are the benchmark's ``cameras_registered``,
``observations`` and ``pairs_connected``; ``ba_iters`` sums the LM
iterations of the draw's bundle adjustments, as the ``ba_iters`` counters
of ``benchmark/tracing.py``'s ``Tracer`` read them; ``reproj_px`` is the mean
reprojection error over the observations, ``rot_deg`` the median camera
rotation error and ``failures`` the number of failed checks.  A total sums
the counts, and takes the mean and the median over all the workload's
observations and cameras.  The benchmark's ``points_recovered`` is
``points``, so a change that moves it with ``true_points`` unchanged only
made or removed duplicates:

    python3 tools/duplicate_points.py --workdir /tmp/pools > a.txt   # in one checkout
    python3 tools/duplicate_points.py --workdir /tmp/pools > b.txt   # in the other
    diff a.txt b.txt

Run from the root of a source checkout.  Nothing is written under
``benchmark/``.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

import pools

COUNTS = ("points", "true_points", "duplicates", "unattributed",
          "cameras", "observations", "pairs", "ba_iters")


def counts(tracks, truth) -> Counter:
    """points, true_points, duplicates and unattributed of one model.

    A track's true point is the one most of its features observe.
    """
    hits = Counter()
    for track in tracks:
        ids = Counter(int(truth.point_of_feature[i][f]) for i, f in track)
        ids.pop(-1, None)
        hits[ids.most_common(1)[0][0] if ids else -1] += 1
    points, unattributed = sum(hits.values()), hits[-1]
    true_points = len(hits) - (-1 in hits)
    return Counter(points=points, true_points=true_points,
                   duplicates=points - true_points - unattributed, unattributed=unattributed)


def quality(outcome) -> Counter:
    """Cameras, observations, pairs and failures of one ``checks.Outcome``."""
    c = outcome.counts
    return Counter(cameras=c["cameras_registered"], observations=c["observations"],
                   pairs=c["pairs_connected"], failures=len(outcome.failures))


def line(label: str, c: Counter, reproj_px: float, rot_deg: float) -> str:
    return " ".join([label] + [f"{key}={c[key]}" for key in COUNTS]
                    + [f"reproj_px={reproj_px:.6f}", f"rot_deg={rot_deg:.6f}",
                       f"failures={c['failures']}"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workdir", type=Path, required=True,
                    help="directory for the generated inputs and the outputs (both replaced)")
    args = ap.parse_args(argv)
    workdir = pools.setup(args.workdir)
    import checks
    import numpy as np
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    totals = {}
    for name, draw, inputs, out in pools.run_pools(workdir):
        truth = checks.Truth.load(inputs / "truth.npz")
        frame = sorted(checks.read_model_file(out / "model_coarse.msfm").cameras)
        outcome = checks.check_model(out / "model_final.msfm", inputs, truth, frame)
        c = counts(checks.read_model_file(out / "model_final.msfm").tracks, truth)
        c.update(quality(outcome))
        c["ba_iters"] = sum(n for key, n in tracer.counters.items() if key.endswith(".ba_iters"))
        tracer.spans.clear()
        tracer.counters.clear()
        print(line(f"{name}/{draw}", c, outcome.reproj_px.mean(),
                   np.median(outcome.rot_err_deg)), flush=True)
        totals.setdefault(name, []).append((c, outcome.reproj_px, outcome.rot_err_deg))
    # a true point counts once per draw that hits it
    for name, per_draw in totals.items():
        c, reproj, rot = zip(*per_draw)
        print(line(f"{name} ({len(per_draw)} draws)", sum(c, Counter()),
                   np.concatenate(reproj).mean(), np.median(np.concatenate(rot))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
