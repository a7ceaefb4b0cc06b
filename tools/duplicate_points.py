"""Model points against true points over the benchmark's whole pools.

Regenerates every noise draw of each benchmark workload into a work
directory and runs ``run_pipeline`` on each draw (``pools.run_pools``).
Each track of ``model_final.msfm`` is attributed, through the draw's
``truth.npz``, to the true point most of its features observe.  One line
per draw, then one total per workload:

    <workload>/r<k> points=<n> true_points=<d> duplicates=<n - d - u> unattributed=<u>

``true_points`` counts the distinct true points the model hits, and
``duplicates`` the model points beyond the first per true point; a track
with no true feature is ``unattributed``.  The benchmark's
``points_recovered`` is ``points``, so a change that moves it with
``true_points`` unchanged only made or removed duplicates:

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


def line(label: str, c: Counter) -> str:
    return " ".join([label] + [f"{key}={c[key]}" for key in
                               ("points", "true_points", "duplicates", "unattributed")])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workdir", type=Path, required=True,
                    help="directory for the generated inputs and the outputs (both replaced)")
    args = ap.parse_args(argv)
    workdir = pools.setup(args.workdir)
    import checks

    totals = {}
    for name, draw, inputs, out in pools.run_pools(workdir):
        c = counts(checks.read_model_file(out / "model_final.msfm").tracks,
                   checks.Truth.load(inputs / "truth.npz"))
        print(line(f"{name}/{draw}", c), flush=True)
        totals.setdefault(name, []).append(c)
    # a true point counts once per draw that hits it
    for name, per_draw in totals.items():
        print(line(f"{name} ({len(per_draw)} draws)", sum(per_draw, Counter())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
