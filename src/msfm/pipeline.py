"""Stage sequencing: coarse reconstruction, then alternating camera and point
addition, with per-stage snapshots, stats and timing reports.

``run_match``, ``run_coarse``, ``run_localize`` and ``run_densify`` are the
only places where a ``PipelineConfig`` becomes stage arguments, and the only
writers of a model's STAGE tag; the full run and the CLI stage commands both
go through them, and both take a stage's iteration from that tag.
"""

from __future__ import annotations

import logging
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ba import bundle_adjust
from .config import PipelineConfig
from .densify import densify_stage
from .errors import StageError
from .features import FeatureStore
from .io import write_model, write_ply
from .localize import LocalizationResult, localize_all
from .matching import MatchGraph, build_coarse_matchgraph
from .model import Model, StatsReport, make_intrinsics, model_stats
from .reconstruct import incremental_reconstruct

log = logging.getLogger(__name__)


def intrinsics_for_store(store: FeatureStore, focal: float = 0.0) -> dict[int, np.ndarray]:
    """Per-image K: given focal, or the 1.2 * max-dimension heuristic."""
    out = {}
    for image_id in store.image_ids():
        fs = store[image_id]
        f = focal if focal > 0 else 1.2 * max(fs.width, fs.height)
        out[image_id] = make_intrinsics(f, fs.width / 2.0, fs.height / 2.0)
    return out


def run_match(config: PipelineConfig, store: FeatureStore) -> MatchGraph:
    """Match stage: select the top-eta% scale tier, then build the coarse graph."""
    store.apply_eta(config.eta)
    return build_coarse_matchgraph(
        store.sets, ratio=config.ratio_unguided, preemptive=config.preemptive,
        min_edge_inliers=config.min_inliers, seed=config.seed)


def run_coarse(config: PipelineConfig, store: FeatureStore, graph: MatchGraph) -> Model:
    """Coarse stage: incremental reconstruction of the match graph.

    An empty graph or any failure of the reconstruction is a StageError.
    """
    if not graph.edges:
        raise StageError("match graph has no verified edges")
    try:
        model = incremental_reconstruct(
            graph, store, intrinsics_for_store(store, config.focal),
            min_inliers=config.min_inliers, seed=config.seed, fix_focal=config.focal > 0)
    except Exception as exc:
        raise StageError(f"coarse reconstruction failed: {exc}") from exc
    model.stage_tag = "coarse"
    return model


_AFTER = re.compile(r"after_(localize|densify)\((\d+)\)")


def stage_iteration(model: Model, stage: str) -> int:
    """The iteration ``stage`` ("localize" or "densify") runs on ``model``:
    localize follows ``after_densify(k)`` as k+1, densify follows
    ``after_localize(k)`` as k, a stage rerun on its own output keeps its
    iteration, and any other tag (``coarse``, none) starts iteration 1."""
    after = _AFTER.fullmatch(model.stage_tag)
    if after is None:
        return 1
    k = int(after.group(2))
    return k + 1 if stage == "localize" and after.group(1) == "densify" else k


def run_localize(config: PipelineConfig, store: FeatureStore, model: Model,
                 graph: MatchGraph) -> tuple[int, list[int], list[LocalizationResult]]:
    """Camera addition: register the remaining images to ``model`` in place;
    returns (iteration, newly registered ids, per-image results)."""
    iteration = stage_iteration(model, "localize")
    newly, results = localize_all(
        model, store, graph, intrinsics_for_store(store, config.focal),
        set_cover_k=config.set_cover_k, set_cover_engage=config.set_cover_engage,
        ratio=config.ratio_unguided, min_inliers=config.min_inliers, seed=config.seed)
    model.stage_tag = f"after_localize({iteration})"
    return iteration, newly, results


def run_densify(config: PipelineConfig, store: FeatureStore, model: Model,
                query_images=None) -> dict:
    """Point addition: guided matching and triangulation into ``model``."""
    iteration = stage_iteration(model, "densify")
    summary = densify_stage(
        model, store, query_images=query_images, d=config.d, ratio=config.ratio_guided,
        threshold=config.covis_threshold, candidate_fraction=config.candidate_fraction)
    model.stage_tag = f"after_densify({iteration})"
    return summary


def localization_lines(results: list[LocalizationResult], iteration: int) -> list[str]:
    """One ``localization.txt`` record per localization attempt."""
    return [f"iteration={iteration} image={r.image_id} method={r.method} "
            f"correspondences={len(r.correspondences)} inliers={r.inliers} "
            f"ok={int(r.pose is not None)} reason={r.reason or 'ok'}"
            for r in results]


@dataclass
class StageReport:
    name: str
    seconds: float
    stats: StatsReport
    added_cameras: int = 0
    added_points: int = 0
    extra: dict = field(default_factory=dict)

    def lines(self) -> list[str]:
        out = [f"stage={self.name}", f"seconds={self.seconds:.3f}",
               f"added_cameras={self.added_cameras}", f"added_points={self.added_points}"]
        out += self.stats.lines()
        out += [f"{k}={v}" for k, v in sorted(self.extra.items())]
        return out


@dataclass
class PipelineResult:
    model: Model
    reports: list[StageReport]
    localization_log: list[str] = field(default_factory=list)

    def report_text(self) -> str:
        blocks = []
        for rep in self.reports:
            blocks.append(" ".join(rep.lines()))
        return "\n".join(blocks) + "\n"


def run_pipeline(config: PipelineConfig, feature_dir, *,
                 out_dir=None, store: FeatureStore | None = None) -> PipelineResult:
    """Full run: match, reconstruct coarse, then localize/densify per iteration."""
    config.validate()
    if store is None:
        store = FeatureStore.load_dir(feature_dir)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    reports: list[StageReport] = []
    loc_log: list[str] = []
    # stats and model-file body of the last snapshot, and the model revision
    # they describe: a stage that left the model unchanged reuses both
    last_revision, last_stats, last_body = -1, None, None

    def snapshot(model: Model, name: str, t0: float, added_cam=0, added_pts=0, extra=None):
        nonlocal last_revision, last_stats, last_body
        seconds = time.perf_counter() - t0
        if model.revision != last_revision:
            last_revision, last_stats, last_body = model.revision, model_stats(model, store), None
        rep = StageReport(name=name, seconds=seconds, stats=last_stats,
                          added_cameras=added_cam, added_points=added_pts,
                          extra=extra or {})
        reports.append(rep)
        if out_dir is not None:
            last_body = write_model(model, out_dir / f"model_{name}.msfm", body=last_body)
        log.info("%s", " ".join(rep.lines()))

    t0 = time.perf_counter()
    graph = run_match(config, store)
    log.info("match graph: %d edges in %.1fs", len(graph.edges), time.perf_counter() - t0)

    t0 = time.perf_counter()
    model = run_coarse(config, store, graph)
    snapshot(model, "coarse", t0,
             added_cam=len(model.cameras), added_pts=len(model.points))

    for _ in range(config.iterations):
        t0 = time.perf_counter()
        n_pts0 = len(model.points)
        iteration, newly, results = run_localize(config, store, model, graph)
        loc_log += localization_lines(results, iteration)
        snapshot(model, f"localize_{iteration}", t0, added_cam=len(newly),
                 extra={"attempted": len(results)})

        t0 = time.perf_counter()
        # later iterations query only the newly localized cameras; with none,
        # densify finds no pairs and adds nothing
        summary = run_densify(config, store, model,
                              query_images=None if iteration == 1 else newly)
        snapshot(model, f"densify_{iteration}", t0,
                 added_pts=len(model.points) - n_pts0, extra=summary)

    if config.final_ba:
        t0 = time.perf_counter()
        bundle_adjust(model, store, fix_focal=config.focal > 0)
        snapshot(model, "final_ba", t0)

    if out_dir is not None:
        write_model(model, out_dir / "model_final.msfm",
                    body=last_body if model.revision == last_revision else None)
        write_ply(model, out_dir / "points_final.ply")
        (out_dir / "stages.txt").write_text(
            PipelineResult(model, reports).report_text())
        (out_dir / "localization.txt").write_text("\n".join(loc_log) + "\n" if loc_log else "")
    return PipelineResult(model=model, reports=reports, localization_log=loc_log)
