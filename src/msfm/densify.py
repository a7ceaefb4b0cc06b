"""Point addition: guided matching of candidate pairs, then track merging.

Candidate pairs come from covisibility in the current model (images sharing
more than T triangulated points, top-ranked, capped at a fraction of the
registered images).  Each unique pair is matched once with pose-derived
epipolar geometry; the pairwise matches, together with the existing tracks,
form a graph whose connected components become new or extended tracks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .descriptors import SearchStats
from .errors import DegenerateGeometryError, NotRegisteredError
from .geometry import fundamental_from_poses
from .guided import BAND_D_PX, GRID_INFLATION, build_grid, guided_match_pair
from .matching import Match, RATIO_GUIDED
from .model import FeatureRef, Model
from .reconstruct import triangulate_refs

log = logging.getLogger(__name__)

COVIS_THRESHOLD = 8
CANDIDATE_FRACTION = 0.10


@dataclass
class CandidateSet:
    image_id: int
    candidates: list[tuple[int, int]]  # (image_id, covisible count), descending


def candidate_images(model: Model, image_id: int, *,
                     threshold: int = COVIS_THRESHOLD,
                     k_limit: int | None = None) -> CandidateSet:
    """Top candidate partners for one image, ranked by covisible points."""
    if not model.is_registered(image_id):
        raise NotRegisteredError(f"image {image_id} is not registered")
    if k_limit is None:
        k_limit = int(np.ceil(CANDIDATE_FRACTION * len(model.cameras)))
    scored = []
    for other in model.image_ids():
        if other == image_id:
            continue
        n = len(model.covisible_points(image_id, other))
        if n > threshold:
            scored.append((-n, other))
    scored.sort()
    return CandidateSet(
        image_id=image_id,
        candidates=[(other, -neg) for neg, other in scored[:k_limit]],
    )


def unique_pairs(candidate_sets) -> list[tuple[int, int]]:
    """Deduplicated unordered pairs from all candidate sets, sorted."""
    pairs = set()
    for cs in candidate_sets:
        for other, _ in cs.candidates:
            pairs.add((cs.image_id, other) if cs.image_id < other else (other, cs.image_id))
    return sorted(pairs)


def merge_tracks(matches, model: Model):
    """Connected components over feature references, seeded with model tracks.

    Returns (new_tracks, extensions): new_tracks are lists of FeatureRefs
    spanning >= 2 images with no existing point; extensions map point_id to
    the new FeatureRefs joining that track.  Components are found by a
    sequential depth-first search.  Conflicts (two features of one image, or
    two distinct existing points in one component) are resolved by dropping
    the weaker-supported features, never by touching existing tracks.
    """
    adjacency: dict[FeatureRef, list[FeatureRef]] = {}
    edge_dist: dict[tuple[FeatureRef, FeatureRef], float] = {}

    def add_edge(u: FeatureRef, v: FeatureRef, dist: float):
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
        key = (u, v) if u < v else (v, u)
        cur = edge_dist.get(key)
        if cur is None or dist < cur:
            edge_dist[key] = dist

    for m in matches:
        add_edge(m.query, m.target, m.distance)

    # link existing track members so components absorb whole tracks
    touched_points = set()
    for ref in list(adjacency):
        pid = model.owner(ref)
        if pid is not None:
            touched_points.add(pid)
    for pid in touched_points:
        refs = model.points[pid].refs()
        for i in range(1, len(refs)):
            add_edge(refs[0], refs[i], -1.0)

    visited: set[FeatureRef] = set()
    new_tracks: list[list[FeatureRef]] = []
    extensions: dict[int, list[FeatureRef]] = {}
    for start in sorted(adjacency):
        if start in visited:
            continue
        component = []
        stack = [start]
        visited.add(start)
        while stack:
            node = stack.pop()
            component.append(node)
            for nxt in adjacency[node]:
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append(nxt)
        component.sort()

        owners = {model.owner(r) for r in component} - {None}
        if len(owners) >= 2:
            # matches bridged two distinct points; ambiguous, drop the new features
            log.debug("component bridges points %s, dropped", sorted(owners))
            continue
        owner = owners.pop() if owners else None
        existing = set(model.points[owner].refs()) if owner is not None else set()

        def support(ref: FeatureRef) -> float:
            dists = [edge_dist[(min(ref, o), max(ref, o))]
                     for o in adjacency[ref]
                     if (min(ref, o), max(ref, o)) in edge_dist]
            dists = [d for d in dists if d >= 0.0]
            return min(dists) if dists else np.inf

        by_image: dict[int, list[FeatureRef]] = {}
        for ref in component:
            by_image.setdefault(ref.image_id, []).append(ref)
        keep = []
        for image_id in sorted(by_image):
            refs = by_image[image_id]
            pinned = [r for r in refs if r in existing]
            if pinned:
                keep.extend(pinned)  # existing observations always win
                continue
            if owner is not None and image_id in model.points[owner].track:
                continue  # the track already observes this image elsewhere
            refs.sort(key=lambda r: (support(r), r))
            keep.append(refs[0])

        fresh = [r for r in keep if r not in existing]
        if owner is not None:
            if fresh:
                extensions.setdefault(owner, []).extend(fresh)
        else:
            if len(fresh) >= 2 and len({r.image_id for r in fresh}) >= 2:
                new_tracks.append(fresh)
    return new_tracks, extensions


def _pair_geometry(model: Model, a: int, b: int):
    try:
        return fundamental_from_poses(model.cameras[a], model.cameras[b])
    except DegenerateGeometryError:
        return None


def densify_stage(model: Model, feature_store, *,
                  iteration: int = 1,
                  query_images=None,
                  d: float = BAND_D_PX,
                  ratio: float = RATIO_GUIDED,
                  inflation: float = GRID_INFLATION,
                  threshold: int = COVIS_THRESHOLD,
                  candidate_fraction: float = CANDIDATE_FRACTION,
                  stats: SearchStats | None = None) -> dict:
    """Match untracked features along epipolar bands and triangulate them.

    ``query_images`` defaults to all registered images (first iteration);
    later iterations pass only newly localized cameras.  No bundle
    adjustment runs here.  Returns a summary dict.
    """
    registered = model.image_ids()
    if query_images is None:
        query_images = registered
    query_images = [i for i in sorted(query_images) if model.is_registered(i)]
    k_limit = max(1, int(np.ceil(candidate_fraction * len(registered))))
    sets = []
    for image_id in query_images:
        cs = candidate_images(model, image_id, threshold=threshold, k_limit=k_limit)
        if cs.candidates:
            sets.append(cs)
    pairs = unique_pairs(sets)
    query_set = set(query_images)

    def untracked(image_id: int) -> np.ndarray:
        owned = [model.points[pid].track[image_id] for pid in model.points_visible_in(image_id)]
        mask = np.ones(len(feature_store.sets[image_id]), dtype=bool)
        mask[owned] = False
        return np.flatnonzero(mask)

    untracked_cache = {i: untracked(i) for i in sorted({x for p in pairs for x in p})}
    grid_cache: dict[int, object] = {}

    def grid_for(image_id: int):
        if image_id not in grid_cache:
            fs = feature_store.sets[image_id]
            grid_cache[image_id] = build_grid(
                fs.xy.astype(np.float64), d * inflation,
                width=fs.width, height=fs.height)
        return grid_cache[image_id]

    # every pair is matched against the pre-stage model; tracks merge after
    all_matches: list[Match] = []
    for a, b in pairs:
        q, t = (a, b) if a in query_set else (b, a)
        geom = _pair_geometry(model, q, t)
        if geom is None:
            continue
        all_matches.extend(guided_match_pair(
            feature_store.sets[q], feature_store.sets[t], geom,
            d=d, ratio=ratio, inflation=inflation,
            query_indices=untracked_cache[q], grid=grid_for(t), stats=stats))

    new_tracks, extensions = merge_tracks(all_matches, model)

    added_points = 0
    extended_tracks = 0
    for refs in new_tracks:
        tri = triangulate_refs(model, feature_store.sets, refs)
        if tri is None:
            continue
        model.add_point(tri.point, refs)
        added_points += 1
    for pid in sorted(extensions):
        fresh = [r for r in sorted(set(extensions[pid]))
                 if model.owner(r) is None and r.image_id not in model.points[pid].track]
        if not fresh:
            continue
        tri = triangulate_refs(model, feature_store.sets, model.points[pid].refs() + fresh)
        if tri is None:
            continue  # grown track inconsistent, keep the original
        for r in fresh:
            model.extend_track(pid, r)
        model.set_position(pid, tri.point)
        extended_tracks += 1

    model.stage_tag = f"after_densify({iteration})"
    summary = {
        "pairs": len(pairs),
        "matches": len(all_matches),
        "new_points": added_points,
        "extended_tracks": extended_tracks,
    }
    log.info("densify iteration %d: %s", iteration, summary)
    return summary
