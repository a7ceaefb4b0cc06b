"""Point addition: guided matching of candidate pairs, then track merging.

Candidate pairs come from covisibility in the current model (images sharing
more than T triangulated points, top-ranked, capped at a fraction of the
registered images).  Each unique pair is matched once with pose-derived
epipolar geometry; the pairwise matches, together with the existing tracks,
form a graph whose connected components become new or extended tracks.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import DegenerateGeometryError
from .geometry import fundamental_from_poses
from .guided import BAND_D_PX, build_index, guided_match_pair
from .matching import RATIO_GUIDED, sorted_unique
from .model import Model, covisible_pairs
from .reconstruct import triangulate_refs

log = logging.getLogger(__name__)

COVIS_THRESHOLD = 8
CANDIDATE_FRACTION = 0.10


def select_pairs(observations, query_images, *, threshold: int = COVIS_THRESHOLD,
                 k_limit: int) -> list[tuple[int, int]]:
    """Candidate pairs of the query images, as sorted unordered pairs.

    ``observations`` are the model's (point, image, feature) columns
    (``Model.observations()``).  Each query image keeps its top ``k_limit``
    partners that share more than ``threshold`` points with it, most shared
    first, ties to the lower id.
    """
    point, image, _ = observations
    a, b, shared = covisible_pairs(point, image)
    strong = shared > threshold
    query = np.concatenate([a[strong], b[strong]])
    partner = np.concatenate([b[strong], a[strong]])
    shared = np.tile(shared[strong], 2)
    asked = np.isin(query, np.asarray(query_images, dtype=np.int64))
    query, partner, shared = query[asked], partner[asked], shared[asked]
    order = np.lexsort((partner, -shared, query))
    query, partner = query[order], partner[order]
    top = np.arange(len(query)) - np.searchsorted(query, query) < k_limit
    codes = sorted_unique(np.minimum(query, partner)[top] << 32
                          | np.maximum(query, partner)[top])
    return list(zip((codes >> 32).tolist(), (codes & 0xFFFFFFFF).tolist()))


def connected_components(n_nodes: int, u: np.ndarray, v: np.ndarray) -> tuple[int, np.ndarray]:
    """Components of the undirected graph on nodes ``0..n_nodes-1`` with
    edges ``(u[i], v[i])``.  Returns (count, labels), components numbered
    0, 1, ... in the order of their lowest node.

    Min-label hooking with pointer jumping: every node points to a node of
    its component no higher than itself.  Each round hooks the higher root
    of each split edge to the lower one (the lowest on offer), then jumps
    pointers until every node points at a root; it stops when no edge is
    split, so each component's root is its lowest node.
    """
    parent = np.arange(n_nodes)
    while True:
        pu, pv = parent[u], parent[v]
        split = pu != pv
        if not split.any():
            break
        np.minimum.at(parent, np.maximum(pu, pv)[split], np.minimum(pu, pv)[split])
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    root = parent == np.arange(n_nodes)
    return int(root.sum()), (np.cumsum(root) - 1)[parent]


def merge_tracks(pair_matches, observations):
    """Connected components over feature references, seeded with model tracks.

    ``pair_matches`` holds (query_image, target_image, Matches) triples, and
    ``observations`` the model's columns (``Model.observations()``).
    Returns (new_tracks, extensions): new_tracks are lists of (image_id,
    feature_id) pairs spanning >= 2 images with no existing point;
    extensions map point_id to the new pairs joining that track, each list
    sorted.  The nodes are ``image << 32 | feature``; every model observation
    is a node linked to its track, so components absorb whole tracks, and
    one ``connected_components`` pass (numpy, in this module) numbers them
    by their lowest node.
    Conflicts (two features of one image, or two distinct existing points in
    one component) are resolved by dropping the weaker-supported features
    (larger smallest match distance, ties to the higher node), never by
    touching existing tracks.
    """
    if not sum(len(m) for _, _, m in pair_matches):
        return [], {}
    query = np.concatenate([np.int64(q) << 32 | m.query for q, _, m in pair_matches])
    target = np.concatenate([np.int64(t) << 32 | m.target for _, t, m in pair_matches])
    distance = np.concatenate([m.distance for _, _, m in pair_matches])
    point, image, feature = observations
    observed = image << 32 | feature

    nodes = sorted_unique(np.concatenate([query, target, observed]))
    qi, ti, oi = (np.searchsorted(nodes, x) for x in (query, target, observed))
    # each observation links to its track's first one
    n_comp, label = connected_components(
        len(nodes), np.concatenate([qi, oi[np.searchsorted(point, point)]]),
        np.concatenate([ti, oi]))
    owner = np.full(len(nodes), -1, dtype=np.int64)
    owner[oi] = point
    support = np.full(len(nodes), np.inf)
    np.minimum.at(support, qi, distance)
    np.minimum.at(support, ti, distance)

    # a component whose matches bridge two distinct points is ambiguous
    owned = owner >= 0
    comp_points = sorted_unique(label[owned].astype(np.int64) << 32 | owner[owned])
    n_points = np.bincount(comp_points >> 32, minlength=n_comp)
    comp_owner = np.full(n_comp, -1, dtype=np.int64)
    comp_owner[comp_points >> 32] = comp_points & 0xFFFFFFFF
    log.debug("%d components bridge points, dropped", int((n_points >= 2).sum()))

    # one feature per (component, image): an existing observation, else the
    # best-supported one, ties to the lower node
    group = label.astype(np.int64) << 32 | nodes >> 32
    order = np.lexsort((support, ~owned, group))
    keep = order[np.diff(group[order], prepend=-1) != 0]
    fresh = keep[~owned[keep] & (n_points[label[keep]] <= 1)]

    new_tracks: list[list[tuple[int, int]]] = []
    extensions: dict[int, list[tuple[int, int]]] = {}
    starts = np.flatnonzero(np.diff(label[fresh], prepend=-1))
    for comp, codes in zip(label[fresh[starts]].tolist(), np.split(nodes[fresh], starts[1:])):
        pairs = list(zip((codes >> 32).tolist(), (codes & 0xFFFFFFFF).tolist()))
        pid = int(comp_owner[comp])
        if pid >= 0:
            extensions[pid] = pairs
        elif len(pairs) >= 2:
            new_tracks.append(pairs)
    return new_tracks, extensions


def densify_stage(model: Model, feature_store, *,
                  query_images=None,
                  d: float = BAND_D_PX,
                  ratio: float = RATIO_GUIDED,
                  threshold: int = COVIS_THRESHOLD,
                  candidate_fraction: float = CANDIDATE_FRACTION) -> dict:
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
    observations = model.observations()  # the model is unchanged until the merge
    pairs = select_pairs(observations, query_images, threshold=threshold, k_limit=k_limit)
    query_set = set(query_images)

    # every pair is matched against the pre-stage model; tracks merge after.
    # A query image's untracked features and a target image's band index
    # are found once.
    untracked, indexes = {}, {}
    pair_matches = []
    for a, b in pairs:
        q, t = (a, b) if a in query_set else (b, a)
        try:
            F = fundamental_from_poses(model.cameras[q], model.cameras[t])
        except DegenerateGeometryError:
            continue
        fq, ft = feature_store.sets[q], feature_store.sets[t]
        if q not in untracked:
            mask = np.ones(len(fq), dtype=bool)
            mask[list(model.tracked(q))] = False
            untracked[q] = np.flatnonzero(mask)
        if t not in indexes:
            indexes[t] = build_index(ft.xy)
        pair_matches.append((q, t, guided_match_pair(
            fq, ft, F, d=d, ratio=ratio, query_indices=untracked[q], index=indexes[t])))

    new_tracks, extensions = merge_tracks(pair_matches, observations)

    added_points = 0
    for track, point in zip(new_tracks, triangulate_refs(model, feature_store.sets, new_tracks)):
        if point is not None:
            model.add_point(point, track)
            added_points += 1
    # components are disjoint, so each extension holds only unowned features
    # of images its track does not observe yet
    grown = sorted(extensions.items())
    extended_tracks = 0
    points = triangulate_refs(model, feature_store.sets,
                              [sorted(model.points[pid].track.items()) + fresh
                               for pid, fresh in grown])
    for (pid, fresh), point in zip(grown, points):
        if point is None:
            continue  # grown track inconsistent, keep the original
        for image_id, feature_id in fresh:
            model.extend_track(pid, image_id, feature_id)
        model.set_position(pid, point)
        extended_tracks += 1

    return {
        "pairs": len(pairs),
        "matches": sum(len(m) for _, _, m in pair_matches),
        "new_points": added_points,
        "extended_tracks": extended_tracks,
    }
