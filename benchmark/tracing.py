"""Outside-in layer tracing for the benchmark's traced round.

``Tracer.install`` wraps public functions of ``msfm`` from outside: every
binding of a wrapped function in a loaded ``msfm`` module (including names
imported with ``from .x import y``) is replaced, and ``uninstall`` puts the
originals back.  The program's source is not touched.

Spans are ``[name, start, end, parent index]`` rows kept in memory and
exported once the round ends.  Stage spans are ``match``, ``coarse``,
``localize`` and ``densify``; spans and counters of the functions called
inside a stage are named after the innermost open stage, e.g.
``coarse.resection`` for ``pnp_ransac`` during the coarse stage and
``localize.resection`` during camera addition.

Descriptor comparisons come from a ``SearchStats`` per stage, passed through
the ``stats=`` parameter of ``hybrid_match`` and ``guided_match_pair``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

STAGES = ("match", "coarse", "localize", "densify")

# per-layer metric -> (kind, key): "span" sums the durations of spans named
# key, "self" is a stage span minus its direct children, "count" reads a
# counter, "search" reads (stage, field) of the stage's SearchStats
LAYER_METRICS = {
    "match.s": ("span", "match"),
    "match.pairs": ("count", "match.pairs"),
    "match.edges": ("count", "match.edges"),
    "match.knn_s": ("span", "match.knn"),
    "match.comparisons": ("search", ("match", "candidates")),
    "match.ransac_s": ("span", "match.ransac"),
    "match.hypotheses": ("count", "match.hypotheses"),
    "coarse.s": ("span", "coarse"),
    "coarse.resection_s": ("span", "coarse.resection"),
    "coarse.resections": ("count", "coarse.resections"),
    "coarse.resection_hypotheses": ("count", "coarse.resection_hypotheses"),
    "coarse.ba_s": ("span", "coarse.ba"),
    "coarse.ba_iters": ("count", "coarse.ba_iters"),
    "coarse.triangulate_s": ("span", "coarse.triangulate"),
    "coarse.self_s": ("self", "coarse"),
    "localize.s": ("span", "localize"),
    "localize.attempted": ("count", "localize.attempted"),
    "localize.registered": ("count", "localize.registered"),
    "localize.direct_s": ("span", "localize.direct"),
    "localize.ranked_s": ("span", "localize.ranked"),
    "localize.resection_s": ("span", "localize.resection"),
    "localize.resection_hypotheses": ("count", "localize.resection_hypotheses"),
    "localize.correspondences": ("count", "localize.correspondences"),
    "densify.s": ("span", "densify"),
    "densify.pairs": ("count", "densify.pairs"),
    "densify.groups": ("count", "densify.groups"),
    "densify.queries": ("search", ("densify", "queries")),
    "densify.comparisons": ("search", ("densify", "candidates")),
    "densify.matches": ("count", "densify.matches"),
    "densify.guided_s": ("span", "densify.guided"),
    "densify.merge_s": ("span", "densify.merge"),
    "densify.triangulate_s": ("span", "densify.triangulate"),
    "densify.triangulations": ("count", "densify.triangulations"),
    "densify.new_points": ("count", "densify.new_points"),
    "densify.self_s": ("self", "densify"),
    "stats.s": ("span", "stats"),
    "stats.calls": ("count", "stats.calls"),
    "io.load_s": ("span", "io.load"),
    "io.write_s": ("span", "io.write"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.search: dict[str, object] = {}
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def stage(self) -> str:
        for idx in reversed(self._open):
            if self.spans[idx][0] in STAGES:
                return self.spans[idx][0]
        return "other"

    # -- wrapper factories ------------------------------------------------

    def _stage(self, name, after=None):
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = fn(*args, **kwargs)
                if after is not None:
                    after(name, result)
                return result
            return wrapper
        return wrap

    def _child(self, name, count=None, after=None, search=False):
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stage = self.stage()
                if search and kwargs.get("stats") is None:
                    kwargs["stats"] = self._search_stats(stage)
                if count is not None:
                    self.counters[f"{stage}.{count}"] += 1
                with self.span(f"{stage}.{name}"):
                    result = fn(*args, **kwargs)
                if after is not None:
                    after(stage, result)
                return result
            return wrapper
        return wrap

    def _counter(self, name, amount=None):
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.counters[f"{self.stage()}.{name}"] += 1 if amount is None else amount(result)
                return result
            return wrapper
        return wrap

    def _search_stats(self, stage: str):
        from msfm.descriptors import SearchStats

        return self.search.setdefault(stage, SearchStats())

    def _add(self, **fields):
        """After-hook adding result-derived amounts to ``<stage>.<field>``."""
        def after(stage, result):
            for key, amount in fields.items():
                self.counters[f"{stage}.{key}"] += amount(result)
        return after

    # -- install / uninstall ----------------------------------------------

    def _replace(self, module, attr: str, wrapper) -> None:
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("msfm"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, original))

    def install(self) -> None:
        import msfm.pipeline  # noqa: F401  (loads every module a run uses)
        from msfm import ba, densify, geometry, guided, io, localize, matching, model, reconstruct
        from msfm.features import FeatureStore

        plan = [
            (matching, "build_coarse_matchgraph",
             self._stage("match", self._add(edges=lambda g: len(g.edges)))),
            (matching, "hybrid_match", self._child("knn", count="pairs", search=True)),
            (geometry, "estimate_fundamental_ransac", self._child("ransac")),
            (geometry, "eight_point", self._counter("hypotheses")),
            (reconstruct, "incremental_reconstruct", self._stage("coarse")),
            (reconstruct, "pnp_ransac", self._child("resection", count="resections")),
            (reconstruct, "dlt_pose", self._counter("resection_hypotheses")),
            (ba, "bundle_adjust",
             self._child("ba", after=self._add(ba_iters=lambda s: s.iterations))),
            (geometry, "triangulate_track", self._child("triangulate", count="triangulations")),
            (localize, "localize_all", self._stage("localize", self._add(
                attempted=lambda r: len(r[1]),
                registered=lambda r: len(r[0]),
                correspondences=lambda r: sum(len(x.correspondences) for x in r[1])))),
            (localize, "direct_3d2d_search", self._child("direct")),
            (localize, "ranked_2d2d_search", self._child("ranked")),
            (densify, "densify_stage", self._stage("densify", self._add(
                pairs=lambda s: s["pairs"], matches=lambda s: s["matches"],
                new_points=lambda s: s["new_points"]))),
            (guided, "guided_match_pair", self._child("guided", search=True)),
            (guided, "group_queries", self._counter("groups", amount=len)),
            (densify, "merge_tracks", self._child("merge")),
            (model, "model_stats", self._stage("stats", self._add(calls=lambda _: 1))),
            (io, "write_model", self._stage("io.write")),
            (io, "write_ply", self._stage("io.write")),
        ]
        for module, attr, make in plan:
            self._replace(module, attr, make(getattr(module, attr)))
        load_dir = FeatureStore.__dict__["load_dir"]
        self._patched.append((FeatureStore, "load_dir", load_dir))
        FeatureStore.load_dir = classmethod(self._stage("io.load")(load_dir.__func__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "search": {k: {"queries": v.queries, "candidates": v.candidates}
                       for k, v in self.search.items()},
        }


def layer_metrics(trace: dict) -> dict[str, float]:
    """Every per-layer metric from an exported trace; idle layers read 0."""
    spans = trace["spans"]
    totals: dict[str, float] = defaultdict(float)
    children: dict[int, float] = defaultdict(float)
    for name, start, end, parent in spans:
        totals[name] += end - start
        if parent >= 0:
            children[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _) in enumerate(spans):
        if name in STAGES:
            self_time[name] += (end - start) - children[idx]
    out = {}
    for metric, (kind, key) in LAYER_METRICS.items():
        if kind == "span":
            out[metric] = totals.get(key, 0.0)
        elif kind == "self":
            out[metric] = self_time.get(key, 0.0)
        elif kind == "count":
            out[metric] = trace["counters"].get(key, 0)
        else:
            stage, field = key
            out[metric] = trace["search"].get(stage, {}).get(field, 0)
    return out
