"""Command-line entry points.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 stage failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import PipelineConfig, coerce_value, field_kinds, load_config, read_key_values
from .descriptors import SearchStats
from .errors import ConfigError, FormatError, MsfmError
from .evaluate import align_models
from .features import DEFAULT_ETA, FeatureStore, load_features, scale_coverage, select_top_scale
from .geometry import fundamental_from_poses
from .guided import guided_match_pair
from .io import (
    read_matchgraph,
    read_model,
    write_matchgraph,
    write_model,
    write_ply,
)
from .model import Model, model_stats
from .pipeline import (
    localization_lines,
    run_coarse,
    run_densify,
    run_localize,
    run_match,
    run_pipeline,
)
from .synth import SceneSpec, generate_scene, write_scene


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.allow_abbrev = False  # so that --iteration is not --iterations
    parser.add_argument("--config", help="key=value config file")
    for name, kind in field_kinds(PipelineConfig).items():
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, choices=["on", "off"], default=None)
        else:
            parser.add_argument(flag, type=str, default=None)


def _build_config(args) -> PipelineConfig:
    """Defaults, then the --config file, then flags; both parse values alike."""
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        cfg = load_config(args.config, cfg)
    for name, kind in field_kinds(PipelineConfig).items():
        raw = getattr(args, name, None)
        if raw is not None:
            setattr(cfg, name, coerce_value(name, raw, kind))
    return cfg.validate()


def cmd_synth(args) -> int:
    spec = SceneSpec()
    if args.spec:
        spec = SceneSpec(**read_key_values(Path(args.spec).read_text(), field_kinds(SceneSpec)))
    scene = generate_scene(spec)
    write_scene(scene, args.out)
    for w in scene.warnings:
        print(f"warning: {w}")
    print(f"wrote {len(scene.feature_sets)} feature files to {args.out}")
    return 0


def cmd_features_validate(args) -> int:
    fs = load_features(args.path)
    print(f"image_id={fs.image_id} width={fs.width} height={fs.height} "
          f"count={len(fs)} scale_max={fs.scale[0] if len(fs) else 0:.3f}")
    return 0


def cmd_features_stats(args) -> int:
    eta = PipelineConfig(eta=args.eta).validate().eta
    store = FeatureStore.load_dir(args.dir)
    for image_id in store.image_ids():
        fs = select_top_scale(store[image_id], eta)
        cov = scale_coverage(fs, eta) if len(fs) else 0.0
        print(f"image={image_id} features={len(fs)} tier={fs.coarse_count} "
              f"scale_coverage={cov:.3f}")
    return 0


def cmd_match(args) -> int:
    cfg = _build_config(args)
    graph = run_match(cfg, FeatureStore.load_dir(args.features))
    write_matchgraph(graph, args.out)
    print(f"edges={len(graph.edges)} out={args.out}")
    return 0


def cmd_coarse(args) -> int:
    cfg = _build_config(args)
    store = FeatureStore.load_dir(args.features)
    graph = _read_checked(read_matchgraph, args.graph, store, args.features)
    model = run_coarse(cfg, store, graph)
    write_model(model, args.out)
    print(" ".join(model_stats(model, store).lines()))
    return 0


def _read_checked(read, path, store: FeatureStore, features_dir):
    """``read(path)``, a model or a match graph, checked against the features.

    FormatError names the first image without a feature file or the first
    ``image:feature`` ref beyond its image's features.
    """
    data = read(path)
    if isinstance(data, Model):
        refs = [(i, list(data.tracked(i))) for i in data.image_ids()]
    else:
        refs = [(i, ids) for (a, b), edge in sorted(data.edges.items())
                for i, ids in ((a, edge.matches.query), (b, edge.matches.target))]
    for image_id, ids in refs:
        n = len(store[image_id]) if image_id in store else 0
        ids = np.asarray(ids, dtype=np.int64)
        bad = ids[(ids < 0) | (ids >= n)]
        if image_id not in store or len(bad):
            ref = f"{image_id}:{bad.min()}" if len(bad) else f"image {image_id}"
            raise FormatError(f"{path}: {ref} is not a feature in {features_dir} "
                              f"(image {image_id} has {n} features)")
    return data


def cmd_localize(args) -> int:
    cfg = _build_config(args)
    store = FeatureStore.load_dir(args.features)
    model = _read_checked(read_model, args.model, store, args.features)
    graph = _read_checked(read_matchgraph, args.graph, store, args.features)
    iteration, newly, results = run_localize(cfg, store, model, graph)
    write_model(model, args.out)
    if args.report:
        lines = localization_lines(results, iteration)
        Path(args.report).write_text("\n".join(lines) + "\n" if lines else "")
    print(f"localized={len(newly)} out={args.out}")
    return 0


def cmd_densify(args) -> int:
    cfg = _build_config(args)
    store = FeatureStore.load_dir(args.features)
    model = _read_checked(read_model, args.model, store, args.features)
    summary = run_densify(cfg, store, model)
    write_model(model, args.out)
    print(" ".join(f"{k}={v}" for k, v in sorted(summary.items())))
    return 0


def cmd_run(args) -> int:
    cfg = _build_config(args)
    result = run_pipeline(cfg, args.features, out_dir=args.out)
    sys.stdout.write(result.report_text())
    return 0


def cmd_eval(args) -> int:
    estimated = read_model(args.model)
    reference = read_model(args.reference)
    report = align_models(estimated, reference)
    print(" ".join(report.lines()))
    return 0


def cmd_export_ply(args) -> int:
    model = read_model(args.model)
    write_ply(model, args.out)
    print(f"points={len(model.points)} out={args.out}")
    return 0


def cmd_bench_guided(args) -> int:
    cfg = _build_config(args)
    store = FeatureStore.load_dir(args.features)
    model = _read_checked(read_model, args.model, store, args.features)
    pairs = []
    for lineno, line in enumerate(Path(args.pairs).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{args.pairs}:{lineno}"
        try:
            a, b = (int(v) for v in line.split())
        except ValueError:
            raise FormatError(f"{where}: expected two image ids, got {line!r}") from None
        missing = [i for i in (a, b) if i not in model.cameras]
        if missing:
            raise FormatError(f"{where}: image {missing[0]} has no camera in {args.model}")
        pairs.append((a, b))
    for a, b in pairs:
        F = fundamental_from_poses(model.cameras[a], model.cameras[b])
        stats = SearchStats()
        t0 = time.perf_counter()
        matches = guided_match_pair(
            store[a], store[b], F, d=cfg.d, ratio=cfg.ratio_guided, stats=stats)
        dt = (time.perf_counter() - t0) * 1000.0
        print(f"pair={a},{b} time_ms={dt:.2f} "
              f"comparisons={stats.candidates} matches={len(matches)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msfm",
        description="coarse-to-fine multistage structure-from-motion toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--spec", help="scene spec file (key=value)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="inspect feature files")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    pv = fsub.add_parser("validate")
    pv.add_argument("path")
    pv.set_defaults(func=cmd_features_validate)
    ps = fsub.add_parser("stats")
    ps.add_argument("dir")
    ps.add_argument("--eta", type=float, default=DEFAULT_ETA)
    ps.set_defaults(func=cmd_features_stats)

    p = sub.add_parser("match", help="build the coarse match graph")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("coarse", help="incremental reconstruction of the coarse graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_coarse)

    p = sub.add_parser("localize", help="register remaining images to a model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    _add_config_flags(p)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("densify", help="guided matching and triangulation")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_densify)

    p = sub.add_parser("run", help="full multistage pipeline")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="align two models and report camera errors")
    p.add_argument("--model", required=True)
    p.add_argument("--reference", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-ply", help="write a model's point cloud as PLY")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_ply)

    p = sub.add_parser("bench", help="benchmarks")
    bsub = p.add_subparsers(dest="subcommand", required=True)
    pg = bsub.add_parser("guided")
    pg.add_argument("--features", required=True)
    pg.add_argument("--pairs", required=True)
    pg.add_argument("--model", required=True, help="model file providing the poses")
    _add_config_flags(pg)
    pg.set_defaults(func=cmd_bench_guided)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except MsfmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
