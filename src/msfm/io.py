"""Serialization: model files, PLY point clouds, match-graph dumps.

Model file (line oriented, whitespace separated):

    MSFM-MODEL 1
    STAGE <tag>
    CAM <image_id> <f> <cx> <cy> <r11 .. r33 row-major> <t1 t2 t3>
    PT <x> <y> <z> <track_len> <image_id> <feature_id> ...

Floats are written with repr precision so a rewrite of an unchanged model or
match graph is byte-identical.  A record with more or fewer fields than its
kind takes is a FormatError naming the file and line.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import FormatError, MsfmError
from .matching import Edge, Matches, MatchGraph
from .model import Camera, Model, make_intrinsics

MODEL_MAGIC = "MSFM-MODEL 1"
PLY_COLOR = (128, 128, 128)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_model(model: Model, path, *, body: str | None = None) -> str:
    """Write ``model`` to ``path``; returns the CAM and PT lines written.

    ``body``, what an earlier call returned for the model at the same
    ``Model.revision``, is written in place of formatting the cameras and
    points again.
    """
    if body is None:
        # repr of the Python floats that ``tolist`` gives is ``_fmt``'s text
        lines = []
        for image_id in model.image_ids():
            cam = model.cameras[image_id]
            values = cam.K[[0, 0, 1], [0, 2, 2]].tolist() + cam.R.ravel().tolist() + cam.t.tolist()
            lines.append(f"CAM {image_id} {' '.join(map(repr, values))}\n")
        for pid in model.point_ids():
            point = model.points[pid]
            parts = [*map(repr, point.position.tolist()), str(len(point.track))]
            parts += [f"{i} {point.track[i]}" for i in sorted(point.track)]
            lines.append(f"PT {' '.join(parts)}\n")
        body = "".join(lines)
    stage = f"STAGE {model.stage_tag}\n" if model.stage_tag else ""
    Path(path).write_text(f"{MODEL_MAGIC}\n{stage}{body}")
    return body


def read_model(path) -> Model:
    text = Path(path).read_text().splitlines()
    if not text or text[0].strip() != MODEL_MAGIC:
        raise FormatError(f"{path}: missing '{MODEL_MAGIC}' header")
    model = Model()
    for lineno, line in enumerate(text[1:], start=2):
        fields = line.split()
        if not fields:
            continue
        kind = fields[0]
        try:
            if kind == "STAGE":
                if len(fields) != 2:
                    raise FormatError(f"{path}:{lineno}: STAGE record has {len(fields)} "
                                      "fields, not 2")
                model.stage_tag = fields[1]
            elif kind == "CAM":
                if len(fields) != 17:
                    raise FormatError(f"{path}:{lineno}: CAM record has {len(fields)} "
                                      "fields, not 17")
                image_id = int(fields[1])
                f, cx, cy = (float(v) for v in fields[2:5])
                R = np.array([float(v) for v in fields[5:14]]).reshape(3, 3)
                t = np.array([float(v) for v in fields[14:17]])
                model.attach_camera(Camera(K=make_intrinsics(f, cx, cy), R=R, t=t,
                                           image_id=image_id))
            elif kind == "PT":
                pos = np.array([float(v) for v in fields[1:4]])
                n = int(fields[4])
                if len(fields) != 5 + 2 * n:
                    raise FormatError(f"{path}:{lineno}: PT record of track length {n} has "
                                      f"{len(fields)} fields, not {5 + 2 * n}")
                ids = [int(v) for v in fields[5:]]
                model.add_point(pos, zip(ids[::2], ids[1::2]))
            else:
                raise FormatError(f"{path}:{lineno}: unknown record '{kind}'")
        except FormatError:
            raise
        except (ValueError, IndexError, MsfmError) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return model


def write_ply(model: Model, path) -> None:
    """ASCII PLY point cloud of the model's points."""
    pids = model.point_ids()
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(pids)}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    # one % over every vertex; "%.6f" formats as the f-string spec ":.6f" does
    vertex = "%.6f %.6f %.6f " + " ".join(map(str, PLY_COLOR)) + "\n"
    xyz = [c for pid in pids for c in model.points[pid].position.tolist()]
    Path(path).write_text("\n".join(header) + "\n" + vertex * len(pids) % tuple(xyz))


def write_matchgraph(graph: MatchGraph, path) -> None:
    lines = ["MSFM-GRAPH 1"]
    for (a, b) in sorted(graph.edges):
        edge = graph.edges[(a, b)]
        m = edge.matches
        lines.append(f"EDGE {a} {b} {len(m)} {int(edge.inlier_mask.sum())}")
        if edge.F is not None:
            lines.append("F " + " ".join(_fmt(v) for v in edge.F.reshape(-1)))
        lines += [f"{q} {t} {_fmt(d)} {_fmt(r)} {int(flag)}"
                  for q, t, d, r, flag in zip(m.query.tolist(), m.target.tolist(),
                                              m.distance.tolist(), m.ratio.tolist(),
                                              edge.inlier_mask.tolist())]
    Path(path).write_text("\n".join(lines) + "\n")


def read_matchgraph(path) -> MatchGraph:
    text = Path(path).read_text().splitlines()
    if not text or text[0].strip() != "MSFM-GRAPH 1":
        raise FormatError(f"{path}: missing 'MSFM-GRAPH 1' header")
    graph = MatchGraph()
    lineno = 1  # of the line last read
    try:
        while lineno < len(text):
            fields = text[lineno].split()
            lineno += 1
            if not fields:
                continue
            if fields[0] != "EDGE" or len(fields) != 5:
                raise FormatError(f"{path}:{lineno}: expected an EDGE record of 5 fields")
            a, b, n_matches, n_inliers = (int(v) for v in fields[1:5])
            edge_line = lineno
            if a >= b:
                raise FormatError(f"{path}:{lineno}: edge {a} {b} is not an ascending pair")
            if (a, b) in graph.edges:
                raise FormatError(f"{path}:{lineno}: edge {a} {b} is repeated")
            F = None
            if lineno < len(text) and text[lineno].startswith("F "):
                lineno += 1
                F = np.array([float(v) for v in text[lineno - 1].split()[1:]]).reshape(3, 3)
            if lineno + n_matches > len(text):
                raise FormatError(f"{path}:{len(text)}: file ends inside edge {a} {b} "
                                  f"of {n_matches} matches")
            ids = np.zeros((2, n_matches), dtype=np.int64)
            values = np.zeros((2, n_matches))
            mask = np.zeros(n_matches, dtype=bool)
            for k in range(n_matches):
                lineno += 1
                qf, tf, dist, ratio, flag = text[lineno - 1].split()
                ids[:, k] = int(qf), int(tf)
                values[:, k] = float(dist), float(ratio)
                mask[k] = flag == "1"
            n_flags = int(mask.sum())
            if n_flags != n_inliers:
                raise FormatError(f"{path}:{edge_line}: edge {a} {b} has {n_flags} "
                                  f"inlier flags, not {n_inliers}")
            matches = Matches(query=ids[0], target=ids[1], distance=values[0], ratio=values[1])
            graph.edges[(a, b)] = Edge(matches=matches, inlier_mask=mask, F=F)
    except ValueError as exc:
        raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return graph
