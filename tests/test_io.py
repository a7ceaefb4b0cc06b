import re

import numpy as np
import pytest

from msfm.errors import FormatError
from msfm.io import (
    read_matchgraph,
    read_model,
    write_matchgraph,
    write_model,
    write_ply,
)
from msfm.matching import build_coarse_matchgraph
from msfm.model import Model

from model_oracles import check_consistency


class TestModelFile:
    def test_empty_model_header_only(self, tmp_path):
        path = tmp_path / "empty.msfm"
        write_model(Model(), path)
        text = path.read_text()
        assert text.startswith("MSFM-MODEL 1")
        loaded = read_model(path)
        assert loaded.cameras == {}
        assert loaded.points == {}

    def test_roundtrip_identity(self, tmp_path, ring_scene):
        model = ring_scene.ground_truth_model()
        p1 = tmp_path / "a.msfm"
        p2 = tmp_path / "b.msfm"
        write_model(model, p1)
        loaded = read_model(p1)
        write_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.image_ids() == model.image_ids()
        assert len(loaded.points) == len(model.points)
        for image_id in model.image_ids():
            assert np.array_equal(loaded.cameras[image_id].R, model.cameras[image_id].R)
            assert np.array_equal(loaded.cameras[image_id].t, model.cameras[image_id].t)
        check_consistency(loaded)

    def test_track_contents_preserved(self, tmp_path, tiny_scene):
        model = tiny_scene.ground_truth_model()
        path = tmp_path / "m.msfm"
        write_model(model, path)
        loaded = read_model(path)
        got = sorted(tuple(sorted(p.track.items())) for p in loaded.points.values())
        expected = sorted(tuple(sorted(p.track.items())) for p in model.points.values())
        assert got == expected

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.msfm"
        path.write_text("NOT-A-MODEL\n")
        with pytest.raises(FormatError):
            read_model(path)

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "bad2.msfm"
        path.write_text("MSFM-MODEL 1\nCAM 0 bad\n")
        with pytest.raises(FormatError, match=":2"):
            read_model(path)

    @pytest.mark.parametrize("kind, damage", [
        ("CAM", lambda line: line + " 0.5"),
        ("CAM", lambda line: line.rsplit(" ", 1)[0]),
        ("PT", lambda line: line + " 7 7"),
        ("PT", lambda line: line + " 7"),
        ("PT", lambda line: line.rsplit(" ", 2)[0]),
        ("STAGE", lambda line: line + " junk 3"),
        ("STAGE", lambda line: "STAGE"),
    ])
    def test_field_count_names_file_and_line(self, tmp_path, tiny_scene, kind, damage):
        # a record's fields are all read: extra or missing ones are an error
        path = tmp_path / "m.msfm"
        write_model(tiny_scene.ground_truth_model(), path)
        lines = path.read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith(kind + " "))
        lines[k] = damage(lines[k])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:{k + 1}: {kind} record")):
            read_model(path)


class TestPly:
    def test_empty_model(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_ply(Model(), path)
        text = path.read_text().splitlines()
        assert text[0] == "ply"
        assert "element vertex 0" in text

    def test_vertex_lines(self, tmp_path, tiny_scene):
        model = tiny_scene.ground_truth_model()
        path = tmp_path / "pts.ply"
        write_ply(model, path)
        lines = path.read_text().splitlines()
        header_end = lines.index("end_header")
        assert len(lines) - header_end - 1 == len(model.points)
        x, y, z, r, g, b = lines[header_end + 1].split()
        assert (int(r), int(g), int(b)) == (128, 128, 128)

    @staticmethod
    def per_vertex_text(model):
        """The PLY text formatted one vertex at a time."""
        pids = model.point_ids()
        lines = ["ply", "format ascii 1.0", f"element vertex {len(pids)}",
                 *(f"property float {axis}" for axis in "xyz"),
                 *(f"property uchar {channel}" for channel in ("red", "green", "blue")),
                 "end_header"]
        for pid in pids:
            x, y, z = model.points[pid].position
            lines.append(f"{x:.6f} {y:.6f} {z:.6f} 128 128 128")
        return "\n".join(lines) + "\n"

    def test_text_equals_per_vertex_format(self, tmp_path, tiny_scene):
        # magnitudes 1e-8 to 1e8 of both signs, signed zeros and values that
        # round half-way at six decimals
        model = tiny_scene.ground_truth_model()
        rng = np.random.default_rng(4)
        magnitudes = 10.0 ** np.arange(-8, 9) * rng.uniform(1.0, 10.0, 17)
        values = np.concatenate([magnitudes, -magnitudes, [-0.0, 0.0, 5e-7, -5e-7, 0.0000125]])
        pids = model.point_ids()
        for k, pid in enumerate(pids[:len(values)]):
            model.set_position(pid, np.roll(values, k)[:3])
        for m in (model, Model()):
            path = tmp_path / "pts.ply"
            write_ply(m, path)
            assert path.read_text() == self.per_vertex_text(m)


class TestMatchGraphFile:
    def test_roundtrip(self, tmp_path, tiny_scene):
        store = tiny_scene.store()
        graph = build_coarse_matchgraph(store.sets)
        path = tmp_path / "graph.txt"
        write_matchgraph(graph, path)
        loaded = read_matchgraph(path)
        assert sorted(loaded.edges) == sorted(graph.edges)
        for key in graph.edges:
            e1, e2 = graph.edges[key], loaded.edges[key]
            assert len(e1.matches) == len(e2.matches)
            assert np.array_equal(e1.inlier_mask, e2.inlier_mask)
            assert np.allclose(e1.F, e2.F)
        # ids, distances and ratios survive the text form bit for bit
        again = tmp_path / "again.txt"
        write_matchgraph(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_bad_graph_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("whatever\n")
        with pytest.raises(FormatError):
            read_matchgraph(path)

    @pytest.mark.parametrize("damage, line", [
        (lambda lines: lines[:10], 10),  # cut off inside the first edge's matches
        (lambda lines: lines[:4] + [lines[4].replace(".", "x", 1)] + lines[5:], 5),
        (lambda lines: lines[:1] + [lines[1] + " 99"] + lines[2:], 2),  # extra EDGE field
        (lambda lines: lines[:1] + [lines[1].rsplit(" ", 1)[0]] + lines[2:], 2),
    ])
    def test_malformed_edge_names_file_and_line(self, tmp_path, tiny_scene, damage, line):
        path = tmp_path / "graph.txt"
        write_matchgraph(build_coarse_matchgraph(tiny_scene.store().sets), path)
        lines = path.read_text().splitlines()
        assert lines[1].startswith("EDGE") and lines[2].startswith("F ")
        path.write_text("\n".join(damage(lines)) + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:{line}: ")):
            read_matchgraph(path)
