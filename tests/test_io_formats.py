"""OBJ, CSV and JSON writers, byte for byte against reference writers."""

import csv
import io
import json

import numpy as np
import pytest

from nilscroll.errors import NumericFailure
from nilscroll.io_formats import json_text, obj_texts, write_curve_csv, write_obj

EDGE_VALUES = [-0.0, 5e-324, 1e300, 1.0, -1e-7, 0.1, -2.5e-310, 123456789.125]


def fmt17(x):
    return format(float(x), ".17g")


def reference_obj(vertices, ns, nt):
    """The per-line writer: one f-string per vertex and a loop over the cells."""
    lines = [f"v {fmt17(v[0])} {fmt17(v[1])} {fmt17(v[2])}" for v in vertices]
    for i in range(ns - 1):
        for j in range(nt - 1):
            a = i * nt + j + 1
            lines.append(f"f {a} {a + 1} {a + nt + 1} {a + nt}")
    return ("\n".join(lines) + "\n").encode()


def reference_csv(rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(["s", "t"])
    for s, t in rows:
        w.writerow([fmt17(s), "" if t is None else fmt17(t)])
    return buf.getvalue().encode()


def edge_mesh(rng, n):
    """n random vertices of wide magnitude, each column led by EDGE_VALUES."""
    vertices = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-20, 20, (n, 3))
    vertices[: len(EDGE_VALUES)] = np.array(EDGE_VALUES)[:n, None]
    return vertices


@pytest.mark.parametrize("ns, nt", [(2, 2), (4, 3), (3, 7)])
def test_obj_bytes_match_the_per_line_writer(tmp_path, ns, nt):
    rng = np.random.default_rng(ns * nt)
    a, b, c = (edge_mesh(rng, ns * nt) for _ in range(3))
    b[:, :2] = a[:, :2]  # shares x1, x2 with a, as the Nil_3 mesh does with L^3's
    c[:, :2] = a[:, 1::-1]  # a's x1, x2 swapped: the same numbers, no shared column
    meshes = [a, b, c, a]
    for i, text in enumerate(obj_texts(meshes, ns, nt)):
        write_obj(tmp_path / f"m{i}.obj", text)
    for i, vertices in enumerate(meshes):
        got = (tmp_path / f"m{i}.obj").read_bytes()
        assert got == reference_obj(vertices, ns, nt)
        assert got.count(b"\nf ") == (ns - 1) * (nt - 1)


@pytest.mark.parametrize("shape", [(6, 2), (6, 4), (5, 3), (18,)])
def test_obj_rejects_a_wrong_vertex_shape(tmp_path, shape):
    # every mesh is checked before the first text
    with pytest.raises(ValueError, match=r"shape \(6, 3\)"):
        for text in obj_texts([np.zeros((6, 3)), np.zeros(shape)], 2, 3):
            write_obj(tmp_path / "m.obj", text)
    assert not (tmp_path / "m.obj").exists()


@pytest.mark.parametrize("rows", [
    [(-1.0, None), (-0.0, 5e-324), (0.1, -1e-7), (1e300, None), (2.0, -0.0),
     (np.float64(0.3), 1.0)],
    [],
])
def test_csv_bytes_match_the_csv_module(tmp_path, rows):
    s = np.array([x for x, _ in rows], dtype=float)
    t = np.array([np.nan if y is None else y for _, y in rows], dtype=float)
    write_curve_csv(tmp_path / "c.csv", s, t)
    assert (tmp_path / "c.csv").read_bytes() == reference_csv(rows)


def test_json_text_holds_only_finite_numbers():
    payload = {"b": [1.0, {"y": 2.5, "x": -0.0}], "a": "nan", "c": None}
    assert json_text(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    # the first non-finite number in key order is named by its path
    payload["b"][1].update(z=float("nan"), w=-float("inf"))
    with pytest.raises(NumericFailure, match="^non-finite report value /b/1/w = -inf$"):
        json_text(payload)
