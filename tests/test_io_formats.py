"""OBJ and CSV writers, byte for byte against per-line reference writers."""

import csv
import io

import numpy as np
import pytest

from nilscroll.io_formats import write_curve_csv, write_obj

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


@pytest.mark.parametrize("ns, nt", [(2, 2), (4, 3), (3, 7)])
def test_obj_bytes_match_the_per_line_writer(tmp_path, ns, nt):
    rng = np.random.default_rng(ns * nt)
    vertices = rng.normal(size=(ns * nt, 3)) * 10.0 ** rng.integers(-20, 20, (ns * nt, 3))
    vertices.flat[: len(EDGE_VALUES)] = EDGE_VALUES
    write_obj(tmp_path / "m.obj", vertices, ns, nt)
    got = (tmp_path / "m.obj").read_bytes()
    assert got == reference_obj(vertices, ns, nt)
    assert got.count(b"\nf ") == (ns - 1) * (nt - 1)


@pytest.mark.parametrize("shape", [(6, 2), (6, 4), (5, 3), (18,)])
def test_obj_rejects_a_wrong_vertex_shape(tmp_path, shape):
    with pytest.raises(ValueError, match=r"shape \(6, 3\)"):
        write_obj(tmp_path / "m.obj", np.zeros(shape), 2, 3)
    assert not (tmp_path / "m.obj").exists()


@pytest.mark.parametrize("rows", [
    [(-1.0, None), (-0.0, 5e-324), (0.1, -1e-7), (1e300, None), (2.0, -0.0),
     (np.float64(0.3), 1.0)],
    [],
])
def test_csv_bytes_match_the_csv_module(tmp_path, rows):
    write_curve_csv(tmp_path / "c.csv", rows)
    assert (tmp_path / "c.csv").read_bytes() == reference_csv(rows)
