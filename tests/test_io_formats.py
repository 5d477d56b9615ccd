"""OBJ, CSV and JSON writers, byte for byte against reference writers."""

import csv
import io
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilscroll import io_formats
from nilscroll.errors import NumericFailure, OutputError
from nilscroll.io_formats import json_text, write_curve_csv, write_objs

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
    """n random vertices, each column led by EDGE_VALUES: every other row of
    wide magnitude (mostly exponent forms and subnormals, which '%.17g'
    formats itself), the rest in (-3, 3) (positional texts)."""
    vertices = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-20, 20, (n, 3))
    vertices[1::2] = rng.uniform(-3.0, 3.0, (n // 2, 3))
    vertices[: len(EDGE_VALUES)] = np.array(EDGE_VALUES)[:n, None]
    return vertices


@pytest.fixture
def columns(monkeypatch):
    """The number of columns of each vertex call of io_formats._lines, in order."""
    widths = []
    original = io_formats._lines

    def counted(head, x, *args):
        if head == b"v ":
            widths.append(x.shape[1])
        return original(head, x, *args)

    monkeypatch.setattr(io_formats, "_lines", counted)
    return widths


@pytest.mark.parametrize("ns, nt", [(2, 2), (4, 3), (3, 7), (40, 30)])
def test_obj_bytes_match_the_per_line_writer(tmp_path, columns, ns, nt):
    rng = np.random.default_rng(ns * nt)
    a, b, c = (edge_mesh(rng, ns * nt) for _ in range(3))
    a[-1, 0] = 0.0  # a's x1 holds both zeros: -0.0 leads it
    b[:, :2] = a[:, :2]  # shares x1, x2 with a, as the Nil_3 mesh does with L^3's
    c[:, :2] = a[:, 1::-1]  # a's x1, x2 swapped: the same numbers, no shared column
    d = a.copy()
    d[:, 0] = np.where(a[:, 0] == 0.0, -a[:, 0], a[:, 0])  # == a's x1, but not bitwise
    chunks = ns * nt // io_formats._ROWS + 1
    # x1, x2 are formatted once per chunk only when every mesh has them bitwise
    for meshes, width in [([a, b, c, a, d], 15), ([a, b, a], 5), ([a, d], 6)]:
        columns.clear()
        paths = [tmp_path / f"m{i}.obj" for i in range(len(meshes))]
        write_objs(paths, meshes, ns, nt)
        for path, vertices in zip(paths, meshes):
            got = path.read_bytes()
            assert got == reference_obj(vertices, ns, nt)
            assert got.count(b"\nf ") == (ns - 1) * (nt - 1)
        assert columns == [width] * chunks
    # d's x1 prints as -0 where a's prints as 0
    assert b"\nv -0 " in (tmp_path / "m1.obj").read_bytes()
    assert b"\nv 0 " in (tmp_path / "m0.obj").read_bytes()
    # 40x30 spans chunk boundaries in both the vertices (1,200 rows) and the faces (1,131)
    assert (ns - 1) * (nt - 1) < io_formats._ROWS or (ns - 1) * (nt - 1) > 2 * io_formats._ROWS


def writing_peak(tmp_path, ns=400, nt=100):
    """The tracemalloc peak, in bytes, of writing both OBJ files of an ns x
    nt mesh pair that shares x1, x2, as `surface --target both` does."""
    rng = np.random.default_rng(42)
    l3 = rng.normal(size=(ns * nt, 3))
    nil3 = l3.copy()
    nil3[:, 2] = rng.normal(size=ns * nt)
    tracemalloc.start()
    try:
        write_objs([tmp_path / "m_l3.obj", tmp_path / "m_nil3.obj"], [l3, nil3], ns, nt)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


WRITING_PEAK_BOUND = 1.5e6  # bytes, for 400 x 100; a writer that holds a file's text needs several MB


def test_writing_memory_does_not_grow_with_the_grid(tmp_path):
    assert writing_peak(tmp_path) <= WRITING_PEAK_BOUND


def test_writing_memory_bound_catches_faces_formatted_in_one_block(tmp_path, monkeypatch):
    # negative control: the same writer, with every face of the grid formatted
    # in one kernel call and held while the files are written
    original, held = io_formats._lines, []

    def one_block(head, x, seps):
        if head == b"f " and not held:
            f = np.arange(399 * 99)[:, None]
            held.append(original(head, f * 100 // 99 + [1, 2, 102, 101], seps))
        return original(head, x, seps)

    monkeypatch.setattr(io_formats, "_lines", one_block)
    assert writing_peak(tmp_path) > WRITING_PEAK_BOUND
    assert held


def test_output_set_removes_only_what_it_did_not_rename(tmp_path, monkeypatch):
    removed = []
    monkeypatch.setattr(io_formats.os, "remove", removed.append)
    with io_formats.output_set() as stage:
        for name in ("a", "b"):
            with open(stage(tmp_path / name), "w") as fh:
                fh.write(name)
    assert removed == [] and sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]
    with pytest.raises(OutputError, match="the body failed"), io_formats.output_set() as stage:
        with open(stage(tmp_path / "c"), "w") as fh:
            fh.write("c")
        raise OSError("the body failed")
    assert [os.path.basename(p).split(".")[0] for p in removed] == ["c"]  # the temporary


@pytest.mark.parametrize("shape", [(6, 2), (6, 4), (5, 3), (18,)])
def test_obj_rejects_a_wrong_vertex_shape(tmp_path, shape):
    # every mesh is checked before a file is opened
    with pytest.raises(ValueError, match=r"shape \(6, 3\)"):
        write_objs([tmp_path / "a.obj", tmp_path / "b.obj"], [np.zeros((6, 3)), np.zeros(shape)], 2, 3)
    assert list(tmp_path.iterdir()) == []


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


def kernel_texts(values):
    """'%.17g' % x of each value, by the array kernel."""
    L, K = io_formats._lines(b"", np.asarray(values, dtype=float).reshape(-1, 1), b"\n")
    return L[K].tobytes().decode().split("\n")[:-1]


def ties():
    """Dyadic values with 18 significant digits, the last a 5 (17-digit
    rounding ties such as 1234567890123456.75 -> ...56.8, ...56.25 -> ...56.2),
    and with 19 (just off a tie)."""
    rng = np.random.default_rng(0)
    out = [1234567890123456.75, 1234567890123456.25]
    for digits, j in ((16, 2), (15, 3), (14, 4), (13, 5), (15, 4), (14, 5)):
        n = rng.integers(10 ** (digits - 1), min(10**digits, 2 ** (53 - j)), 200)
        odd = 2 * rng.integers(0, 2 ** (j - 1), 200) + 1
        for sign in (1.0, -1.0):
            out += (sign * (n + odd / 2.0**j)).tolist()
    return out


FIXED = [1e-4, 9.9999999999999991e-05, 1e16, 1e17, 99999999999999999.0, 2.0**53 - 1, 2.0**53,
         2.0**53 + 2, 0.0, -0.0, 5e-324, -5e-324, float("inf"), -float("inf"), float("nan"),
         *(np.nextafter(10.0**k, d) for k in range(-6, 19) for d in (0.0, np.inf)),
         *(10.0**k for k in range(-6, 19))]


def test_kernel_matches_percent_g_on_ties_and_edges():
    values = ties() + FIXED + [-x for x in FIXED]
    assert kernel_texts(values) == ["%.17g" % x for x in values]
    assert kernel_texts([1234567890123456.75, 1234567890123456.25]) == [
        "1234567890123456.8", "1234567890123456.2"]


def test_rounding_half_up_fails_the_ties(monkeypatch):
    # negative control: the tie cases tell half to even from half up
    monkeypatch.setattr(np, "rint", lambda e: np.floor(e + 0.5))
    values = ties()
    assert kernel_texts(values) != ["%.17g" % x for x in values]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.floats() | st.integers(0, 2**64 - 1).map(
    lambda bits: np.array(bits, np.uint64).view(np.float64).item()), min_size=1, max_size=40))
def test_kernel_matches_percent_g(values):
    assert kernel_texts(values) == ["%.17g" % x for x in values]


def dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# strings with every kind of escape: non-ASCII, quotes, backslashes, control
# characters and the %-signs of a row template
TEXT = st.text() | st.sampled_from(["", "\u00e9\u20ac\U0001f600", '"q"', "back\\slash", "%r %s %%",
                                    "tab\tnew\nline\x00"])
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | TEXT


@st.composite
def row_tables(draw):
    """Lists of rows with the same keys, each value a float or a list of
    floats of one length: the tables formatted in one pass."""
    shape = draw(st.dictionaries(TEXT, st.integers(0, 4), min_size=1, max_size=5))
    return draw(st.lists(st.fixed_dictionaries(
        {k: st.lists(FLOATS, min_size=n, max_size=n) if n else FLOATS for k, n in shape.items()}),
        min_size=1, max_size=6))


PAYLOADS = st.recursive(SCALARS | row_tables(), lambda inner: (
    st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4)), max_leaves=30)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(PAYLOADS)
def test_json_text_is_json_dumps(payload):
    assert json_text(payload) == dumps(payload)


def frame_rows(n=5):
    return [{"s": 0.1 * i, "A": [1.0, -0.0, 1e-300 * i], "B": [2.5, 3.0, i + 0.5],
             "worst_residual": 1e-15} for i in range(n)]


@pytest.mark.parametrize("spoil", [
    lambda rows: rows,  # a table
    lambda rows: rows[2]["A"].append(1.0),  # ragged list lengths
    lambda rows: rows[1].pop("s"),  # a missing key
    lambda rows: rows[3].update(s=3),  # an int among the floats
    lambda rows: rows[3].update(worst_residual="x"),  # a string among the floats
    lambda rows: rows[4]["B"].__setitem__(1, np.float64(0.3)),  # a float subclass
    lambda rows: rows[0].update(extra=1.0),  # an extra key
    lambda rows: rows[0].update(A=(1.0, 2.0, 3.0)),  # a tuple for a list
    lambda rows: rows.append([1.0]),  # a row that is no dict
    lambda rows: rows[0].update(s=1e308, worst_residual=1e308),  # a sum that overflows
    lambda rows: rows[0]["B"].pop(),  # the first row's list is the odd one
    lambda rows: rows[3].update(B=2.0),  # a float for a list
    lambda rows: rows[3].update(s=[2.0]),  # a list for a float
    lambda rows: rows.__setitem__(2, dict(reversed(rows[2].items()))),  # keys in another order
])
def test_json_text_tables_and_their_fallbacks(spoil):
    rows = frame_rows()
    spoil(rows)
    payload = {"frames": rows, "%s": [{"%d": 1.0}], "empty": [{}], "none": []}
    assert json_text(payload) == dumps(payload)
    # the rows as made, in any key order, are a table, formatted in one pass;
    # each of the others falls back to formatting value by value
    assert (io_formats._table(rows, "\n  ") is not None) == (rows == frame_rows())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
def test_json_text_names_a_non_finite_table_value(bad):
    rows = frame_rows()
    rows[3]["A"][1] = bad
    rows[4]["s"] = float("nan")  # later in key order: the first one is named
    with pytest.raises(NumericFailure, match=f"^non-finite report value /frames/3/A/1 = {bad}$"):
        json_text({"frames": rows, "H": 1.0})


def test_json_text_holds_only_finite_numbers():
    payload = {"b": [1.0, {"y": 2.5, "x": -0.0}], "a": "nan", "c": None}
    assert json_text(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    # the first non-finite number in key order is named by its path
    payload["b"][1].update(z=float("nan"), w=-float("inf"))
    with pytest.raises(NumericFailure, match="^non-finite report value /b/1/w = -inf$"):
        json_text(payload)
