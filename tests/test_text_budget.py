"""Kernel calls per mesh pass: the vertex lines of the meshes that share
x1, x2 are formatted in one call per chunk of rows, the faces in one call
per chunk of faces."""

import pytest

from nilscroll import io_formats
from nilscroll.cli import main

ARGS = ["surface", "--h", "s + s^3", "--H", "0.7", "--s-range", "-1:1", "--t-range", "-2:2",
        "--grid", "120x30"]


@pytest.fixture
def calls(monkeypatch):
    """The number of rows of each io_formats._lines call, in order."""
    rows = []
    original = io_formats._lines

    def counted(head, x, *args):
        rows.append(len(x))
        return original(head, x, *args)

    monkeypatch.setattr(io_formats, "_lines", counted)
    return rows


@pytest.mark.parametrize("target", ["both", "l3", "nil3"])
def test_mesh_text_is_one_kernel_call_per_chunk(tmp_path, monkeypatch, calls, target):
    monkeypatch.chdir(tmp_path)
    assert main([*ARGS, "--target", target, "--out", "m"]) == 0
    # 3,600 rows in 8 equal chunks, then the 119 x 29 = 3,451 faces in 7, for one target or both
    assert calls == [450] * 8 + [493] * 7

