"""Deterministic OBJ / CSV / JSON serialization for the CLI.

OBJ files carry v/f records only; OBJ vertices and the CSV (RFC-4180 with a
header row, the golden-file medium) use fixed 17-significant-digit numbers;
JSON uses the shortest round-trip float representation with sorted keys.
An OBJ block is one C-level `%` pass and the CSV one join; each number has
the bytes of `format(x, ".17g")`.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np


def write_obj(path, vertices, ns: int, nt: int):
    """Wavefront OBJ: ns*nt vertices in row-major (s outer, t inner) order.

    Faces are quads over consecutive grid cells, 1-based indices.
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.shape != (ns * nt, 3):
        raise ValueError(f"expected vertices of shape ({ns * nt}, 3), got {vertices.shape}")
    a = (np.arange(ns - 1)[:, None] * nt + np.arange(1, nt)).ravel()
    faces = np.stack([a, a + 1, a + nt + 1, a + nt], axis=1)
    text = ("v %.17g %.17g %.17g\n" * len(vertices) % tuple(vertices.ravel().tolist())
            + "f %d %d %d %d\n" * len(faces) % tuple(faces.ravel().tolist()))
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_curve_csv(path, rows):
    """CSV of (s, t) singular-curve samples; t is blank for unbounded rows.
    Fields are only numbers, so none is quoted."""
    text = "s,t\r\n" + "".join("%.17g,%s\r\n" % (s, "" if t is None else "%.17g" % t)
                               for s, t in rows)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_json(path, payload):
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def load_schema(name: str) -> dict:
    """Load one of the shipped report schemas by stem name."""
    ref = resources.files("nilscroll.schemas") / f"{name}.schema.json"
    return json.loads(ref.read_text())
