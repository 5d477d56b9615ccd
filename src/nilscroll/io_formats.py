"""Deterministic OBJ / CSV / JSON serialization for the CLI.

OBJ files carry v/f records only; OBJ vertices and the CSV (RFC-4180 with a
header row, the golden-file medium) use fixed 17-significant-digit numbers;
JSON uses the shortest round-trip float representation with sorted keys
and holds only finite numbers.  An OBJ block and the CSV are each one
C-level `%` pass; each number has the bytes of `format(x, ".17g")`, and
obj_texts formats the text a command's meshes share once.  A command
writes its files as one output_set: all of them or none.
"""

from __future__ import annotations

import contextlib
import json
import os
from importlib import resources

import numpy as np

from .errors import NumericFailure, OutputError


@contextlib.contextmanager
def output_set():
    """Write a set of files all or none.

    Yields stage(path), which names the file for the caller to write in
    place of path: a temporary beside the file path names (through any
    symlink), or path itself when that is a device or a pipe such as
    /dev/stdout, which cannot be replaced.  When the body is done, every
    temporary replaces its file; on any failure the temporaries are
    removed, and an OSError other than BrokenPipeError (stdout's reader is
    gone: cli.main reports it) becomes an OutputError naming the path that
    could not be written.  A directory at a path fails before the body
    writes the path.
    """
    names = {}  # what stage returned -> path

    def stage(path):
        if os.path.isdir(path):
            raise OutputError(f"cannot write {path}: Is a directory")
        in_place = os.path.exists(path) and not os.path.isfile(path)
        out = path if in_place else f"{os.path.realpath(path)}.{os.getpid()}.tmp"
        names[out] = path
        return out

    try:
        yield stage
        for out, path in names.items():
            if out != path:
                os.replace(out, os.path.realpath(path))
    except BrokenPipeError:
        raise
    except OSError as err:  # a write error names no file: it is the last one staged
        path = names.get(err.filename, list(names.values())[-1])
        raise OutputError(f"cannot write {path}: {err.strerror or err}") from None
    finally:
        for out, path in names.items():
            if out != path:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(out)


def obj_texts(meshes, ns: int, nt: int):
    """Yield the Wavefront OBJ text of each mesh in turn: its ns*nt vertices
    in row-major (s outer, t inner) order, then quads over consecutive grid
    cells, 1-based indices.

    Every mesh is checked before the first text.  The face block is
    formatted once for all meshes, and so is each distinct pair of x1, x2
    columns (the Nil_3 mesh shares L^3's), as one "v x1 x2 " head per vertex.
    """
    meshes = [np.asarray(v, dtype=float) for v in meshes]
    for v in meshes:
        if v.shape != (ns * nt, 3):
            raise ValueError(f"expected vertices of shape ({ns * nt}, 3), got {v.shape}")
    a = (np.arange(ns - 1)[:, None] * nt + np.arange(1, nt)).ravel()
    faces = "f %d %d %d %d\n" * len(a) % tuple(
        np.stack([a, a + 1, a + nt + 1, a + nt], axis=1).ravel().tolist())
    heads = {}  # the x1, x2 columns' bytes -> their row heads
    rows = [None] * (2 * ns * nt)  # head, x3 of each vertex
    for v in meshes:
        key = v[:, :2].tobytes()
        if key not in heads:
            heads[key] = ("v %.17g %.17g \n" * len(v) % tuple(v[:, :2].ravel().tolist())
                          ).splitlines()
        rows[0::2], rows[1::2] = heads[key], v[:, 2].tolist()
        yield "%s%.17g\n" * len(v) % tuple(rows) + faces


def write_obj(path, text):
    """Write one text of obj_texts to path."""
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_curve_csv(path, s, t):
    """CSV of the singular-curve samples at the arrays s and t, one row
    each; t is blank where it is NaN (unbounded; s never is).  Fields are
    only numbers, so none is quoted."""
    text = "s,t\r\n" + ("%.17g,%.17g\r\n" * len(s) % tuple(
        np.column_stack([s, t]).ravel().tolist())).replace(",nan\r\n", ",\r\n")
    with open(path, "w", newline="") as fh:
        fh.write(text)


def json_text(payload):
    """A report's JSON text, newline included.  JSON has no NaN or
    infinity: a number that is not finite raises NumericFailure naming it."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise NumericFailure(f"non-finite report value {_non_finite(payload, '')}") from None


def _non_finite(obj, path):
    """'path = value' of the first number in obj, keys sorted, that is not finite."""
    if isinstance(obj, (dict, list, tuple)):
        items = sorted(obj.items()) if isinstance(obj, dict) else enumerate(obj)
        return next(filter(None, (_non_finite(v, f"{path}/{k}") for k, v in items)), None)
    return f"{path} = {obj}" if isinstance(obj, float) and not np.isfinite(obj) else None


def write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        fh.write(json_text(payload))


def load_schema(name: str) -> dict:
    """Load one of the shipped report schemas by stem name."""
    ref = resources.files("nilscroll.schemas") / f"{name}.schema.json"
    return json.loads(ref.read_text())
