"""Deterministic OBJ / CSV / JSON serialization for the CLI.

OBJ files carry v/f records only; OBJ vertices and the CSV (RFC-4180 with a
header row, the golden-file medium) use 17 significant digits, the bytes of
`format(x, ".17g")`, each block in one C-level `%` pass; obj_texts formats
the text a command's meshes share once.  JSON text is json.dumps's with
sort_keys=True and indent=2: shortest round-trip floats, finite numbers only,
and a table of rows with the same keys and float values in one `%r` pass.
A command writes its files as one output_set: all of them or none.
"""

from __future__ import annotations

import contextlib
import math
import os
from json.encoder import encode_basestring_ascii

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
    """A report's JSON text and newline: the bytes of json.dumps(payload,
    sort_keys=True, indent=2), where a non-finite number raises NumericFailure."""
    return _json(payload, "\n", ()) + "\n"


def _json(obj, ind, path):
    """obj, at the keys path in the payload, as json.dumps(obj,
    sort_keys=True, indent=2) writes it after ind (a newline and spaces)."""
    if isinstance(obj, float):  # the most common value first
        if math.isfinite(obj):
            return float.__repr__(obj)
        raise NumericFailure(f"non-finite report value {''.join(f'/{k}' for k in path)} = {obj}")
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (dict, list, tuple)):
        keyed, inner = isinstance(obj, dict), ind + "  "
        table = None if keyed else _table(obj, ind)
        if table:
            return table
        texts = [inner + (encode_basestring_ascii(k) + ": " if keyed else "")
                 + _json(v, inner, path + (k,))
                 for k, v in (sorted(obj.items()) if keyed else enumerate(obj))]
        return ("{%s}" if keyed else "[%s]") % (",".join(texts) + ind if texts else "")
    if obj is None or obj is True or obj is False:
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _table(rows, ind):
    """_json of rows with the same keys, each key's value a finite float in
    every row or a list of as many in every row, in one %r pass; else None."""
    shapes = {type(row) is dict and tuple((k, len(v) if type(v) is list else 0)
                                          for k, v in sorted(row.items())) for row in rows}
    if len(shapes) != 1 or not (shape := shapes.pop()):
        return None
    values = [x for row in rows for k, n in shape for x in (row[k] if n else (row[k],))]
    # a non-finite sum has a non-finite term or overflowed: _json decides
    if set(map(type, values)) != {float} or not math.isfinite(sum(values)):
        return None
    i1, i2 = ind + "  ", ind + "    "
    row = i1 + "{" + ",".join(
        i2 + encode_basestring_ascii(k).replace("%", "%%") + ": "
        + ("[" + ",".join([i2 + "  %r"] * n) + i2 + "]" if n else "%r") for k, n in shape) + i1 + "}"
    return "[" + ",".join([row] * len(rows)) % tuple(values) + ind + "]"


def write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        fh.write(json_text(payload))

