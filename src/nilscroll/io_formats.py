"""Deterministic OBJ / CSV / JSON serialization for the CLI.

OBJ files carry v/f records only; OBJ vertices and the CSV (RFC-4180 with a
header row, the golden-file medium) use 17 significant digits, the bytes of
`format(x, ".17g")`.  One array kernel (_lines) writes them: exact decimal
digits from Dekker's TwoProduct, and '%.17g' itself for the few other values
(zeros, exponent forms, non-finite).  write_objs streams all OBJ files in
one pass of chunks: its memory is a chunk's, not the grid's.  JSON text is
json.dumps's with sort_keys=True and indent=2: shortest round-trip floats,
finite numbers only, and a table of rows with the same keys and float values
in one `%r` pass.  A command writes its files as one output_set: all or none.
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
        for out, path in list(names.items()):
            if out != path:
                os.replace(out, os.path.realpath(path))
            del names[out]  # nothing left to remove
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


_P10 = np.array([float(10**m) for m in range(21)])  # exact doubles
_P10_HI = 134217729.0 * _P10 - (134217729.0 * _P10 - _P10)  # Veltkamp's split: 26 bits
_C, _NZ = np.arange(48, 58, dtype="<u4"), (np.arange(10) > 0).astype(np.int8)
_QUADS = np.add.outer(np.add.outer(_C, _C << 8), np.add.outer(_C << 16, _C << 24)).ravel()  # b"0000".."9999"
_ENDS = np.maximum.outer(np.maximum.outer(_NZ, 2 * _NZ), np.maximum.outer(3 * _NZ, 4 * _NZ)).ravel()
_ENDS[0] = -16  # where a quad's digits end without its trailing zeros; 0000 keeps none
_K, _LAST, _NEG, _J = np.ogrid[-4:17, :18, :2, :86]
# the bytes of a float's field that its positional text keeps, by ((k + 4) * 18 + last) * 2 + (x < 0)
_KEEP = np.concatenate([np.broadcast_to(m, (21, 18, 2, m.shape[-1])) for m in (
    _NEG[..., :1] == 1, _J[..., :5] < np.where(_K < 0, 1 - _K, 0), _J[..., :17] <= _K,
    (_K >= 0) & (_LAST > _K + 1), (_J[..., :17] > _K) & (_J[..., :17] < _LAST))], -1).reshape(-1, 41)
_J, _ROWS = _J.ravel(), 512  # column numbers; the most vertex or face lines in one OBJ chunk


def _lines(head, x, seps):
    """The lines of x (n, c): head, then x[i, j] as '%.17g' (an int >= 0:
    '%d') and seps[j] for each j, as an (n, width) byte matrix L and its
    mask K; L[K] is the text.

    A positional '%.17g' (exponent k in -4..16) shows D, |x| * 10^(16-k)
    rounded half to even: by Dekker's TwoProduct that product is exactly
    p + e, where p >= 2^53 is an even integer, so D = p + rint(e).  A float
    field holds sign, "0.000", D's 17 digits, a point and the digits again,
    and K keeps the text's bytes.  Any other float is formatted by '%.17g'."""
    (n, c), x, ints = x.shape, x.ravel(), x.dtype.kind == "i"
    nq = -(-len(str(x.max(initial=0))) // 4) if ints else 5  # groups of four digits
    field = b"0" * 4 * nq if ints else b"-0.000%s.%s" % (b"0" * 17, b"0" * 17)
    row = head + b"".join(field + seps[j:j + 1] for j in range(c))
    L = np.frombuffer(bytearray(row * n), np.uint8).reshape(n, len(row))
    K = np.ones(L.shape, bool)
    F, FK = (A[:, len(head):].reshape(n, c, len(field) + 1)[..., :-1] for A in (L, K))
    D = x
    if not ints:
        a = np.abs(x)
        ok = (a >= 1e-4) & (a < 1e17)  # not 0, a subnormal, an exponent form, inf or nan
        a = np.where(ok, a, 1.0)
        k = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
        b, bh, ah = _P10.take(16 - k), _P10_HI.take(16 - k), 134217729.0 * a
        ah -= ah - a
        p = a * b
        e = ((ah * bh - p) + ah * (b - bh) + (a - ah) * bh) + (a - ah) * (b - bh)  # a*b - p
        D = p.astype(np.int64) + np.rint(e).astype(np.int64)
        ok &= ((p - 1e16) + e >= 0) & (D < 10**17)  # k was right, and rounding kept it
    quads = np.empty((nq, len(x)), np.int64)
    for i in range(nq):
        np.floor_divide(D, 10 ** (4 * (nq - 1 - i)), out=quads[i])
    quads[1:] -= quads[:-1] * 10**4
    G = _QUADS.take(quads.T).view(np.uint8).reshape(n, c, 4 * nq)
    if ints:  # right-aligned, without leading zeros
        F[...] = G
        FK[...] = _J[:4 * nq] >= 4 * nq - 1 - _P10[1:].searchsorted(x, "right").reshape(n, c, 1)
        return L, K
    last = (_ENDS.take(quads) + [[-3], [1], [5], [9], [13]]).max(0)  # D's last non-zero digit
    F[..., 6:23] = F[..., 24:] = G[..., 3:]
    FK[...] = _KEEP.take(((k + 4) * 18 + last) * 2 + (x < 0), axis=0).reshape(n, c, 41)
    for i in np.flatnonzero(~ok):
        text = b"%.17g" % x[i]
        F[divmod(i, c)][:len(text)] = np.frombuffer(text, np.uint8)
        FK[divmod(i, c)] = _J[:41] < len(text)
    return L, K


def write_objs(paths, meshes, ns: int, nt: int):
    """Write the Wavefront OBJ text of each mesh, a float array of shape
    (ns*nt, 3), to its path: vertices row-major (s outer, t inner), then
    quads over the grid's cells, 1-based.  Every mesh is checked before a
    file opens; then all files are written in one pass of chunks of at most
    _ROWS lines, one kernel call each (x1, x2 once if every mesh has them
    bitwise, as Nil_3's and L^3's do).  An OSError names the file it was in."""
    for v in meshes:
        if v.shape != (ns * nt, 3):
            raise ValueError(f"expected vertices of shape ({ns * nt}, 3), got {v.shape}")
    bits = [memoryview(v[:, :2].view(int)) for v in meshes]  # == compares the bits; no copy
    pairs = meshes[:1] if all(v == bits[0] for v in bits) else meshes  # whose x1, x2 are formatted

    def spans(n):  # n // _ROWS + 1 slices that cut range(n), their lengths within 1
        e = np.arange(n // _ROWS + 2) * n // (n // _ROWS + 1)
        return map(slice, e, e[1:])

    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path in paths]
        try:
            for r in spans(ns * nt):
                x = np.column_stack([v[r, :2] for v in pairs] + [v[r, 2] for v in meshes])
                L, K = _lines(b"v ", x, b"  " * len(pairs) + b"\n" * len(meshes))
                column = (np.arange(L.shape[1]) - 2) // 42  # of each byte: -1 for "v ", 0 for x1, ...
                for i, fh in enumerate(files):  # "v ", mesh i's x1, x2 (pair i % len(pairs)), its z
                    fh.write(L[K & ((column < 0) | (column // 2 == i % len(pairs))
                                    | (column == 2 * len(pairs) + i))])
            for r in spans((ns - 1) * (nt - 1)):  # face f starts at vertex f * nt // (nt - 1) + 1
                L, K = _lines(b"f ", np.c_[r] * nt // (nt - 1) + [1, 2, nt + 2, nt + 1], b"   \n")
                text = L[K]
                for fh in files:
                    fh.write(text)
            for fh in files:
                fh.flush()  # so that closing writes nothing
        except OSError as err:  # a write names no file
            err.filename = fh.name
            raise


def write_curve_csv(path, s, t):
    """CSV of the singular-curve samples at the arrays s and t, one row
    each; t is blank where it is NaN (unbounded; s never is).  Fields are
    only numbers, so none is quoted."""
    L, K = _lines(b"\n", np.column_stack([s, t]), b",\r")  # a row's \n leads the next row
    K[np.isnan(t), 43:84] = False
    with open(path, "wb") as fh:
        fh.write(b"s,t\r" + L[K].tobytes() + b"\n")


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
    every row or a list of as many in every row, in one %r pass; else None.
    Each row's keys and list lengths are compared with the first row's."""
    if set(map(type, rows)) != {dict} or any(row.keys() != rows[0].keys() for row in rows):
        return None
    shape = [(k, len(v) if type(v) is list else 0) for k, v in sorted(rows[0].items())]
    if any({len(r[k]) if type(r[k]) is list else 0 for r in rows} != {n}
            for k, n in shape if n):
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

