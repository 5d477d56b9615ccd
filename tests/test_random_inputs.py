"""Random generator expressions through the CLI: every outcome is a documented one.

A seeded hypothesis run (QuickCheck: Claessen & Hughes, ICFP 2000) draws h
from ten functions, constants up to 1e300 and nesting depth up to 4, H from
{1, 0.7, -2, 1e-3, 50}, and drives singular, verify, surface (12x5) and
family --boost.  Each call must exit 0, 1 (verify only), 2 or 3, never with
an internal error, write no NaN or Infinity into a JSON report, and leave
no file behind when it exits 2 or 3.
"""

import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilscroll import cli

FUNCTIONS = ["exp", "log", "sin", "cos", "tan", "cot", "sinh", "cosh", "tanh", "sqrt"]
CONSTANTS = ["0", "0.5", "1", "2", "3", "0.001", "10", "1e100", "1e300"]


def _expr(depth):
    leaf = st.one_of(st.just("s"), st.sampled_from(CONSTANTS))
    if depth == 0:
        return leaf
    inner = _expr(depth - 1)
    return st.one_of(
        st.builds("{}({})".format, st.sampled_from(FUNCTIONS), inner),
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("({})^{}".format, inner, st.sampled_from(["2", "3", "-1", "0.5"])),
        leaf,
    )


def _has_s(text):
    """Whether s occurs as a variable (not inside a function name)."""
    return re.search(r"(?<![a-z])s(?![a-z])", text) is not None


def _no_constant(text):
    raise ValueError(f"non-finite JSON number {text}")


def _json(text):
    return json.loads(text, parse_constant=_no_constant)


CALLS = st.tuples(
    st.sampled_from(["singular", "verify", "surface", "family"]),
    _expr(4).filter(_has_s),
    st.sampled_from(["1", "0.7", "-2", "1e-3", "50"]),
    st.sampled_from(["-1:1", "0.1:2", "-3:0.5"]),
    st.sampled_from(["0", "0.4", "-1.5"]),
)


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(CALLS)
def test_random_inputs_exit_as_documented(call):
    command, h, H, s_range, boost = call
    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "o")
        argv = [command, "--h", h, "--H", H, "--s-range", s_range]
        argv += {"singular": ["--out", out], "surface": ["--grid", "12x5", "--out", out],
                 "family": ["--boost", boost], "verify": []}[command]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        assert code in ({0, 1, 2, 3} if command == "verify" else {0, 2, 3}), (argv, code)
        assert "internal error" not in stderr.getvalue(), (argv, stderr.getvalue())
        if code in (2, 3):
            assert not os.listdir(d), (argv, os.listdir(d))
        elif command in ("verify", "family"):
            _json(stdout.getvalue())
        elif command == "singular":
            with open(out + ".json") as fh:
                _json(fh.read())
