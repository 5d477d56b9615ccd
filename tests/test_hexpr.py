"""Generator-expression parsing, printing, and evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilscroll import hexpr
from nilscroll.errors import DomainError, ExprSyntaxError, UnknownFunction
from nilscroll.jets import Jet


def eval_real(ast, s):
    """Value of the denoted function at s: a float, or an array for an array of s."""
    return hexpr.eval_jet(ast, s, 0).value


@pytest.mark.parametrize(
    "text,s,expected",
    [
        ("tanh(s)", 0.5, math.tanh(0.5)),
        ("s + s^3", 2.0, 10.0),
        ("cot(exp(s)/2)", 0.0, math.cos(0.5) / math.sin(0.5)),
        ("-s^2", 3.0, -9.0),
        ("2^3^2", 0.0, 512.0),  # right-associative
        ("pi / 2", 0.0, math.pi / 2),
        ("e", 0.0, math.e),
        ("1e-3 + 2.5E2", 0.0, 0.001 + 250.0),
        ("(1 + s) * (1 - s)", 0.25, 0.9375),
        ("sqrt(s + 2)", 2.0, 2.0),
    ],
)
def test_eval_real(text, s, expected):
    assert eval_real(hexpr.parse(text), s) == pytest.approx(expected, rel=1e-15)


def test_unicode_minus():
    assert eval_real(hexpr.parse("−2 + s"), 1.0) == -1.0


def test_eval_jet_matches_real():
    ast = hexpr.parse("tanh(s) / (1 + s^2)")
    j = hexpr.eval_jet(ast, 0.4, 5)
    assert isinstance(j, Jet)
    assert j.value == pytest.approx(eval_real(ast, 0.4), rel=1e-15)
    h = 1e-5
    fd = (eval_real(ast, 0.4 + h) - eval_real(ast, 0.4 - h)) / (2 * h)
    assert j.derivative(1) == pytest.approx(fd, abs=1e-9)


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        hexpr.parse("1 + * 2")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        hexpr.parse("(1 + 2")
    with pytest.raises(ExprSyntaxError):
        hexpr.parse("")


def test_unknown_function_and_name():
    with pytest.raises(UnknownFunction) as err:
        hexpr.parse("foo(s)")
    assert err.value.name == "foo"
    with pytest.raises(UnknownFunction):
        hexpr.parse("x + 1")


def test_variable_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        eval_real(hexpr.parse("2^s"), 1.0)
    # a nested one is named by its own '^'
    with pytest.raises(ExprSyntaxError, match="at offset 4$"):
        eval_real(hexpr.parse("2^(2^s)"), 1.0)


def test_domain_error_carries_offset():
    with pytest.raises(DomainError) as err:
        eval_real(hexpr.parse("1 + log(s)"), -1.0)
    assert err.value.offset == 4


def test_division_by_zero():
    with pytest.raises(DomainError):
        eval_real(hexpr.parse("1 / (s - 1)"), 1.0)


@pytest.mark.parametrize(
    "text,evaluate,base_point,offset",
    [("1 / (s - 0.5)", eval_real, 0.5, 2),
     ("log(s - 2)", eval_real, 0.5, 0),
     ("log(s - 2)", hexpr.eval_jet, 0.5, 0),
     ("s / 0", hexpr.eval_jet, 0.5, 2),
     ("1/0 + s", hexpr.eval_jet, None, 1),
     ("s + sqrt(-1)", eval_real, None, 4),
     ("(-1)^0.5 * s", hexpr.eval_jet, None, 4)],
)
def test_domain_error_location(text, evaluate, base_point, offset):
    # s for an s-dependent sub-expression, the byte offset for a constant one
    with pytest.raises(DomainError) as err:
        evaluate(hexpr.parse(text), 0.5)
    assert err.value.base_point == base_point
    assert err.value.offset == offset
    where = f"s={base_point!r}" if base_point is not None else f"offset {offset}"
    assert str(err.value).endswith(" at " + where)


@pytest.mark.parametrize(
    "text",
    ["tanh(s)", "s + s^3", "cot(exp(s)/2)", "-s^2", "(s + 1)/(s - 2)", "2*s - 3/s"],
)
def test_to_str_round_trip(text, s=0.37):
    ast = hexpr.parse(text)
    printed = hexpr.to_str(ast)
    again = hexpr.parse(printed)
    assert eval_real(again, s) == pytest.approx(eval_real(ast, s), rel=1e-15)
    # fixed point: printing the reparse gives the same text
    assert hexpr.to_str(again) == printed


def test_mobius_builder():
    ast = hexpr.parse("s + s^3")
    mb = hexpr.mobius(ast, 2.0, 1.0, 0.5, 1.0)
    s = 0.3
    h = s + s**3
    assert eval_real(mb, s) == pytest.approx((2 * h + 1) / (0.5 * h + 1), rel=1e-14)
    with pytest.raises(ValueError):
        hexpr.mobius(ast, 1.0, 2.0, 1.0, 2.0)


@settings(max_examples=40, deadline=None)
@given(s=st.floats(-0.9, 0.9))
def test_parse_eval_stability(s):
    ast = hexpr.parse("sinh(s)*cosh(s) - s / (2 + cos(s))")
    expected = math.sinh(s) * math.cosh(s) - s / (2 + math.cos(s))
    assert eval_real(ast, s) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# the two-fold Mobius image of cot(exp(s)/2), as text: h occurs four times
MOBIUS2 = ("(1.2*((0.3*cot(exp(s)/2) + 1.1)/(-0.7*cot(exp(s)/2) + 1.9)) + -0.4)"
           "/(0.5*((0.3*cot(exp(s)/2) + 1.1)/(-0.7*cot(exp(s)/2) + 1.9)) + 1.3)")


def test_equal_sub_expressions_are_evaluated_once(monkeypatch):
    calls = []
    cot = hexpr.jets.FUNCTIONS["cot"]
    monkeypatch.setitem(hexpr.jets.FUNCTIONS, "cot", lambda a: calls.append(a) or cot(a))
    ast = hexpr.parse(MOBIUS2)
    out = hexpr.eval_jet(ast, np.linspace(-1.0, 1.0, 5))
    assert len(calls) == 1
    hexpr.eval_jet(ast, 0.25)  # nothing is kept from one call to the next
    assert len(calls) == 2
    assert np.isfinite(out.taylor()).all()


def test_shared_nodes_keep_the_first_offset():
    ast = hexpr.parse("log(s) + log(s)")
    assert ast.left is ast.right
    with pytest.raises(DomainError) as err:
        hexpr.eval_jet(ast, -1.0)
    assert (err.value.offset, str(err.value)) == (0, "log out of domain at s=-1.0")
    with pytest.raises(DomainError) as err:
        hexpr.eval_jet(hexpr.parse("log(0) + log(0)"), 0.5)
    assert (err.value.offset, str(err.value)) == (0, "log out of domain at offset 0")


def test_zero_and_negative_zero_stay_apart():
    # a float field is keyed by its repr: 0.0 == -0.0, yet they are two nodes
    parser = hexpr._Parser("s")
    zero = parser.node(hexpr.Num, 0.0, offset=0)
    assert parser.node(hexpr.Num, -0.0, offset=1) is not zero
    assert parser.node(hexpr.Num, 0.0, offset=2) is zero  # the first one built
    ast = hexpr.parse("2 + 2.0")
    assert ast.left is ast.right


@pytest.mark.parametrize("text, printed", [
    ("tanh(s)", "tanh(s)"),
    ("s + s^3", "s + s^3"),
    ("cot(exp(s)/2)", "cot(exp(s)/2)"),
    ("s^2+s", "s^2 + s"),
    ("(1.2*(tanh(s)) + (-0.4))/((0.5)*(tanh(s)) + 1.3)", "(1.2*tanh(s) + -0.4)/(0.5*tanh(s) + 1.3)"),
    (MOBIUS2, MOBIUS2),
])
def test_to_str_of_a_shared_ast(text, printed):
    assert hexpr.to_str(hexpr.parse(text)) == printed
