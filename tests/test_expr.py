"""Parser, printer, and plain-evaluator behavior."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CORPUS
from triweb.errors import ConfigError, EvalDomainError, ParseError
from triweb.expr import (
    BinOp,
    Call,
    Const,
    Neg,
    Var,
    depends_on_y,
    eval_value,
    parse,
    to_text,
)
from triweb.kernels import compile_expr
from triweb.web import family_web


class TestParseStructure:
    def test_web_function_shape(self):
        e = parse("(x+y)*exp(-x)")
        assert isinstance(e, BinOp) and e.op == "*"
        assert isinstance(e.left, BinOp) and e.left.op == "+"
        assert isinstance(e.left.left, Var) and e.left.left.axis == 0
        assert isinstance(e.left.right, Var) and e.left.right.axis == 1
        assert isinstance(e.right, Call) and e.right.fn == "exp"
        assert isinstance(e.right.arg, Neg)
        assert isinstance(e.right.arg.child, Var) and e.right.arg.child.axis == 0

    def test_single_variable(self):
        assert parse("x") == Var((-1, -1), 0)
        assert parse("y") == Var((-1, -1), 1)

    def test_subtraction_left_associative(self):
        e = parse("1-x-y")
        assert isinstance(e, BinOp) and e.op == "-"
        assert isinstance(e.left, BinOp) and e.left.op == "-"
        assert isinstance(e.left.left, Const) and e.left.left.value == 1.0
        assert isinstance(e.left.right, Var) and e.left.right.axis == 0
        assert isinstance(e.right, Var) and e.right.axis == 1

    def test_power_right_associative(self):
        assert eval_value(parse("2^3^2"), (0, 0)) == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert eval_value(parse("-x^2"), (3, 0)) == -9.0

    def test_precedence_mul_over_add(self):
        assert eval_value(parse("2+3*4"), (0, 0)) == 14.0

    def test_parentheses_override(self):
        assert eval_value(parse("(2+3)*4"), (0, 0)) == 20.0

    def test_negative_exponent_literal(self):
        assert eval_value(parse("x^-2"), (2, 0)) == 0.25

    def test_scientific_literal(self):
        assert eval_value(parse("1.5e-3+x"), (0, 0)) == pytest.approx(1.5e-3)

    def test_whitespace_insensitive(self):
        assert parse(" ( x + y ) * exp( - x ) ") == parse("(x+y)*exp(-x)")

    def test_spans_cover_source(self):
        src = "ln(x - 2)"
        e = parse(src)
        lo, hi = e.span
        assert src[lo:hi] == "ln(x - 2)"


class TestParseErrors:
    @pytest.mark.parametrize("bad", ["", "   "])
    def test_empty(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_unknown_identifier_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("x+foo")
        assert exc.value.offset == 2

    def test_named_constants_rejected(self):
        with pytest.raises(ParseError):
            parse("e^x")

    def test_wrong_arity(self):
        with pytest.raises(ParseError, match="exactly one argument"):
            parse("exp(x,y)")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(x+y")

    def test_illegal_character(self):
        with pytest.raises(ParseError) as exc:
            parse("x + $y")
        assert exc.value.offset == 4

    def test_trailing_junk(self):
        with pytest.raises(ParseError):
            parse("x y")

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse("x+")

    @pytest.mark.parametrize(
        "bad, char, offset",
        [("x+\u00b2", "\u00b2", 2), ("x+\u0661", "\u0661", 2), ("x\u00e9", "\u00e9", 1)],
    )
    def test_non_ascii_is_illegal(self, bad, char, offset):
        # Unicode digits and letters are not numbers or names: '\u0661' is not 1
        with pytest.raises(ParseError, match=f"illegal character {char!r}") as exc:
            parse(bad)
        assert exc.value.offset == offset

    def test_unicode_whitespace_is_whitespace(self):
        assert parse("x\u00a0+\u2003y") == parse("x+y")

    @pytest.mark.parametrize("bad, offset", [("1e999", 0), ("x+2e308*y", 2)])
    def test_overflowing_literal(self, bad, offset):
        with pytest.raises(ParseError, match="overflows") as exc:
            parse(bad)
        assert exc.value.offset == offset

    def test_earlier_syntax_error_wins_over_overflow(self):
        # the overflow check runs when the atom is built, after the scan
        with pytest.raises(ParseError, match="illegal character") as exc:
            parse("1e999 + $")
        assert exc.value.offset == 8
        with pytest.raises(ParseError, match="unexpected 'y'"):
            parse("x y 1e999")

    def test_deep_nesting(self):
        with pytest.raises(ParseError, match="nests too deeply"):
            parse("-" * 5000 + "x")


class TestPrinter:
    @pytest.mark.parametrize("text", [t for t, _ in CORPUS])
    def test_roundtrip_corpus(self, text):
        e = parse(text)
        assert parse(to_text(e)) == e

    def test_keeps_needed_parens(self):
        assert to_text(parse("(x+y)*exp(-x)")) == "(x+y)*exp(-x)"
        assert to_text(parse("1-x-y")) == "1-x-y"
        assert to_text(parse("x-(y-1)")) == "x-(y-1)"
        assert to_text(parse("(x^2)^3")) == "(x^2)^3"


def _expr_strategy():
    leaf = st.one_of(
        st.builds(lambda: Var((-1, -1), 0)),
        st.builds(lambda: Var((-1, -1), 1)),
        st.builds(
            lambda v: Const((-1, -1), v),
            st.floats(min_value=0.0, max_value=9.5, allow_nan=False).map(
                lambda v: round(v, 2)
            ),
        ),
    )

    def extend(children):
        return st.one_of(
            st.builds(lambda c: Neg((-1, -1), c), children),
            st.builds(lambda f, c: Call((-1, -1), f, c), st.sampled_from(
                ("exp", "ln", "sin", "cos", "sqrt")), children),
            st.builds(
                lambda op, a, b: BinOp((-1, -1), op, a, b),
                st.sampled_from("+-*/^"),
                children,
                children,
            ),
        )

    return st.recursive(leaf, extend, max_leaves=12)


@given(_expr_strategy())
def test_roundtrip_random_trees(e):
    # printing then reparsing reproduces any tree, including right-nested
    # chains the parser itself would never build
    assert parse(to_text(e)) == e


_PIECES = st.sampled_from(
    ["x", "y", "1", "2.5", ".5", "3.", "1e3", "2E-4", "1e", "e", "exp", "ln", "sin", "cos",
     "sqrt", "foo", "x1", "_", "(", ")", ",", "+", "-", "*", "/", "^", " ", "\t", "$", ".",
     "1e999", "\u00b2", "\u0661", "\u00e9", "\u00a0", "x^2000"]
)


@given(st.one_of(st.text(), st.lists(_PIECES, max_size=16).map("".join)))
def test_any_text_parses_or_raises_parse_error(text):
    try:
        e = parse(text)
    except ParseError:
        return
    assert parse(to_text(e)) == e


class TestEvalValue:
    def test_matches_math(self):
        e = parse("sin(x)*cos(y)+ln(2+x)")
        x, y = 0.37, -0.81
        assert eval_value(e, (x, y)) == pytest.approx(
            math.sin(x) * math.cos(y) + math.log(2 + x), rel=1e-15
        )

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError, match="division by zero"):
            eval_value(parse("1/(x-1)"), (1.0, 0.0))

    def test_ln_domain(self):
        with pytest.raises(EvalDomainError, match="ln of non-positive"):
            eval_value(parse("ln(x)"), (-1.0, 0.0))

    def test_sqrt_domain(self):
        with pytest.raises(EvalDomainError, match="sqrt of non-positive"):
            eval_value(parse("sqrt(x)"), (-4.0, 0.0))

    def test_overflow(self):
        with pytest.raises(EvalDomainError, match="non-finite"):
            eval_value(parse("exp(1000*x)"), (1.0, 0.0))

    @pytest.mark.parametrize(
        "text, point", [("x^400", (10.0, 0.0)), ("x^1.5", (1e300, 0.0))]
    )
    def test_power_overflow(self, text, point):
        with pytest.raises(EvalDomainError, match="overflow to non-finite") as exc:
            eval_value(parse(text), point)
        assert exc.value.fragment == text

    def test_overflowed_trig_argument(self):
        with pytest.raises(EvalDomainError, match="overflow to non-finite"):
            eval_value(parse("sin(x*1e308)"), (10.0, 0.0))

    def test_fractional_power_needs_positive_base(self):
        assert eval_value(parse("x^0.5"), (4.0, 0.0)) == pytest.approx(2.0)
        with pytest.raises(EvalDomainError):
            eval_value(parse("x^0.5"), (-4.0, 0.0))


def neg_chain(axis: int, depth: int = 5000):
    """-(-(...-v)) with ``depth`` negations of x (axis 0) or y: built by
    hand, as no text this deep parses."""
    e = Var(axis=axis)
    for _ in range(depth):
        e = Neg(child=e)
    return e


class TestDeepTrees:
    """A tree deeper than Python's recursion limit is a ConfigError with
    the CLI's text, never a bare RecursionError."""

    @pytest.mark.parametrize("axis", [0, 1])
    def test_depends_on_y_walks_any_depth(self, axis):
        assert depends_on_y(neg_chain(axis)) == (axis == 1)

    def test_to_text_prints_any_depth(self):
        assert to_text(neg_chain(0)) == "-" * 5000 + "x"

    def test_compile_expr(self):
        with pytest.raises(ConfigError, match="^expression nests too deeply$"):
            compile_expr(neg_chain(0))

    def test_eval_value(self):
        with pytest.raises(ConfigError, match="^expression nests too deeply$"):
            eval_value(neg_chain(0), (0.5, 0.25))

    def test_family_coefficient(self):
        with pytest.raises(ConfigError, match="^expression nests too deeply$"):
            family_web(neg_chain(0), "1")
        with pytest.raises(ConfigError, match="mentions y"):
            family_web(neg_chain(1), "1")
