"""Jet arithmetic and the compiled evaluators.

Expected derivative tables below were derived by hand (the web function's
partials follow from f_x = e^-x (1-x-y), f_y = e^-x) and are additionally
cross-checked against the finite-difference chain, so the frozen numbers
never depend on the code under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import triweb.expr
import triweb.kernels
from conftest import (
    CORPUS,
    Jet3,
    assert_jet_matches_fd,
    fd_tolerance_ok,
    jet_vs_fd_report,
    product_coeffs,
    random_expression_pairs,
)
from triweb.errors import ConfigError, EvalDomainError
from triweb.expr import parse
from triweb.jets import JET_INDEX, JET_ORDERS, JET_SIZE, PRODUCT_ROWS
from triweb.kernels import (
    compile_expr,
    eval_jet3,
    jet_coeffs,
    jet_coeffs_many,
    jet_coeffs_or_raise,
)

WEB_FN = "(x+y)*exp(-x)"


class TestHandValues:
    def test_sum_at_origin(self):
        j = eval_jet3("x+y", (0.0, 0.0))
        expect = np.zeros(JET_SIZE)
        expect[JET_INDEX[(0, 0)]] = 0.0
        expect[JET_INDEX[(1, 0)]] = 1.0
        expect[JET_INDEX[(0, 1)]] = 1.0
        assert type(j) is tuple and np.array_equal(j, expect)

    def test_web_function_at_origin(self):
        j = dict(zip(JET_ORDERS, eval_jet3(WEB_FN, (0.0, 0.0))))
        assert j == {
            (0, 0): 0.0, (1, 0): 1.0, (0, 1): 1.0,
            (2, 0): -2.0, (1, 1): -1.0, (0, 2): 0.0,
            (3, 0): 3.0, (2, 1): 1.0, (1, 2): 0.0, (0, 3): 0.0,
        }

    def test_exp_all_x_derivatives(self):
        j = eval_jet3("exp(x)", (1.0, 0.0))
        e1 = math.e
        for (i, jj), k in JET_INDEX.items():
            expected = e1 if jj == 0 else 0.0
            assert j[k] == pytest.approx(expected, rel=1e-15)

    def test_web_function_fd_crosscheck(self):
        assert_jet_matches_fd(parse(WEB_FN), (0.0, 0.0))


def gradient(text, point):
    """(df/dx, df/dy) at a point, from the order-1 jet."""
    return jet_coeffs(compile_expr(text), *point, order=1)[1:]


class TestGradient:
    def test_web_function_origin(self):
        assert gradient(WEB_FN, (0.0, 0.0)) == (1.0, 1.0)

    def test_x_anywhere(self):
        assert gradient("x", (5.0, -3.0)) == (1.0, 0.0)

    def test_on_degeneracy_locus(self):
        # f_x = e^-x (1-x-y) vanishes exactly on x+y = 1
        gx, gy = gradient(WEB_FN, (0.25, 0.75))
        assert gx == 0.0
        assert gy == pytest.approx(math.exp(-0.25), rel=1e-15)


class TestJet3Algebra:
    """The emitter against the Leibniz oracle of conftest."""

    def test_leibniz_product_matches_jet_of_product(self):
        # eval_jet3(e1*e2) must equal the truncated product of the factor
        # jets; 20 deterministic points per pair of corpus factors
        rng = np.random.default_rng(7)
        pairs = [("x*y", "exp(-x)"), ("1-x-y", "sin(x)*cos(y)"), (WEB_FN, "x+x*y")]
        for t1, t2 in pairs:
            e1, e2 = parse(t1), parse(t2)
            prod = parse(f"({t1})*({t2})")
            for _ in range(20):
                p = tuple(rng.uniform(-1.2, 1.2, size=2))
                a = Jet3(eval_jet3(e1, p))
                b = Jet3(eval_jet3(e2, p))
                direct = np.array(eval_jet3(prod, p))
                via_algebra = (a * b).as_array()
                scale = np.maximum(np.abs(direct), 1.0)
                assert (np.abs(direct - via_algebra) / scale).max() < 1e-12

    def test_addition_and_scaling(self):
        p = (0.3, -0.4)
        a = Jet3(eval_jet3("sin(x)", p))
        b = Jet3(eval_jet3("cos(y)", p))
        s = eval_jet3("sin(x)+cos(y)", p)
        assert np.allclose((a + b).as_array(), s, rtol=1e-15, atol=0)
        assert np.allclose((2.0 * a).as_array(), 2.0 * a.as_array())

    def test_product_coeffs_symmetric(self):
        rng = np.random.default_rng(3)
        u, v = rng.normal(size=JET_SIZE), rng.normal(size=JET_SIZE)
        assert np.allclose(product_coeffs(u, v), product_coeffs(v, u))

    def test_product_rows_are_the_leibniz_rule(self):
        # the rows the emitter reads give the oracle's product
        rng = np.random.default_rng(5)
        u, v = rng.normal(size=JET_SIZE), rng.normal(size=JET_SIZE)
        rows = [sum(w * u[i] * v[j] for i, j, w in PRODUCT_ROWS[k]) for k in range(JET_SIZE)]
        assert np.allclose(rows, product_coeffs(u, v), rtol=1e-15, atol=0)

    def test_immutable(self):
        j = Jet3.constant(2.0)
        with pytest.raises((AttributeError, ValueError)):
            j._c = None
        with pytest.raises(ValueError):
            j.as_array()[0] = 5.0

    def test_constructors(self):
        for axis, slots in ((0, [3.5, 1.0, 0.0]), (1, [3.5, 0.0, 1.0])):
            assert np.array_equal(Jet3.variable(axis, 3.5).as_array(), slots + [0.0] * 7)
        jc = Jet3.constant(-2.0)
        assert jc.as_array()[0] == -2.0 and not jc.as_array()[1:].any()


def _jets(draw_floats):
    return st.builds(
        Jet3, st.lists(draw_floats, min_size=JET_SIZE, max_size=JET_SIZE)
    )


_coeff = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False).map(
    lambda v: round(v, 3)
)


class TestTruncatedRingProperties:
    """The truncated-Taylor algebra is a commutative ring; these laws pin
    the Leibniz table independently of any evaluator."""

    @given(a=_jets(_coeff), b=_jets(_coeff))
    def test_commutative(self, a, b):
        assert np.allclose((a * b).as_array(), (b * a).as_array(), atol=1e-12)

    @given(a=_jets(_coeff), b=_jets(_coeff), c=_jets(_coeff))
    def test_associative(self, a, b, c):
        left = ((a * b) * c).as_array()
        right = (a * (b * c)).as_array()
        assert np.allclose(left, right, rtol=1e-12, atol=1e-10)

    @given(a=_jets(_coeff), b=_jets(_coeff), c=_jets(_coeff))
    def test_distributive(self, a, b, c):
        left = (a * (b + c)).as_array()
        right = (a * b + a * c).as_array()
        assert np.allclose(left, right, rtol=1e-12, atol=1e-10)

    @given(a=_jets(_coeff))
    def test_one_is_identity(self, a):
        one = Jet3.constant(1.0)
        assert np.array_equal((a * one).as_array(), a.as_array())


class TestFiniteDifferenceValidation:
    @pytest.mark.parametrize("text,point", CORPUS)
    def test_corpus(self, text, point):
        assert_jet_matches_fd(parse(text), point)

    def test_random_pairs(self):
        # module invariant: 100 generator pairs, relative 1e-5 with a
        # 1e-8 absolute floor near zero
        failures = []
        for e, p in random_expression_pairs(100):
            for label, analytic, independent in jet_vs_fd_report(e, p):
                if not fd_tolerance_ok(analytic, independent):
                    failures.append((str(e), p, label, analytic, independent))
        assert not failures, failures[:5]


class TestEvaluatorErrors:
    def test_ln_domain_names_fragment_and_point(self):
        with pytest.raises(EvalDomainError) as exc:
            eval_jet3("ln(x-2)", (0.5, 0.0))
        assert "ln(x-2)" in str(exc.value)
        assert exc.value.point == (0.5, 0.0)

    def test_sqrt_domain(self):
        with pytest.raises(EvalDomainError, match="sqrt of non-positive"):
            eval_jet3("sqrt(x)", (-1.0, 0.0))

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError, match="division by zero"):
            eval_jet3("1/(x-1)", (1.0, 0.0))

    def test_overflow_to_non_finite(self):
        with pytest.raises(EvalDomainError, match="non-finite"):
            eval_jet3("exp(1000*x)", (1.0, 0.0))
        # the reciprocal of the overflowed exp is finite, so only a check
        # after every op (not just at the output) catches it
        with pytest.raises(EvalDomainError, match="non-finite") as exc:
            eval_jet3("1/exp(1000*x)", (1.0, 0.0))
        assert exc.value.fragment == "exp(1000*x)"

    def test_negative_power_at_zero(self):
        with pytest.raises(EvalDomainError, match="division by zero"):
            eval_jet3("x^-2", (0.0, 0.0))

    def test_fractional_power_rewrite_inherits_ln_domain(self):
        with pytest.raises(EvalDomainError):
            eval_jet3("x^0.5", (-1.0, 0.0))

    def test_integer_power_allows_negative_base(self):
        assert eval_jet3("x^3", (-2.0, 0.0))[0] == -8.0

    def test_integer_exponent_cap_is_a_config_error(self):
        assert eval_jet3("x^-1000", (1.0, 0.0))[0] == 1.0
        with pytest.raises(ConfigError, match=r"-2000 in '\(1\+x\)\^-2000' exceeds"):
            compile_expr("(1+x)^-2000")


# every point-error case above and in TestBatch, as (text, point)
_POINT_ERRORS = [
    ("ln(x-2)", (0.5, 0.0)),
    ("sqrt(x)", (-1.0, 0.0)),
    ("1/(x-1)", (1.0, 0.0)),
    ("exp(1000*x)", (1.0, 0.0)),
    ("1/exp(1000*x)", (1.0, 0.0)),
    ("x^-2", (0.0, 0.0)),
    ("x^0.5", (-1.0, 0.0)),
    ("ln(x)", (-1.0, 0.0)),
    ("sqrt(1-x*x-y*y)", (2.0, 0.0)),
    ("sqrt(1-x*x-y*y)", (0.5, 3.0)),
]


class TestOrderOne:
    """The order-1 binding computes (u, u_x, u_y) by the same expressions
    as slots 0-2 of the order-3 jet, and checks only those slots."""

    @pytest.mark.parametrize("text,point", CORPUS)
    def test_corpus_bitwise(self, text, point):
        prog = compile_expr(text)
        assert jet_coeffs(prog, *point, order=1) == jet_coeffs(prog, *point)[:3]

    def test_random_pairs_bitwise(self):
        for e, p in random_expression_pairs(100):
            prog = compile_expr(e)
            assert jet_coeffs(prog, *p, order=1) == jet_coeffs(prog, *p)[:3], (str(e), p)

    @pytest.mark.parametrize("text,point", _POINT_ERRORS)
    def test_same_error_as_order_3(self, text, point):
        prog = compile_expr(text)
        with pytest.raises(EvalDomainError) as order3:
            jet_coeffs(prog, *point)
        with pytest.raises(EvalDomainError) as order1:
            jet_coeffs(prog, *point, order=1)
        assert str(order1.value) == str(order3.value)
        assert order1.value.fragment == order3.value.fragment
        assert order1.value.point == order3.value.point == point

    def test_unused_second_order_slot_may_overflow(self):
        # g'' of sqrt is -x^(-3/2)/4, which overflows at x = 1e-300; order 3
        # must fail there, order 1 never computes it
        prog = compile_expr("sqrt(x)")
        with pytest.raises(EvalDomainError, match="non-finite") as exc:
            jet_coeffs(prog, 1e-300, 0.0)
        assert exc.value.fragment == "sqrt(x)"
        assert jet_coeffs(prog, 1e-300, 0.0, order=1) == (1e-150, 5e149, 0.0)

    def test_gradient_is_order_1(self):
        # a batch gradient is order 1 too: it succeeds where order 3 overflows
        prog = compile_expr("sqrt(x)*y")
        out, codes, _ = jet_coeffs_many(prog, [1e-300], [2.0], order=1)
        assert not codes.any()
        assert tuple(out[0]) == jet_coeffs(prog, 1e-300, 2.0, order=1)
        assert jet_coeffs_many(prog, [1e-300], [2.0])[1][0] != 0


class TestBatch:
    def test_batch_matches_single(self):
        prog = compile_expr(parse(WEB_FN))
        xs = np.linspace(-1.5, 1.5, 23)
        ys = np.linspace(1.5, -1.5, 23)
        rows = {}
        for order in (1, 3):
            out, codes, _ = jet_coeffs_many(prog, xs, ys, order)
            assert not codes.any()
            assert out.shape == (xs.size, 3 if order == 1 else JET_SIZE)
            for i in range(xs.size):
                single = jet_coeffs(prog, xs[i], ys[i], order)
                assert np.array_equal(out[i], single)
            rows[order] = out
        # order 1 computes the first three order-3 slots by the same code
        assert np.array_equal(rows[1], rows[3][:, :3])

    def test_batch_error_codes_per_point(self):
        prog = compile_expr(parse("ln(x)"))
        xs = np.array([1.0, -1.0, 2.0])
        ys = np.zeros(3)
        for order in (1, 3):
            out, codes, opidx = jet_coeffs_many(prog, xs, ys, order)
            assert list(codes != 0) == [False, True, False]
            assert opidx[1] >= 0
            assert np.isfinite(out[0]).all() and np.isfinite(out[2]).all()
        # each batch code, op and row matches the single point at its order
        cases = [
            ("sqrt(1-x*x-y*y)", [0.0, 2.0, 0.5], [0.0, 0.0, 3.0]),
            ("1/(x-1)", [1.0, 0.0, 2.0], [0.0, 0.0, 0.0]),
            ("1/exp(1000*x)", [1.0, 0.0, -1.0], [0.0, 0.0, 0.0]),
            ("sqrt(x)", [1e-300, -1.0, 4.0], [0.0, 0.0, 0.0]),
        ]
        for text, xs, ys in cases:
            prog = compile_expr(text)
            for order in (1, 3):
                out, codes, opidx = jet_coeffs_many(prog, xs, ys, order)
                for i, point in enumerate(zip(xs, ys)):
                    case = (text, order, point)
                    try:
                        single = jet_coeffs(prog, *point, order)
                    except EvalDomainError as exc:
                        assert codes[i] != 0, case
                        _, code, op = jet_coeffs_many(prog, [point[0]], [point[1]], order)
                        assert (code[0], op[0]) == (codes[i], opidx[i]), case
                        # a batch failure is attributed as the point's is
                        with pytest.raises(EvalDomainError) as batch:
                            jet_coeffs_or_raise(prog, [point[0]], [point[1]], order)
                        assert str(batch.value) == str(exc), case
                        assert batch.value.fragment == exc.fragment, case
                    else:
                        assert codes[i] == 0 and np.array_equal(out[i], single), case


class TestCodeCache:
    """Generated source is compiled once per text, and what differs
    between programs, such as the fragments an error names, is bound per
    program."""

    def test_one_compile_per_source(self, monkeypatch):
        compiled = []

        def spy(source, *args):
            compiled.append(source)
            return compile(source, *args)

        monkeypatch.setattr(triweb.kernels, "compile", spy, raising=False)
        cache = triweb.kernels._compiled
        text = "sin(2.0625*x)*y^3-x/7.5"  # compiled by no other test
        before = cache.cache_info()
        compile_expr(text)
        first = cache.cache_info()
        compile_expr(text)
        after = cache.cache_info()
        # point code at order 1 and array code at orders 1 and 3
        assert len(compiled) == len(set(compiled)) == first.misses - before.misses == 3
        assert (after.misses, after.hits - first.hits) == (first.misses, 3)

    def test_spellings_share_code_but_name_their_own_text(self):
        spaced, plain = compile_expr("ln( x )"), compile_expr(parse("ln(x)"))
        assert spaced.at_point.__code__ is plain.at_point.__code__
        for order in (1, 3):
            assert spaced.on_arrays[order].__code__ is plain.on_arrays[order].__code__
        for prog, fragment in ((spaced, "ln( x )"), (plain, "ln(x)")):
            for order in (1, 3):
                with pytest.raises(EvalDomainError) as exc:
                    jet_coeffs(prog, -1.0, 0.0, order)
                assert exc.value.fragment == fragment
                assert exc.value.point == (-1.0, 0.0)

    def test_a_tree_is_printed_once_per_compile(self, monkeypatch):
        # a tree without its text names each op by printing it; printing each
        # subtree again, per op, was quadratic in the depth of the tree
        renders = []
        real = triweb.expr._render

        def spy(e, text):
            renders.append(e)
            return real(e, text)

        monkeypatch.setattr(triweb.expr, "_render", spy)
        n = 300
        prog = compile_expr(parse("-" * n + "x"))
        assert len(renders) == n + 1  # one print per node, for both orders
        assert prog.frags == tuple("-" * k + "x" for k in range(n + 1))
        assert prog.source == "-" * n + "x"
