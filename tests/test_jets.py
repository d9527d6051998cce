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

from conftest import (
    CORPUS,
    assert_jet_matches_fd,
    fd_tolerance_ok,
    jet_vs_fd_report,
    random_expression_pairs,
)
from triweb.errors import EvalDomainError
from triweb.expr import parse
from triweb.jets import JET_INDEX, JET_SIZE, Jet3, product_coeffs
from triweb.kernels import (
    compile_expr,
    error_message,
    eval_jet3,
    gradient,
    jet_coeffs,
    jet_coeffs_many,
)

WEB_FN = "(x+y)*exp(-x)"


class TestHandValues:
    def test_sum_at_origin(self):
        j = eval_jet3("x+y", (0.0, 0.0))
        expect = np.zeros(JET_SIZE)
        expect[JET_INDEX[(0, 0)]] = 0.0
        expect[JET_INDEX[(1, 0)]] = 1.0
        expect[JET_INDEX[(0, 1)]] = 1.0
        assert np.array_equal(j.as_array(), expect)

    def test_web_function_at_origin(self):
        j = eval_jet3(WEB_FN, (0.0, 0.0))
        assert j.value == 0.0
        assert j.fx == 1.0
        assert j.fy == 1.0
        assert j.fxx == -2.0
        assert j.fxy == -1.0
        assert j.fyy == 0.0
        assert j.fxxx == 3.0
        assert j.fxxy == 1.0
        assert j.fxyy == 0.0
        assert j.fyyy == 0.0

    def test_exp_all_x_derivatives(self):
        j = eval_jet3("exp(x)", (1.0, 0.0))
        e1 = math.e
        for (i, jj), k in JET_INDEX.items():
            expected = e1 if jj == 0 else 0.0
            assert j.as_array()[k] == pytest.approx(expected, rel=1e-15)

    def test_web_function_fd_crosscheck(self):
        assert_jet_matches_fd(parse(WEB_FN), (0.0, 0.0))


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
                a = eval_jet3(e1, p)
                b = eval_jet3(e2, p)
                direct = eval_jet3(prod, p).as_array()
                via_algebra = (a * b).as_array()
                scale = np.maximum(np.abs(direct), 1.0)
                assert (np.abs(direct - via_algebra) / scale).max() < 1e-12

    def test_addition_and_scaling(self):
        p = (0.3, -0.4)
        a = eval_jet3("sin(x)", p)
        b = eval_jet3("cos(y)", p)
        s = eval_jet3("sin(x)+cos(y)", p)
        assert np.allclose((a + b).as_array(), s.as_array(), rtol=1e-15, atol=0)
        assert np.allclose((2.0 * a).as_array(), 2.0 * a.as_array())

    def test_product_coeffs_symmetric(self):
        rng = np.random.default_rng(3)
        u, v = rng.normal(size=JET_SIZE), rng.normal(size=JET_SIZE)
        assert np.allclose(product_coeffs(u, v), product_coeffs(v, u))

    def test_immutable(self):
        j = Jet3.constant(2.0)
        with pytest.raises((AttributeError, ValueError)):
            j._c = None
        with pytest.raises(ValueError):
            j.as_array()[0] = 5.0

    def test_constructors(self):
        jx = Jet3.variable(0, 3.5)
        assert jx.value == 3.5 and jx.fx == 1.0 and jx.fy == 0.0
        jc = Jet3.constant(-2.0)
        assert jc.value == -2.0 and not jc.as_array()[1:].any()


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
        assert eval_jet3("x^3", (-2.0, 0.0)).value == -8.0


class TestBatch:
    def test_batch_matches_single(self):
        prog = compile_expr(parse(WEB_FN))
        xs = np.linspace(-1.5, 1.5, 23)
        ys = np.linspace(1.5, -1.5, 23)
        out, codes, _ = jet_coeffs_many(prog, xs, ys)
        assert not codes.any()
        for i in range(xs.size):
            single = jet_coeffs(prog, xs[i], ys[i])
            assert np.array_equal(out[i], single)

    def test_batch_error_codes_per_point(self):
        prog = compile_expr(parse("ln(x)"))
        xs = np.array([1.0, -1.0, 2.0])
        ys = np.zeros(3)
        out, codes, opidx = jet_coeffs_many(prog, xs, ys)
        assert list(codes != 0) == [False, True, False]
        assert opidx[1] >= 0
        assert np.isfinite(out[0]).all() and np.isfinite(out[2]).all()
        # each batch code and fragment matches the single-point error
        cases = [
            ("sqrt(1-x*x-y*y)", [0.0, 2.0, 0.5], [0.0, 0.0, 3.0]),
            ("1/(x-1)", [1.0, 0.0, 2.0], [0.0, 0.0, 0.0]),
            ("1/exp(1000*x)", [1.0, 0.0, -1.0], [0.0, 0.0, 0.0]),
        ]
        for text, xs, ys in cases:
            prog = compile_expr(text)
            out, codes, opidx = jet_coeffs_many(prog, xs, ys)
            for i, point in enumerate(zip(xs, ys)):
                try:
                    single = jet_coeffs(prog, *point)
                except EvalDomainError as exc:
                    assert codes[i] != 0, (text, point)
                    message = error_message(prog, codes[i], opidx[i])
                    assert str(exc).startswith(f"{message} at point"), (text, point)
                else:
                    assert codes[i] == 0 and np.array_equal(out[i], single), (text, point)
