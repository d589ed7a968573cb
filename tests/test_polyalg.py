import random

import pytest

from wittmod.exactnum import Scalar, vec_axpy
from wittmod.polyalg import (
    LAURENT, PLUS, PolyElement, exponents_within, render_poly, unit_index,
)


def S(k):
    return Scalar.integer(k)


def P(n, mode, terms):
    return PolyElement(n, mode, {e: S(c) for e, c in terms.items()})


def test_mul_example():
    # (t1 + t2)(t1 - t2) = t1^2 - t2^2
    a = P(2, PLUS, {(1, 0): 1, (0, 1): 1})
    b = P(2, PLUS, {(1, 0): 1, (0, 1): -1})
    assert a * b == P(2, PLUS, {(2, 0): 1, (0, 2): -1})


def test_partial_example():
    p = P(2, PLUS, {(2, 1): 3})
    assert p.partial(1) == P(2, PLUS, {(1, 1): 6})
    assert p.partial(2) == P(2, PLUS, {(2, 0): 3})
    assert P(2, PLUS, {(0, 0): 5}).partial(1).is_zero()


def test_partial_laurent_negative():
    p = P(1, LAURENT, {(-1,): 1})
    assert p.partial(1) == P(1, LAURENT, {(-2,): -1})
    # d/dt of t^0 dies in laurent mode too
    assert P(1, LAURENT, {(0,): 1}).partial(1).is_zero()


def test_plus_mode_rejects_negative():
    with pytest.raises(ValueError, match="negative exponent"):
        P(2, PLUS, {(-1, 0): 1})


def test_mode_mixing_rejected():
    with pytest.raises(ValueError, match="mixed"):
        P(1, PLUS, {(1,): 1}) + P(1, LAURENT, {(1,): 1})


def test_render():
    p = P(2, LAURENT, {(2, 1): 2, (-1, 0): -1})
    assert render_poly(p) == "2*t1^2*t2 - t1^-1"
    assert render_poly(P(2, PLUS, {(0, 0): 1})) == "1"
    assert render_poly(PolyElement.zero(2)) == "0"
    sym = PolyElement(1, PLUS, {(1,): Scalar.param("l1") + S(2)})
    assert render_poly(sym) == "(l1 + 2)*t1"
    # the sign of a several-term coefficient stays inside its brackets
    l1 = Scalar.param("l1")
    neg = PolyElement(1, PLUS, {(1,): S(1) - l1, (0,): S(1) - l1})
    assert render_poly(neg) == "(-l1 + 1)*t1 - l1 + 1"
    quot = PolyElement(1, PLUS, {(1,): -l1 / (l1 - S(1))})
    assert render_poly(quot) == "(-l1/(l1 - 1))*t1"


def test_leibniz_randomized():
    rng = random.Random(314)

    def rand_poly(n, mode):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            if mode == PLUS:
                e = tuple(rng.randint(0, 3) for _ in range(n))
            else:
                e = tuple(rng.randint(-3, 3) for _ in range(n))
            terms[e] = S(rng.randint(-5, 5))
        return PolyElement(n, mode, terms)

    for _ in range(40):
        n = rng.randint(1, 3)
        mode = rng.choice([PLUS, LAURENT])
        f, g = rand_poly(n, mode), rand_poly(n, mode)
        i = rng.randint(1, n)
        assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)
        assert f * g == g * f
        h = rand_poly(n, mode)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_exponents_within():
    assert exponents_within(2, 1, PLUS) == [(0, 0), (0, 1), (1, 0)]
    lau = exponents_within(2, 1, LAURENT)
    assert set(lau) == {(0, 0), (0, 1), (0, -1), (1, 0), (-1, 0)}
    assert len(exponents_within(2, 2, PLUS)) == 6
    assert len(exponents_within(2, 2, LAURENT)) == 13
    # sorted by level then lexicographic
    assert lau[0] == (0, 0)


def test_unit_index():
    assert unit_index(3, 2) == (0, 1, 0)


def test_truth_value_is_nonzero():
    assert P(1, PLUS, {(1,): 1}) and not P(1, PLUS, {})


def test_vec_axpy_drops_a_zero_poly_value():
    # vec_axpy keeps a value by its truth, so a zero PolyElement is dropped
    t = P(1, PLUS, {(1,): 1})
    assert vec_axpy({}, [("a", P(1, PLUS, {})), ("b", t)]) == {"b": t}
    assert vec_axpy({"b": t}, [("b", -t)]) == {}


def test_results_are_valid_and_the_constructors_keep_their_checks():
    # +, -, * and partial build their results without the constructor's
    # per-term checks: rebuilt through it, each is the same element, and
    # cancelled terms are gone
    l1 = Scalar.param("l1")
    a = PolyElement(2, PLUS, {(1, 0): l1, (0, 2): S(3), (0, 0): S(1)})
    b = PolyElement(2, PLUS, {(1, 0): -l1, (1, 1): S(2)})
    for r in (a + b, a - a, -b, a * b, a.partial(1), b.partial(2)):
        assert all(len(e) == 2 and min(e) >= 0 for e in r.terms)
        assert all(c for c in r.terms.values())
        assert r == PolyElement(r.n, r.mode, dict(r.terms))
    assert (a + b).terms == {(0, 2): S(3), (0, 0): S(1), (1, 1): S(2)}
    assert (a - a).is_zero()
    # the public constructors still check every term
    for build in (lambda: PolyElement(2, PLUS, {(1, -1): S(1)}),
                  lambda: PolyElement.monomial(2, PLUS, (0, -2))):
        with pytest.raises(ValueError, match="negative exponent"):
            build()
    for build in (lambda: PolyElement(2, LAURENT, {(1,): S(1)}),
                  lambda: PolyElement.monomial(3, PLUS, (1, 0))):
        with pytest.raises(ValueError, match="arity"):
            build()
    with pytest.raises(ValueError, match="mode"):
        PolyElement.zero(2, "formal")
    assert PolyElement(1, PLUS, {(1,): S(0)}).is_zero()
