import itertools
import random

import pytest

from wittmod.exactnum import Scalar
from wittmod.liealg import (
    ToroidalElement, WeylElement, WittElement, monomial_bracket, shen_tau,
    toroidal_bracket, witt_bracket,
)
from wittmod.polyalg import LAURENT, PLUS, PolyElement, exponents_within


def S(k):
    return Scalar.integer(k)


def W(n, mode, alpha, j, c=1):
    return WittElement.monomial(n, mode, alpha, j, S(c))


def test_witt_bracket_example():
    # [t1 d1, t1^2 d1] = t1^2 d1
    x = W(1, PLUS, (1,), 1)
    y = W(1, PLUS, (2,), 1)
    assert witt_bracket(x, y) == W(1, PLUS, (2,), 1)


def test_witt_bracket_monomial_formula():
    # [t^a d_i, t^b d_j] = b_i t^{a+b-e_i} d_j - a_j t^{a+b-e_j} d_i
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 3)
        a = tuple(rng.randint(-2, 3) for _ in range(n))
        b = tuple(rng.randint(-2, 3) for _ in range(n))
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        x, y = W(n, LAURENT, a, i), W(n, LAURENT, b, j)
        got = witt_bracket(x, y)
        e_i = tuple(1 if k == i - 1 else 0 for k in range(n))
        e_j = tuple(1 if k == j - 1 else 0 for k in range(n))
        ab = tuple(p + q for p, q in zip(a, b))
        want = (W(n, LAURENT, tuple(p - q for p, q in zip(ab, e_i)), j, b[i - 1])
                - W(n, LAURENT, tuple(p - q for p, q in zip(ab, e_j)), i, a[j - 1]))
        assert got == want


def test_witt_bracket_against_weyl_commutator():
    # the Witt bracket must agree with the operator commutator
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 2)
        mode = rng.choice([PLUS, LAURENT])
        lo = 0 if mode == PLUS else -2
        a = tuple(rng.randint(lo, 3) for _ in range(n))
        b = tuple(rng.randint(lo, 3) for _ in range(n))
        x = W(n, mode, a, rng.randint(1, n), rng.randint(-3, 3))
        y = W(n, mode, b, rng.randint(1, n), rng.randint(-3, 3))
        lhs = WeylElement.from_witt(witt_bracket(x, y))
        wx, wy = WeylElement.from_witt(x), WeylElement.from_witt(y)
        assert lhs == wx.commutator(wy)


def test_witt_jacobi_randomized():
    rng = random.Random(23)
    for _ in range(15):
        n = 2
        mode = rng.choice([PLUS, LAURENT])
        lo = 0 if mode == PLUS else -2

        def rand_elt():
            z = WittElement.zero(n, mode)
            for _ in range(rng.randint(1, 2)):
                a = tuple(rng.randint(lo, 2) for _ in range(n))
                z = z + W(n, mode, a, rng.randint(1, n), rng.randint(-2, 2))
            return z

        x, y, z = rand_elt(), rand_elt(), rand_elt()
        jac = (witt_bracket(witt_bracket(x, y), z)
               + witt_bracket(witt_bracket(y, z), x)
               + witt_bracket(witt_bracket(z, x), y))
        assert jac.is_zero()


def _bracket_reference(x, y):
    # witt_bracket as ring operations on PolyElements, one per + - *
    coeffs = []
    for i in range(1, x.n + 1):
        acc = PolyElement.zero(x.n, x.mode)
        gi = y.coeffs[i - 1]
        fi = x.coeffs[i - 1]
        for j in range(1, x.n + 1):
            fj = x.coeffs[j - 1]
            gj = y.coeffs[j - 1]
            if not fj.is_zero():
                acc = acc + fj * gi.partial(j)
            if not gj.is_zero():
                acc = acc - gj * fi.partial(j)
        coeffs.append(acc)
    return WittElement(x.n, x.mode, coeffs)


@pytest.mark.parametrize("n, A, mode", [(2, 2, LAURENT), (2, 3, PLUS),
                                        (3, 2, PLUS), (3, 1, LAURENT)])
def test_witt_bracket_matches_ring_operations_on_monomials(n, A, mode):
    ops = [W(n, mode, a, j) for a in exponents_within(n, A, mode)
           for j in range(1, n + 1)]
    for x, y in itertools.product(ops, repeat=2):
        got, want = witt_bracket(x, y), _bracket_reference(x, y)
        assert got == want
        assert got.monomials() == want.monomials()


@pytest.mark.parametrize("mode", [PLUS, LAURENT])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_monomial_bracket_matches_witt_bracket(n, mode):
    # the structure constants against the general bracket on every ordered
    # pair with |alpha| <= 3, including j = k pairs that cancel to 0 and
    # plus-mode pairs whose t^(a+b-e_j) term has coefficient b_j = 0
    ops = [(a, j) for a in exponents_within(n, 3, mode)
           for j in range(1, n + 1)]
    elems = {op: W(n, mode, *op) for op in ops}
    cancelled = zero_coeff = 0
    for (a, j), (b, k) in itertools.product(ops, repeat=2):
        got = monomial_bracket(n, mode, (a, j), (b, k))
        ref = witt_bracket(elems[(a, j)], elems[(b, k)]).monomials()
        assert set(got) == set(ref)
        assert all(not c.is_zero() for _, _, c in got)
        if j == k and a[j - 1] == b[j - 1] != 0:
            cancelled += 1  # b_j t^(a+b-e_j) d_j - a_j t^(a+b-e_j) d_j
            assert got == []
        zero_coeff += b[j - 1] == 0
    assert cancelled and zero_coeff


def test_monomial_bracket_keeps_the_plus_mode_guard():
    with pytest.raises(ValueError, match="negative exponent"):
        monomial_bracket(2, PLUS, ((-1, 0), 1), ((0, 1), 2))
    # [t1^-1 d1, t2 d1] = t1^-2 t2 d1
    assert monomial_bracket(2, LAURENT, ((-1, 0), 1), ((0, 1), 1)) == [
        ((-2, 1), 1, S(1))]


def test_witt_bracket_matches_ring_operations_on_sums():
    # several terms per coefficient, symbolic coefficients, cancellations
    rng = random.Random(31)
    l1 = Scalar.param("l1")
    for _ in range(40):
        n = rng.randint(1, 3)
        mode = rng.choice([PLUS, LAURENT])
        lo = 0 if mode == PLUS else -2

        def rand_elt():
            z = WittElement.zero(n, mode)
            for _ in range(rng.randint(1, 4)):
                a = tuple(rng.randint(lo, 2) for _ in range(n))
                c = S(rng.randint(-2, 2)) + l1 * S(rng.randint(-1, 1))
                z = z + WittElement.monomial(n, mode, a, rng.randint(1, n), c)
            return z

        x, y = rand_elt(), rand_elt()
        got, want = witt_bracket(x, y), _bracket_reference(x, y)
        assert got == want
        assert got.monomials() == want.monomials()


def test_weyl_defining_relation():
    # d_i t_i = t_i d_i + 1, and d_i t_j = t_j d_i for i != j
    n = 2
    d1 = WeylElement.monomial(n, PLUS, (0, 0), (1, 0))
    t1 = WeylElement.monomial(n, PLUS, (1, 0), (0, 0))
    t2 = WeylElement.monomial(n, PLUS, (0, 1), (0, 0))
    assert d1 * t1 == t1 * d1 + WeylElement.one(n)
    assert d1 * t2 == t2 * d1


def test_weyl_laurent_negative_exponent():
    # d1 t1^-1 = t1^-1 d1 - t1^-2
    n = 1
    d1 = WeylElement.monomial(n, LAURENT, (0,), (1,))
    tinv = WeylElement.monomial(n, LAURENT, (-1,), (0,))
    got = d1 * tinv
    want = (WeylElement.monomial(n, LAURENT, (-1,), (1,))
            - WeylElement.monomial(n, LAURENT, (-2,), (0,)))
    assert got == want


def _rand_weyl(rng, n, mode, nterms=2):
    lo = 0 if mode == PLUS else -2
    z = WeylElement.zero(n, mode)
    for _ in range(nterms):
        a = tuple(rng.randint(lo, 2) for _ in range(n))
        b = tuple(rng.randint(0, 2) for _ in range(n))
        z = z + WeylElement.monomial(n, mode, a, b, S(rng.randint(-3, 3)))
    return z


def test_weyl_associativity_randomized():
    rng = random.Random(41)
    for _ in range(15):
        n = rng.randint(1, 2)
        mode = rng.choice([PLUS, LAURENT])
        x, y, z = (_rand_weyl(rng, n, mode) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_weyl_apply_is_multiplicative():
    rng = random.Random(43)
    for _ in range(15):
        n = rng.randint(1, 2)
        mode = rng.choice([PLUS, LAURENT])
        x, y = _rand_weyl(rng, n, mode), _rand_weyl(rng, n, mode)
        lo = 0 if mode == PLUS else -2
        terms = {tuple(rng.randint(lo, 2) for _ in range(n)): S(rng.randint(-2, 2))
                 for _ in range(3)}
        f = PolyElement(n, mode, terms)
        assert (x * y).apply_to(f) == x.apply_to(y.apply_to(f))


def test_shen_tau_example():
    # tau(t1^2 d2) = t1^2 d2 + 2 t1 E(1,2)
    x = W(2, PLUS, (2, 0), 2)
    t = shen_tau(x)
    assert t.vector == x
    assert t.matrix.get((1, 2)) == PolyElement(2, PLUS, {(1, 0): S(2)})
    assert t.matrix.get((2, 2)) is None
    assert str(t) == "t1^2*d2 + 2*t1*E(1,2)"


def test_shen_tau_on_constant_field():
    # tau(d_j) = d_j: constant coefficients have no matrix part
    t = shen_tau(W(2, PLUS, (0, 0), 1))
    assert not t.matrix


def test_shen_tau_homomorphism_exhaustive_small():
    # tau[x, y] = [tau x, tau y] for all monomial pairs with |alpha| <= 2, n = 2
    n = 2
    elems = [W(n, PLUS, a, j)
             for a in exponents_within(n, 2, PLUS) for j in (1, 2)]
    for x, y in itertools.combinations(elems, 2):
        assert shen_tau(witt_bracket(x, y)) == \
            toroidal_bracket(shen_tau(x), shen_tau(y))


def test_shen_tau_homomorphism_random_laurent():
    rng = random.Random(77)
    n = 2
    for _ in range(40):
        a = tuple(rng.randint(-3, 3) for _ in range(n))
        b = tuple(rng.randint(-3, 3) for _ in range(n))
        x = W(n, LAURENT, a, rng.randint(1, n))
        y = W(n, LAURENT, b, rng.randint(1, n))
        assert shen_tau(witt_bracket(x, y)) == \
            toroidal_bracket(shen_tau(x), shen_tau(y))


def test_toroidal_jacobi_randomized():
    rng = random.Random(55)
    n = 2

    def rand_toroidal(mode):
        lo = 0 if mode == PLUS else -2
        vec = WittElement.zero(n, mode)
        for _ in range(rng.randint(0, 2)):
            a = tuple(rng.randint(lo, 2) for _ in range(n))
            vec = vec + W(n, mode, a, rng.randint(1, n), rng.randint(-2, 2))
        mat = {}
        for _ in range(rng.randint(0, 2)):
            i, j = rng.randint(1, n), rng.randint(1, n)
            e = tuple(rng.randint(lo, 2) for _ in range(n))
            g = PolyElement(n, mode, {e: S(rng.randint(-2, 2))})
            mat[(i, j)] = mat.get((i, j), PolyElement.zero(n, mode)) + g
        return ToroidalElement(vec, mat)

    for _ in range(15):
        mode = rng.choice([PLUS, LAURENT])
        x, y, z = (rand_toroidal(mode) for _ in range(3))
        jac = (toroidal_bracket(toroidal_bracket(x, y), z)
               + toroidal_bracket(toroidal_bracket(y, z), x)
               + toroidal_bracket(toroidal_bracket(z, x), y))
        assert jac.is_zero()
        assert (toroidal_bracket(x, y) + toroidal_bracket(y, x)).is_zero()


def test_weyl_render():
    w = WeylElement.monomial(2, PLUS, (2, 0), (0, 1)) \
        + WeylElement.monomial(2, PLUS, (0, 0), (1, 0), S(-3))
    assert str(w) == "-3*d1 + t1^2*d2"
    # a constant term prints as its coefficient
    c = WeylElement.monomial(2, PLUS, (0, 0), (0, 0), S(3))
    assert str(c) == "3"
    assert str(c + WeylElement.monomial(2, PLUS, (1, 0), (0, 0), S(-1))) \
        == "3 - t1"
    # a several-term coefficient keeps its own sign inside the brackets
    l1 = Scalar.param("l1")
    x = WeylElement.monomial(2, PLUS, (1, 0), (0, 1), S(1) - l1)
    assert str(x) == "(-l1 + 1)*t1*d2"
    assert str(c + x) == "3 + (-l1 + 1)*t1*d2"
    f = PolyElement(1, PLUS, {(1,): S(1) - l1, (0,): S(-2)})
    assert str(WittElement(1, PLUS, [f])) == "-2*d1 + (-l1 + 1)*t1*d1"
