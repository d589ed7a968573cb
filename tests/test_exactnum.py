import copy
import pickle
import random
from fractions import Fraction

import pytest

from wittmod import exactnum
from wittmod.exactnum import (
    MOD_P, ONE, ExactMatrix, Scalar, Echelon, EchelonModP, _pgcd, at_point,
    coordinate_block_intersection, kernel_basis, point_value, rank, vec_axpy,
    vec_scale,
)


def S(k):
    return Scalar.integer(k)


L1 = Scalar.param("l1")
L2 = Scalar.param("l2")


def test_field_identity_example():
    # (l1 + 1)/(l1 - 1) - 2/(l1 - 1) == 1
    one = S(1)
    assert (L1 + one) / (L1 - one) - S(2) / (L1 - one) == one


def test_canonical_reduction():
    assert (L1 * L1 - S(1)) / (L1 + S(1)) == L1 - S(1)
    assert Scalar.rational(2, 4) == Scalar.rational(1, 2)
    assert Scalar.rational(3, -6) == Scalar.rational(-1, 2)
    # denominator sign normalization makes the two routes one value
    a = S(1) / (S(0) - L1)
    b = (S(0) - S(1)) / L1
    assert a == b and hash(a) == hash(b) and a is b


def test_not_equal_follows_equality():
    assert not (S(2) != Scalar.rational(4, 2)) and L1 != L2
    assert not (S(3) != 3) and not (3 != S(3)) and S(3) != 4 and 4 != S(3)
    # an unrelated operand compares unequal instead of raising
    assert S(1) != "1" and "1" != S(1)
    assert S(1).__ne__("1") is NotImplemented


def test_zero_divisor():
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        S(1) / S(0)
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        (L1 - L1).inv()


def test_rational_views():
    x = Scalar.rational(6, 4)
    assert x.is_rational() and x.as_fraction() == Fraction(3, 2)
    assert not L1.is_rational()
    assert (L1 + S(3)).constant_part() == Fraction(3)
    assert (S(1) / L1).constant_part() is None


def test_str_render():
    assert str(S(2) * L1 * L1 * L2 - L1) == "2*l1^2*l2 - l1"
    assert str((L1 + S(2)) / (L1 - S(1))) == "(l1 + 2)/(l1 - 1)"
    assert str(S(0)) == "0"


# (value, str, constant_part) with monomial and mixed denominators; the
# strings and constant parts are those of the plain reduced fraction
CANONICAL_TABLE = [
    (lambda: S(1) / L1, "1/(l1)", None),
    (lambda: (L1 + S(1)) / L1, "(l1 + 1)/(l1)", None),
    (lambda: Scalar.rational(-1, 2) / L1, "-1/(2*l1)", None),
    (lambda: S(3) / (L1 * L2), "3/(l1*l2)", None),
    (lambda: (L1 * L1 + L2) / (L1 * L2), "(l1^2 + l2)/(l1*l2)", None),
    (lambda: S(1) / (L1 * L1 + L1), "1/(l1^2 + l1)", None),
    (lambda: L1 * L1 / L1, "l1", Fraction(0)),
    (lambda: (L1 + S(2)) / (L2 + S(3)), "(l1 + 2)/(l2 + 3)", Fraction(2, 3)),
    (lambda: Scalar.rational(6, -4), "-3/2", Fraction(-3, 2)),
    (lambda: (L1 - S(1)) / (S(2) * L1 - S(4)), "(l1 - 1)/(2*l1 - 4)",
     Fraction(1, 4)),
]


@pytest.mark.parametrize("build, text, const", CANONICAL_TABLE,
                         ids=[text for _, text, _ in CANONICAL_TABLE])
def test_canonical_strings_and_constant_parts(build, text, const):
    x = build()
    assert str(x) == text
    assert x.constant_part() == const


def test_monomial_denominators_are_negative_exponents():
    # a Laurent polynomial keeps den == 1, so it multiplies and adds
    # without a gcd; den never carries a monomial factor
    x = (L1 + S(1)) / L1
    assert x.num == {(): 1, (("l1", -1),): 1} and x.den == {(): 1}
    y = S(1) / (L1 * L1 + L1)
    assert y.num == {(("l1", -1),): 1} and y.den == {(): 1, (("l1", 1),): 1}
    z = Scalar.rational(-1, 2) / L1
    assert z.num == {(("l1", -1),): -1} and z.den == {(): 2}


def _same(a, b):
    return a == b and a.num == b.num and a.den == b.den and hash(a) == hash(b)


def test_equal_values_share_canonical_form():
    inv = S(1) / L1
    assert _same(inv * L1, ONE) and (inv * L1) is ONE
    assert _same(inv * L1 * L1, L1) and _same(L1.inv().inv(), L1)
    routes = [S(1) / (L1 * (L1 + S(1))),
              (S(1) / L1) * (S(1) / (L1 + S(1))),
              S(1) / L1 - S(1) / (L1 + S(1)),
              (L1 * L1 + L1).inv()]
    for r in routes[1:]:
        assert _same(r, routes[0])
    assert _same((L1 + S(1)) / L1 - S(1), inv)
    assert _same(L2 / L1 * (L1 / L2), ONE)


def test_rational_constants_match_fraction():
    rng = random.Random(1101)
    for _ in range(400):
        p, q = rng.randint(-30, 30), rng.randint(1, 30)
        r, t = rng.randint(-30, 30), rng.choice([-1, 1]) * rng.randint(1, 30)
        a, b = Scalar.rational(p, q), Scalar.rational(r, t)
        fa, fb = Fraction(p, q), Fraction(r, t)
        cases = [(a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb)]
        if r:
            cases.append((a / b, fa / fb))
        for got, want in cases:
            assert got.as_fraction() == want
            assert got.num == ({(): want.numerator} if want else {})
            assert got.den == {(): want.denominator}


def test_gcd_helpers_see_true_polynomials(monkeypatch):
    # Laurent operands are shifted by a monomial before any gcd or exact
    # division, so those helpers never meet a negative exponent
    def guarded(fn):
        def inner(*polys):
            for f in polys:
                assert all(e > 0 for m in f for _, e in m), polys
            return fn(*polys)
        return inner
    for name in ("_pgcd", "_pdiv_exact"):
        monkeypatch.setattr(exactnum, name, guarded(getattr(exactnum, name)))
    rng = random.Random(77)
    atoms = [L1, L2, S(1) / L1, (L1 + S(1)) / L2, S(1) / (L1 - L2),
             Scalar.rational(3, 4), L1 * L2 + S(2)]
    x = ONE
    for _ in range(200):
        y = rng.choice(atoms)
        x = rng.choice([x + y, x - y, x * y, x / y])
        if len(str(x)) > 200:
            x = rng.choice(atoms)


def test_rank_kernel_example():
    # [[1, l1], [l1, l1^2]] has rank 1, kernel spanned by (-l1, 1)
    m = ExactMatrix(2, 2, [{0: S(1), 1: L1}, {0: L1, 1: L1 * L1}])
    assert rank(m) == 1
    ker = kernel_basis(m)
    assert len(ker) == 1
    assert ker[0] == [-L1, S(1)]


def test_in_span_example():
    ech = Echelon()
    for v in [{0: S(1)}, {0: L1, 1: S(1)}]:
        ech.add(v)
    assert ech.contains({0: S(1) + L1, 1: S(1)})
    assert not ech.contains({2: S(1)})


def test_echelon_same_span():
    e1, e2 = Echelon(), Echelon()
    e1.add({0: S(1), 1: S(2)})
    e1.add({1: S(1), 2: L1})
    e2.add({0: S(2), 1: S(5), 2: L1})
    e2.add({0: S(1), 1: S(2)})
    assert e1.same_span(e2)
    assert e1.dim == 2
    assert e1.contains({0: S(3), 1: S(7), 2: L1})


def test_block_intersection_echelon_matches_reinserted_rows():
    # reference: the block rows of the tagged echelon, in lead order, each
    # added to a fresh Echelon
    rng = random.Random(20261018)
    for trial in range(30):
        ncols = rng.randint(2, 9)
        vecs = _random_matrix(rng, rng.randint(1, 8), ncols,
                              symbolic=trial % 2 == 1).rows
        block = set(rng.sample(range(ncols), rng.randint(1, ncols)))
        got = coordinate_block_intersection(vecs, lambda c: c in block)
        tagged = Echelon()
        for v in vecs:
            tagged.add({(c in block, c): x for c, x in v.items()})
        ref = Echelon()
        for lead in sorted(tagged.rows):
            if lead[0]:
                ref.add({c: x for (_, c), x in tagged.rows[lead].items()})
        assert list(got.rows.items()) == list(ref.rows.items())
        assert all(set(row) <= block for row in got.rows.values())


def _random_matrix(rng, nr, nc, symbolic=False):
    rows = [{} for _ in range(nr)]
    for i in range(nr):
        for j in range(nc):
            if rng.random() < 0.4:
                x = Scalar.rational(rng.randint(-6, 6), rng.randint(1, 4))
                if symbolic and rng.random() < 0.2:
                    x = x * L1 + S(rng.randint(-2, 2))
                if x:
                    rows[i][j] = x
    return ExactMatrix(nr, nc, rows)


def test_rank_nullity_randomized():
    rng = random.Random(20260814)
    for trial in range(25):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        m = _random_matrix(rng, nr, nc, symbolic=(trial % 3 == 0))
        r = rank(m)
        ker = kernel_basis(m)
        assert r + len(ker) == nc
        for v in ker:
            for row in m.rows:
                assert vec_axpy({}, [((), x * v[j]) for j, x in row.items()]) \
                    == {}


def _to_sympy(sympy, x):
    def conv(p):
        return sum(c * sympy.prod([sympy.Symbol(n) ** e for n, e in mono])
                   for mono, c in p.items())
    return sympy.nsimplify(conv(x.num)) / sympy.nsimplify(conv(x.den))


def _sympy_matrix(sympy, m):
    sm = sympy.zeros(m.nrows, m.ncols)
    for i in range(m.nrows):
        for j in range(m.ncols):
            sm[i, j] = _to_sympy(sympy, m.rows[i].get(j, S(0)))
    return sm


def test_rank_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    for _ in range(10):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, nr, nc, symbolic=True)
        assert rank(m) == _sympy_matrix(sympy, m).rank()


def test_kernel_basis_matches_sympy_nullspace():
    # both are the free-column basis read off the unique reduced row-echelon
    # form, so they agree vector by vector, not just in span
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, nr, nc, symbolic=True)
        ker = kernel_basis(m)
        want = _sympy_matrix(sympy, m).nullspace(simplify=True)
        assert len(ker) == len(want)
        for v, w in zip(ker, want):
            assert all(sympy.cancel(_to_sympy(sympy, x) - y) == 0
                       for x, y in zip(v, w))


def test_gcd_reduction_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(99)

    def rand_poly():
        x = S(0)
        for _ in range(rng.randint(1, 3)):
            c = Scalar.rational(rng.randint(-4, 4), 1)
            term = c
            for _ in range(rng.randint(0, 2)):
                term = term * (L1 if rng.random() < 0.6 else L2)
            x = x + term
        return x

    def to_sympy(x):
        conv = lambda p: sum(
            c * sympy.prod([sympy.Symbol(n) ** e for n, e in mono])
            for mono, c in p.items())
        return sympy.together(conv(x.num) / conv(x.den))

    for _ in range(30):
        a, b = rand_poly(), rand_poly()
        if b.is_zero():
            continue
        q = a / b
        diff = sympy.simplify(to_sympy(q) - to_sympy(a) / to_sympy(b))
        assert diff == 0


def test_monomial_gcd_matches_sympy_oracle():
    # _pgcd with a one-term operand takes the monomial path; sympy's gcd
    # over Z (content included, positive sign) is the reference
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4242)
    names = ("l1", "l2", "l3")

    def mono(allowed):
        return tuple((x, e) for x in allowed
                     for e in [rng.randint(0, 3)] if e)

    def coeff():
        return rng.choice([-1, 1]) * rng.randint(1, 12)

    def poly(allowed, content=1):
        f = {}
        for _ in range(rng.randint(1, 4)):
            f[mono(allowed)] = coeff() * content
        return f

    def to_sympy(f):
        return sum(c * sympy.prod([sympy.Symbol(x) ** e for x, e in m])
                   for m, c in f.items())

    cases = []
    for _ in range(60):
        cases.append(({mono(names): coeff()}, poly(names)))
        # variables disjoint from the monomial's
        cases.append(({mono(names[:1]): coeff()}, poly(names[1:])))
        # both operands monomial
        cases.append(({mono(names): coeff()}, {mono(names): coeff()}))
        # integer content in the other operand
        cases.append(({mono(names): coeff()},
                      poly(names, rng.choice([2, 3, 4, 6]))))
    for m, f in cases:
        for g in (_pgcd(m, f), _pgcd(f, m)):
            assert len(g) == 1 and next(iter(g.values())) > 0
            want = sympy.gcd(to_sympy(m), to_sympy(f))
            assert sympy.expand(to_sympy(g) - want) == 0, (m, f, g)


def test_unit_product_returns_other_operand():
    x = (L1 + S(2)) / (L2 * L1 - S(3))
    assert x * ONE is x
    assert ONE * x is x
    assert x * Scalar.rational(3, 3) is x


def test_vec_axpy():
    out = {0: S(1), 1: L1}
    res = vec_axpy(out, {1: -L1, 2: S(3)}.items(), None)
    assert res is out and out == {0: S(1), 2: S(3)}
    assert vec_axpy(out, [(0, S(1)), (3, S(0))]) == {0: S(2), 2: S(3)}
    # coordinates remapped on the fly, scaled by a
    vec_axpy(out, ((c + 1, x) for c, x in {1: S(1), 2: L1}.items()), L2)
    assert out == {0: S(2), 2: S(3) + L2, 3: L1 * L2}
    vec_axpy(out, [(2, S(1)), (0, S(-2))], -L2 - S(3))
    assert out == {0: S(2) * L2 + S(8), 3: L1 * L2}


def test_vec_axpy_and_vec_scale_take_ints():
    # the coefficients of the route at a point are plain ints
    out = vec_axpy({0: 2, 1: 5}, [(0, -1), (2, 3)], 2)
    assert out == {1: 5, 2: 6}
    assert vec_scale(out, 3) == {1: 15, 2: 18} and vec_scale(out, 0) == {}


def test_span_dim():
    ech = Echelon()
    for v in [{0: S(1)}, {0: S(2)}, {1: L1}]:
        ech.add(v)
    assert ech.dim == 2


def _scalars():
    """Integers, and integers plus k*l1 + 1 for small k."""
    from hypothesis import strategies as st
    base = st.integers(-20, 20).map(S)
    sym = st.integers(-3, 3).map(lambda k: L1 * S(k) + S(1))
    return st.one_of(base, st.tuples(base, sym).map(lambda t: t[0] + t[1]))


def test_hypothesis_field_axioms():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings

    @given(_scalars(), _scalars(), _scalars())
    @settings(max_examples=60, deadline=None)
    def inner(a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a + b == b + a
        if not c.is_zero():
            assert (a / c) * c == a

    inner()


# -- hash-consing: one object per value

def test_equal_values_built_by_different_routes_are_one_object():
    assert Scalar.rational(6, 4) is Scalar.rational(3, 2)
    assert (L1 + S(1)) * (L1 - S(1)) is L1 * L1 - S(1)
    assert L1 * L1.inv() is ONE and S(2) - S(1) is ONE
    # 1/l1 by inversion, by division and as a Laurent numerator
    laurent = Scalar({(("l1", -1),): 1}, {(): 1})
    assert L1.inv() is laurent and S(1) / L1 is laurent
    assert (L1 - L1) is S(0) and (L1 - L1).is_zero()


def test_hypothesis_equality_is_identity():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings

    @given(_scalars(), _scalars())
    @settings(max_examples=200, deadline=None)
    def inner(x, y):
        assert (x == y) == (x is y)
        assert (x != y) == (x is not y)
        assert (x * y == y * x) and (x * y is y * x)

    inner()


def test_products_past_the_memo_cap_are_the_interned_objects(monkeypatch):
    monkeypatch.setattr(exactnum, "_MUL_CAP", 8)
    atoms = ([L1 + S(k) for k in range(5)]
             + [S(1) / (L2 + S(k)) for k in range(1, 4)]
             + [Scalar.rational(k, 3) for k in (1, 2, 4)])
    pairs = [(a, b) for a in atoms for b in atoms]
    first = [a * b for a, b in pairs]
    # the memo was emptied many times on the way and never exceeds its cap
    assert len(exactnum._MUL) <= 8
    assert all(a * b is x for (a, b), x in zip(pairs, first))
    exactnum._MUL.clear()
    assert all(a._product(b) is x for (a, b), x in zip(pairs, first))
    # and each is the value that reducing the plain product gives
    mul = exactnum._pmul
    assert all(x is Scalar(mul(a.num, b.num), mul(a.den, b.den))
               for (a, b), x in zip(pairs, first))


def test_zero_and_one_shortcuts_leave_the_memos_unchanged(monkeypatch):
    # the memo is read first; a product or sum with ZERO or ONE is taken on
    # a miss and never memoized, also once the tables are past their cap
    monkeypatch.setattr(exactnum, "_MUL_CAP", 8)
    zero = S(0)
    atoms = [L1 + S(k) for k in range(4)] + [S(1) / (L2 + S(1)), S(5)]
    for x in atoms:
        mul, add = dict(exactnum._MUL), dict(exactnum._ADD)
        assert x * zero is zero and zero * x is zero
        assert x * ONE is x and ONE * x is x
        assert x + zero is x and zero + x is x
        assert exactnum._MUL == mul and exactnum._ADD == add
    pairs = [(a, b) for a in atoms + [zero, ONE] for b in atoms + [zero, ONE]]
    first = [a * b for a, b in pairs]
    assert len(exactnum._MUL) <= 8
    assert all(a * b is x for (a, b), x in zip(pairs, first))
    mul = exactnum._pmul
    assert all(x is Scalar(mul(a.num, b.num), mul(a.den, b.den))
               for (a, b), x in zip(pairs, first))
    exactnum._MUL.clear()


def test_sums_past_the_memo_cap_are_the_interned_objects(monkeypatch):
    # sums share the product memo's cap
    monkeypatch.setattr(exactnum, "_MUL_CAP", 8)
    atoms = ([L1 + S(k) for k in range(5)]
             + [S(1) / (L2 + S(k)) for k in range(1, 4)]
             + [Scalar.rational(k, 3) for k in (1, 2, 4)] + [L1 * L2, -L1])
    pairs = [(a, b) for a in atoms for b in atoms]
    first = [a + b for a, b in pairs]
    assert len(exactnum._ADD) <= 8
    assert all(a + b is x for (a, b), x in zip(pairs, first))
    exactnum._ADD.clear()
    assert all(a._sum(b) is x for (a, b), x in zip(pairs, first))
    # and each is the value that reducing the plain sum gives
    add, mul = exactnum._padd, exactnum._pmul
    assert all(x is Scalar(add(mul(a.num, b.den), mul(b.num, a.den)),
                           mul(a.den, b.den))
               for (a, b), x in zip(pairs, first))


def test_integer_comparison_kept():
    assert Scalar.integer(3) == 3 and 3 == Scalar.integer(3)
    assert Scalar.integer(3) != 4 and Scalar.rational(6, 2) == 3
    assert L1 != 1 and S(0) == 0 and Scalar.integer(-7) == -7
    # an integer no Scalar was built for equals no Scalar
    assert S(5) != 10 ** 40 and Scalar.rational(1, 2) != 0


def test_copies_and_pickles_keep_the_one_object():
    for x in (ONE, S(-4), Scalar.rational(3, 7), (L1 + S(2)) / (L2 - S(1))):
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x


# -- each value holds its negative and inverse once they are built

def _fresh_values(k):
    # a constant, a Laurent polynomial and a rational function that only
    # the test passing k builds, so neither link is set yet
    return [Scalar.rational(1000 + k, 1009), L1 * L1 * L2 - S(1000 + k) / L2,
            (L1 + S(2000 + k)) / (L1 * L2 - S(3000 + k))]


def test_scalar_links_are_involutions():
    for x in _fresh_values(1):
        assert x._neg is None and x._inv is None
        assert -(-x) is x and x.inv().inv() is x
        assert x._neg is -x and (-x)._neg is x
        assert x._inv is x.inv() and x.inv()._inv is x
        assert x + -x is S(0) and x * x.inv() is ONE
    assert -S(0) is S(0) and ONE.inv() is ONE and (-ONE).inv() is -ONE


def test_scalar_links_build_nothing_on_second_use(monkeypatch):
    calls = []

    def spy(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapped
    monkeypatch.setattr(exactnum, "_pneg", spy(exactnum._pneg))
    monkeypatch.setattr(exactnum, "_reduce", spy(exactnum._reduce))
    for x in _fresh_values(2):
        calls.clear()
        neg, inv = -x, x.inv()
        assert "_pneg" in calls and "_reduce" in calls
        calls.clear()
        assert -x is neg and x.inv() is inv
        assert -neg is x and inv.inv() is x
        assert calls == []


def test_scalar_links_zero_has_no_inverse():
    zero = S(0)
    for _ in range(2):
        with pytest.raises(ZeroDivisionError, match="zero divisor"):
            zero.inv()
        assert zero._inv is None


def test_scalar_links_survive_copies_and_pickles():
    for x in _fresh_values(3):
        neg, inv = -x, x.inv()
        for y in (x, neg, inv):
            assert copy.copy(y) is y and copy.deepcopy(y) is y
            assert pickle.loads(pickle.dumps(y)) is y
        back = pickle.loads(pickle.dumps([x, neg, inv]))
        assert back == [x, neg, inv]
        assert back[0]._neg is neg and back[0]._inv is inv
        assert neg._neg is x and inv._inv is x


def test_at_point_evaluates_canonical_forms():
    p, a, b = MOD_P, point_value("l1"), point_value("l2")
    # a true polynomial denominator, a Laurent polynomial, a rational
    x = (L1 * L1 + S(3)) / (L1 * L2 - S(1))
    assert at_point(x) == (a * a + 3) * pow(a * b - 1, -1, p) % p
    assert at_point(L2 / L1) == b * pow(a, -1, p) % p
    assert at_point(Scalar.rational(-5, 7)) == -5 * pow(7, -1, p) % p
    assert at_point(L1 - S(a)) == 0
    with pytest.raises(ZeroDivisionError):
        at_point(ONE / (L1 - S(a)))


def test_echelon_mod_p_is_the_exact_echelon_reduced():
    # entries in [-3, 3] and at most 6 columns keep every minor below p in
    # size, so the rank and the reduced rows survive reduction mod p
    rng = random.Random(31)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        vecs = [{c: rng.randint(-3, 3) for c in range(nc)}
                for _ in range(nr)]
        exact = Echelon([{c: S(x) for c, x in v.items() if x} for v in vecs])
        modp = EchelonModP(vecs)
        assert modp.rows == {lead: {c: at_point(x) for c, x in row.items()}
                             for lead, row in exact.rows.items()}
        assert all(modp.contains(v) for v in vecs)
        assert modp.basis() == [modp.rows[c] for c in sorted(modp.rows)]
    assert EchelonModP().contains({0: MOD_P, 1: -2 * MOD_P})
    assert not EchelonModP([{0: 1}]).contains({1: MOD_P + 1})
    # one elimination loop: only the canonical entries and the inverse differ
    assert EchelonModP.add is Echelon.add
    assert EchelonModP.reduce is Echelon.reduce
    assert EchelonModP._insert is Echelon._insert


@pytest.mark.parametrize("field", ["Q(l)", "Z/p"])
def test_echelon_new_lead_in_two_older_rows(field):
    # both older rows have an entry at the new row's lead 2, so inserting it
    # reduces both: row_i - a_i * (the new monic row)
    if field == "Q(l)":
        ech, a, b, two, one = Echelon(), L1, L2, S(2), ONE
        half = Scalar.rational(1, 2)
    else:
        ech, a, b, two, one = EchelonModP(), 3, 5, 2, 1
        half = pow(2, -1, MOD_P)
    assert ech.add({0: one, 2: a}) and ech.add({1: one, 2: b})
    assert ech.add({2: two, 3: one})
    minus = (lambda x: -x) if field == "Q(l)" else (lambda x: -x % MOD_P)
    assert ech.rows == {0: {0: one, 3: minus(a * half)},
                        1: {1: one, 3: minus(b * half)},
                        2: {2: one, 3: half}}
    assert ech.contains({0: one, 1: one, 2: a + b + two, 3: one})


@pytest.mark.parametrize("field", ["Q(l)", "Z/p"])
def test_echelon_keeps_the_new_row_last(field):
    # a growing add leaves its monic residual as the last row of `rows`, also
    # when the new lead sits in two older rows; older rows are replaced, not
    # changed in place, so a row read before stays what it was
    if field == "Q(l)":
        ech, a, b, two, one = Echelon(), L1, L2, S(2), ONE

        def monic(r):
            inv = r[min(r)].inv()
            return {c: x * inv for c, x in r.items()}
    else:
        ech, a, b, two, one = EchelonModP(), 3, 5, 2, 1

        def monic(r):
            inv = pow(r[min(r)], -1, MOD_P)
            return {c: x * inv % MOD_P for c, x in r.items()}
    vecs = [{0: one, 2: a}, {1: one, 2: b}, {2: two, 3: one},
            {0: one, 1: one, 2: a + b + two, 3: one},  # in the span
            {3: a, 4: two}, {-1: b, 4: one}]
    grown = []
    for v in vecs:
        r = ech.reduce(v)
        before = {lead: dict(row) for lead, row in ech.rows.items()}
        olds = list(ech.rows.values())
        assert ech.add(v) == bool(r)
        if not r:
            assert ech.rows == before
            continue
        lead, row = list(ech.rows.items())[-1]
        assert lead == min(r) and row == monic(r)
        grown.append(lead)
        assert all(old == before[c] for c, old in zip(before, olds))
    assert grown == [0, 1, 2, 3, -1]
    assert list(ech.rows) == grown


def test_echelon_ignores_explicit_zero_scalars():
    ZERO = S(0)
    ech = Echelon([{0: ONE, 2: L1}, {1: ONE, 3: L2}])
    plain = {1: L1, 2: S(3), 4: L2}
    # zeros at a lead (0), at another row's entry (3) and elsewhere (5)
    padded = {0: ZERO, **plain, 3: ZERO, 5: ZERO}
    assert ech.reduce(padded) == ech.reduce(plain) == {2: S(3),
                                                       3: -(L1 * L2), 4: L2}
    assert ech.contains({0: ZERO, 5: ZERO})
    assert not Echelon().add({0: ZERO})
    twin = Echelon(ech.basis())
    assert ech.add(padded) and twin.add(plain) and ech.same_span(twin)
