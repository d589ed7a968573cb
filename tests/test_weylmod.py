"""Tests for the Weyl-module instances and their level windows."""

import random

import pytest

from wittmod.exactnum import (
    MOD_P, ONE, Echelon, Scalar, at_point, point_value,
)
from wittmod.liealg import WeylElement
from wittmod.polyalg import LAURENT, PLUS
from wittmod.weylmod import (
    WeylModule, alaurent, apoly, laurent_quot, tensor_factors,
    twisted_laurent, whittaker, LaurentFactor, PolyFactor, QuotFactor,
    TwistedFactor, WhittakerFactor,
)


def S(a, b=1):
    return Scalar.rational(a, b)


def one_at(idx):
    return {idx: ONE}


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def test_window_apoly():
    P = apoly(2)
    win = P.window_basis(2)
    assert win == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert [P.level(i) for i in win] == [0, 1, 1, 2, 2, 2]


def test_window_quot():
    P = laurent_quot(1)
    assert P.window_basis(3) == [(-1,), (-2,), (-3,)]
    assert P.window_basis(0) == []


def test_window_alaurent_counts():
    P = alaurent(2)
    # L1 ball sizes: 1, 5, 13 for radius 0, 1, 2
    assert len(P.window_basis(0)) == 1
    assert len(P.window_basis(1)) == 5
    assert len(P.window_basis(2)) == 13


def test_window_whittaker():
    P = whittaker([S(1), S(1)])
    assert P.window_basis(1) == [(0, 0), (0, 1), (1, 0)]


# The level <= 3 windows of mixed tensors, sorted by (level, index); the
# level <= D window is the prefix of the sizes given, and the level of an
# index is its L1 norm whatever the factor kinds.
_MIXED_WINDOWS = [
    ([QuotFactor(), PolyFactor()], [0, 1, 3, 6],
     [(-1, 0), (-2, 0), (-1, 1), (-3, 0), (-2, 1), (-1, 2)]),
    ([LaurentFactor(), WhittakerFactor(Scalar.param("l2"))], [1, 4, 9, 16],
     [(0, 0), (-1, 0), (0, 1), (1, 0), (-2, 0), (-1, 1), (0, 2), (1, 1),
      (2, 0), (-3, 0), (-2, 1), (-1, 2), (0, 3), (1, 2), (2, 1), (3, 0)]),
    ([QuotFactor(), TwistedFactor(Scalar.param("m"))], [0, 1, 4, 9],
     [(-1, 0), (-2, 0), (-1, -1), (-1, 1), (-3, 0), (-2, -1), (-2, 1),
      (-1, -2), (-1, 2)]),
]


@pytest.mark.parametrize("factors, sizes, window3", _MIXED_WINDOWS,
                         ids=["Quot,Apoly", "Alaurent,Whittaker", "Quot,TL"])
def test_window_mixed_tensors_pinned(factors, sizes, window3):
    P = tensor_factors(factors)
    for D, size in enumerate(sizes):
        win = P.window_basis(D)
        assert win == window3[:size]
        assert [P.level(i) for i in win] == \
            [sum(abs(k) for k in i) for i in win]


def test_modes_and_flags():
    assert apoly(2).mode == PLUS
    assert alaurent(2).mode == LAURENT
    assert twisted_laurent([Scalar.param("l1")]).mode == LAURENT
    assert laurent_quot(2).mode == PLUS
    assert whittaker([S(2)]).mode == PLUS
    mixed = tensor_factors([LaurentFactor(), QuotFactor()])
    assert mixed.mode == PLUS
    assert apoly(3).is_natural() and alaurent(3).is_natural()
    assert not laurent_quot(2).is_natural()
    assert not tensor_factors([PolyFactor(), LaurentFactor()]).is_natural()


# ---------------------------------------------------------------------------
# factor validation
# ---------------------------------------------------------------------------

def test_twisted_rejects_integers():
    with pytest.raises(ValueError):
        TwistedFactor(S(3))
    with pytest.raises(ValueError):
        twisted_laurent([Scalar.param("l1"), S(-1)])
    TwistedFactor(S(1, 2))  # fine
    TwistedFactor(Scalar.param("l1"))  # fine


def test_whittaker_rejects_zero():
    with pytest.raises(ValueError):
        WhittakerFactor(Scalar.integer(0))


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

def test_apoly_actions():
    P = apoly(2)
    v = one_at((2, 1))  # t1^2 t2
    assert P.act_generator(("d", 1), v) == {(1, 1): S(2)}
    assert P.act_generator(("t", 2), v) == {(2, 2): ONE}
    assert P.act_witt_monomial((1, 0), 1, v) == {(2, 1): S(2)}
    assert P.act_generator(("d", 1), one_at((0, 3))) == {}


def test_laurent_derivative_kills_constants():
    # d 1 = 0 although t^-1 is a basis vector of C[t, t^-1]
    P = alaurent(1)
    assert P.act_generator(("d", 1), one_at((0,))) == {}
    assert P.act_index((0,), (0,), 1) == {}
    assert P.act_generator(("d", 1), one_at((-1,))) == {(-2,): S(-1)}


def test_quot_truncation():
    P = laurent_quot(1)
    assert P.act_generator(("t", 1), one_at((-1,))) == {}
    assert P.act_generator(("t", 1), one_at((-2,))) == {(-1,): ONE}
    assert P.act_generator(("d", 1), one_at((-1,))) == {(-2,): S(-1)}


def test_twisted_derivative_never_dies():
    lam = Scalar.param("l1")
    P = twisted_laurent([lam])
    out = P.act_generator(("d", 1), one_at((0,)))
    assert out == {(-1,): lam}
    out = P.act_generator(("d", 1), one_at((-1,)))
    assert out == {(-2,): lam + S(-1)}
    assert not (lam + S(-1)).is_zero()


def test_whittaker_formulas():
    lam = S(3)
    P = whittaker([lam])
    # d x^1 = lam^-1 (x+1)^2 = (1/3)(x^2 + 2x + 1)
    assert P.act_generator(("d", 1), one_at((1,))) == {
        (0,): S(1, 3), (1,): S(2, 3), (2,): S(1, 3)}
    # t x^2 = lam (x-1)^2 = 3x^2 - 6x + 3
    assert P.act_generator(("t", 1), one_at((2,))) == {
        (0,): S(3), (1,): S(-6), (2,): S(3)}


def test_whittaker_symbolic_parameter():
    lam = Scalar.param("l1")
    P = whittaker([lam])
    out = P.act_generator(("d", 1), one_at((0,)))
    # d 1 = lam^-1 (x+1)
    assert out == {(0,): lam.inv(), (1,): lam.inv()}


def test_weyl_relations_on_random_vectors():
    # [d_i, t_j] = delta_ij as operators, checked as exact identities on
    # random vectors from each instance.
    rng = random.Random(977)
    lam = Scalar.param("l1")
    mods = [apoly(2), alaurent(2), laurent_quot(2),
            twisted_laurent([lam, S(1, 2)]), whittaker([S(2), lam])]
    for P in mods:
        win = P.window_basis(3)
        for _ in range(6):
            idx = rng.choice(win)
            v = {idx: S(rng.randint(1, 5))}
            for i in (1, 2):
                for j in (1, 2):
                    dt = P.act_generator(("d", i), P.act_generator(("t", j), v))
                    td = P.act_generator(("t", j), P.act_generator(("d", i), v))
                    diff = dict(dt)
                    for k, c in td.items():
                        s = diff.get(k, Scalar.integer(0)) - c
                        if s.is_zero():
                            diff.pop(k, None)
                        else:
                            diff[k] = s
                    expect = v if i == j else {}
                    assert diff == expect, (P.kind, i, j, idx)


def test_act_weyl_matches_generator_composition():
    P = alaurent(2)
    w = WeylElement.monomial(2, LAURENT, (1, -1), (1, 0), S(2))
    v = one_at((2, 0))
    # 2 t1 t2^-1 d1 on t1^2: d1 -> 2 t1, then t-part -> 4 t1^2 t2^-1
    assert P.act_weyl(w, v) == {(2, -1): S(4)}
    # product of operators acts as composition
    a = WeylElement.monomial(2, LAURENT, (0, 1), (1, 0), ONE)
    b = WeylElement.monomial(2, LAURENT, (1, 0), (0, 1), ONE)
    lhs = P.act_weyl(a * b, v)
    rhs = P.act_weyl(a, P.act_weyl(b, v))
    assert lhs == rhs


def test_t_d_freeness_whittaker():
    # t_1 d_1 maps x^k to a polynomial of degree exactly k+1: injective on
    # every window, with no eigenvectors (free action).
    P = whittaker([S(1), S(2)])
    win = P.window_basis(3)
    ech = Echelon()
    for idx in win:
        ech.add(P.act_witt_monomial((1, 0), 1, one_at(idx)))
    assert ech.dim == len(win)


def test_act_index_matches_stepping_actions():
    # the per-factor word tables against the generator-by-generator route,
    # for every factor kind and two mixes, at n = 2 and 3
    rng = random.Random(5150)
    lam = Scalar.param("l1")
    kinds = [PolyFactor, LaurentFactor, QuotFactor,
             lambda: TwistedFactor(lam), lambda: TwistedFactor(S(1, 2)),
             lambda: WhittakerFactor(lam), lambda: WhittakerFactor(S(3))]
    mixes = [[PolyFactor(), WhittakerFactor(lam), QuotFactor()],
             [LaurentFactor(), TwistedFactor(S(1, 2)), TwistedFactor(lam)]]
    mods = [WeylModule([make() for _ in range(n)])
            for make in kinds for n in (2, 3)]
    mods += [WeylModule(m[:n]) for m in mixes for n in (2, 3)]
    for P in mods:
        win = P.window_basis(3)
        lo = -2 if P.mode == LAURENT else 0
        for _ in range(12):
            idx = rng.choice(win)
            alpha = tuple(rng.randint(lo, 2) for _ in range(P.n))
            assert P.act_index(idx, alpha) == \
                P.act_t_monomial(alpha, one_at(idx)), (P.kind, idx, alpha)
            for j in range(1, P.n + 1):
                assert P.act_index(idx, alpha, j) == \
                    P.act_witt_monomial(alpha, j, one_at(idx)), \
                    (P.kind, idx, alpha, j)


def test_act_index_plus_mode_and_quot_truncation():
    P = laurent_quot(2)
    with pytest.raises(ValueError):
        P.act_index((-1, -1), (1, -1))
    with pytest.raises(ValueError):
        tensor_factors([LaurentFactor(), PolyFactor()]).act_index(
            (0, 0), (-1, 0), 2)
    # t kills t^-1, so any word with t on that factor is empty
    assert P.act_index((-1, -2), (1, 0)) == {}
    assert P.act_index((-1, -2), (1, 0), 2) == {}
    assert P.act_index((-2, -1), (1, 0)) == {(-1, -1): ONE}


def test_weights():
    P = apoly(2)
    assert P.weight((2, 1)) == (S(2), S(1))
    lam = Scalar.param("l1")
    T = twisted_laurent([lam, S(1, 2)])
    assert T.weight((1, -1)) == (lam + S(1), S(-1, 2))
    assert whittaker([S(1)]).weight((0,)) is None
    assert whittaker([S(1)]).is_weight is False


def test_op_raise_bounds():
    assert apoly(2).op_raise_bound((1, 1), 1) == 1  # |a| - 1
    assert alaurent(2).op_raise_bound((1, -1), 2) == 3  # |a| + 1
    assert whittaker([S(1), S(2)]).op_raise_bound((2, 1), 1) == 1
    assert laurent_quot(1).op_raise_bound((2,), 1) == 1


# ---------------------------------------------------------------------------
# codimension of the summed derivative image
# ---------------------------------------------------------------------------

def test_codim_apoly_zero():
    # d/dt_k over C[t] hits every polynomial: codim 0 at any window.
    for D in (2, 3, 4):
        assert apoly(2).sum_partial_image_codim(D) == 0
    assert apoly(1).sum_partial_image_codim(4) == 0


def test_codim_whittaker_one():
    # sum_k d_k Omega = polynomials vanishing at (-1,...,-1): codim 1.
    assert whittaker([S(1)]).sum_partial_image_codim(3) == 1
    assert whittaker([S(1), S(-2)]).sum_partial_image_codim(3) == 1
    lam = Scalar.param("l1")
    assert whittaker([lam]).sum_partial_image_codim(4) == 1


def test_codim_alaurent_one():
    # No Laurent polynomial has derivative t^-1: the inverse-diagonal
    # monomial t1^-1...tn^-1 is missed, codim 1 once the window sees it.
    assert alaurent(1).sum_partial_image_codim(3) == 1
    assert alaurent(2).sum_partial_image_codim(4) == 1


def test_codim_twisted_zero():
    lam = Scalar.param("l1")
    assert twisted_laurent([lam]).sum_partial_image_codim(3) == 0
    assert twisted_laurent([lam, S(1, 2)]).sum_partial_image_codim(3) == 0


def test_codim_quot_one():
    # d t^k = k t^(k-1) with k <= -1 never produces t^-1: codim 1, the
    # missed line being the corner t1^-1...tn^-1.
    assert laurent_quot(1).sum_partial_image_codim(3) == 1
    assert laurent_quot(2).sum_partial_image_codim(3) == 1


@pytest.mark.parametrize("P", [
    whittaker([Scalar.param("l1"), S(3, 2)]),
    twisted_laurent([Scalar.param("l1"), S(1, 3)]), alaurent(2),
])
def test_words_at_the_point_are_the_evaluated_exact_words(P):
    # each word of P.at_point() is P's word evaluated at the point, so
    # act_index there is P's act_index evaluated, up to multiples of p
    Q = P.at_point()
    assert (Q.mode, Q.exact) == (P.mode, P)
    for idx in P.window_basis(2):
        for alpha in ((0, 0), (1, 0), (2, 1), (0, 3)):
            for j in (None, 1, 2):
                exact = {q: at_point(x)
                         for q, x in P.act_index(idx, alpha, j).items()}
                point = {q: x % MOD_P
                         for q, x in Q.act_index(idx, alpha, j).items()}
                assert point == {q: v for q, v in exact.items() if v}
    assert all(type(c) is int and 0 < c < MOD_P
               for word in Q._words.values() for _, c in word)


@pytest.mark.parametrize("make", [whittaker, twisted_laurent])
def test_at_point_rejects_a_parameter_vanishing_there(make):
    # Whittaker's d divides by lam, and a twist lam = 0 is no twist
    lam = Scalar.param("l1") - Scalar.integer(point_value("l1"))
    with pytest.raises(ZeroDivisionError):
        make([lam, Scalar.param("l2")]).at_point()
