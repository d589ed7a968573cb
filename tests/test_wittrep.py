"""Tests for F(P, M): actions, chain maps, windows, reports."""

import itertools
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wittmod import wittrep
from wittmod.cli import main, parse_m, parse_p
from wittmod.exactnum import (
    MOD_P, Echelon, EchelonModP, ExactMatrix, ONE, Scalar, at_point,
    coordinate_block_intersection, kernel_basis, point_value, vec_axpy,
    vec_sub, vec_clean,
)
from wittmod.glmod import (
    exterior_power, natural_module, scalar_module, sym_power, tensor_module,
    wedge_sort,
)
from wittmod.liealg import WittElement, witt_bracket
from wittmod.polyalg import PLUS
from wittmod.weylmod import alaurent, apoly, laurent_quot, twisted_laurent, whittaker
from wittmod.wittrep import (
    FPModule, _saturation_report, _tensor, check_action_axiom,
    check_chain_map, check_shen_tau, check_torsion, complex_homology,
    fingerprint, interior_invariant, irreducibility_report, kernel_window,
    l_window, l_windows, ltilde_window, operators, pi_map, saturation_seeds,
    submodule_closure, torsion_expected, torsion_matches, torsion_operator,
    weight_support,
)


def S(a, b=1):
    return Scalar.rational(a, b)


L1, L2 = Scalar.param("l1"), Scalar.param("l2")


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------

def test_act_on_constants():
    # (t1 d2)(1 (x) eps2): the derivative part dies, E(1,2) moves eps2 to eps1
    F = FPModule(apoly(2), exterior_power(2, 1))
    out = F.act((1, 0), 2, {((0, 0), 1): ONE})
    assert out == {((0, 0), 0): ONE}


def test_tensor_forms_no_product_with_a_unit_part(monkeypatch):
    # a part whose M-vector entry is the shared ONE adds act_index's image
    # without one Scalar product of its own
    calls = []
    mul = Scalar.__mul__

    def spy(self, other):
        calls.append(1)
        return mul(self, other)
    P = whittaker([L1, L2])
    P.act_index((1, 0), (2, 1), 1)  # fills the word table
    monkeypatch.setattr(Scalar, "__mul__", spy)
    img = P.act_index((1, 0), (2, 1), 1)
    own = len(calls)
    out = _tensor({}, P, (1, 0), [((2, 1), 1, {0: ONE})])
    assert len(calls) == 2 * own
    assert out == {(q, 0): x for q, x in img.items()}


def test_tensor_keeps_the_plus_mode_guard():
    # the fused loop refuses t^-1 on a plus-mode P, as act_index does
    with pytest.raises(ValueError, match="negative exponent"):
        _tensor({}, apoly(2), (1, 0), [((-1, 0), 1, {0: ONE})])
    # a part with an empty M-vector is skipped before the guard, as before
    assert _tensor({}, apoly(2), (1, 0), [((-1, 0), 1, {})]) == {}


def _word_lengths(P, pidx, alpha, j):
    # the number of terms of each factor's word of t^alpha d_j on pidx
    keys = [(pos, a, pos + 1 == j, k)
            for pos, (a, k) in enumerate(zip(alpha, pidx))]
    return tuple(len(P._words.get(key) or P._word(key)) for key in keys)


@pytest.mark.parametrize("p_expr", [
    "Tensor(Apoly,Whittaker(l2))", "Tensor(Whittaker(l1),Apoly)",
    "Whittaker(l1,l2)", "Apoly"])
def test_tensor_one_term_words_match_act_index(p_expr):
    # _tensor carries a product of one-term words as one pair and opens a
    # term list at the first word of several terms or none: the image is
    # act_index's tensored with the M-vector and scaled by c, for c = ONE
    # and c != 1, with ONE and other M entries, t^alpha with and without d
    P = parse_p(p_expr, 2)
    w = {0: ONE, 2: S(-3) * L2}
    met = set()
    for c in (ONE, S(2, 3) * L1):
        for alpha, j in operators(2, 2, P.mode):
            for pidx in P.window_basis(2):
                for jj in (j, None):
                    want = {}
                    for q, cp in P.act_index(pidx, alpha, jj).items():
                        vec_axpy(want, [((q, m), cp * cm)
                                        for m, cm in w.items()], c)
                    got = _tensor({}, P, pidx, [(alpha, jj, w)], c)
                    assert got == want and list(got) == list(want)
                    met.add(_word_lengths(P, pidx, alpha, jj))
    # a one-term prefix meets a multi-term word, or a multi-term prefix a
    # one-term word; on Apoly a one-term prefix meets the empty word of d_2
    # on t^0
    if p_expr.startswith("Tensor(Apoly"):
        assert any(a == 1 and b > 1 for a, b in met)
    if p_expr.startswith("Tensor(Whittaker"):
        assert any(a > 1 and b == 1 for a, b in met)
    if p_expr == "Apoly":
        assert (1, 0) in met
        assert _tensor({}, P, (1, 0), [((1, 0), 2, w)]) == {}


def test_pi_map_and_torsion_expected_leave_no_zero_entry():
    # _tensor tests only sums for zero and skips a zero coefficient once:
    # an explicit zero adds nothing, and parts that cancel leave no entry
    zero = Scalar.integer(0)
    # pi_1 on F(Apoly, Ext(1)): t2 (x) e1 -> -1 (x) e12, t1 (x) e2 -> 1 (x) e12
    P = apoly(2)
    a, b = ((0, 1), 0), ((1, 0), 1)
    assert pi_map(P, 1, {a: ONE, b: ONE}) == {}
    assert pi_map(P, 1, {a: ONE, b: zero}) == {((0, 0), 0): -ONE}
    assert pi_map(P, 1, {a: zero}) == {}
    # (l, i, j) = (1, 2, 2) on F(Whittaker(l1,l2), Sym(2)) sends
    # p (x) e2^2 to -2 (t1 p) (x) e1^2, and t1 sends 1 to l1 * 1 and t1 to
    # l1 t1 - l1 * 1
    F = FPModule(whittaker([L1, L2]), sym_power(2, 2))
    u, v = ((0, 0), 0), ((1, 0), 0)
    got = torsion_expected(F, 1, 2, 2, (1, 0), {u: ONE, v: ONE})
    assert got == {((1, 0), 2): S(-2) * L1}
    got = torsion_expected(F, 1, 2, 2, (1, 0), {u: zero, v: ONE})
    assert got == {((0, 0), 2): S(2) * L1, ((1, 0), 2): S(-2) * L1}
    assert torsion_expected(F, 1, 2, 2, (1, 0), {u: zero}) == {}


def _act_cell_by_steps(F, alpha, j, cell):
    # t^alpha d_j on p (x) e_m by stepping generators: (t^alpha d_j p) (x) e_m
    # plus a_i (t^(alpha - e_i) p) (x) E(i, j) e_m for each i with a_i != 0
    pidx, midx = cell
    out = {}
    p = {pidx: ONE}
    parts = [(F.P.act_witt_monomial(alpha, j, p), {midx: ONE})]
    for i, a_i in enumerate(alpha, 1):
        if a_i:
            beta = alpha[:i - 1] + (a_i - 1,) + alpha[i:]
            parts.append((F.P.act_t_monomial(beta, p),
                          F.M.act(i, j, {midx: Scalar.integer(a_i)})))
    for pvec, mvec in parts:
        for q, cp in pvec.items():
            vec_axpy(out, [((q, m), cp * cm) for m, cm in mvec.items()])
    return out


@pytest.mark.parametrize("p_expr, m_expr, D, A", [
    ("Apoly", "Sym(2)", 2, 3), ("Alaurent", "Sym(2)", 2, 2),
    ("Alaurent+", "Ext(1)", 2, 3), ("TL(l1,l2)", "Triv(l1)", 2, 2),
    ("Quot", "Sym(2)", 2, 2), ("Whittaker(l1,l2)", "Sym(2)", 2, 3),
    ("Tensor(Quot,Whittaker(l2))", "Nat", 2, 2)])
def test_act_cell_matches_the_stepping_route(p_expr, m_expr, D, A):
    # act_cell's parts go straight into the image, the multiplicity as
    # _tensor's multiplier: the image is the one the generators step to,
    # on all five factor kinds, Whittaker's multi-term words included, and
    # at the point on the view, whose ints reduce to the exact image there
    F = _module(p_expr, m_expr)
    view = wittrep._AtPoint(F)
    for alpha, j in operators(F.n, A, F.mode):
        for cell in F.window_basis(D):
            img = F.act_cell(alpha, j, cell)
            assert img == _act_cell_by_steps(F, alpha, j, cell)
            at = ((d, at_point(x)) for d, x in img.items())
            mod = ((d, x % MOD_P) for d, x in view.act_cell(alpha, j, cell)
                   .items())
            assert {d: x for d, x in mod if x} == {d: x for d, x in at if x}
    multi = [any(len(w) > 1 for w in P._words.values()) for P in (F.P, view.P)]
    assert multi == [True, True] if "Whittaker" in p_expr else [False, False]


def _act_cell_per_cell(F, alpha, j, cell):
    # the builder act_cell had before its parts were built once per
    # operator: the unit part, then each E(i, j) e_m column sliced out per
    # cell with a_i as _tensor's multiplier
    pidx, midx = cell
    out = _tensor({}, F.P, pidx, [(alpha, j, {midx: ONE})])
    for i, a_i in enumerate(alpha, 1):
        col = F.M.act_column(i, j, midx) if a_i else None
        if col:
            _tensor(out, F.P, pidx,
                    [(alpha[:i - 1] + (a_i - 1,) + alpha[i:], None, col)],
                    F.integer(a_i))
    return out


@pytest.mark.parametrize("p_expr, m_expr, D, A", [
    ("Apoly", "Sym(2)", 2, 3), ("Alaurent", "Ext(1)*Sym(2)", 2, 2),
    ("TL(l1,l2)", "Triv(l1)", 2, 2), ("Quot", "Sym(2)", 3, 2),
    ("Whittaker(l1,l2)", "Sym(2)", 2, 3)])
def test_act_cell_matches_the_per_cell_builder(p_expr, m_expr, D, A):
    # the same entries in the same order, on the exact route and with ints
    # on the view at the point
    F = _module(p_expr, m_expr)
    for G in (F, wittrep._AtPoint(F)):
        for alpha, j in operators(F.n, A, F.mode):
            for cell in G.window_basis(D):
                got = G.act_cell(alpha, j, cell)
                assert list(got.items()) == \
                    list(_act_cell_per_cell(G, alpha, j, cell).items())


def test_apply_skips_zero_coefficients_and_drops_cancelled_entries():
    # t1 t2 d1 on F(Apoly, Nat): a vector with an explicit zero entry and
    # two cells whose images cancel at a shared cell, added into an `out`
    # whose entries cancel against the images too
    F = FPModule(apoly(2), natural_module(2))
    op = ((1, 1), 1)
    # u -> 2 t1t2^2 (x) e1 + t1^2t2 (x) e2, v -> 2 t1^2t2 (x) e2
    u, v, z = ((1, 1), 0), ((2, 0), 1), ((0, 0), 1)
    vec = {u: ONE, v: S(-1, 2), z: Scalar.integer(0)}
    out0 = {((1, 2), 0): S(-2), ((5, 5), 0): S(7)}
    ref = dict(out0)
    for cell, x in vec.items():
        vec_axpy(ref, _act_cell_per_cell(F, *op, cell).items(), x)
    table = F.column(*op)
    got = dict(out0)
    assert wittrep._apply(F, table, *op,
                          [(got, c, x) for c, x in vec.items()]) is None
    assert got == ref == {((5, 5), 0): S(7)}
    # the zero coefficient's image was never built
    assert z not in table and u in table and v in table
    # one call feeds two destinations: each gets its own items' images
    first, second = dict(out0), {}
    wittrep._apply(F, table, *op, [(first, u, ONE), (second, v, S(3)),
                                   (first, v, S(-1, 2)),
                                   (second, z, Scalar.integer(0))])
    assert first == ref and z not in table
    assert second == {d: S(3) * x for d, x in table[v].items()}
    assert second == {((2, 1), 1): S(6)}


def test_act_mixed_terms():
    # (t1 t2 d1)(t1 (x) eps1) = 2 t1t2 (x) eps1 + t1^2 (x) eps2
    F = FPModule(apoly(2), exterior_power(2, 1))
    out = F.act((1, 1), 1, {((1, 0), 0): ONE})
    assert out == {((1, 1), 0): S(2), ((2, 0), 1): ONE}


def test_act_scalar_module_closed_form():
    # On F(P, Triv(b)) the action collapses to
    # (t^a d_j) g + (b a_j / n) t^(a - e_j) g, for symbolic b.
    b = Scalar.param("b")
    P = apoly(2)
    F = FPModule(P, scalar_module(2, b))
    rng = random.Random(40901)
    win = P.window_basis(3)
    for _ in range(25):
        pidx = rng.choice(win)
        alpha = (rng.randint(0, 2), rng.randint(0, 2))
        j = rng.randint(1, 2)
        got = F.act(alpha, j, {(pidx, 0): ONE})
        expect = {}
        for p2, c in P.act_witt_monomial(alpha, j, {pidx: ONE}).items():
            expect[(p2, 0)] = expect.get((p2, 0), Scalar.integer(0)) + c
        if alpha[j - 1]:
            shifted = alpha[:j - 1] + (alpha[j - 1] - 1,) + alpha[j:]
            coeff = b * S(alpha[j - 1], 2)
            for p2, c in P.act_t_monomial(shifted, {pidx: ONE}).items():
                expect[(p2, 0)] = expect.get((p2, 0), Scalar.integer(0)) + coeff * c
        assert got == vec_clean(expect)


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        FPModule(apoly(2), natural_module(3))


def _n_ops(n, A, mode):
    """The number of operators t^alpha d_j with |alpha| <= A in closed form:
    n times the number of exponents in Z_+^n, or in Z^2."""
    if mode == "plus":
        return n * math.comb(A + n, n)
    assert n == 2
    return n * (2 * A * A + 2 * A + 1)


def _axiom_pairs(F, A, D):
    # one check per pair of distinct operators and window cell
    return math.comb(_n_ops(F.n, A, F.mode), 2) * len(F.window_basis(D))


def test_action_axiom_suite_small():
    for P, M, A, D in ((apoly(2), natural_module(2), 2, 2),
                       (laurent_quot(2), sym_power(2, 2), 1, 3),
                       (apoly(3), natural_module(3), 1, 1)):
        F = FPModule(P, M)
        assert check_action_axiom(F, A, D) == (True, _axiom_pairs(F, A, D), "")


def test_action_axiom_laurent_spot():
    F = FPModule(alaurent(2), exterior_power(2, 1))
    ok, checked, note = check_action_axiom(F, 2, 2)
    assert ok, note
    assert checked == _axiom_pairs(F, 2, 2)


def test_action_axiom_fails_on_a_wrong_action(monkeypatch):
    # t^(1,1) d_2 without its matrix part E(1,2) + E(2,2) is no module
    # action on F(Apoly, Nat); the first failing pair contains it
    act_cell = FPModule.act_cell

    def broken(self, alpha, j, cell):
        if (tuple(alpha), j) == ((1, 1), 2):
            return _tensor({}, self.P, cell[0], [((1, 1), 2, {cell[1]: ONE})])
        return act_cell(self, alpha, j, cell)

    monkeypatch.setattr(FPModule, "act_cell", broken)
    ok, checked, note = check_action_axiom(
        FPModule(apoly(2), natural_module(2)), 2, 2)
    assert not ok
    assert note == "pair t^(0, 0) d_1, t^(1, 1) d_2 on t^0*t^0(x)e2"
    assert checked == 98


def _axiom_reference(F, bound, D):
    # check_action_axiom with both compositions built by F.act
    ops = operators(F.n, bound, F.mode)
    elems = [WittElement.monomial(F.n, F.mode, a, j) for a, j in ops]
    cells = F.window_basis(D)
    checked = 0
    for ai, (xa, xj) in enumerate(ops):
        for bi in range(ai + 1, len(ops)):
            ya, yj = ops[bi]
            br = witt_bracket(elems[ai], elems[bi]).monomials()
            for cell in cells:
                lhs = {}
                for alpha, j, c in br:
                    vec_axpy(lhs, F.act_cell(alpha, j, cell).items(), c)
                vec_axpy(lhs, F.act(ya, yj, F.act_cell(xa, xj, cell)).items())
                checked += 1
                if lhs != F.act(xa, xj, F.act_cell(ya, yj, cell)):
                    return (False, checked,
                            "pair t^%s d_%d, t^%s d_%d on %s"
                            % (xa, xj, ya, yj, F.label(cell)))
    return (True, checked, "")


@pytest.mark.parametrize("p_expr, M, A, D", [
    ("Apoly", sym_power(2, 2), 2, 2),
    ("Alaurent", natural_module(2), 2, 1),
    ("Quot", sym_power(2, 2), 2, 2),
    ("TL(l1,l2)", natural_module(2), 1, 2),
    ("Whittaker(l1,l2)", sym_power(2, 2), 1, 1),
])
def test_action_axiom_matches_the_act_reference(p_expr, M, A, D):
    got = check_action_axiom(FPModule(parse_p(p_expr, 2), M), A, D)
    assert got[0], got
    assert got == _axiom_reference(FPModule(parse_p(p_expr, 2), M), A, D)


def test_action_axiom_fails_on_a_wrong_outer_action(monkeypatch):
    # d_1 is the first operator, so it is x in every pair it is in and its
    # images of window cells enter only the bracket terms and y(xv); off the
    # window it is halved, which only x(yv) meets (y raising the level).
    # d_1 has no matrix part, so its image is the P part alone.
    act_cell = FPModule.act_cell
    D = 2

    def broken(self, alpha, j, cell):
        if (tuple(alpha), j) == ((0, 0), 1) and self.level(cell) > D:
            return _tensor({}, self.P, cell[0], [((0, 0), 1, {cell[1]: S(1, 2)})])
        return act_cell(self, alpha, j, cell)

    monkeypatch.setattr(FPModule, "act_cell", broken)
    got = check_action_axiom(FPModule(apoly(2), natural_module(2)), 2, D)
    assert not got[0]
    assert got[2].startswith("pair t^(0, 0) d_1, ")
    assert got == _axiom_reference(FPModule(apoly(2), natural_module(2)), 2, D)


def test_action_axiom_names_the_first_failing_cell_of_a_pair(monkeypatch):
    # t^(1,1) d_2 loses its matrix part on level-1 cells only: the first
    # failing pair fails on several window cells, the first of them not
    # the window's first cell, and the sweep, which checks a pair on the
    # whole window at once, names that cell and counts up to it
    act_cell = FPModule.act_cell
    D = 2

    def broken(self, alpha, j, cell):
        if (tuple(alpha), j) == ((1, 1), 2) and self.level(cell) == 1:
            return _tensor({}, self.P, cell[0], [((1, 1), 2, {cell[1]: ONE})])
        return act_cell(self, alpha, j, cell)

    monkeypatch.setattr(FPModule, "act_cell", broken)
    F = FPModule(apoly(2), natural_module(2))
    x, y = ((0, 0), 1), ((1, 1), 2)
    cells = F.window_basis(D)
    bad = []
    for i, cell in enumerate(cells):
        v = {cell: ONE}
        lhs = F.act(*y, F.act(*x, v))
        for alpha, j, c in wittrep.monomial_bracket(2, PLUS, x, y):
            vec_axpy(lhs, F.act(alpha, j, v).items(), c)
        if lhs != F.act(*x, F.act(*y, v)):
            bad.append(i)
    assert bad[0] > 0 and len(bad) > 1
    got = check_action_axiom(FPModule(apoly(2), natural_module(2)), 2, D)
    assert got == _axiom_reference(FPModule(apoly(2), natural_module(2)), 2, D)
    assert got[2] == "pair t^(0, 0) d_1, t^(1, 1) d_2 on %s" \
        % F.label(cells[bad[0]])
    assert got[1] % len(cells) == bad[0] + 1


def test_action_axiom_fails_on_a_wrong_bracket_only_action(monkeypatch):
    # t^(2,1) d_1 has |alpha| = 3 > 2, so it is in no pair and enters the
    # sweep only as a bracket term on window cells; it loses its matrix part
    # on level-1 cells, and the sweep's bracket tables must see that
    act_cell = FPModule.act_cell
    D = 2

    def broken(self, alpha, j, cell):
        if (tuple(alpha), j) == ((2, 1), 1) and self.level(cell) == 1:
            return _tensor({}, self.P, cell[0], [((2, 1), 1, {cell[1]: ONE})])
        return act_cell(self, alpha, j, cell)

    monkeypatch.setattr(FPModule, "act_cell", broken)
    F = FPModule(apoly(2), natural_module(2))
    assert ((2, 1), 1) not in operators(2, 2, PLUS)
    assert any(term[:2] == ((2, 1), 1)
               for x, y in itertools.combinations(operators(2, 2, PLUS), 2)
               for term in wittrep.monomial_bracket(2, PLUS, x, y))
    got = check_action_axiom(F, 2, D)
    assert not got[0]
    assert got == _axiom_reference(FPModule(apoly(2), natural_module(2)), 2, D)


@pytest.mark.parametrize("p_expr, M, A, D", [
    ("Apoly", sym_power(2, 2), 2, 2),
    ("Whittaker(l1,l2)", natural_module(2), 1, 2),
])
def test_action_axiom_builds_each_image_once_and_drops_columns(
        monkeypatch, p_expr, M, A, D):
    # the sweep asks act_cell for each (operator, cell) image at most once,
    # and F keeps no column table of an operator or bracket term after it
    act_cell = FPModule.act_cell
    calls = []

    def spy(self, alpha, j, cell):
        calls.append((tuple(alpha), j, cell))
        return act_cell(self, alpha, j, cell)

    monkeypatch.setattr(FPModule, "act_cell", spy)
    F = FPModule(parse_p(p_expr, 2), M)
    ok, checked, note = check_action_axiom(F, A, D)
    assert (ok, note) == (True, "")
    assert checked == _axiom_pairs(F, A, D)
    assert calls and len(set(calls)) == len(calls)
    assert F._columns == {}


@pytest.mark.parametrize("n, A", [(2, 1), (2, 2), (2, 3), (3, 1)])
def test_shen_suite_checks_every_pair(n, A):
    ok, checked, note = check_shen_tau(n, A, "plus")
    assert (ok, note) == (True, "")
    assert checked == math.comb(_n_ops(n, A, "plus"), 2)


def test_shen_suite_two_sided_checks_200_pairs():
    assert check_shen_tau(2, 2, "laurent") == (True, 200, "")


@pytest.mark.parametrize("mode", ["plus", "laurent"])
def test_shen_suite_fails_on_a_wrong_tau(monkeypatch, mode):
    # 2 tau is linear but no homomorphism: 2 tau[x, y] != 4 [tau x, tau y]
    tau = wittrep.shen_tau
    monkeypatch.setattr(wittrep, "shen_tau", lambda x: tau(x) + tau(x))
    ok, checked, note = check_shen_tau(2, 2, mode)
    assert not ok
    assert note.startswith("mismatch at x=")
    assert 0 < checked


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_weight_of():
    F = FPModule(apoly(2), exterior_power(2, 1))
    # t1 (x) eps2 has weight (1, 0) + (0, 1) = (1, 1)
    assert F.weight_of(((1, 0), 1)) == (S(1), S(1))
    FT = FPModule(twisted_laurent([L1]), scalar_module(1, Scalar.integer(0)))
    assert FT.weight_of(((3,), 0)) == (L1 + S(3),)


def test_weight_of_rejects_whittaker():
    F = FPModule(whittaker([S(1), S(2)]), natural_module(2))
    with pytest.raises(ValueError, match="not a weight module"):
        F.weight_of(((0, 0), 0))


def test_weight_support_examples():
    T = twisted_laurent([L1, L2])
    sup = weight_support(T, scalar_module(2, Scalar.integer(0)), 2)
    expect = {(L1 + S(a), L2 + S(b))
              for a in range(-2, 3) for b in range(-2, 3)
              if abs(a) + abs(b) <= 2}
    assert sup == expect
    sup2 = weight_support(apoly(2), scalar_module(2, Scalar.integer(0)), 2)
    assert sup2 == {(S(a), S(b)) for a in range(3) for b in range(3)
                    if a + b <= 2}
    sup3 = weight_support(apoly(2), exterior_power(2, 2), 2)
    assert sup3 == {(S(a + 1), S(b + 1)) for a in range(3) for b in range(3)
                    if a + b <= 2}


# ---------------------------------------------------------------------------
# chain maps
# ---------------------------------------------------------------------------

def test_pi_examples():
    P = apoly(2)
    assert pi_map(P, 0, {((1, 1), 0): ONE}) == {
        ((0, 1), 0): ONE, ((1, 0), 1): ONE}
    assert pi_map(P, 1, {((1, 0), 0): ONE}) == {}
    with pytest.raises(ValueError, match="top degree"):
        pi_map(P, 2, {((0, 0), 0): ONE})


def test_pi_squared_zero_randomized():
    rng = random.Random(271828)
    for P in (apoly(2), alaurent(2), whittaker([S(1), S(3)]), apoly(3)):
        n = P.n
        win = P.window_basis(3)
        for k in range(n - 1):
            nsub = len(list(__import__("itertools").combinations(range(n), k)))
            for _ in range(10):
                vec = {}
                for _ in range(3):
                    cell = (rng.choice(win), rng.randrange(nsub))
                    vec[cell] = S(rng.randint(-4, 4))
                vec = vec_clean(vec)
                assert pi_map(P, k + 1, pi_map(P, k, vec)) == {}


def test_chain_map_commutes_with_action():
    # per k: one intertwining check per operator and cell of F(P, Ext(k)),
    # plus one pi_(k+1) pi_k check per cell while k + 1 <= n - 1
    for P, A, D in ((apoly(2), 2, 3), (alaurent(2), 2, 3), (apoly(3), 1, 2)):
        ok, checked, note = check_chain_map(P, A, D)
        assert ok, note
        n, cells = P.n, len(P.window_basis(D))
        assert checked == sum(
            (_n_ops(n, A, P.mode) + (k + 1 <= n - 1)) * cells * math.comb(n, k)
            for k in range(n))


def test_chain_map_fails_on_a_flipped_wedge_sign(monkeypatch):
    # e_2 ^ e_1 = +e_1 ^ e_2 makes pi_1 pi_0 nonzero
    def flipped(seq):
        out = wedge_sort(seq)
        return (-out[0], out[1]) if seq == (2, 1) else out

    monkeypatch.setattr(wittrep, "wedge_sort", flipped)
    monkeypatch.setattr(wittrep, "_WEDGE_PARTS", {})
    ok, checked, note = check_chain_map(apoly(2), 2, 3)
    assert not ok
    assert note.startswith("pi_1 pi_0 nonzero on ")


def test_wedge_sign_bookkeeping():
    # pi_1 over n=3 inserts with a sign: p (x) eps2 picks up -eps1^eps2 from l=1
    P = apoly(3)
    out = pi_map(P, 1, {((1, 1, 1), 1): ONE})
    # source eps2; l=1 sign +1 gives (eps1^eps2 after sort: inserted before) ...
    # label order for Ext(2): (1,2),(1,3),(2,3)
    assert out[((0, 1, 1), 0)] == ONE          # l=1 -> eps1^eps2, sign +
    assert out[((1, 1, 0), 2)] == S(-1)        # l=3 -> eps2^eps3? sign: x<3 count 1
    assert ((1, 0, 1), 1) not in out           # l=2 repeats


def test_pi_n4_matches_defining_sum():
    # pi_k(p (x) e_S) = sum over l of (d_l p) (x) (e_l ^ e_S), recomputed from
    # wedge_sort and the stepping action on every cell of the apoly(4)
    # window 2, for every k; consecutive maps compose to zero there
    P = apoly(4)
    n, zero = 4, (0, 0, 0, 0)
    for k in range(n):
        src = list(itertools.combinations(range(1, n + 1), k))
        dst = {s: a for a, s in enumerate(
            itertools.combinations(range(1, n + 1), k + 1))}
        F = FPModule(P, exterior_power(n, k))
        for pidx, midx in F.window_basis(2):
            expect = {}
            for l in range(1, n + 1):
                wedge = wedge_sort((l,) + src[midx])
                if wedge is None:
                    continue
                sgn, s_l = wedge
                d_l = P.act_witt_monomial(zero, l, {pidx: ONE})
                vec_axpy(expect, [((p2, dst[s_l]), c) for p2, c in d_l.items()],
                         S(sgn))
            img = pi_map(P, k, {(pidx, midx): ONE})
            assert img == expect
            if k + 1 <= n - 1:
                assert pi_map(P, k + 1, img) == {}


# ---------------------------------------------------------------------------
# torsion operator
# ---------------------------------------------------------------------------

def test_torsion_closed_form_examples():
    F = FPModule(apoly(2), sym_power(2, 2))
    e22 = F.M.labels.index("e2^2")
    e11 = F.M.labels.index("e1^2")
    assert torsion_operator(F, 1, 1, 1, (0, 0), {((0, 0), e22): ONE}) == {}
    out = torsion_operator(F, 1, 1, 1, (0, 0), {((0, 0), e11): ONE})
    assert out == {((0, 0), e11): S(-2)}


def test_torsion_vanishes_on_exterior():
    rng = random.Random(5771)
    for k in (1, 2):
        F = FPModule(apoly(2), exterior_power(2, k))
        win = F.window_basis(2)
        for _ in range(20):
            cell = rng.choice(win)
            v = {cell: S(rng.randint(1, 5))}
            l, i, j = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
            alpha = (rng.randint(0, 2), rng.randint(0, 2))
            assert torsion_operator(F, l, i, j, alpha, v) == {}


def test_torsion_suite_checks_100_samples():
    for P, M in ((alaurent(2), sym_power(2, 2)),
                 (whittaker([L1, L2]), natural_module(2))):
        assert check_torsion(FPModule(P, M), 2, 2) == (True, 100, "")


def test_torsion_matches_postcondition_randomized():
    rng = random.Random(90210)
    mods = [
        FPModule(apoly(2), sym_power(2, 2)),
        FPModule(alaurent(2), natural_module(2)),
        FPModule(whittaker([S(2), L1]), sym_power(2, 2)),
        FPModule(twisted_laurent([L1, S(1, 2)]), natural_module(2)),
    ]
    for F in mods:
        win = F.window_basis(2)
        lo = 0 if F.mode == "plus" else -2
        for _ in range(25):
            v = {}
            for _ in range(2):
                v[rng.choice(win)] = S(rng.randint(-3, 3))
            v = vec_clean(v)
            l, i, j = (rng.randint(1, 2) for _ in range(3))
            alpha = (rng.randint(lo, 2), rng.randint(lo, 2))
            assert torsion_matches(F, l, i, j, alpha, v), (F.name, l, i, j, alpha, v)


# ---------------------------------------------------------------------------
# windowed subspaces
# ---------------------------------------------------------------------------

def test_closure_constant_line():
    F = FPModule(apoly(2), scalar_module(2, Scalar.integer(0)))
    sub = submodule_closure(F, [{((0, 0), 0): ONE}], 4, 5)
    assert sub.dim == 1


def test_closure_degree_one_saturates():
    F = FPModule(apoly(2), scalar_module(2, Scalar.integer(0)))
    sub = submodule_closure(F, [{((1, 0), 0): ONE}], 4, 5)
    assert sub.dim == len(F.window_basis(4)) == 15


def test_closure_stays_inside_image_subspace():
    P = apoly(2)
    F = FPModule(P, exterior_power(2, 1))
    seed = pi_map(P, 0, {((1, 1), 0): ONE})
    sub = submodule_closure(F, [seed], 4, 5)
    lw = l_window(P, 1, 4)
    assert 0 < sub.dim < len(F.window_basis(4))
    assert all(lw.contains(row) for row in sub.basis())


def test_closure_monotone_idempotent():
    F = FPModule(apoly(2), natural_module(2))
    s1 = {((1, 0), 0): ONE}
    s2 = {((0, 1), 1): S(3)}
    a = submodule_closure(F, [s1], 3, 4)
    b = submodule_closure(F, [s1, s2], 3, 4)
    assert all(b.contains(row) for row in a.basis())
    again = submodule_closure(F, a.basis(), 3, 4)
    assert again.same_span(a)
    everything = submodule_closure(
        F, [{c: ONE} for c in F.window_basis(3)], 3, 4)
    assert everything.dim == len(F.window_basis(3))


def test_closure_stops_at_generator():
    # t2 (x) 1 reaches t1 (x) 1, whose closure is the full window: the run
    # stops there with the rows a run to completion ends with.
    F = FPModule(apoly(2), scalar_module(2, Scalar.integer(0)))
    seed, gen = {((0, 1), 0): ONE}, {((1, 0), 0): ONE}
    act, calls = F.act, []

    def counted(*args):
        calls.append(args)
        return act(*args)

    F.act = counted
    plain = submodule_closure(F, [seed], 4, 5)
    plain_calls = len(calls)
    calls.clear()
    early = submodule_closure(F, [seed], 4, 5, generators=[gen])
    # same_span compares the reduced echelon rows
    assert plain.dim == len(F.window_basis(4)) and early.same_span(plain)
    assert 0 < len(calls) < plain_calls
    # a seed that is itself a generator stops before any operator runs
    calls.clear()
    assert submodule_closure(F, [seed], 4, 5, generators=[seed]).dim == \
        len(F.window_basis(4))
    assert not calls


def test_closure_unreached_generator_changes_nothing():
    F = FPModule(apoly(2), scalar_module(2, Scalar.integer(0)))
    const = {((0, 0), 0): ONE}
    plain = submodule_closure(F, [const], 4, 5)
    sub = submodule_closure(F, [const], 4, 5, generators=[{((1, 0), 0): ONE}])
    assert sub.dim == 1 and sub.same_span(plain)


def test_closure_rejects_seed_outside_window():
    F = FPModule(apoly(2), natural_module(2))
    with pytest.raises(ValueError, match="outside window"):
        submodule_closure(F, [{((4, 0), 0): ONE}], 2, 3)


def _closure_reference(F, seeds, D, A, generators=()):
    # the closure loop that queued each raw image it inserted, not the row
    # the insert left in the echelon
    window = F.window_basis(D)
    full = len(window)
    ops = operators(F.n, A, F.mode)
    ech = F.echelon()
    work = []
    for s in seeds:
        if ech.add(s):
            work.append(dict(s))

    def saturated():
        return ech.dim >= full or any(ech.contains(g) for g in generators)

    done = saturated()
    qi = 0
    while not done and qi < len(work):
        v = work[qi]
        qi += 1
        for alpha, j in ops:
            img = {c: x for c, x in F.act(alpha, j, v).items()
                   if F.level(c) <= D}
            if img and ech.add(img):
                work.append(img)
                done = saturated()
                if done:
                    break
    if done:
        one = F.integer(1)
        ech.rows = {c: {c: one} for c in window}
    return wittrep.WindowedSubspace(F, D, ech)


def _parity_case(case):
    """(F, seeds, D, A, generators, dim of the closure) of a parity case."""
    if case == "filling TL":
        F = _module("TL(l1,l2)", "Sym(2)")
        return F, saturation_seeds(F)[:1], 3, 3, [], 75
    if case == "Alaurent+ 45 of 123":
        # the seed the saturation report names, "generated only 45 of 123"
        F = _module("Alaurent+", "Sym(2)")
        return F, saturation_seeds(F)[:1], 4, 4, [], 45
    if case == "pi_map seed":
        P = apoly(2)
        F = FPModule(P, exterior_power(2, 1))
        return F, [pi_map(P, 0, {((1, 1), 0): ONE})], 4, 5, [], 20
    # the second seed, with the first as a generator
    F = _module("Whittaker(l1,l2)", "Sym(2)")
    first, second = saturation_seeds(F)[:2]
    return F, [second], 2, 3, [first], 18


@pytest.mark.parametrize("route", ["exact", "point"])
@pytest.mark.parametrize("case", ["filling TL", "Alaurent+ 45 of 123",
                                  "pi_map seed", "generators"])
def test_closure_parity_with_raw_image_queue(case, route):
    # queueing the inserted rows, a basis of the same span, reaches the
    # fixed point the raw images reach: the same reduced rows and dim
    F, seeds, D, A, gens, dim = _parity_case(case)
    if route == "point":
        F = wittrep._AtPoint(F)
        seeds, gens = ([{c: at_point(x) for c, x in v.items()} for v in vs]
                       for vs in (seeds, gens))
    sub = submodule_closure(F, seeds, D, A, gens)
    ref = _closure_reference(F, seeds, D, A, gens)
    assert sub.dim == ref.dim == dim
    assert sub.same_span(ref)
    assert sub.basis() == ref.basis()


def test_closure_parity_queues_single_cells(monkeypatch):
    # the span of a Whittaker window is spanned by single cells, so every
    # inserted row the point route queues is one: 3,115 cells in 3,115
    # act calls over the whole report (33,701 cells when the raw images,
    # dense, were queued)
    calls, cells = [], []
    act = wittrep._AtPoint.act

    def spy(self, alpha, j, vec):
        calls.append(1)
        cells.append(len(vec))
        return act(self, alpha, j, vec)
    monkeypatch.setattr(wittrep._AtPoint, "act", spy)
    F = FPModule(whittaker([L1, L2]), sym_power(2, 2))
    rep = _saturation_report(F, 5, 6, [])
    assert rep.certified
    assert rep.details == ["all 9 level-<=1 seeds generate the full"
                           " 63-dimensional window"]
    assert (len(calls), sum(cells)) == (3115, 3115)


def test_l_window_top_degree():
    # summed derivatives of C[t1,t2] cover everything: L is the full window
    lw = l_window(apoly(2), 2, 3)
    assert lw.dim == len(lw.F.window_basis(3))
    # Whittaker misses one line per window
    lwW = l_window(whittaker([L1, L2]), 2, 3)
    assert lwW.dim == len(lwW.F.window_basis(3)) - 1


def test_l_window_zero_at_r0():
    assert l_window(apoly(2), 0, 3).dim == 0


def test_l_window_middle_equals_kernel():
    # Poincare exactness in middle degree: im pi_0 = ker pi_1 on the window
    lw = l_window(apoly(2), 1, 4)
    kw = kernel_window(apoly(2), 1, 4)
    assert lw.same_span(kw)
    assert interior_invariant(lw, 3)


def _l_window_reference(P, r, D):
    """The reduced rows of the image window by the block intersection:
    pi_(r-1) of the window D+1 cells, cut to the span of the window D
    cells."""
    if r == 0:
        return {}
    cells = FPModule(P, exterior_power(P.n, r - 1)).window_basis(D + 1)
    window = set(FPModule(P, exterior_power(P.n, r)).window_basis(D))
    return coordinate_block_intersection(
        wittrep._pi_images(P, r - 1, cells), lambda c: c in window).rows


@pytest.mark.parametrize("expr, n, depth", [
    ("Apoly", 2, 5), ("Alaurent", 2, 5), ("Quot", 2, 5), ("TL(l1,l2)", 2, 5),
    ("Whittaker(l1,l2)", 2, 5), ("Whittaker(2,-3)", 2, 5),
    ("Tensor(Apoly,Whittaker(l2))", 2, 5),
    ("Apoly", 3, 3), ("Alaurent", 3, 3), ("Whittaker(l1,l2,l3)", 3, 3)])
def test_l_windows_match_block_intersection(expr, n, depth):
    # one level-ordered elimination gives, at every depth and wedge degree,
    # the rows the block intersection of that window alone gives
    P = parse_p(expr, n)
    for r in range(n + 1):
        got = list(l_windows(P, r, range(1, depth + 1)))
        assert [D for D, _ in got] == list(range(1, depth + 1))
        for D, sub in got:
            assert sub.D == D
            assert sub._ech.rows == _l_window_reference(P, r, D), (r, D)


def test_l_windows_yields_each_depth_once_in_increasing_order():
    P = whittaker([L1, L2])
    got = list(l_windows(P, 1, [4, 2, 4, 1, 2]))
    assert [D for D, _ in got] == [1, 2, 4]
    for D, sub in got:
        single = list(l_windows(P, 1, [D]))
        assert [d for d, _ in single] == [D]
        assert sub._ech.rows == single[0][1]._ech.rows
        assert sub.basis() == l_window(P, 1, D).basis()
    assert list(l_windows(P, 1, [])) == []


def _spy_pi_cells(monkeypatch):
    """The cells pi_map is called on, one list entry per call and cell."""
    cells = []
    pi = wittrep.pi_map

    def spy(P, k, vec):
        cells.extend(vec)
        return pi(P, k, vec)
    monkeypatch.setattr(wittrep, "pi_map", spy)
    return cells


def test_top_degree_report_takes_both_windows_from_one_elimination(
        monkeypatch):
    # codimension 1 (the residue cell): the report reads the image window
    # at D and at D + maxraise, and builds each pi image once for both
    P, D, A = alaurent(2), 3, 3
    maxraise = max(max(0, P.op_raise_bound(a, j))
                   for a, j in operators(2, A, P.mode))
    cells = _spy_pi_cells(monkeypatch)
    rep = irreducibility_report(P, exterior_power(2, 2), D, A)
    assert (rep.verdict, rep.branch) == ("reducible", "top-degree")
    assert rep.details[0] == ("summed derivative image has codimension 1 in"
                              " the window")
    window = FPModule(P, exterior_power(2, 1)).window_basis(D + maxraise + 1)
    assert sorted(cells) == sorted(window)


def test_top_degree_report_with_codimension_zero_stays_at_its_window(
        monkeypatch):
    # TL(l1,l2) (x) Ext(2) has no cokernel: the saturation branch decides,
    # and no pi image beyond the window D + 1 is built
    P, D = parse_p("TL(l1,l2)", 2), 2
    cells = _spy_pi_cells(monkeypatch)
    rep = irreducibility_report(P, exterior_power(2, 2), D, 2)
    assert rep.branch == "saturation"
    assert rep.details[0] == ("summed derivative image has codimension 0 in"
                              " the window")
    assert sorted(cells) == sorted(
        FPModule(P, exterior_power(2, 1)).window_basis(D + 1))


def test_ltilde_takes_every_deep_window_from_one_elimination(monkeypatch):
    # Alaurent needs the image window at five depths; each cell of the
    # deepest window's preimage is sent through pi once
    P, D, A = alaurent(2), 3, 4
    depths = {D + max(0, P.op_raise_bound(a, j))
              for a, j in operators(2, A, P.mode)}
    assert len(depths) == 5
    cells = _spy_pi_cells(monkeypatch)
    assert ltilde_window(P, 1, D, A).dim == 23
    assert sorted(cells) == sorted(
        FPModule(P, exterior_power(2, 0)).window_basis(max(depths) + 1))


def test_ltilde_equals_kernel():
    for r in (0, 1):
        lt = ltilde_window(apoly(2), r, 4, 5)
        kw = kernel_window(apoly(2), r, 4)
        assert lt.same_span(kw), r


@pytest.mark.parametrize("expr, r, dim", [
    ("Quot", 0, 0), ("Quot", 1, 0), ("TL(l1,l2)", 0, 0), ("TL(l1,l2)", 1, 8),
    ("Whittaker(l1,l2)", 0, 0), ("Whittaker(l1,l2)", 1, 3)])
def test_ltilde_equals_kernel_beyond_apoly(expr, r, dim):
    P = parse_p(expr, 2)
    lt = ltilde_window(P, r, 2, 3)
    kw = kernel_window(P, r, 2)
    assert (lt.dim, kw.dim) == (dim, dim)
    assert lt.same_span(kw)


def _ltilde_all_at_once(P, r, D, A):
    """Reference transporter: one kernel over the residuals of every
    (operator, window cell) pair, rows keyed (operator index, out-cell)."""
    F = FPModule(P, exterior_power(P.n, r))
    cols = F.window_basis(D)
    deep = {}
    rows = {}
    for oi, (alpha, j) in enumerate(operators(P.n, A, P.mode)):
        dprime = D + max(0, P.op_raise_bound(alpha, j))
        if dprime not in deep:
            deep[dprime] = l_window(P, r, dprime)
        for ci, cell in enumerate(cols):
            res = deep[dprime].residual(F.act_cell(alpha, j, cell))
            for oc, x in res.items():
                rows.setdefault((oi, oc), {})[ci] = x
    mat = ExactMatrix(len(rows), len(cols), [rows[k] for k in sorted(rows)])
    return wittrep.WindowedSubspace(F, D, Echelon(
        {cols[ci]: x for ci, x in enumerate(kv) if not x.is_zero()}
        for kv in kernel_basis(mat)))


@pytest.mark.parametrize("expr, n, r, D, A", [
    ("Whittaker(l1,l2)", 2, 1, 3, 4), ("Whittaker(-2,-3)", 2, 1, 3, 4),
    ("Apoly", 3, 1, 3, 4), ("Alaurent", 2, 1, 3, 4),
    ("Apoly", 2, 0, 4, 5), ("Apoly", 2, 1, 4, 5), ("Apoly", 2, 2, 4, 5),
    ("Quot", 2, 0, 2, 3), ("Quot", 2, 1, 2, 3),
    ("TL(l1,l2)", 2, 0, 2, 3), ("TL(l1,l2)", 2, 1, 2, 3),
    ("Whittaker(l1,l2)", 2, 0, 2, 3), ("Whittaker(l1,l2)", 2, 1, 2, 3)])
def test_ltilde_matches_all_at_once_reference(expr, n, r, D, A):
    # the operator-by-operator intersection reaches the same reduced rows
    P = parse_p(expr, n)
    lt = ltilde_window(P, r, D, A)
    ref = _ltilde_all_at_once(P, r, D, A)
    assert lt.same_span(ref)
    assert lt.basis() == ref.basis()


def test_ltilde_residuals_per_operator(monkeypatch):
    # one residual per cell for the first operator (20 cells), which cuts
    # the candidates to 6; then 6 per operator for the other 29, not one
    # per (operator, cell) pair (30 * 20 = 600)
    calls = []
    residual = wittrep.WindowedSubspace.residual

    def spy(self, vec):
        calls.append(1)
        return residual(self, vec)
    monkeypatch.setattr(wittrep.WindowedSubspace, "residual", spy)
    lt = ltilde_window(whittaker([L1, L2]), 1, 3, 4)
    assert lt.dim == 6
    assert len(calls) == 20 + 29 * 6


def test_ltilde_drops_each_operator_column_table():
    # every operator is visited once: its column table goes with its
    # residuals, and the returned subspace's module holds none
    for P, r in ((whittaker([L1, L2]), 1), (apoly(2), 0), (apoly(3), 1)):
        lt = ltilde_window(P, r, 3, 4)
        assert lt.dim > 0
        assert lt.F._columns == {}


def test_membership_identities_mod_l():
    # (a) sum_k (d_k p) (x) E(k,j) w lies in the image subspace;
    # (b) t^g d_j (p (x) w) is congruent mod it to
    #     sum_s (t^g d_s p) (x) (delta_js w - E(s,j) w).
    rng = random.Random(1234)
    for P in (apoly(2), whittaker([S(1), S(-2)])):
        r = 1
        F = FPModule(P, exterior_power(2, r))
        win = F.window_basis(2)
        for _ in range(12):
            (pidx, midx) = rng.choice(win)
            gamma = (rng.randint(0, 2), rng.randint(0, 2))
            j = rng.randint(1, 2)
            member = {}
            for s in (1, 2):
                col = F.M.act_column(s, j, midx)
                for p2, cp in P.act_generator(("d", s), {pidx: ONE}).items():
                    for m2, cm in col.items():
                        key = (p2, m2)
                        member[key] = member.get(key, Scalar.integer(0)) + cp * cm
            member = vec_clean(member)
            levels = [F.level(c) for c in member] or [0]
            lw = l_window(P, r, max(levels))
            assert lw.contains(member)

            lhs = F.act(gamma, j, {(pidx, midx): ONE})
            rhs = {}
            for s in (1, 2):
                mpart = {midx: ONE} if s == j else {}
                mpart = vec_sub(mpart, F.M.act_column(s, j, midx))
                for p2, cp in P.act_witt_monomial(gamma, s, {pidx: ONE}).items():
                    for m2, cm in mpart.items():
                        key = (p2, m2)
                        rhs[key] = rhs.get(key, Scalar.integer(0)) + cp * cm
            diff = vec_clean(vec_sub(lhs, rhs))
            levels = [F.level(c) for c in diff] or [0]
            lw = l_window(P, r, max(levels) + 1)
            assert lw.contains(diff), (P.kind, pidx, midx, gamma, j)


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

def test_homology_polynomial_case():
    h = complex_homology(apoly(2), 6)
    assert h.graded
    assert h.table[(0, 0)] == 1
    assert all(v == 0 for k, v in h.table.items() if k != (0, 0))


def test_homology_laurent_case():
    h = complex_homology(alaurent(2), 4)
    assert h.nonzero() == {(0, 0): 1, (1, 0): 2, (2, 0): 1}


def test_homology_twisted_acyclic():
    h = complex_homology(twisted_laurent([L1, S(1, 2)]), 3)
    assert h.nonzero() == {}


def test_homology_whittaker_fallback():
    h = complex_homology(whittaker([L1]), 4)
    assert not h.graded
    assert h.table == {(0, None): 0, (1, None): 1}


# (P, n, D, excluded, graded, table): every entry, zeros included
_HOMOLOGY_PINNED = [
    ("Apoly", 2, 2, 7, True, {
        (0, 0): 1, (0, 1): 0, (0, 2): 0, (1, 1): 0, (1, 2): 0, (2, 2): 0}),
    ("Apoly", 2, 3, 9, True, {
        (0, 0): 1, (0, 1): 0, (0, 2): 0, (0, 3): 0, (1, 1): 0, (1, 2): 0,
        (1, 3): 0, (2, 2): 0, (2, 3): 0}),
    ("Apoly", 2, 4, 11, True, {
        (0, 0): 1, (0, 1): 0, (0, 2): 0, (0, 3): 0, (0, 4): 0, (1, 1): 0,
        (1, 2): 0, (1, 3): 0, (1, 4): 0, (2, 2): 0, (2, 3): 0, (2, 4): 0}),
    ("Alaurent", 2, 2, 20, True, {
        (0, 0): 1, (0, 1): 0, (0, 2): 0, (1, 0): 2, (1, 1): 0, (1, 2): 0,
        (2, 0): 1, (2, 1): 0, (2, 2): 0}),
    ("Alaurent", 2, 3, 28, True, {
        (0, -1): 0, (0, 0): 1, (0, 1): 0, (0, 2): 0, (0, 3): 0, (1, -1): 0,
        (1, 0): 2, (1, 1): 0, (1, 2): 0, (1, 3): 0, (2, -1): 0, (2, 0): 1,
        (2, 1): 0, (2, 2): 0, (2, 3): 0}),
    ("Alaurent", 2, 4, 36, True, {
        (0, -2): 0, (0, -1): 0, (0, 0): 1, (0, 1): 0, (0, 2): 0, (0, 3): 0,
        (0, 4): 0, (1, -2): 0, (1, -1): 0, (1, 0): 2, (1, 1): 0, (1, 2): 0,
        (1, 3): 0, (1, 4): 0, (2, -2): 0, (2, -1): 0, (2, 0): 1, (2, 1): 0,
        (2, 2): 0, (2, 3): 0, (2, 4): 0}),
    ("Quot", 2, 2, 3, True, {(2, 0): 1}),
    ("Quot", 2, 3, 5, True, {(1, -1): 0, (2, -1): 0, (2, 0): 1}),
    ("Quot", 2, 4, 7, True, {
        (0, -2): 0, (1, -2): 0, (1, -1): 0, (2, -2): 0, (2, -1): 0,
        (2, 0): 1}),
    ("TL(l1,l2)", 2, 2, 20, True, {
        (0, 0): 0, (0, 1): 0, (0, 2): 0, (1, 0): 0, (1, 1): 0, (1, 2): 0,
        (2, 0): 0, (2, 1): 0, (2, 2): 0}),
    ("TL(l1,l2)", 2, 3, 28, True, {
        (0, -1): 0, (0, 0): 0, (0, 1): 0, (0, 2): 0, (0, 3): 0, (1, -1): 0,
        (1, 0): 0, (1, 1): 0, (1, 2): 0, (1, 3): 0, (2, -1): 0, (2, 0): 0,
        (2, 1): 0, (2, 2): 0, (2, 3): 0}),
    ("TL(l1,l2)", 2, 4, 36, True, {
        (0, -2): 0, (0, -1): 0, (0, 0): 0, (0, 1): 0, (0, 2): 0, (0, 3): 0,
        (0, 4): 0, (1, -2): 0, (1, -1): 0, (1, 0): 0, (1, 1): 0, (1, 2): 0,
        (1, 3): 0, (1, 4): 0, (2, -2): 0, (2, -1): 0, (2, 0): 0, (2, 1): 0,
        (2, 2): 0, (2, 3): 0, (2, 4): 0}),
    ("Whittaker(l1,l2)", 2, 2, 0, False, {
        (0, None): 0, (1, None): 0, (2, None): 1}),
    ("Whittaker(l1,l2)", 2, 3, 0, False, {
        (0, None): 0, (1, None): 0, (2, None): 1}),
    ("Whittaker(l1,l2)", 2, 4, 0, False, {
        (0, None): 0, (1, None): 0, (2, None): 1}),
    ("Apoly", 3, 2, 28, True, {
        (0, 0): 1, (0, 1): 0, (0, 2): 0, (1, 1): 0, (1, 2): 0, (2, 2): 0}),
    ("Apoly", 3, 3, 43, True, {
        (0, 0): 1, (0, 1): 0, (0, 2): 0, (0, 3): 0, (1, 1): 0, (1, 2): 0,
        (1, 3): 0, (2, 2): 0, (2, 3): 0, (3, 3): 0}),
    ("Alaurent", 3, 2, 80, True, {}),
    ("Alaurent", 3, 3, 152, True, {
        (0, 0): 1, (0, 1): 0, (0, 2): 0, (0, 3): 0, (1, 0): 3, (1, 1): 0,
        (1, 2): 0, (1, 3): 0, (2, 0): 3, (2, 1): 0, (2, 2): 0, (2, 3): 0,
        (3, 0): 1, (3, 1): 0, (3, 2): 0, (3, 3): 0}),
    ("Tensor(Quot,Apoly)", 2, 2, 5, True, {
        (0, -1): 0, (1, -1): 0, (1, 0): 1, (1, 1): 0, (2, 1): 0}),
    ("Tensor(Quot,Apoly)", 2, 3, 7, True, {
        (0, -2): 0, (0, -1): 0, (0, 0): 0, (1, -2): 0, (1, -1): 0, (1, 0): 1,
        (1, 1): 0, (1, 2): 0, (2, 0): 0, (2, 1): 0, (2, 2): 0}),
    ("Tensor(Quot,Apoly)", 2, 4, 9, True, {
        (0, -3): 0, (0, -2): 0, (0, -1): 0, (0, 0): 0, (0, 1): 0, (1, -3): 0,
        (1, -2): 0, (1, -1): 0, (1, 0): 1, (1, 1): 0, (1, 2): 0, (1, 3): 0,
        (2, -1): 0, (2, 0): 0, (2, 1): 0, (2, 2): 0, (2, 3): 0}),
    ("Tensor(Alaurent,Apoly)", 2, 2, 12, True, {
        (0, -1): 0, (0, 0): 1, (0, 1): 0, (0, 2): 0, (1, -1): 0, (1, 0): 1,
        (1, 1): 0, (1, 2): 0, (2, 1): 0, (2, 2): 0}),
    ("Tensor(Alaurent,Apoly)", 2, 3, 16, True, {
        (0, -2): 0, (0, -1): 0, (0, 0): 1, (0, 1): 0, (0, 2): 0, (0, 3): 0,
        (1, -2): 0, (1, -1): 0, (1, 0): 1, (1, 1): 0, (1, 2): 0, (1, 3): 0,
        (2, 0): 0, (2, 1): 0, (2, 2): 0, (2, 3): 0}),
    ("Tensor(Alaurent,Apoly)", 2, 4, 20, True, {
        (0, -3): 0, (0, -2): 0, (0, -1): 0, (0, 0): 1, (0, 1): 0, (0, 2): 0,
        (0, 3): 0, (0, 4): 0, (1, -3): 0, (1, -2): 0, (1, -1): 0, (1, 0): 1,
        (1, 1): 0, (1, 2): 0, (1, 3): 0, (1, 4): 0, (2, -1): 0, (2, 0): 0,
        (2, 1): 0, (2, 2): 0, (2, 3): 0, (2, 4): 0}),
]


@pytest.mark.parametrize(
    "expr, n, D, excluded, graded, table", _HOMOLOGY_PINNED,
    ids=["%s-n%d-D%d" % case[:3] for case in _HOMOLOGY_PINNED])
def test_homology_tables_pinned(expr, n, D, excluded, graded, table):
    h = complex_homology(parse_p(expr, n), D)
    assert (h.table, h.excluded, h.graded) == (table, excluded, graded)


def test_homology_rejects_tiny_window():
    with pytest.raises(ValueError):
        complex_homology(apoly(2), 1)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_skips_reducible_m():
    nn = tensor_module(natural_module(2), natural_module(2))
    rep = irreducibility_report(apoly(2), nn, 3, 4)
    assert rep.verdict == "skipped" and rep.branch == "m-reducible"


def test_report_exterior_witness_checks_operators_up_to_A(monkeypatch):
    bounds = []

    def spy(sub, *args):
        bounds.append(args)
        return interior_invariant(sub, *args)

    monkeypatch.setattr(wittrep, "interior_invariant", spy)
    rep = irreducibility_report(apoly(2), exterior_power(2, 1), 3, 4)
    assert rep.certified
    assert bounds == [(4,)]


def test_report_exterior_witness():
    rep = irreducibility_report(apoly(2), exterior_power(2, 1), 3, 4)
    assert rep.verdict == "reducible" and rep.certified
    assert rep.branch == "exterior-witness"


def test_report_degree_zero_branches():
    rep = irreducibility_report(alaurent(2), exterior_power(2, 0), 3, 4)
    assert rep.verdict == "reducible" and rep.certified
    rep2 = irreducibility_report(twisted_laurent([L1, L2]),
                                 exterior_power(2, 0), 2, 3)
    assert rep2.verdict.startswith("consistent with irreducible")
    assert rep2.certified


def test_report_top_degree_branches():
    rep = irreducibility_report(whittaker([L1, L2]), exterior_power(2, 2), 3, 4)
    assert rep.verdict == "reducible" and rep.certified
    assert rep.branch == "top-degree"
    assert any("codimension 1" in d for d in rep.details)
    rep2 = irreducibility_report(apoly(2), exterior_power(2, 2), 3, 4)
    assert rep2.verdict.startswith("consistent with irreducible")
    # The residue cell t1^-1...tn^-1 sits at level n: at D = n the codim
    # probe must measure the level <= D window to see it.
    for P, D in ((alaurent(2), 2), (alaurent(3), 3), (laurent_quot(2), 2)):
        rep3 = irreducibility_report(P, exterior_power(P.n, P.n), D, D + 1)
        assert (rep3.verdict, rep3.branch) == ("reducible", "top-degree")
        assert rep3.certified
        assert any("codimension 1" in d for d in rep3.details)


_TOP_CODIM_CASES = [
    pytest.param(P, D, id="%s-n%d-D%d" % (P.kind, P.n, D))
    for P, D in [(P, D) for P in (apoly(2), alaurent(2), laurent_quot(2),
                                  twisted_laurent([L1, L2]),
                                  whittaker([L1, L2]))
                 for D in (2, 3, 4)] + [(apoly(3), 3), (alaurent(3), 3)]]


@pytest.mark.parametrize("P, D", _TOP_CODIM_CASES)
def test_report_top_codim_is_summed_derivative_codim(P, D):
    # the report reads the codimension off the image of pi_(n-1); the
    # independent route eliminates the derivatives d_k v directly
    rep = irreducibility_report(P, exterior_power(P.n, P.n), D, 1)
    codim = int(re.search(r"codimension (\d+) in the window",
                          rep.details[0]).group(1))
    assert codim == P.sum_partial_image_codim(D + 1)


def test_report_saturation():
    rep = irreducibility_report(apoly(2), sym_power(2, 2), 3, 4)
    assert rep.verdict == "consistent with irreducible: certified saturation at (D=3, A=4)"
    assert rep.certified and rep.branch == "saturation"


@pytest.mark.parametrize("P, M, D, A", [
    (apoly(2), sym_power(2, 2), 2, 3),
    (whittaker([L1, L2]), scalar_module(2, L1), 2, 2),
    (apoly(2), scalar_module(2, Scalar.integer(0)), 2, 3),
    (apoly(2), exterior_power(2, 1), 2, 3),
])
def test_saturation_certifies_iff_plain_closures_saturate(P, M, D, A):
    # Plain per-seed closures are the reference.  Each seed's closure with
    # the seeds certified before it as generators has the same rows, also
    # for the seeds of Apoly (x) Ext(1) that fail after one that saturates.
    F = FPModule(P, M)
    certified = []
    for seed in saturation_seeds(F):
        plain = submodule_closure(F, [seed], D, A)
        reuse = submodule_closure(F, [seed], D, A, generators=certified)
        assert reuse.same_span(plain)
        if plain.dim == len(F.window_basis(D)):
            certified.append(seed)
    every = len(certified) == len(saturation_seeds(F))
    rep = _saturation_report(F, D, A, [])
    assert rep.certified == every and rep.branch == "saturation"
    assert rep.verdict.startswith("consistent with irreducible") == every


def test_saturation_without_seeds_is_not_certified():
    # Quot(2)'s lowest cell t1^-1 t2^-1 has level 2, so no seed exists.
    rep = irreducibility_report(laurent_quot(2), sym_power(2, 2), 2, 3)
    assert (rep.verdict, rep.certified, rep.branch) == (
        "not certified", False, "saturation")
    assert rep.details == [
        "all 0 level-<=1 seeds generate the full 3-dimensional window",
        "'consistent with irreducible: certified saturation at (D=2, A=3)'"
        " rests on 0 seeds, so it certifies nothing"]
    assert main(["irreducible", "--P", "Quot", "--M", "Sym(2)",
                 "--window", "2", "--gen-bound", "3"]) == 1


@pytest.mark.parametrize("established, counts, empty", [
    (True, {"pairs": 0}, "0 pairs"),
    (True, {"pairs": 3, "checks": 0}, "0 checks"),
    (True, {"pairs": 0, "checks": 0}, "0 pairs and 0 checks"),
    (False, {"pairs": 3}, None),
    (False, {"pairs": 0}, None),
    (False, {}, None),
])
def test_a_record_without_evidence_or_claim_is_never_certified(
        established, counts, empty):
    rec = wittrep.Verdict("claim holds", established, counts, ["note"])
    assert not rec.certified
    if empty is None:
        # a claim not established keeps its own text and notes
        assert (rec.verdict, rec.details) == ("claim holds", ["note"])
    else:
        # the one shared rendering of a zero count
        assert rec.verdict == "not certified"
        assert rec.details == ["note", "'claim holds' rests on %s, so it"
                               " certifies nothing" % empty]


def test_a_record_certifies_an_established_claim_on_evidence():
    rec = wittrep.Verdict("claim holds", True, {"pairs": 3, "checks": 1},
                          ["note"], "saturation")
    assert rec.certified and rec.verdict == "claim holds"
    assert rec.details == ["note"] and rec.branch == "saturation"
    # certified is derived: nothing can set it
    with pytest.raises(AttributeError):
        rec.certified = False


def _saturation_reference(F, D, A, details):
    # the exact loop of _saturation_report before the route at a point
    full = len(F.window_basis(D))
    seeds = saturation_seeds(F)
    generating = []
    for seed in seeds:
        sub = submodule_closure(F, [seed], D, A, generators=generating)
        if sub.dim < full:
            cell = next(iter(seed))
            details.append(
                "seed %s generated only %d of %d window dimensions"
                % (F.label(cell), sub.dim, full))
            return wittrep.Verdict("not certified", False, {}, details,
                                   "saturation")
        generating.append(seed)
    details.append("all %d level-<=1 seeds generate the full %d-dimensional"
                   " window" % (len(seeds), full))
    return wittrep.Verdict(
        "consistent with irreducible: certified saturation at (D=%d, A=%d)"
        % (D, A), True, {"seeds": len(seeds)}, details, "saturation")


def _report_tuple(rep):
    return rep.verdict, rep.certified, rep.branch, rep.details


_SATURATION_CASES = [
    # criterion 8's grid
    *[(P, M, 4, 5) for P in ("Apoly", "Whittaker(l1,l2)", "TL(l1,l2)")
      for M in ("Sym(2)", "Triv(l1)")],
    # the saturation workload's instances, twists fixed
    ("Whittaker(l1,l2)", "Sym(2)", 2, 3),
    ("Whittaker(l1,l2)", "Triv(l1)", 3, 3),
    ("TL(l1,l2)", "Sym(2)", 3, 3),
    ("TL(l1,l2)", "Triv(l1)", 3, 3),
    ("Tensor(Apoly,Whittaker(l2))", "Sym(2)", 3, 3),
    ("Whittaker(-2,-3)", "Sym(2)", 2, 3),
    ("TL(-4/3,5/3)", "Sym(2)", 3, 3),
    # windows that do not fill, and no seed at all
    ("Alaurent+", "Sym(2)", 2, 2),
    ("Apoly", "Ext(1)", 2, 3),
    ("Quot", "Sym(2)", 2, 3),
]


def _module(p_expr, m_expr):
    # a trailing "+" restricts a two-sided P to the plus mode
    P = parse_p(p_expr.rstrip("+"), 2)
    if p_expr.endswith("+"):
        P.mode = PLUS
    return FPModule(P, parse_m(m_expr, 2))


@pytest.mark.parametrize("p_expr, m_expr, D, A", _SATURATION_CASES)
def test_saturation_route_matches_exact_loop(p_expr, m_expr, D, A):
    rep = _saturation_report(_module(p_expr, m_expr), D, A, [])
    ref = _saturation_reference(_module(p_expr, m_expr), D, A, [])
    assert _report_tuple(rep) == _report_tuple(ref)


def _route_spy(monkeypatch):
    """Record, per submodule_closure call, whether it ran at the point."""
    routes = []
    closure = wittrep.submodule_closure

    def spy(F, seeds, D, A, generators=()):
        routes.append("point" if isinstance(F, wittrep._AtPoint) else "exact")
        return closure(F, seeds, D, A, generators)

    monkeypatch.setattr(wittrep, "submodule_closure", spy)
    return routes


def test_saturation_route_falls_back_when_a_parameter_vanishes(monkeypatch):
    # lam_1 = l1 - (the point's l1) is 0 at the point, and Whittaker's d
    # divides by lam_1: the exact route decides, with the same report
    lam = L1 - Scalar.integer(point_value("l1"))
    F = FPModule(whittaker([lam, L2]), sym_power(2, 2))
    ref = _saturation_reference(FPModule(F.P, F.M), 2, 3, [])
    routes = _route_spy(monkeypatch)
    rep = _saturation_report(F, 2, 3, [])
    assert _report_tuple(rep) == _report_tuple(ref) and rep.certified
    assert routes and set(routes) == {"exact"}


def test_saturation_route_falls_back_when_the_point_does_not_fill(
        monkeypatch):
    # drop the coefficient 1 from the tables at the point: t then acts as 0
    # on Apoly there, a seed does not fill the window, and the exact route
    # closes it and every later seed and certifies
    F = FPModule(apoly(2), scalar_module(2, L1))
    ref = _saturation_reference(FPModule(F.P, F.M), 2, 3, [])
    act_cell = wittrep._AtPoint.act_cell

    def zeroed(view, alpha, j, cell):
        img = F.act_cell(alpha, j, cell)
        return {d: v for d, v in act_cell(view, alpha, j, cell).items()
                if img[d] is not ONE}

    monkeypatch.setattr(wittrep._AtPoint, "act_cell", zeroed)
    routes = _route_spy(monkeypatch)
    rep = _saturation_report(F, 2, 3, [])
    assert _report_tuple(rep) == _report_tuple(ref) and rep.certified
    at, seeds = routes.count("point"), len(saturation_seeds(F))
    # the seeds that filled at the point are not closed again
    assert at and routes == ["point"] * at + ["exact"] * (seeds - at + 1)


@pytest.mark.parametrize("p_expr, m_expr, D, A", [
    *_SATURATION_CASES, ("Whittaker(l1,l2,l3)", "Sym(2)", 2, 2)])
def test_saturation_route_images_are_the_exact_images_at_the_point(
        p_expr, m_expr, D, A):
    # the view's image of every (operator, window cell) pair, cut to the
    # window and reduced mod p, is the exact act_cell image cut to the
    # window, each coefficient evaluated at the point, zeros dropped
    if p_expr.count(",") == 2:
        F = FPModule(parse_p(p_expr, 3), parse_m(m_expr, 3))
    else:
        F = _module(p_expr, m_expr)
    exact = FPModule(F.P, F.M)
    view = wittrep._AtPoint(F)
    cells = F.window_basis(D)
    window = set(cells)
    for alpha, j in operators(F.n, A, F.mode):
        for cell in cells:
            values = ((d, at_point(x))
                      for d, x in exact.act_cell(alpha, j, cell).items()
                      if d in window)
            got = ((d, x % MOD_P)
                   for d, x in view.act(alpha, j, {cell: 1}).items()
                   if d in window)
            assert {d: x for d, x in got if x} == {d: v for d, v in values
                                                    if v}
    # the view built every image with ints: F itself holds none
    assert not any(F._columns.values())


def test_saturation_route_filling_window_builds_no_exact_image():
    F = FPModule(whittaker([L1, L2]), sym_power(2, 2))
    rep = _saturation_report(F, 2, 3, [])
    assert rep.certified
    assert all(not table for table in F._columns.values())


def test_saturation_route_module_chooses_the_field():
    # the view closes over Z/p with no echelon passed in
    F = FPModule(whittaker([L1, L2]), sym_power(2, 2))
    view = wittrep._AtPoint(F)
    seed = {c: at_point(x) for c, x in saturation_seeds(F)[0].items()}
    sub = submodule_closure(view, [seed], 2, 3)
    assert isinstance(sub._ech, EchelonModP)
    assert sub.dim == len(F.window_basis(2)) == 18


def test_saturation_route_view_keeps_only_its_field():
    # the view inherits FPModule's action whole: one act_cell, one column
    # memo and one compose loop for both closure routes, and the closure
    # cuts images to the window itself
    for name in ("act", "act_cell", "column"):
        assert getattr(wittrep._AtPoint, name) is getattr(FPModule, name)
    assert not hasattr(FPModule, "truncate")
    # the view's images are memoised as ints in its own column tables
    F = FPModule(whittaker([L1, L2]), sym_power(2, 2))
    view = wittrep._AtPoint(F)
    seed = {c: at_point(x) for c, x in saturation_seeds(F)[0].items()}
    submodule_closure(view, [seed], 2, 3)
    images = [img for table in view._columns.values()
              for img in table.values()]
    assert images and all(type(x) is int for img in images
                          for x in img.values())


def test_saturation_route_filled_closure_keeps_int_rows():
    # a closure that fills returns the identity rows in the view's field
    F = FPModule(whittaker([L1, L2]), sym_power(2, 2))
    view = wittrep._AtPoint(F)
    seed = {c: at_point(x) for c, x in saturation_seeds(F)[0].items()}
    sub = submodule_closure(view, [seed], 2, 3)
    assert sub.dim == len(F.window_basis(2))
    assert all(type(x) is int for row in sub.basis() for x in row.values())
    row = sub.basis()[0]
    assert vec_axpy({}, row.items(), 3) == {c: 3 * x for c, x in row.items()}
    assert sub.contains({c: 5 for c in row})


def test_saturation_route_falls_back_when_an_m_denominator_vanishes(
        monkeypatch):
    # Triv(b) with b = 1/(l1 - the point's l1): M's table at the point
    # cannot be built, so the exact route closes every seed
    b = ONE / (L1 - Scalar.integer(point_value("l1")))
    F = FPModule(apoly(2), scalar_module(2, b))
    with pytest.raises(ZeroDivisionError):
        F.M.at_point()
    ref = _saturation_reference(FPModule(F.P, F.M), 2, 3, [])
    routes = _route_spy(monkeypatch)
    rep = _saturation_report(F, 2, 3, [])
    assert _report_tuple(rep) == _report_tuple(ref)
    assert routes and set(routes) == {"exact"}


def test_saturation_route_point_ignores_hash_seed():
    code = ("from wittmod.exactnum import Scalar, at_point, point_value;"
            "print(point_value('l1'), point_value('l2'),"
            " at_point(Scalar.param('l1').inv() + Scalar.rational(1, 3)))")
    src = str(Path(wittrep.__file__).resolve().parent.parent)
    outs = set()
    for seed in ("1", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.add(subprocess.run([sys.executable, "-c", code], env=env,
                                check=True, capture_output=True,
                                text=True).stdout)
    here = "%d %d %d\n" % (point_value("l1"), point_value("l2"),
                           at_point(L1.inv() + S(1, 3)))
    assert outs == {here}
    assert all(2 <= point_value(n) <= MOD_P - 2 for n in ("l1", "l2"))


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

def test_fingerprints_distinct_and_deterministic():
    f1 = fingerprint(apoly(2), sym_power(2, 2), 4)
    f2 = fingerprint(apoly(2),
                     tensor_module(sym_power(2, 2),
                                   scalar_module(2, Scalar.integer(1))), 4)
    f3 = fingerprint(twisted_laurent([L1]),
                     scalar_module(1, Scalar.integer(0)), 4)
    assert f1 != f2 and f1 != f3 and f2 != f3
    assert f1 == fingerprint(apoly(2), sym_power(2, 2), 4)
    assert f1.kind == "weight"


def test_fingerprint_graded_fallback():
    f = fingerprint(whittaker([S(1), S(2)]), natural_module(2), 3)
    assert f.kind == "graded"
    assert f.entries == (("level 0", 2), ("level 1", 4),
                         ("level 2", 6), ("level 3", 8))


def test_fingerprint_rejects_weight_without_constant_part():
    # 1/l1 has no value at l1 = 0, so its integer part is undefined.
    with pytest.raises(ValueError, match=r"weight 1/\(l1\) has no constant"):
        fingerprint(twisted_laurent([L1.inv(), L2]),
                    scalar_module(2, Scalar.integer(0)), 2)
