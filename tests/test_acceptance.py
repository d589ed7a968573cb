"""Acceptance suite: one test per numbered criterion, one verdict line each.

Every check is exact (integer/rational/rational-function arithmetic); the
only tolerances are wall-clock caps on the heavier suites.  Run with -s to
see the per-criterion verdict lines when everything passes.
"""

import itertools
import random
import time

from wittmod.exactnum import ONE, Scalar, vec_clean, vec_sub
from wittmod.glmod import (
    exterior_power, natural_module, scalar_module, sym_power, tensor_module,
)
from wittmod.liealg import WittElement, shen_tau, toroidal_bracket, witt_bracket
from wittmod.polyalg import LAURENT, PLUS, exponents_within
from wittmod.weylmod import (
    alaurent, apoly, laurent_quot, twisted_laurent, whittaker,
)
from wittmod.wittrep import (
    FPModule, check_action_axiom, check_chain_map, complex_homology,
    fingerprint, interior_invariant, irreducibility_report, kernel_window,
    l_window, ltilde_window, submodule_closure, torsion_matches,
)


def S(a, b=1):
    return Scalar.rational(a, b)


L1, L2, B = Scalar.param("l1"), Scalar.param("l2"), Scalar.param("b")


def _verdict(num, ok, msg):
    print("criterion %2d: %s - %s" % (num, "PASS" if ok else "FAIL", msg))
    assert ok, "criterion %d failed: %s" % (num, msg)


def test_criterion_01_embedding_respects_brackets():
    t0 = time.monotonic()
    n, bad = 2, None
    elems = [WittElement.monomial(n, PLUS, a, j, ONE)
             for a in exponents_within(n, 3, PLUS) for j in (1, 2)]
    pairs = list(itertools.combinations_with_replacement(elems, 2))
    rng = random.Random(31415)
    for _ in range(200):
        a = tuple(rng.randint(-3, 3) for _ in range(n))
        b = tuple(rng.randint(-3, 3) for _ in range(n))
        pairs.append((WittElement.monomial(n, LAURENT, a, rng.randint(1, 2), ONE),
                      WittElement.monomial(n, LAURENT, b, rng.randint(1, 2), ONE)))
    for x, y in pairs:
        if shen_tau(witt_bracket(x, y)) != \
                toroidal_bracket(shen_tau(x), shen_tau(y)):
            bad = (x, y)
            break
    dt = time.monotonic() - t0
    _verdict(1, bad is None and dt < 10,
             "%d bracket pairs (exhaustive |alpha|<=3 plus 200 two-sided) "
             "exact in %.2fs, cap 10s%s"
             % (len(pairs), dt, "" if bad is None else "; mismatch %s" % (bad,)))


def test_criterion_02_action_axiom_all_pairs():
    t0 = time.monotonic()
    ps = [apoly(2), alaurent(2), twisted_laurent([L1, L2]), laurent_quot(2),
          whittaker([L1, L2])]
    ms = [scalar_module(2, B), natural_module(2), exterior_power(2, 1),
          exterior_power(2, 2), sym_power(2, 2)]
    failures, pairs = [], 0
    for P in ps:
        for M in ms:
            ok, checked, note = check_action_axiom(FPModule(P, M), 3, 3)
            pairs += checked
            if not ok:
                failures.append("F(%s, %s): %s" % (P.kind, M.name, note))
    dt = time.monotonic() - t0
    _verdict(2, not failures and dt < 60,
             "%d instances, %d bracket/composition pairs exact in %.1fs, "
             "cap 60s%s" % (len(ps) * len(ms), pairs, dt,
                            "; ".join([""] + failures)))


def test_criterion_03_chain_complex():
    t0 = time.monotonic()
    failures, checked = [], 0
    for P in (apoly(2), alaurent(2), apoly(3)):
        ok, count, note = check_chain_map(P, 3, 4)
        checked += count
        if not ok:
            failures.append("%s: %s" % (P.kind, note))
    dt = time.monotonic() - t0
    _verdict(3, not failures and dt < 30,
             "intertwining and composite-zero checks (%d) exact for "
             "n in {2,3} in %.1fs, cap 30s%s"
             % (checked, dt, "; ".join([""] + failures)))


def test_criterion_04_window_homology():
    t0 = time.monotonic()
    hp = complex_homology(apoly(2), 6)
    poly_ok = hp.table.get((0, 0)) == 1 and all(
        v == 0 for k, v in hp.table.items() if k != (0, 0))
    hl = complex_homology(alaurent(2), 4)
    laurent_ok = hl.nonzero() == {(0, 0): 1, (1, 0): 2, (2, 0): 1}
    dt = time.monotonic() - t0
    _verdict(4, poly_ok and laurent_ok and dt < 60,
             "one-sided: single class at (r=0, level 0); two-sided: top "
             "class at (r=2, level 0) with middle dims %s; %.1fs, cap 60s"
             % (sorted(hl.nonzero().items()), dt))


def test_criterion_05_invariance_subspace_equals_kernel():
    results = []
    for r in (0, 1):
        lt = ltilde_window(apoly(2), r, 4, 5)
        kw = kernel_window(apoly(2), r, 4)
        results.append((r, lt.dim, kw.dim, lt.same_span(kw)))
    ok = all(same for (_, _, _, same) in results)
    _verdict(5, ok,
             "transporter-by-invariance matches chain-map kernel on the "
             "window: %s" % ", ".join("r=%d dim %d==%d %s" % t for t in results))


def test_criterion_06_reducibility_witnesses():
    results = []
    for P in (apoly(2), whittaker([L1, L2])):
        lw = l_window(P, 1, 4)
        full = len(lw.F.window_basis(4))
        results.append((P.kind, lw.dim, full,
                        0 < lw.dim < full and interior_invariant(lw, 3)))
    ok = all(flag for (_, _, _, flag) in results)
    _verdict(6, ok,
             "image subspaces nonzero, proper, interior-invariant: %s"
             % ", ".join("%s dim %d of %d -> %s" % t for t in results))


def test_criterion_07_top_degree_codimension_criterion():
    # The top-degree criterion: F(P, Ext(n)) is decided by the codimension
    # of the summed derivative image sum_k d_k P.  Codim 0 sends the report
    # to the saturation branch; codim 1 makes it reducible, the quotient
    # P / sum_k d_k P being trivial.  One-sided polynomials have codim 0.
    # The Whittaker module and the two-sided Laurent module have codim 1: for
    # the latter d(t^k) = k t^(k-1) never produces exponent -1 in any
    # variable, so the residue t1^-1 t2^-1 is obstructed (the nonzero top
    # class that criterion 4 requires).
    clauses = []
    codim_p = apoly(2).sum_partial_image_codim(4)
    clauses.append(("one-sided codim %d == 0" % codim_p, codim_p == 0))
    codim_l = alaurent(2).sum_partial_image_codim(4)
    clauses.append(("two-sided codim %d == 1" % codim_l, codim_l == 1))
    codim_w = whittaker([L1, L2]).sum_partial_image_codim(4)
    clauses.append(("Whittaker codim %d == 1" % codim_w, codim_w == 1))
    # Independent route (chain map and elimination, not the derivative
    # action): the image of pi_1 misses exactly the residue cell.
    lw = l_window(alaurent(2), 2, 3)
    missed = [c for c in lw.F.window_basis(3) if not lw.contains({c: ONE})]
    clauses.append(("two-sided image of pi_1 misses %s == [((-1, -1), 0)]"
                    % missed, missed == [((-1, -1), 0)]))

    rep_p = irreducibility_report(apoly(2), exterior_power(2, 2), 3, 4)
    clauses.append(("one-sided top-wedge saturation certified",
                    rep_p.certified and rep_p.branch == "saturation"))
    rep_l = irreducibility_report(alaurent(2), exterior_power(2, 2), 3, 4)
    clauses.append(("two-sided top-wedge reducible, quotient windowed-trivial"
                    " (actual: %s, branch %s, certified %s)"
                    % (rep_l.verdict, rep_l.branch, rep_l.certified),
                    rep_l.verdict == "reducible" and
                    rep_l.branch == "top-degree" and rep_l.certified and
                    any("operators map the window into the image" in d
                        for d in rep_l.details)))
    rep_w = irreducibility_report(whittaker([L1, L2]), exterior_power(2, 2),
                                  3, 4)
    clauses.append(("Whittaker quotient windowed-trivial",
                    rep_w.branch == "top-degree" and rep_w.certified and
                    any("operators map the window into the image" in d
                        for d in rep_w.details)))
    ok = all(flag for _, flag in clauses)
    _verdict(7, ok, "; ".join("%s [%s]" % (text, "ok" if flag else "VIOLATED")
                              for text, flag in clauses))


def test_criterion_08_saturation_grid():
    t0 = time.monotonic()
    ps = [apoly(2), whittaker([L1, L2]), twisted_laurent([L1, L2])]
    lines, ok = [], True
    for P in ps:
        for M in (sym_power(2, 2), scalar_module(2, L1)):
            rep = irreducibility_report(P, M, 4, 5)
            good = rep.certified and rep.branch == "saturation"
            ok = ok and good
            lines.append("F(%s, %s) %s" % (P.kind, M.name,
                                           "saturates" if good else rep.verdict))
    nn = tensor_module(natural_module(2), natural_module(2))
    rep = irreducibility_report(apoly(2), nn, 4, 5)
    skipped = rep.verdict == "skipped" and rep.branch == "m-reducible"
    ok = ok and skipped
    lines.append("F(Apoly, Nat*Nat) skipped=%s" % skipped)
    dt = time.monotonic() - t0
    _verdict(8, ok and dt < 300,
             "%s; %.1fs, cap 300s" % ("; ".join(lines), dt))


def test_criterion_09_submodule_lattice_of_scalar_case():
    F = FPModule(apoly(2), scalar_module(2, Scalar.integer(0)))
    win = F.window_basis(4)
    const = submodule_closure(F, [{((0, 0), 0): ONE}], 4, 5)
    ok = const.dim == 1
    full_count = 0
    for cell in win:
        if cell[0] == (0, 0):
            continue
        if submodule_closure(F, [{cell: ONE}], 4, 5).dim == len(win):
            full_count += 1
    ok = ok and full_count == len(win) - 1
    _verdict(9, ok,
             "constant seed closes to the 1-dim line; every one of the %d "
             "nonconstant monomial seeds regenerates the full %d-dim window "
             "(quotient-by-constants irreducibility proxy)"
             % (full_count, len(win)))


def test_criterion_10_torsion_annihilation_and_closed_form():
    # matrix identity: (delta_li E(l,j) - E(l,i)E(l,j)) kills every wedge power
    ann_checked, ann_ok = 0, True
    for n in (2, 3):
        for k in range(n + 1):
            M = exterior_power(n, k)
            for l, i, j in itertools.product(range(1, n + 1), repeat=3):
                for m in range(M.dim):
                    w1 = M.act_column(l, j, m)
                    out = dict(w1) if l == i else {}
                    out = vec_clean(vec_sub(out, M.act(l, i, w1)))
                    ann_checked += 1
                    if out:
                        ann_ok = False
    # interpolated operator vs closed form, 100 random inputs per instance
    rng = random.Random(8191)
    instances = [
        (apoly(2), sym_power(2, 2)),
        (alaurent(2), natural_module(2)),
        (twisted_laurent([L1, S(1, 2)]), scalar_module(2, B)),
        (laurent_quot(2), sym_power(2, 2)),
        (whittaker([S(3), S(-2)]), sym_power(2, 2)),
    ]
    tor_checked, tor_ok = 0, True
    for P, M in instances:
        F = FPModule(P, M)
        win = F.window_basis(2)
        exps = exponents_within(2, 2, F.mode)
        for _ in range(100):
            vec = vec_clean({rng.choice(win): S(rng.randint(-3, 3))
                             for _ in range(2)})
            l, i, j = (rng.randint(1, 2) for _ in range(3))
            tor_checked += 1
            if not torsion_matches(F, l, i, j, rng.choice(exps), vec):
                tor_ok = False
    _verdict(10, ann_ok and tor_ok,
             "wedge annihilation: %d matrix entries zero (n<=3); "
             "interpolation vs closed form: %d/%d random inputs agree"
             % (ann_checked, tor_checked, tor_checked if tor_ok else -1))


def test_criterion_11_whittaker_window_sanity():
    P = whittaker([L1, L2])
    win = P.window_basis(4)
    rel_ok = True
    for idx in win:
        v = {idx: ONE}
        for i in (1, 2):
            for j in (1, 2):
                dt = P.act_generator(("d", i), P.act_generator(("t", j), v))
                td = P.act_generator(("t", j), P.act_generator(("d", i), v))
                expect = dict(v) if i == j else {}
                if vec_clean(vec_sub(vec_sub(dt, td), expect)):
                    rel_ok = False
                tt = vec_sub(
                    P.act_generator(("t", 1), P.act_generator(("t", 2), v)),
                    P.act_generator(("t", 2), P.act_generator(("t", 1), v)))
                dd = vec_sub(
                    P.act_generator(("d", 1), P.act_generator(("d", 2), v)),
                    P.act_generator(("d", 2), P.act_generator(("d", 1), v)))
                if vec_clean(tt) or vec_clean(dd):
                    rel_ok = False

    # t_i d_i is injective on every window: its window image has full rank
    inj_ok = True
    from wittmod.exactnum import Echelon
    for i in (1, 2):
        ech = Echelon()
        for idx in win:
            ech.add(P.act_witt_monomial((1, 0) if i == 1 else (0, 1), i,
                                        {idx: ONE}))
        if ech.dim != len(win):
            inj_ok = False

    # scalar matrix part: closed-form action, symbolic twist b
    Pnum = whittaker([S(3), S(-2)])
    F = FPModule(Pnum, scalar_module(2, B))
    rng = random.Random(777)
    closed_ok, samples = True, 0
    for _ in range(40):
        pidx = rng.choice(Pnum.window_basis(3))
        alpha = (rng.randint(0, 2), rng.randint(0, 2))
        j = rng.randint(1, 2)
        got = F.act(alpha, j, {(pidx, 0): ONE})
        expect = {}
        for p2, c in Pnum.act_witt_monomial(alpha, j, {pidx: ONE}).items():
            expect[(p2, 0)] = expect.get((p2, 0), Scalar.integer(0)) + c
        if alpha[j - 1]:
            shifted = alpha[:j - 1] + (alpha[j - 1] - 1,) + alpha[j:]
            coeff = B * S(alpha[j - 1], 2)
            for p2, c in Pnum.act_t_monomial(shifted, {pidx: ONE}).items():
                expect[(p2, 0)] = expect.get((p2, 0), Scalar.integer(0)) + coeff * c
        samples += 1
        if got != vec_clean(expect):
            closed_ok = False
    _verdict(11, rel_ok and inj_ok and closed_ok,
             "generator relations exact on the D=4 window; t_i d_i "
             "injective (full window rank); scalar-part closed form matches "
             "on %d symbolic samples" % samples)


def test_criterion_12_fingerprints_separate_instances():
    f1 = fingerprint(apoly(2), sym_power(2, 2), 4)
    f2 = fingerprint(apoly(2), tensor_module(sym_power(2, 2),
                                             scalar_module(2, S(1))), 4)
    f3 = fingerprint(twisted_laurent([L1]), scalar_module(1, S(0)), 4)
    distinct = f1 != f2 and f1 != f3 and f2 != f3
    stable = f1 == fingerprint(apoly(2), sym_power(2, 2), 4)
    _verdict(12, distinct and stable,
             "three instances pairwise distinct (%s/%s/%s) and deterministic"
             % (f1.kind, f2.kind, f3.kind))
