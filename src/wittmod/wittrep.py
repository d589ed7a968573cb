"""Witt-algebra modules F(P, M) = P (x) M and their windowed submodules.

The monomial vector field t^a d_j acts on a pure tensor p (x) w by

    (t^a d_j p) (x) w  +  sum_i a_i (t^(a - e_i) p) (x) E(i,j) w,

the pullback of the toroidal action along the Jacobian embedding.  Actions
are always computed exactly on sparse vectors; windows (P-level <= D) enter
only when enumerating bases for rank and membership questions.

Provided machinery: the de Rham-style chain maps pi_k between the
F(P, Ext(k)), the image and transporter subspaces they cut out of a window,
the quadratic-interpolation torsion operator, fixed-point submodule
closures, windowed homology tables, verdict records (irreducibility
reports among them), weight supports, and coarse isomorphism fingerprints.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from wittmod.exactnum import (
    Echelon, EchelonModP, ExactMatrix, ONE, Scalar, at_point, kernel_basis,
    vec_axpy, vec_clean, vec_scale, vec_sub,
)
from wittmod.glmod import (
    GlModule, exterior_degree, exterior_power, highest_weight, wedge_basis,
    wedge_sort,
)
from wittmod.liealg import (
    WittElement, monomial_bracket, shen_tau, toroidal_bracket,
)
from wittmod.polyalg import PLUS, MultiIndex, exponents_within, unit_index
from wittmod.weylmod import WeylModule

Cell = Tuple  # (P basis index, M basis index)
FPMVector = Dict  # Cell -> Scalar


def operators(n: int, A: int, mode: str) -> List[Tuple[MultiIndex, int]]:
    """The monomial operators t^alpha d_j with |alpha| <= A, alpha in the
    order of `exponents_within` and j = 1..n within each alpha: the one
    operator enumeration of every sweep and of `verify-shen`."""
    return [(alpha, j)
            for alpha in exponents_within(n, A, mode)
            for j in range(1, n + 1)]


def _indicator(n: int, s: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(1 if i in s else 0 for i in range(1, n + 1))


# A part (a, j, w) of an image on P (x) M is (t^a d_j p) (x) w, with t^a
# alone when j is None and w a sparse M-vector {M-index: Scalar}.
Part = Tuple[MultiIndex, Optional[int], Dict[int, Scalar]]

# (n, k) -> for each basis index of Ext(k), the parts (0, l, {index of
# e_l ^ e_S: +-1}) of pi_k over the l not in S
_WEDGE_PARTS: Dict[Tuple[int, int], List[List[Part]]] = {}


def _wedge_parts(n: int, k: int) -> List[List[Part]]:
    table = _WEDGE_PARTS.get((n, k))
    if table is None:
        zero = (0,) * n
        dst = {s: a for a, s in enumerate(wedge_basis(n, k + 1))}
        table = []
        for s in wedge_basis(n, k):
            parts: List[Part] = []
            for l in range(1, n + 1):
                wedge = wedge_sort((l,) + s)
                if wedge is not None:
                    sgn, s_l = wedge
                    parts.append((zero, l, {dst[s_l]: ONE if sgn == 1
                                            else -ONE}))
            table.append(parts)
        _WEDGE_PARTS[(n, k)] = table
    return table


def _tensor(out: FPMVector, P: WeylModule, pidx: Tuple,
            parts: Sequence[Part], c: Scalar = ONE) -> FPMVector:
    """out += c * sum over (a, j, w) in parts of (t^a d_j p) (x) w, p the P
    basis vector pidx.  Every map on P (x) M (Witt action, pi_k, torsion
    closed form) is one.

    One loop for Scalar coefficients and, on P and M at the point, int
    ones: the image of p is the tensor product of P's memoized per-factor
    words, as in `WeylModule.act_index` (with its plus-mode guard), started
    at c, and each term times each w entry goes into out at once.  While
    every word so far has one term (every word of a weight factor does),
    the product is one (head, coefficient) pair; a term list opens only at
    the first word of several terms or none.  A word, w entry or c of 1
    (always ONE) costs no product.  A zero c adds nothing; otherwise a
    product of a word coefficient, a w entry and c is nonzero (on P and M
    at the point too: their words and entries are nonzero ints, and
    products are not reduced mod p), so only a sum is tested for zero."""
    if not c:
        return out
    words = P._words
    plus = P.mode == PLUS
    for a, j, w in parts:
        if not w:
            continue
        if plus and min(a) < 0:
            raise ValueError("negative exponent %r in plus mode" % (a,))
        head, c1 = (), c
        terms = None
        for pos, (a_pos, k) in enumerate(zip(a, pidx)):
            key = (pos, a_pos, pos + 1 == j, k)
            word = words.get(key)
            if word is None:
                word = P._word(key)
            if terms is None:
                if len(word) == 1:
                    (k2, c2), = word
                    head += (k2,)
                    if c2 is not ONE:
                        c1 = c2 if c1 is ONE else c1 * c2
                    continue
                terms = [(head, c1)]
            terms = [(head + (k2,),
                      c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2)
                     for head, c1 in terms for k2, c2 in word]
            if not terms:
                break
        for q, cp in ((head, c1),) if terms is None else terms:
            for m, cm in w.items():
                x = cp if cm is ONE else cm if cp is ONE else cp * cm
                cell = (q, m)
                s = out.get(cell)
                if s is None:
                    out[cell] = x
                else:
                    x = s + x
                    if x:
                        out[cell] = x
                    else:
                        del out[cell]
    return out


class FPModule:
    """P (x) M with the pulled-back Witt action.

    Vectors are sparse dicts {(P-index, M-index): Scalar}.  Monomial
    actions on basis cells are memoized in one column table per operator,
    `column(alpha, j)`, mapping a cell to its image ({} when it is 0), so
    repeated operator sweeps over a window pay for each (operator, cell)
    pair once.  `act_cell` is the only place an image is built.
    `FPModule.act` fetches an operator's table once and calls `act_cell`
    only on a miss; the action-axiom sweep takes every image it needs
    through `act_cell` up front, re-keys it by integer cell ids into tables
    of its own and drops the operator's column table.
    """

    def __init__(self, P: WeylModule, M: GlModule):
        if P.n != M.n:
            raise ValueError(
                "rank mismatch: P has n=%d, M has n=%d" % (P.n, M.n))
        self.P = P
        self.M = M
        self.n = P.n
        self.mode = P.mode
        self.name = "F(%s, %s)" % (P.kind, M.name)
        self._columns: Dict[Tuple[MultiIndex, int],
                            Dict[Cell, FPMVector]] = {}
        # (alpha, j) -> for each M index m, the parts of t^alpha d_j on
        # p (x) e_m, built once per operator
        self._parts: Dict[Tuple[MultiIndex, int], List[List[Part]]] = {}

    # the coefficient of an integer, such as act_cell's multiplicities a_i,
    # and the elimination of submodule_closure over those coefficients
    integer = staticmethod(Scalar.integer)
    echelon = Echelon

    def window_basis(self, D: int) -> List[Cell]:
        return [(pidx, m)
                for pidx in self.P.window_basis(D)
                for m in range(self.M.dim)]

    def level(self, cell: Cell) -> int:
        return self.P.level(cell[0])

    def label(self, cell: Cell) -> str:
        return "%s(x)%s" % (self.P.label(cell[0]), self.M.labels[cell[1]])

    def column(self, alpha: MultiIndex, j: int) -> Dict[Cell, FPMVector]:
        """The memo of t^alpha d_j: cell -> image, for the cells met so far."""
        table = self._columns.get((alpha, j))
        if table is None:
            table = self._columns[(alpha, j)] = {}
        return table

    def act_cell(self, alpha: MultiIndex, j: int, cell: Cell) -> FPMVector:
        """t^alpha d_j applied to a single basis cell (memoized): one
        `_tensor` call over the operator's parts for the cell's M index."""
        table = self.column(alpha, j)
        hit = table.get(cell)
        if hit is not None:
            return hit
        pidx, midx = cell
        parts = self._parts.get((alpha, j))
        if parts is None:
            parts = self._parts[(alpha, j)] = self._operator_parts(alpha, j)
        table[cell] = img = _tensor({}, self.P, pidx, parts[midx])
        return img

    def _operator_parts(self, alpha: MultiIndex, j: int) -> List[List[Part]]:
        """For each M index m, the parts of t^alpha d_j on p (x) e_m:
        (alpha, j, e_m), then (alpha - e_i, None, a_i E(i,j) e_m) for each
        i with a_i and E(i,j) e_m nonzero, the column already scaled."""
        M = self.M
        table = []
        for m in range(M.dim):
            parts: List[Part] = [(alpha, j, {m: ONE})]
            for i, a_i in enumerate(alpha, 1):
                col = M.act_column(i, j, m) if a_i else None
                if col:
                    parts.append((alpha[:i - 1] + (a_i - 1,) + alpha[i:],
                                  None, vec_scale(col, self.integer(a_i))))
            table.append(parts)
        return table

    def act(self, alpha: MultiIndex, j: int, vec: FPMVector) -> FPMVector:
        alpha = tuple(alpha)
        out: FPMVector = {}
        _apply(self, self.column(alpha, j), alpha, j,
               zip(itertools.repeat(out), vec, vec.values()))
        return out

    def weight_of(self, cell: Cell) -> Tuple[Scalar, ...]:
        """Joint eigenvalue of the t_j d_j on a basis cell."""
        pw = self.P.weight(cell[0])
        if pw is None:
            raise ValueError("not a weight module")
        mw = self.M.diagonal_weight(cell[1])
        return tuple(a + b for a, b in zip(pw, mw))

    def __repr__(self) -> str:
        return "FPModule(%s)" % self.name


def _apply(F: FPModule, table: Dict[Cell, FPMVector], alpha: MultiIndex,
           j: int, items: Iterable[Tuple[FPMVector, Cell, Scalar]]) -> None:
    """out += c * t^alpha d_j cell for each (out, cell, c) in `items`, in
    place: the one compose loop of `FPModule.act` and the action-axiom
    sweep, one call feeding any number of destinations.  Images come from
    `table`: the operator's column table, misses from `F.act_cell`, or one
    of the sweep's tables keyed by integer cell ids, filled before its pair
    loop so that no lookup misses (the items then carry ids).  A zero
    coefficient is skipped once, a ONE costs no product, and since images
    hold no zero entry, only a sum is tested for zero."""
    for out, cell, c in items:
        if not c:
            continue
        img = table.get(cell)
        if img is None:
            img = F.act_cell(alpha, j, cell)
        one = c is ONE
        for d, x in img.items():
            if not one:
                x = c * x
            s = out.get(d)
            if s is None:
                out[d] = x
            else:
                x = s + x
                if x:
                    out[d] = x
                else:
                    del out[d]


# ---------------------------------------------------------------------------
# chain maps
# ---------------------------------------------------------------------------

def pi_map(P: WeylModule, k: int, vec: FPMVector) -> FPMVector:
    """The map F(P, Ext(k)) -> F(P, Ext(k+1)):
    p (x) e_S -> sum over l not in S of (d_l p) (x) (e_l ^ e_S), where
    e_l ^ e_S = sign * e_(S+l) and sign counts the transpositions that move
    l from the front into place."""
    if not 0 <= k <= P.n - 1:
        raise ValueError("top degree")
    table = _wedge_parts(P.n, k)
    out: FPMVector = {}
    for (pidx, midx), c in vec.items():
        _tensor(out, P, pidx, table[midx], c)
    return out


def _pi_images(P: WeylModule, k: int,
               cells: Sequence[Cell]) -> List[FPMVector]:
    """pi_k of each basis cell in `cells`, in order: the one list the image
    subspaces, kernels and homology ranks are computed from."""
    return [pi_map(P, k, {cell: ONE}) for cell in cells]


def _pi_rank(P: WeylModule, k: int, cells: Sequence[Cell]) -> int:
    """The rank of pi_k on the span of `cells`."""
    return Echelon(img for img in _pi_images(P, k, cells) if img).dim


def torsion_operator(F: FPModule, l: int, i: int, j: int,
                     alpha: MultiIndex, v: FPMVector) -> FPMVector:
    """The m^2-coefficient of m -> (t^(m e_l) d_i)((t^(alpha+(2-m)e_l) d_j) v),
    extracted by exact interpolation at m = 0, 1, 2."""
    n = F.n
    el = unit_index(n, l)

    def f(m: int) -> FPMVector:
        first = tuple(a + (2 - m) * e for a, e in zip(alpha, el))
        outer = tuple(m * e for e in el)
        return F.act(outer, i, F.act(first, j, v))

    num = vec_axpy(f(0), f(1).items(), Scalar.integer(-2))
    return vec_scale(vec_axpy(num, f(2).items()), Scalar.rational(1, 2))


def torsion_expected(F: FPModule, l: int, i: int, j: int,
                     alpha: MultiIndex, v: FPMVector) -> FPMVector:
    """Closed form of the same coefficient:
    sum_k t^alpha p_k (x) (delta_li E(l,j) - E(l,i) E(l,j)) w_k."""
    out: FPMVector = {}
    for (pidx, midx), c in v.items():
        w1 = F.M.act_column(l, j, midx)
        mvec = vec_sub(dict(w1) if l == i else {}, F.M.act(l, i, w1))
        _tensor(out, F.P, pidx, [(alpha, None, mvec)], c)
    return out


def torsion_matches(F: FPModule, l: int, i: int, j: int,
                    alpha: MultiIndex, v: FPMVector) -> bool:
    return torsion_operator(F, l, i, j, alpha, v) == \
        torsion_expected(F, l, i, j, alpha, v)


# ---------------------------------------------------------------------------
# windowed subspaces
# ---------------------------------------------------------------------------

class WindowedSubspace:
    """An exact-rank subspace of the level <= D window of an FPModule."""

    def __init__(self, F: FPModule, D: int, ech: Echelon):
        self.F = F
        self.D = D
        self._ech = ech

    @property
    def dim(self) -> int:
        return self._ech.dim

    def contains(self, vec: FPMVector) -> bool:
        return self._ech.contains(vec)

    def residual(self, vec: FPMVector) -> FPMVector:
        return self._ech.reduce(vec)

    def basis(self) -> List[FPMVector]:
        return self._ech.basis()

    def same_span(self, other: "WindowedSubspace") -> bool:
        return self._ech.same_span(other._ech)

    def __repr__(self) -> str:
        return "WindowedSubspace(dim=%d, D=%d, %s)" % (
            self.dim, self.D, self.F.name)


def submodule_closure(F: FPModule, seeds: Sequence[FPMVector], D: int, A: int,
                      generators: Sequence[FPMVector] = ()
                      ) -> WindowedSubspace:
    """Smallest window-D subspace containing the seeds and closed under
    v -> t^alpha d_j v cut to the window, for all |alpha| <= A.

    Fixed-point worklist over exact ranks; operators are swept in
    increasing |alpha| order and the loop exits as soon as the window
    saturates, so the result is deterministic.  Each image is `F.act`'s,
    cut to the set of window cells.  The work list holds the rows the
    closure inserted (the last of `ech.rows` after a growing `add`), not
    the raw images: any basis of the span gives the same fixed point, and
    rows have no entry at an older lead, so on windows spanned by single
    cells they are single cells where the images are dense.

    `generators` are window vectors already known to generate the full
    window.  The closure of a set is the smallest closed subspace containing
    it, so a span that contains a generator g also contains the closure of
    g, the full window: the loop stops there and returns the identity
    echelon on the window, the unique reduced form a run to completion
    reaches.  A closure that never reaches a generator is unaffected.

    The loop starts from an empty `F.echelon()`: an `Echelon` over Q(l1, ...)
    on an FPModule, and an `EchelonModP` on the view `_AtPoint(F)`, where
    the same loop closes int vectors, reduced mod p by the echelon, at the
    fixed point.
    """
    window = F.window_basis(D)
    full = len(window)
    inside = set(window)
    ops = operators(F.n, A, F.mode)
    ech = F.echelon()
    work: List[FPMVector] = []
    for s in seeds:
        if any(F.level(c) > D for c in s):
            raise ValueError("seed outside window")
        if ech.add(s):
            work.append(next(reversed(ech.rows.values())))

    def saturated() -> bool:
        return ech.dim >= full or any(ech.contains(g) for g in generators)

    done = saturated()
    qi = 0
    while not done and qi < len(work):
        v = work[qi]
        qi += 1
        for alpha, j in ops:
            img = {c: x for c, x in F.act(alpha, j, v).items() if c in inside}
            if img and ech.add(img):
                work.append(next(reversed(ech.rows.values())))
                done = saturated()
                if done:
                    break
    if done:
        one = F.integer(1)
        ech.rows = {c: {c: one} for c in window}
    return WindowedSubspace(F, D, ech)


class _AtPoint(FPModule):
    """The FPModule over `F.P.at_point()` and `F.M.at_point()`, P and M at
    the point of `exactnum.at_point`: the F of `submodule_closure` on its
    Z/p route, so its integers are ints and its echelon is `EchelonModP`.

    Vectors are {cell: int}.  Specialising P and M raises ZeroDivisionError
    when a factor parameter or a denominator of M vanishes at the point.
    The action is FPModule's: `act_cell` builds each image with ints,
    through `_tensor`, the column tables memoise it, and `act` composes
    images through `_apply`.  Nothing here reduces mod p; the entries are
    reduced where `EchelonModP` takes them in.
    """

    integer = int
    echelon = EchelonModP

    def __init__(self, F: FPModule):
        super().__init__(F.P.at_point(), F.M.at_point())


def l_windows(P: WeylModule, r: int, depths: Iterable[int]
              ) -> Iterator[Tuple[int, WindowedSubspace]]:
    """(D, window-D part of the image of pi_(r-1)) for each D in `depths`,
    once each and in increasing D, all from one elimination; r = 0 gives
    zero subspaces.

    The pi_(r-1) images of the window cells of F(P, Ext(r-1)) go into one
    Echelon in `window_basis` order, that is level by level, with each
    coordinate keyed (-level, cell): higher levels come first, and a row
    led at level <= D has every entry at level <= D.  Once the cells of
    level <= D+1 are in, the rows led at level <= D are a basis of the
    image of that window cut to window D (the argument of
    `coordinate_block_intersection`, for every D at once), and re-reduced
    in the cells' own order they are its unique reduced rows.  A depth is
    built only when the generator is advanced to it."""
    n = P.n
    if not 0 <= r <= n:
        raise ValueError("wedge degree out of range")
    F_r = FPModule(P, exterior_power(n, r))
    depths = sorted(set(depths))
    cells = (FPModule(P, exterior_power(n, r - 1)).window_basis(depths[-1] + 1)
             if r and depths else [])
    level = P.level
    ech = Echelon()
    i = 0
    for D in depths:
        while i < len(cells) and level(cells[i][0]) <= D + 1:
            ech.add({(-level(c[0]), c): x
                     for c, x in pi_map(P, r - 1, {cells[i]: ONE}).items()})
            i += 1
        yield D, WindowedSubspace(F_r, D, Echelon(
            {c: x for (_, c), x in row.items()}
            for (top, _), row in ech.rows.items() if -top <= D))


def l_window(P: WeylModule, r: int, D: int) -> WindowedSubspace:
    """Window-D part of the image of pi_(r-1), spanned by chain-map images
    of the level <= D+1 window: the first window of `l_windows`."""
    return next(l_windows(P, r, (D,)))[1]


def _kernel_subspace(basis: Sequence[FPMVector],
                     images: Sequence[Dict]) -> List[FPMVector]:
    """The kernel of the linear map sending basis[i] to the sparse vector
    images[i] (keys: any sortable row labels), one vector per free column
    of `kernel_basis` on the matrix with those columns and its rows in key
    order, each vector the matching combination of `basis`."""
    rows: Dict[object, Dict[int, Scalar]] = {}
    for ci, img in enumerate(images):
        for key, x in img.items():
            rows.setdefault(key, {})[ci] = x
    mat = ExactMatrix(len(rows), len(basis), [rows[k] for k in sorted(rows)])
    return [vec_axpy({}, [(c, x * y) for b, x in zip(basis, kv)
                          if not x.is_zero() for c, y in b.items()])
            for kv in kernel_basis(mat)]


def kernel_window(P: WeylModule, r: int, D: int) -> WindowedSubspace:
    """ker pi_r intersected with the window (images computed exactly,
    never truncated)."""
    n = P.n
    if not 0 <= r <= n - 1:
        raise ValueError("top degree")
    F_r = FPModule(P, exterior_power(n, r))
    cols = F_r.window_basis(D)
    return WindowedSubspace(F_r, D, Echelon(_kernel_subspace(
        [{c: ONE} for c in cols], _pi_images(P, r, cols))))


def ltilde_window(P: WeylModule, r: int, D: int, A: int) -> WindowedSubspace:
    """The transporter into the image subspace, from its defining property:
    window vectors v with t^alpha d_j v inside the image window deepened by
    the operator's raise bound, for every |alpha| <= A.  Computed purely
    from that invariance condition, with no kernel shortcut, by shrinking a
    candidate basis K (first the window cells) one operator at a time: K
    becomes the kernel of v -> t^alpha d_j v mod that image window on K.
    The image windows of every depth come from one `l_windows` call, each
    built when an operator first needs it.  Each operator's column table is
    dropped once its residuals are taken."""
    n = P.n
    if not 0 <= r <= n:
        raise ValueError("wedge degree out of range")
    F_r = FPModule(P, exterior_power(n, r))
    K: List[FPMVector] = [{c: ONE} for c in F_r.window_basis(D)]
    ops = operators(n, A, P.mode)
    dprimes = [D + max(0, P.op_raise_bound(alpha, j)) for alpha, j in ops]
    windows = l_windows(P, r, dprimes)
    deep: Dict[int, WindowedSubspace] = {}
    for (alpha, j), dprime in zip(ops, dprimes):
        while dprime not in deep:
            d, sub = next(windows)
            deep[d] = sub
        res = [deep[dprime].residual(F_r.act(alpha, j, v)) for v in K]
        F_r._columns.pop((alpha, j), None)
        if not any(res):
            continue
        K = _kernel_subspace(K, res)
        if not K:
            break
    return WindowedSubspace(F_r, D, Echelon(K))


def interior_invariant(sub: WindowedSubspace, bound: int) -> bool:
    """Check op(v) stays inside the subspace for every |alpha| <= bound
    operator, restricted to basis vectors whose level survives the
    operator's raise bound (so the image provably fits in the window)."""
    F, D = sub.F, sub.D
    rows = sub.basis()
    levels = [max(F.level(c) for c in row) for row in rows]
    for alpha, j in operators(F.n, bound, F.mode):
        rb = max(0, F.P.op_raise_bound(alpha, j))
        for row, lvl in zip(rows, levels):
            if lvl + rb > D:
                continue
            if not sub.contains(F.act(alpha, j, row)):
                return False
    return True


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

@dataclass
class HomologyTable:
    """Homology dimensions keyed by (wedge degree r, graded level q), where
    q is the chain-map-invariant level (P-degree plus r).  Pieces touching
    the window boundary are excluded and counted; non-graded modules fall
    back to window-relative dimensions keyed (r, None)."""

    table: Dict[Tuple[int, Optional[int]], int]
    excluded: int
    graded: bool

    def nonzero(self) -> Dict[Tuple[int, Optional[int]], int]:
        return {k: v for k, v in self.table.items() if v}


def complex_homology(P: WeylModule, D: int) -> HomologyTable:
    """Exact homology of the chain 0 -> F(P,Ext(0)) -> ... -> F(P,Ext(n)) -> 0
    over the window, via the multidegree decomposition when P is graded."""
    if D < 2:
        raise ValueError("window must be at least 2")
    if P.graded:
        return _homology_graded(P, D)
    return _homology_window(P, D)


def _homology_graded(P: WeylModule, D: int) -> HomologyTable:
    n = P.n
    window = P.window_basis(D)
    deltas = {tuple(p + e for p, e in zip(pidx, _indicator(n, s)))
              for k in range(n + 1) for s in wedge_basis(n, k)
              for pidx in window}
    table: Dict[Tuple[int, Optional[int]], int] = {}
    excluded = 0
    for delta in sorted(deltas):
        # k -> the cells (P-index, index of S in Ext(k)) of this multidegree
        cells: List[List[Cell]] = []
        for k in range(n + 1):
            shifted = [(tuple(d - e for d, e in zip(delta, _indicator(n, s))),
                        a) for a, s in enumerate(wedge_basis(n, k))]
            cells.append([c for c in shifted if P.valid_index(c[0])])
        if any(P.level(c[0]) > D for lst in cells for c in lst):
            excluded += 1
            continue
        # ranks[-1] = ranks[n] = 0: pi_(-1) and pi_n are zero
        ranks = [_pi_rank(P, k, cells[k]) for k in range(n)] + [0]
        for k, lst in enumerate(cells):
            if lst:
                key = (k, sum(delta))
                table[key] = (table.get(key, 0) + len(lst) - ranks[k]
                              - ranks[k - 1])
    return HomologyTable(table, excluded, True)


def _homology_window(P: WeylModule, D: int) -> HomologyTable:
    n = P.n
    table: Dict[Tuple[int, Optional[int]], int] = {}
    for r in range(n + 1):
        cols = FPModule(P, exterior_power(n, r)).window_basis(D)
        ker = len(cols) - (_pi_rank(P, r, cols) if r < n else 0)
        table[(r, None)] = ker - l_window(P, r, D).dim
    return HomologyTable(table, 0, False)


# ---------------------------------------------------------------------------
# support and fingerprints
# ---------------------------------------------------------------------------

def weight_support(P: WeylModule, M: GlModule, D: int) -> Set[Tuple[Scalar, ...]]:
    """All weights of window cells; rejects non-weight P."""
    F = FPModule(P, M)
    return {F.weight_of(cell) for cell in F.window_basis(D)}


def _floor_const(x: Scalar) -> int:
    fr = x.constant_part()
    if fr is None:
        raise ValueError("weight %s has no constant part: its denominator"
                         " vanishes at parameters = 0" % x)
    return fr.numerator // fr.denominator


@dataclass(frozen=True)
class Fingerprint:
    """Canonical non-isomorphism detector: weight-orbit multiset for weight
    instances, graded window dimensions otherwise.  Equality of
    fingerprints never certifies isomorphism."""

    kind: str
    entries: Tuple[Tuple[str, int], ...]


def fingerprint(P: WeylModule, M: GlModule, D: int) -> Fingerprint:
    F = FPModule(P, M)
    if P.is_weight:
        counts: Dict[str, int] = {}
        for cell in F.window_basis(D):
            w = F.weight_of(cell)
            rep = tuple(x - Scalar.integer(_floor_const(x)) for x in w)
            key = "(" + ", ".join(str(x) for x in rep) + ")"
            counts[key] = counts.get(key, 0) + 1
        return Fingerprint("weight", tuple(sorted(counts.items())))
    sizes = [0] + [len(P.window_basis(d)) for d in range(D + 1)]
    return Fingerprint("graded", tuple(
        ("level %d" % d, (sizes[d + 1] - sizes[d]) * M.dim)
        for d in range(D + 1)))


# ---------------------------------------------------------------------------
# verdicts and irreducibility reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """A check's claim, whether it was established, the named counts of what
    it examined (each stated in `notes`) and, for an irreducibility report,
    the branch.  `certified` is derived and set nowhere else: established
    and every count positive.  An established claim with a zero count reads
    "not certified", with one line naming the empty counts."""

    claim: str
    established: bool
    counts: Dict[str, int]
    notes: List[str]
    branch: Optional[str] = None

    @property
    def certified(self) -> bool:
        return self.established and all(k > 0 for k in self.counts.values())

    @property
    def verdict(self) -> str:
        unfounded = self.established and not self.certified
        return "not certified" if unfounded else self.claim

    @property
    def details(self) -> List[str]:
        empty = [name for name, k in self.counts.items() if k <= 0]
        if not self.established or not empty:
            return self.notes
        return self.notes + ["'%s' rests on 0 %s, so it certifies nothing"
                             % (self.claim, " and 0 ".join(empty))]


def saturation_seeds(F: FPModule) -> List[FPMVector]:
    """All pure tensors with P-level <= 1: the cheapest adversarial seeds."""
    return [{cell: ONE} for cell in F.window_basis(1)]


def _saturation_report(F: FPModule, D: int, A: int,
                       details: List[str]) -> Verdict:
    """Certified when every level-<=1 seed generates the window.

    One loop closes the seeds in order, each with the seeds certified
    before it as generators.  Seeds are closed over Z/p at the fixed point
    of `exactnum.at_point` (p = 2^31 - 1), on the view `_AtPoint(F)`,
    until the first seed whose window does not fill there; that seed and
    the rest are closed over Q(l1, ...).  When building the view raises
    ZeroDivisionError, no seed is closed at the point.  A window that fills
    at the point fills exactly, so the report is the one the exact loop
    alone gives.

    Why this is sound.  First, every factor parameter lam of P (a TL or
    Whittaker parameter, rational or not) must be nonzero at the point, and
    every entry of M's columns must have a denominator that is a unit there:
    `WeylModule.at_point` and `GlModule.at_point` raise ZeroDivisionError
    otherwise, when the view `_AtPoint` specialises P and M, before anything
    is closed.  The coefficients of P's per-factor words are Laurent
    polynomials in the lam with integer coefficients (lam^(+-1) times
    binomials for Whittaker, lam + k for TL, integers otherwise).  So the
    words, M's entries and the integers a_i of `act_cell` all lie in the
    local ring R of Z[l1, ...] at the point, and reduction from R to Z/p is
    a ring homomorphism.  The view builds its images with ints and reduces
    none of them: `act_cell` and `_tensor` take products and sums of the
    evaluated words and M entries, `_apply` combines the images of a
    queued row's cells with the row's entries, and the closure keeps the
    entries at window cells.  The exact route takes the same products and
    sums over Q(l1, ...), so each int the view builds is congruent mod p to
    the exact coefficient evaluated at the point.  `EchelonModP` reduces
    every vector it takes in, so it sees the reduction of the exact image
    cut to the window, whatever the size of the ints and in whatever order
    the column tables are filled, and no exact image is built.  The closure
    queues the rows it inserts, combinations of the seed and of images of
    earlier rows, so by linearity its span at the point is spanned by the
    reductions of the exact images w(seed), w a word in the operators cut to
    the window.  If it has the window's dimension N, some N of those images
    have a determinant that is a unit of R, hence nonzero: they are
    independent over Q(l1, ...), and the exact closure is the window too
    (rank can only drop under specialisation).  The certified-seed shortcut
    (`generators`) stays valid at the point for the same reason as over Q:
    a closed span at the point that contains a seed whose closure there is
    the window is the window.  Every coefficient the route evaluates is
    guarded as well: a parameter or a denominator that vanishes at the
    point means the exact route for every seed.
    """
    full = len(F.window_basis(D))
    seeds = saturation_seeds(F)
    try:
        view: Optional[_AtPoint] = _AtPoint(F)
    except ZeroDivisionError:
        view = None
    # a seed whose closure reaches a generating seed generates the window too
    generating: List[FPMVector] = []
    generating_at: List[Dict[Cell, int]] = []  # the same seeds at the point
    for seed in seeds:
        if view is not None:
            s = {c: at_point(x) for c, x in seed.items()}
            if submodule_closure(view, [s], D, A, generating_at).dim == full:
                generating.append(seed)
                generating_at.append(s)
                continue
            view = None
        sub = submodule_closure(F, [seed], D, A, generators=generating)
        if sub.dim < full:
            cell = next(iter(seed))
            details.append(
                "seed %s generated only %d of %d window dimensions"
                % (F.label(cell), sub.dim, full))
            return Verdict("not certified", False, {}, details, "saturation")
        generating.append(seed)
    details.append("all %d level-<=1 seeds generate the full %d-dimensional"
                   " window" % (len(seeds), full))
    return Verdict(
        "consistent with irreducible: certified saturation at (D=%d, A=%d)"
        % (D, A), True, {"seeds": len(seeds)}, details, "saturation")


def irreducibility_report(P: WeylModule, M: GlModule, D: int,
                          A: int) -> Verdict:
    """Windowed verdict on F(P, M), branching on the shape of M.

    Reducible M: skipped.  M not a fundamental exterior power: saturation
    certificate from all low-level seeds.  M = Ext(r) with 0 < r < n:
    reducible, witnessed by the image subspace.  r = 0: reducible exactly
    when P is literally the (Laurent) polynomial module.  r = n: decided by
    the codimension of the summed derivative image inside the level <= D
    window the verdict is about (codim 0: saturation certificate; otherwise
    reducible, certified when the quotient by the image is windowed-trivial).
    """
    n = P.n
    details: List[str] = []
    weight = highest_weight(M)
    if weight is None:
        return Verdict(
            "skipped", False, {},
            ["M = %s is a reducible gl-module; no verdict attempted"
             % M.name], "m-reducible")
    r = exterior_degree(M, weight)
    F = FPModule(P, M)
    if r is None:
        return _saturation_report(F, D, A, details)
    full = len(F.window_basis(D))
    if r == 0:
        if P.is_natural():
            sub = submodule_closure(F, [{((0,) * n, 0): ONE}], D, A)
            details.append("closure of the constant line has dimension %d"
                           % sub.dim)
            return Verdict("reducible", sub.dim < full,
                           {"closure dimensions": sub.dim}, details,
                           "degree-zero")
        details.append("P is not the natural module; running saturation")
        return _saturation_report(F, D, A, details)
    if r == n:
        # pi_(n-1)(p (x) e_S) = +-(d_l p) (x) e_1..n, so the image subspace
        # is the summed derivative image of the level <= D+1 window cut to
        # level <= D, the one P.sum_partial_image_codim eliminates on its
        # own; a residue cell at level exactly D (t1^-1...tn^-1 in
        # Alaurent(n) or Quot(n) at D = n) is seen.
        # The quotient is trivial when every operator maps the window into
        # the image window deepened by the largest raise bound; both windows
        # come from one elimination, the deep one built only when the
        # codimension is positive.
        ops = operators(n, A, P.mode)
        maxraise = max(max(0, P.op_raise_bound(a, j)) for a, j in ops)
        windows = l_windows(P, n, (D, D + maxraise))
        _, lw = next(windows)
        codim = full - lw.dim
        details.append("summed derivative image has codimension %d in the"
                       " window" % codim)
        if codim == 0:
            return _saturation_report(F, D, A, details)
        deep = next(windows, (D, lw))[1]
        moved = next(((a, j, c) for c in F.window_basis(D) for a, j in ops
                      if not deep.contains(F.act_cell(a, j, c))), None)
        if moved is None:
            details.append("all %d operators map the window into the image"
                           " subspace" % len(ops))
        else:
            a, j, cell = moved
            details.append("operator t^%s d_%d moves %s outside the image"
                           " subspace" % (a, j, F.label(cell)))
        details.append("image subspace dimension %d of %d" % (lw.dim, full))
        return Verdict("reducible", moved is None, {"window cells": full},
                       details, "top-degree")
    lw = l_window(P, r, D)
    invariant = interior_invariant(lw, A)
    details.append("image subspace: dimension %d of %d, nonzero=%s,"
                   " proper=%s, interior-invariant=%s"
                   % (lw.dim, full, lw.dim > 0, lw.dim < full, invariant))
    return Verdict("reducible", lw.dim < full and invariant,
                   {"image-window rows": lw.dim}, details, "exterior-witness")


# ---------------------------------------------------------------------------
# identity suites (shared by tests and the command line); each returns
# (ok, cases checked, note naming the first failing case or "")
# ---------------------------------------------------------------------------

def check_action_axiom(F: FPModule, bound: int, D: int) -> Tuple[bool, int, str]:
    """[x, y] v + y(xv) = x(yv) for all monomial pairs with |alpha| <= bound
    on every window cell v, [x, y] from W_n's structure constants
    (`monomial_bracket`).  Returns (ok, pairs checked, failure note).

    A pair is checked on the whole window at once: the two sides are one
    dict per window cell, and each `_apply` call (one per bracket term, one
    for y(xv), one for x(yv)) feeds every cell's dict.  The sweep numbers
    every cell it meets and builds each image once, through `act_cell`,
    into id-keyed tables filled before the pair loop: each operator's
    images of the window cells and of every cell those images reach, and
    each bracket term's images of the window cells.  F's column table of
    an operator is dropped as soon as its images are re-keyed."""
    ops = operators(F.n, bound, F.mode)
    cells = F.window_basis(D)
    # cell -> id: the window cells take ids 0..N-1 in window order, so the
    # first differing cell of a pair, its count and its note are those of
    # the window; every other cell takes the next id when first met
    ids: Dict[Cell, int] = {cell: i for i, cell in enumerate(cells)}
    # (alpha, j) -> id -> image, keyed by ids
    tables: Dict[Tuple[MultiIndex, int], Dict[int, FPMVector]] = {}

    # op's images of the (id, cell) pairs of todo, re-keyed into its table
    def build(op: Tuple[MultiIndex, int],
              todo: Iterable[Tuple[int, Cell]]) -> None:
        table = tables.setdefault(op, {})
        for i, cell in todo:
            img = table[i] = {}
            for d, x in F.act_cell(op[0], op[1], cell).items():
                k = ids.get(d)
                if k is None:
                    k = ids[d] = len(ids)
                img[k] = x
        F._columns.pop(op, None)

    for op in ops:
        build(op, enumerate(cells))
    reached = list(enumerate(ids))[len(cells):]
    for op in ops:
        build(op, reached)
    brackets = [monomial_bracket(F.n, F.mode, x, y)
                for x, y in itertools.combinations(ops, 2)]
    for alpha, j, _ in itertools.chain.from_iterable(brackets):
        if (alpha, j) not in tables:
            build((alpha, j), enumerate(cells))
    window = range(len(cells))
    # the two sides of the current pair on each window cell, reused
    lhs: List[FPMVector] = [{} for _ in cells]
    rhs: List[FPMVector] = [{} for _ in cells]
    # each operator's images of the window cells, as items into lhs and rhs
    into_lhs, into_rhs = [], []
    for op in ops:
        table = tables[op]
        for side, into in ((lhs, into_lhs), (rhs, into_rhs)):
            into.append([(out, d, x) for out, i in zip(side, window)
                         for d, x in table[i].items()])
    checked = 0
    pair_brackets = iter(brackets)
    for ai, (xa, xj) in enumerate(ops):
        for bi in range(ai + 1, len(ops)):
            ya, yj = ops[bi]
            for out in itertools.chain(lhs, rhs):
                out.clear()
            for alpha, j, c in next(pair_brackets):
                _apply(F, tables[(alpha, j)], alpha, j,
                       zip(lhs, window, itertools.repeat(c)))
            _apply(F, tables[ops[bi]], ya, yj, into_lhs[ai])
            _apply(F, tables[ops[ai]], xa, xj, into_rhs[bi])
            if lhs != rhs:
                i = next(i for i, (l, r) in enumerate(zip(lhs, rhs)) if l != r)
                return (False, checked + i + 1,
                        "pair t^%s d_%d, t^%s d_%d on %s"
                        % (xa, xj, ya, yj, F.label(cells[i])))
            checked += len(cells)
    return (True, checked, "")


def check_chain_map(P: WeylModule, bound: int, D: int) -> Tuple[bool, int, str]:
    """pi_k intertwines every monomial operator on window bases, and
    consecutive chain maps compose to zero."""
    n = P.n
    ops = operators(n, bound, P.mode)
    checked = 0
    F_k1 = FPModule(P, exterior_power(n, 0))
    for k in range(n):
        # F(P, Ext(k+1)) is the next k's F_k: its memoized images carry over
        F_k, F_k1 = F_k1, FPModule(P, exterior_power(n, k + 1))
        cells = F_k.window_basis(D)
        images = _pi_images(P, k, cells)
        # cell -> pi_k(cell): the window's images, plus cells met on the way
        memo = dict(zip(cells, images))
        for alpha, j in ops:
            for cell, img in zip(cells, images):
                checked += 1
                lhs: FPMVector = {}
                for c, x in F_k.act_cell(alpha, j, cell).items():
                    if c not in memo:
                        memo[c] = pi_map(P, k, {c: ONE})
                    vec_axpy(lhs, memo[c].items(), x)
                if lhs != F_k1.act(alpha, j, img):
                    return (False, checked,
                            "pi_%d vs t^%s d_%d on %s"
                            % (k, alpha, j, F_k.label(cell)))
        if k + 1 <= n - 1:
            for cell, img in zip(cells, images):
                checked += 1
                if pi_map(P, k + 1, img):
                    return (False, checked,
                            "pi_%d pi_%d nonzero on %s"
                            % (k + 1, k, F_k.label(cell)))
    return (True, checked, "")


def check_shen_tau(n: int, bound: int, mode: str) -> Tuple[bool, int, str]:
    """tau[x, y] = [tau x, tau y] on monomial pairs: all pairs of distinct
    |alpha| <= bound operators in the plus mode, else 200 pairs with
    exponents drawn from [-bound, bound]^n (seed 1923).  The two sides take
    independent routes: [x, y] from W_n's structure constants
    (`monomial_bracket`), [tau x, tau y] from `toroidal_bracket`."""
    if mode == PLUS:
        pairs = list(itertools.combinations(operators(n, bound, mode), 2))
    else:
        rng = random.Random(1923)
        pairs = []
        for _ in range(200):
            a = tuple(rng.randint(-bound, bound) for _ in range(n))
            b = tuple(rng.randint(-bound, bound) for _ in range(n))
            pairs.append(((a, rng.randint(1, n)), (b, rng.randint(1, n))))
    xs = {op: WittElement.monomial(n, mode, *op)
          for op in itertools.chain.from_iterable(pairs)}
    taus = {op: shen_tau(x) for op, x in xs.items()}
    for checked, (xop, yop) in enumerate(pairs, 1):
        br = sum((WittElement.monomial(n, mode, alpha, j, c) for alpha, j, c
                  in monomial_bracket(n, mode, xop, yop)),
                 WittElement.zero(n, mode))
        if shen_tau(br) != toroidal_bracket(taus[xop], taus[yop]):
            return (False, checked,
                    "mismatch at x=%s, y=%s" % (xs[xop], xs[yop]))
    return True, len(pairs), ""


def check_torsion(F: FPModule, D: int, bound: int) -> Tuple[bool, int, str]:
    """The interpolated torsion operator against its closed form on 100
    inputs drawn with seed 8128: a two-cell window vector with coefficients
    in [-3, 3], indices l, i, j and an exponent with |alpha| <= bound."""
    rng = random.Random(8128)
    win = F.window_basis(D)
    if not win:
        return True, 0, ""
    exps = exponents_within(F.n, bound, F.mode)
    for checked in range(1, 101):
        vec = vec_clean({rng.choice(win): Scalar.integer(rng.randint(-3, 3))
                         for _ in range(2)})
        l, i, j = (rng.randint(1, F.n) for _ in range(3))
        alpha = rng.choice(exps)
        if not torsion_matches(F, l, i, j, alpha, vec):
            return (False, checked, "mismatch at l=%d, i=%d, j=%d, alpha=%s"
                    % (l, i, j, alpha))
    return True, checked, ""
