"""Finite-dimensional gl_n-modules given by the images of basis vectors.

A GlModule stores, for each elementary E(i,j), one sparse column per basis
vector e_m: the image E(i,j) e_m.  The commutation relations
[E(i,j), E(k,l)] = delta_jk E(i,l) - delta_li E(k,j) are verified at
construction.  Provided constructors: the natural module, exterior powers,
symmetric powers, one-dimensional scalar modules where E(i,j) acts as
delta_ij * b/n, and tensor products.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

from wittmod.exactnum import (
    ExactMatrix, Echelon, ONE, Scalar, ZERO, at_point, kernel_basis, vec_axpy,
)

Weight = Tuple[Scalar, ...]
Column = Dict[int, Scalar]

_MINUS_ONE = Scalar.integer(-1)


class GlModule:
    """A gl_n-module: basis labels plus, for each E(i,j), the list of
    columns E(i,j) e_m, each a sparse {row: coeff} in increasing row order."""

    __slots__ = ("n", "dim", "labels", "action", "name")

    def __init__(self, n: int, labels: Sequence[str],
                 action: Dict[Tuple[int, int], List[Column]],
                 name: str = "", check: bool = True):
        self.n = n
        self.dim = len(labels)
        self.labels = list(labels)
        self.action = dict(action)
        self.name = name or "gl%d-module" % n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                cols = self.action.get((i, j))
                if cols is None:
                    raise ValueError("missing action matrix for E(%d,%d)" % (i, j))
                if len(cols) != self.dim or any(
                        not 0 <= r < self.dim for col in cols for r in col):
                    raise ValueError("action matrix shape mismatch")
        if check:
            self._check_commutation()

    def _check_commutation(self) -> None:
        # the (k,l,i,j) relation is minus the (i,j,k,l) one, and (i,j) =
        # (k,l) holds trivially: check each unordered pair once
        pairs = itertools.product(range(1, self.n + 1), repeat=2)
        for (i, j), (k, l) in itertools.combinations(pairs, 2):
            for m in range(self.dim):
                # [E(i,j), E(k,l)] e_m - delta_jk E(i,l) e_m + delta_li E(k,j) e_m
                diff = self.act(i, j, self.action[(k, l)][m])
                vec_axpy(diff, self.act(k, l, self.action[(i, j)][m]).items(),
                         _MINUS_ONE)
                if j == k:
                    vec_axpy(diff, self.action[(i, l)][m].items(), _MINUS_ONE)
                if l == i:
                    vec_axpy(diff, self.action[(k, j)][m].items())
                if diff:
                    raise ValueError(
                        "commutation relation fails for [E(%d,%d), E(%d,%d)]"
                        % (i, j, k, l))

    def act(self, i: int, j: int, vec: Dict[int, Scalar]) -> Dict[int, Scalar]:
        """Apply E(i,j) to a sparse vector {basis index: coeff}."""
        cols = self.action[(i, j)]
        out: Dict[int, Scalar] = {}
        for idx, c in vec.items():
            vec_axpy(out, cols[idx].items(), c)
        return out

    def act_column(self, i: int, j: int, idx: int) -> Column:
        """E(i,j) e_idx: the stored column, which callers must not mutate."""
        return self.action[(i, j)][idx]

    def at_point(self) -> "GlModule":
        """This module at the fixed point of `exactnum.at_point`: every
        column entry evaluated there (an int in [0, p), zeros dropped);
        ZeroDivisionError when an entry's denominator vanishes at the point.
        The relations hold mod p, as reductions of the ones checked when
        this module was built, so they are not checked again."""
        action = {key: [{r: v for r, v in ((r, at_point(x))
                                           for r, x in col.items()) if v}
                        for col in cols]
                  for key, cols in self.action.items()}
        return GlModule(self.n, self.labels, action, self.name, check=False)

    def diagonal_weight(self, idx: int) -> Weight:
        """Weight of a basis vector, assuming diagonal E(i,i) actions."""
        return tuple(self.action[(i, i)][idx].get(idx, ZERO)
                     for i in range(1, self.n + 1))

    def __repr__(self) -> str:
        return "GlModule(%s, n=%d, dim=%d)" % (self.name, self.n, self.dim)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def natural_module(n: int) -> GlModule:
    """C^n with E(i,j) e_l = delta_jl e_i."""
    action = {(i, j): [{i - 1: ONE} if c == j - 1 else {} for c in range(n)]
              for i in range(1, n + 1) for j in range(1, n + 1)}
    return GlModule(n, ["e%d" % (i + 1) for i in range(n)], action, name="Nat")


def wedge_sort(seq: Sequence[int]) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Normal form of the wedge of e_x for x in seq: (sign, sorted tuple),
    or None when an index repeats and the wedge is zero."""
    s = list(seq)
    sign = 1
    for a in range(len(s)):
        for b in range(len(s) - 1 - a):
            if s[b] > s[b + 1]:
                s[b], s[b + 1] = s[b + 1], s[b]
                sign = -sign
            elif s[b] == s[b + 1]:
                return None
    return sign, tuple(s)


def wedge_basis(n: int, k: int) -> List[Tuple[int, ...]]:
    """The basis e_S of Lambda^k C^n, indexed as in `exterior_power`: the
    k-subsets S of 1..n in lexicographic order."""
    return list(itertools.combinations(range(1, n + 1), k))


def exterior_power(n: int, k: int) -> GlModule:
    """Lambda^k C^n with the derivation action on wedges."""
    if not 0 <= k <= n:
        raise ValueError("exterior power out of range: k=%d, n=%d" % (k, n))
    basis = wedge_basis(n, k)
    index = {s: a for a, s in enumerate(basis)}
    labels = ["^".join("e%d" % x for x in s) if s else "1" for s in basis]

    def column(i, j, s):
        res = wedge_sort([i if x == j else x for x in s]) if j in s else None
        if res is None:
            return {}
        sign, sorted_s = res
        return {index[sorted_s]: Scalar.integer(sign)}

    action = {(i, j): [column(i, j, s) for s in basis]
              for i in range(1, n + 1) for j in range(1, n + 1)}
    return GlModule(n, labels, action, name="Ext(%d)" % k)


def sym_power(n: int, k: int) -> GlModule:
    """S^k C^n realized on degree-k monomials with E(i,j) = e_i d/d e_j."""
    if k < 0:
        raise ValueError("negative symmetric power")
    basis = [e for e in itertools.product(range(k + 1), repeat=n) if sum(e) == k]
    basis.sort()
    index = {e: a for a, e in enumerate(basis)}

    def label(e):
        parts = []
        for i, x in enumerate(e):
            if x == 1:
                parts.append("e%d" % (i + 1))
            elif x > 1:
                parts.append("e%d^%d" % (i + 1, x))
        return "*".join(parts) if parts else "1"

    def column(i, j, e):
        if e[j - 1] == 0:
            return {}
        ee = list(e)
        ee[j - 1] -= 1
        ee[i - 1] += 1
        return {index[tuple(ee)]: Scalar.integer(e[j - 1])}

    action = {(i, j): [column(i, j, e) for e in basis]
              for i in range(1, n + 1) for j in range(1, n + 1)}
    return GlModule(n, [label(e) for e in basis], action, name="Sym(%d)" % k)


def scalar_module(n: int, b: Scalar) -> GlModule:
    """One-dimensional module where E(i,j) acts as delta_ij * b/n."""
    val = b / Scalar.integer(n)
    action = {(i, j): [{0: val} if i == j and not val.is_zero() else {}]
              for i in range(1, n + 1) for j in range(1, n + 1)}
    return GlModule(n, ["1"], action, name="Triv(%s)" % b)


def tensor_module(m1: GlModule, m2: GlModule) -> GlModule:
    """m1 (x) m2 with X(v (x) w) = Xv (x) w + v (x) Xw."""
    if m1.n != m2.n:
        raise ValueError("tensor factors over different gl_n")
    n = m1.n
    d1, d2 = m1.dim, m2.dim
    labels = ["%s*%s" % (a, b) for a in m1.labels for b in m2.labels]

    def column(i, j, c1, s):
        # E e_c1 (x) e_s + e_c1 (x) E e_s, in increasing row order
        col = {r1 * d2 + s: x for r1, x in m1.act_column(i, j, c1).items()}
        vec_axpy(col, [(c1 * d2 + r2, x)
                       for r2, x in m2.act_column(i, j, s).items()])
        return dict(sorted(col.items()))

    action = {(i, j): [column(i, j, c1, s)
                       for c1 in range(d1) for s in range(d2)]
              for i in range(1, n + 1) for j in range(1, n + 1)}
    return GlModule(n, labels, action, name="%s*%s" % (m1.name, m2.name))


# ---------------------------------------------------------------------------
# structure analysis
# ---------------------------------------------------------------------------

def weight_decomposition(m: GlModule) -> Dict[Weight, List[int]]:
    """Partition basis indices by joint E(i,i) eigenvalue.

    Requires every E(i,i) to act diagonally in the given basis
    (true for all provided constructors); otherwise raises ValueError.
    """
    for i in range(1, m.n + 1):
        for c, col in enumerate(m.action[(i, i)]):
            if any(r != c for r in col):
                raise ValueError("not a weight module")
    out: Dict[Weight, List[int]] = {}
    for idx in range(m.dim):
        out.setdefault(m.diagonal_weight(idx), []).append(idx)
    return out


def singular_vectors(m: GlModule) -> List[Tuple[Weight, List[Scalar]]]:
    """Joint kernel of the raising operators E(i,i+1), split by weight.

    Returns [(weight, dense vector)] sorted by weight string for determinism.
    For n = 1 there are no raising operators and every weight line is singular.
    """
    blocks = weight_decomposition(m)
    raising = [m.action[(i, i + 1)] for i in range(1, m.n)]
    out: List[Tuple[Weight, List[Scalar]]] = []
    for weight in sorted(blocks, key=lambda w: tuple(str(x) for x in w)):
        coords = blocks[weight]
        if not raising:
            for c in coords:
                v = [ZERO] * m.dim
                v[c] = ONE
                out.append((weight, v))
            continue
        # stack the raising operators restricted to this weight block
        rows: List[Dict[int, Scalar]] = []
        for cols in raising:
            block = [{} for _ in range(m.dim)]
            for ci, c in enumerate(coords):
                for r, x in cols[c].items():
                    block[r][ci] = x
            rows.extend(block)
        stacked = ExactMatrix(len(rows), len(coords), rows)
        for kv in kernel_basis(stacked):
            v = [ZERO] * m.dim
            for ci, c in enumerate(coords):
                v[c] = kv[ci]
            out.append((weight, v))
    return out


def cyclic_span(m: GlModule, seeds: List[Dict[int, Scalar]]) -> int:
    """Dimension of the smallest subspace containing seeds closed under all E(i,j)."""
    ech = Echelon()
    work = []
    for s in seeds:
        if ech.add(s):
            work.append(s)
    while work:
        v = work.pop()
        for i in range(1, m.n + 1):
            for j in range(1, m.n + 1):
                w = m.act(i, j, v)
                if w and ech.add(w):
                    work.append(w)
    return ech.dim


def highest_weight(m: GlModule) -> Optional[Weight]:
    """The highest weight of m when m is irreducible, else None.

    m is irreducible iff its singular space is one line and that line
    generates m under all E(i,j).
    """
    sing = singular_vectors(m)
    if len(sing) != 1:
        return None
    weight, vec = sing[0]
    seed = {i: x for i, x in enumerate(vec) if not x.is_zero()}
    return weight if cyclic_span(m, [seed]) == m.dim else None


def exterior_degree(m: GlModule, weight: Weight) -> Optional[int]:
    """k when m, irreducible of highest weight `weight`, is (isomorphic to)
    Lambda^k C^n: the weight is (1,..,1,0,..,0) with k ones and the
    dimension is binom(n, k).  The k = n case includes the scalar module
    with b = n, whose action matrices coincide with the top exterior power.
    """
    for k in range(m.n + 1):
        target = tuple([ONE] * k + [ZERO] * (m.n - k))
        if weight == target and m.dim == math.comb(m.n, k):
            return k
    return None

