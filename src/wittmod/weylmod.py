"""Weyl-algebra modules on explicit bases, with level filtrations.

Every provided module is a tensor product of rank-1 factors, one per
variable.  A factor's basis index k is an exponent offset: t^k, t^(lam+k)
or x^k.  So the level of a basis index of the tensor is its L1 norm, and the
window of level <= D is the lattice points of `exponents_within` that the
factors accept.  A factor exposes the action of its t and d generators on
basis indices and (when it is a weight module) the eigenvalue w of t d; on
a weight factor d reads off the weight, d t^(lam+k) = w t^(lam+k-1).  Module
vectors are sparse dicts {index tuple: Scalar}; all actions are exact,
windows only bound basis enumeration.

An operator t^a d_j on one basis index is a tensor product of one short
word per factor; `WeylModule.act_index` (and `wittrep._tensor`) reads those
words from a table memoized per instance, and `WeylModule.at_point` gives
the module whose words are evaluated at the point of `exactnum.at_point`.
The generator-by-generator methods (`act_generator`,
`act_t_monomial`, `act_witt_monomial`, ...) step through the factors
instead, an independent route the tests compare against.

Factor kinds:
  PolyFactor        C[t], basis t^k, k >= 0
  LaurentFactor     C[t, t^-1], basis t^k, k in Z
  TwistedFactor     t^lam C[t, t^-1], basis t^(lam+k); lam not an integer
  QuotFactor        C[t, t^-1] / C[t], basis t^k, k <= -1
  WhittakerFactor   C[x] with d f = lam^-1 (x+1) f(x+1), t f = lam f(x-1)
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from wittmod.exactnum import (
    ONE, Scalar, at_point, coordinate_block_intersection, vec_axpy,
)
from wittmod.liealg import WeylElement, WittElement
from wittmod.polyalg import LAURENT, PLUS, MultiIndex, exponents_within

PIndex = Tuple  # tuple of per-factor indices
PVector = Dict  # PIndex -> Scalar

Term = Tuple[Scalar, int]

# generator name -> the rank-1 factor method applying it to a basis index
_FACTOR_ACTIONS = {"t": "act_t", "d": "act_d", "tinv": "act_t_inv"}


class PolyFactor:
    """C[t]: indices k >= 0 for t^k."""

    kind = "Apoly"
    laurent_capable = False
    graded = True
    is_weight = True

    def valid_index(self, k: int) -> bool:
        return k >= 0

    def act_t(self, k: int) -> List[Term]:
        return [(ONE, k + 1)]

    def act_t_inv(self, k: int) -> List[Term]:
        raise ValueError("t^-1 does not act on C[t]")

    def act_d(self, k: int) -> List[Term]:
        # d t^(lam+k) = w t^(lam+k-1), w the t d eigenvalue of t^(lam+k)
        w = self.weight(k)
        return [(w, k - 1)] if w else []

    def weight(self, k: int) -> Scalar:
        return Scalar.integer(k)

    def t_raise_bound(self, a: int) -> int:
        return abs(a)

    def d_raise_bound(self) -> int:
        return -1

    def label(self, k: int) -> str:
        return "t^%d" % k

    def params(self) -> List[Scalar]:
        return []


class LaurentFactor(PolyFactor):
    """C[t, t^-1]: indices k in Z."""

    kind = "Alaurent"
    laurent_capable = True

    def valid_index(self, k: int) -> bool:
        return True

    def act_t_inv(self, k: int) -> List[Term]:
        return [(ONE, k - 1)]

    def d_raise_bound(self) -> int:
        return 1


class TwistedFactor(LaurentFactor):
    """t^lam C[t, t^-1]: index k stands for t^(lam+k); lam not an integer."""

    laurent_capable = True

    def __init__(self, lam: Scalar):
        if lam.is_rational() and lam.as_fraction().denominator == 1:
            raise ValueError("twist parameter must not be an integer")
        self.lam = lam
        self.kind = "TL(%s)" % lam

    def weight(self, k: int) -> Scalar:
        return self.lam + Scalar.integer(k)

    def params(self) -> List[Scalar]:
        return [] if self.lam.is_rational() else [self.lam]


class QuotFactor(PolyFactor):
    """C[t, t^-1]/C[t]: indices k <= -1; t kills t^-1."""

    kind = "Quot"
    laurent_capable = False

    def valid_index(self, k: int) -> bool:
        return k <= -1

    def act_t(self, k: int) -> List[Term]:
        return [(ONE, k + 1)] if k + 1 <= -1 else []

    def t_raise_bound(self, a: int) -> int:
        return -a if a < 0 else 0

    def d_raise_bound(self) -> int:
        return 1


class WhittakerFactor(PolyFactor):
    """C[x] with d f = lam^-1 (x+1) f(x+1) and t f = lam f(x-1).

    Not a weight module: t d is a free (injective, eigenvector-less) action.
    Index k stands for the monomial x^k.
    """

    laurent_capable = False
    graded = False
    is_weight = False

    def __init__(self, lam: Scalar):
        if lam.is_zero():
            raise ValueError("Whittaker parameter must be nonzero")
        self.lam = lam
        self.kind = "Whittaker(%s)" % lam

    def act_t(self, k: int) -> List[Term]:
        # lam (x-1)^k
        out = []
        for j in range(k + 1):
            c = math.comb(k, j) * (-1 if (k - j) % 2 else 1)
            out.append((self.lam * Scalar.integer(c), j))
        return out

    def act_d(self, k: int) -> List[Term]:
        # lam^-1 (x+1)^(k+1)
        inv = self.lam.inv()
        return [(inv * Scalar.integer(math.comb(k + 1, j)), j)
                for j in range(k + 2)]

    def weight(self, k: int):
        return None

    def t_raise_bound(self, a: int) -> int:
        return 0

    def d_raise_bound(self) -> int:
        return 1

    def label(self, k: int) -> str:
        return "x^%d" % k

    def params(self) -> List[Scalar]:
        return [] if self.lam.is_rational() else [self.lam]


# ---------------------------------------------------------------------------
# tensor modules
# ---------------------------------------------------------------------------

class WeylModule:
    """Tensor product of rank-1 factors, a module over the rank-n Weyl algebra.

    mode is 'laurent' when every factor admits t^-1 (so the full Laurent
    Weyl algebra acts), else 'plus'.  Setting mode to 'plus' on a two-sided
    module restricts the operators to nonnegative exponents (W_n^+).
    """

    def __init__(self, factors: Sequence, kind: Optional[str] = None):
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = list(factors)
        self.n = len(factors)
        self.mode = LAURENT if all(f.laurent_capable for f in factors) else PLUS
        self.graded = all(f.graded for f in factors)
        self.is_weight = all(f.is_weight for f in factors)
        self.kind = kind or "Tensor(%s)" % ",".join(f.kind for f in factors)
        # per-factor word table of act_index, filled on demand by _word
        self._words: Dict[Tuple[int, int, bool, int], List] = {}

    # -- basic structure

    def params(self) -> List[Scalar]:
        out = []
        for f in self.factors:
            out.extend(f.params())
        return out

    def is_natural(self) -> bool:
        """True when this is literally C[t_1..t_n] or its Laurent version."""
        return all(type(f) is PolyFactor for f in self.factors) or \
            all(type(f) is LaurentFactor for f in self.factors)

    def valid_index(self, idx: PIndex) -> bool:
        return all(f.valid_index(k) for f, k in zip(self.factors, idx))

    def level(self, idx: PIndex) -> int:
        """The L1 norm of idx: every factor index is an exponent offset."""
        return sum(abs(k) for k in idx)

    def weight(self, idx: PIndex) -> Optional[Tuple[Scalar, ...]]:
        if not self.is_weight:
            return None
        return tuple(f.weight(k) for f, k in zip(self.factors, idx))

    def label(self, idx: PIndex) -> str:
        return "*".join(f.label(k) for f, k in zip(self.factors, idx))

    def window_basis(self, D: int) -> List[PIndex]:
        """All basis indices with level <= D, sorted by (level, index): the
        lattice points of that L1 ball, already in that order, that every
        factor accepts."""
        return [idx for idx in exponents_within(self.n, D, LAURENT)
                if self.valid_index(idx)]

    # -- generator actions on sparse vectors

    def _act_factor(self, which: str, i: int, vec: PVector) -> PVector:
        fn = getattr(self.factors[i - 1], _FACTOR_ACTIONS[which])
        out: PVector = {}
        for idx, c in vec.items():
            head, tail = idx[:i - 1], idx[i:]
            vec_axpy(out, [(head + (k2,) + tail, coef)
                           for coef, k2 in fn(idx[i - 1])], c)
        return out

    def act_generator(self, gen: Tuple[str, int], vec: PVector) -> PVector:
        """gen is ('t', i), ('d', i) or ('tinv', i), i 1-based."""
        which, i = gen
        if which == "tinv" and self.mode != LAURENT:
            raise ValueError("t^-1 does not act in plus mode")
        return self._act_factor(which, i, vec)

    def act_t_monomial(self, beta: MultiIndex, vec: PVector) -> PVector:
        """Multiply by t^beta; negative entries need laurent mode."""
        if self.mode == PLUS and any(b < 0 for b in beta):
            raise ValueError("negative exponent %r in plus mode" % (beta,))
        out = vec
        for i, b in enumerate(beta, start=1):
            for _ in range(abs(b)):
                if not out:
                    return {}
                out = self._act_factor("t" if b > 0 else "tinv", i, out)
        return out

    def act_witt_monomial(self, alpha: MultiIndex, j: int,
                          vec: PVector) -> PVector:
        """Apply t^alpha d_j."""
        return self.act_t_monomial(alpha, self._act_factor("d", j, vec))

    def act_weyl(self, w: WeylElement, vec: PVector) -> PVector:
        if w.n != self.n:
            raise ValueError("operator arity mismatch")
        out: PVector = {}
        for (a, b), c in sorted(w.terms.items()):
            cur = vec
            for i, bi in enumerate(b, start=1):
                for _ in range(bi):
                    cur = self._act_factor("d", i, cur)
            vec_axpy(out, self.act_t_monomial(a, cur).items(), c)
        return out

    def act_witt(self, x: WittElement, vec: PVector) -> PVector:
        out: PVector = {}
        for alpha, j, c in x.monomials():
            vec_axpy(out, self.act_witt_monomial(alpha, j, vec).items(), c)
        return out

    # -- basis-index actions through per-factor word tables

    def _word(self, key: Tuple[int, int, bool, int]) -> List:
        """The table entry for key = (pos, a, with_d, k): t^a, after d when
        with_d, on t^k in factor `pos` (0-based), as [(k', coef)], built by
        stepping that factor's own actions."""
        pos, a, with_d, k = key
        f = self.factors[pos]
        cur: Dict[int, Scalar] = {k: ONE}
        steps = [f.act_d] if with_d else []
        steps += [f.act_t if a > 0 else f.act_t_inv] * abs(a)
        for fn in steps:
            nxt: Dict[int, Scalar] = {}
            for k1, c in cur.items():
                vec_axpy(nxt, [(k2, coef) for coef, k2 in fn(k1)], c)
            cur = nxt
        word = self._words[key] = list(cur.items())
        return word

    def act_index(self, idx: PIndex, alpha: MultiIndex,
                  j: Optional[int] = None) -> PVector:
        """t^alpha d_j on the basis vector idx (t^alpha alone when j is
        None): the tensor product of one memoized word per factor.  Same
        result as act_witt_monomial / act_t_monomial on {idx: 1}."""
        if self.mode == PLUS and min(alpha) < 0:
            raise ValueError("negative exponent %r in plus mode" % (alpha,))
        words = self._words
        terms = [((), ONE)]
        for pos, (a, k) in enumerate(zip(alpha, idx)):
            key = (pos, a, pos + 1 == j, k)
            word = words.get(key)
            if word is None:
                word = self._word(key)
            if not word:
                return {}
            # every coefficient 1 is the object ONE: skip those products
            terms = [(head + (k2,),
                      c2 if c is ONE else c if c2 is ONE else c * c2)
                     for head, c in terms for k2, c2 in word]
        return dict(terms)

    def at_point(self) -> "WeylModuleAtPoint":
        """This module at the fixed point of `exactnum.at_point`;
        ZeroDivisionError when a factor parameter lam (a TL twist or a
        Whittaker parameter, rational or not) vanishes there, or its
        denominator does: Whittaker's d divides by lam."""
        for f in self.factors:
            if isinstance(f, (TwistedFactor, WhittakerFactor)) \
                    and not at_point(f.lam):
                raise ZeroDivisionError("%s vanishes at the point" % f.lam)
        return WeylModuleAtPoint(self)

    # -- truncation bookkeeping

    def op_raise_bound(self, alpha: MultiIndex, j: int) -> int:
        """Max level increase of t^alpha d_j (and of the matrix-part terms
        t^(alpha - e_i) paired with it)."""
        t_part = sum(f.t_raise_bound(a) for f, a in zip(self.factors, alpha))
        return t_part + self.factors[j - 1].d_raise_bound()

    def sum_partial_image_codim(self, D: int) -> int:
        """Codimension, inside the level <= D-1 window, of
        span{d_k v : v in window <= D} intersected with that window."""
        if D < 1:
            raise ValueError("window must be at least 1")
        imgs = []
        zero = (0,) * self.n
        for idx in self.window_basis(D):
            for k in range(1, self.n + 1):
                w = self.act_index(idx, zero, k)
                if w:
                    imgs.append(w)
        inner = self.window_basis(D - 1)
        inner_set = set(inner)
        inter = coordinate_block_intersection(imgs, lambda c: c in inner_set)
        return len(inner) - inter.dim

    def __repr__(self) -> str:
        return "WeylModule(%s, n=%d, mode=%s)" % (self.kind, self.n, self.mode)


class WeylModuleAtPoint(WeylModule):
    """A WeylModule P at the fixed point of `exactnum.at_point`: P's factors
    and mode, with each per-factor word P's exact word, every coefficient
    evaluated at the point (an int in [0, p), zeros dropped), when first
    used.  So `act_index` returns int vectors, the reductions of P's; the
    generator-by-generator methods still step the factors exactly."""

    def __init__(self, P: WeylModule):
        super().__init__(P.factors, P.kind)
        self.mode = P.mode
        self.exact = P

    def _word(self, key: Tuple[int, int, bool, int]) -> List:
        word = self.exact._words.get(key)
        if word is None:
            word = self.exact._word(key)
        values = ((k, at_point(c)) for k, c in word)
        word = self._words[key] = [(k, v) for k, v in values if v]
        return word


# ---------------------------------------------------------------------------
# named instances
# ---------------------------------------------------------------------------

def apoly(n: int) -> WeylModule:
    return WeylModule([PolyFactor() for _ in range(n)], kind="Apoly")


def alaurent(n: int) -> WeylModule:
    return WeylModule([LaurentFactor() for _ in range(n)], kind="Alaurent")


def twisted_laurent(lams: Sequence[Scalar]) -> WeylModule:
    return WeylModule([TwistedFactor(l) for l in lams],
                      kind="TL(%s)" % ",".join(str(l) for l in lams))


def laurent_quot(n: int) -> WeylModule:
    return WeylModule([QuotFactor() for _ in range(n)], kind="Quot")


def whittaker(lams: Sequence[Scalar]) -> WeylModule:
    return WeylModule([WhittakerFactor(l) for l in lams],
                      kind="Whittaker(%s)" % ",".join(str(l) for l in lams))


def tensor_factors(factors: Sequence) -> WeylModule:
    return WeylModule(list(factors))
