"""Vector fields, normal-ordered differential operators, and their extension
by gl_n-valued polynomial coefficients.

WittElement      sum_i f_i d_i with polynomial (or Laurent) coefficients f_i.
WeylElement      normal-ordered operator sum c * t^alpha d^beta, beta >= 0.
ToroidalElement  a WittElement plus a matrix part sum_{i,j} g_ij E(i,j).

shen_tau embeds vector fields into the extended algebra:
tau(f d_j) = f d_j + sum_i d_i(f) E(i,j); it is a Lie homomorphism.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Tuple

from wittmod.exactnum import ONE, Scalar, vec_axpy
from wittmod.polyalg import (
    PLUS, MultiIndex, PolyElement, join_terms, midx_add, midx_sub,
    render_monomial, signed_term, unit_index,
)


class WittElement:
    """A vector field sum_i f_i d_i; coeffs[i] multiplies d_{i+1}."""

    __slots__ = ("n", "mode", "coeffs")

    def __init__(self, n: int, mode: str, coeffs: List[PolyElement]):
        if len(coeffs) != n:
            raise ValueError("need %d coefficient polynomials" % n)
        for f in coeffs:
            if f.n != n or f.mode != mode:
                raise ValueError("coefficient arity/mode mismatch")
        self.n = n
        self.mode = mode
        self.coeffs = list(coeffs)

    @staticmethod
    def zero(n: int, mode: str = PLUS) -> "WittElement":
        return WittElement(n, mode, [PolyElement.zero(n, mode)] * n)

    @staticmethod
    def monomial(n: int, mode: str, alpha: MultiIndex, j: int,
                 coeff: Scalar = ONE) -> "WittElement":
        """t^alpha d_j (1-based j)."""
        coeffs = [PolyElement.zero(n, mode) for _ in range(n)]
        coeffs[j - 1] = PolyElement.monomial(n, mode, alpha, coeff)
        return WittElement(n, mode, coeffs)

    def __add__(self, other: "WittElement") -> "WittElement":
        self._check(other)
        return WittElement(self.n, self.mode,
                           [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "WittElement":
        return WittElement(self.n, self.mode, [-a for a in self.coeffs])

    def __sub__(self, other: "WittElement") -> "WittElement":
        return self + (-other)

    def scale(self, a: Scalar) -> "WittElement":
        return WittElement(self.n, self.mode, [f.scale(a) for f in self.coeffs])

    def apply_to(self, g: PolyElement) -> PolyElement:
        """Act as a derivation: (sum f_i d_i)(g)."""
        out = PolyElement.zero(self.n, self.mode)
        for i, f in enumerate(self.coeffs):
            if not f.is_zero():
                out = out + f * g.partial(i + 1)
        return out

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.coeffs)

    def monomials(self) -> List[Tuple[MultiIndex, int, Scalar]]:
        """Flatten to [(alpha, j, coeff)] in deterministic order."""
        out = []
        for j in range(1, self.n + 1):
            for e, c in self.coeffs[j - 1].sorted_terms():
                out.append((e, j, c))
        return out

    def _check(self, other: "WittElement") -> None:
        if self.n != other.n or self.mode != other.mode:
            raise ValueError("mixed arities or modes")

    def __eq__(self, other) -> bool:
        if not isinstance(other, WittElement):
            return NotImplemented
        return (self.n, self.mode) == (other.n, other.mode) and \
            self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.mode, tuple(self.coeffs)))

    def __str__(self) -> str:
        parts = []
        for j in range(1, self.n + 1):
            f = self.coeffs[j - 1]
            for e, c in f.sorted_terms():
                body = render_monomial(e)
                dpart = "d%d" % j
                term = "%s*%s" % (body, dpart) if body else dpart
                parts.append(signed_term(c, term))
        return join_terms(parts)

    def __repr__(self) -> str:
        return "WittElement(%s)" % self


def witt_bracket(x: WittElement, y: WittElement) -> WittElement:
    """[sum f_j d_j, sum g_i d_i] = sum_i sum_j (f_j d_j(g_i) - g_j d_j(f_i)) d_i."""
    x._check(y)
    coeffs = []
    for fi, gi in zip(x.coeffs, y.coeffs):
        # the d_i coefficient, accumulated term by term in one sparse dict
        acc: Dict[MultiIndex, Scalar] = {}
        for j, (fj, gj) in enumerate(zip(x.coeffs, y.coeffs), 1):
            for f, g, neg in ((fj, gi, False), (gj, fi, True)):
                if f.terms and g.terms:
                    dg = g.partial(j).terms.items()
                    for e1, c1 in f.terms.items():
                        vec_axpy(acc, [(midx_add(e1, e2), c2) for e2, c2 in dg],
                                 -c1 if neg else c1)
        coeffs.append(PolyElement._of(x.n, x.mode, acc))
    return WittElement(x.n, x.mode, coeffs)


def monomial_bracket(n: int, mode: str, x: Tuple[MultiIndex, int],
                     y: Tuple[MultiIndex, int]
                     ) -> List[Tuple[MultiIndex, int, Scalar]]:
    """W_n's structure constants: for x = (a, j) and y = (b, k),
    [t^a d_j, t^b d_k] = b_j t^(a+b-e_j) d_k - a_k t^(a+b-e_k) d_j, as the
    (alpha, i, coeff) terms of `witt_bracket(...).monomials()`, in its order
    (d_i, then alpha), with no WittElement built.  The two terms merge
    when j = k, and zero coefficients are dropped."""
    (a, j), (b, k) = x, y
    if len(a) != n or len(b) != n:
        raise ValueError("exponent arity mismatch")
    if mode == PLUS and min(a + b, default=0) < 0:
        raise ValueError("negative exponent in plus mode")
    ab = midx_add(a, b)
    # (d_i, t^(a+b-e_l)) -> integer coefficient
    terms: Dict[Tuple[int, MultiIndex], int] = {}
    for i, l, c in ((k, j, b[j - 1]), (j, k, -a[k - 1])):
        if c:
            key = (i, midx_sub(ab, unit_index(n, l)))
            terms[key] = terms.get(key, 0) + c
    return [(e, i, Scalar.integer(c))
            for (i, e), c in sorted(terms.items()) if c]


# ---------------------------------------------------------------------------
# Weyl algebra with normal ordering
# ---------------------------------------------------------------------------

def _falling(c: int, k: int) -> int:
    out = 1
    for j in range(k):
        out *= (c - j)
    return out


class WeylElement:
    """Normal-ordered differential operator: dict (alpha, beta) -> Scalar.

    beta is in Z_+^n always; alpha is in Z_+^n (plus mode) or Z^n (laurent).
    """

    __slots__ = ("n", "mode", "terms")

    def __init__(self, n: int, mode: str,
                 terms: Dict[Tuple[MultiIndex, MultiIndex], Scalar]):
        clean = {}
        for (a, b), c in terms.items():
            if len(a) != n or len(b) != n:
                raise ValueError("exponent arity mismatch")
            if any(x < 0 for x in b):
                raise ValueError("negative derivative exponent")
            if mode == PLUS and any(x < 0 for x in a):
                raise ValueError("negative exponent %r in plus mode" % (a,))
            if not c.is_zero():
                clean[(tuple(a), tuple(b))] = c
        self.n = n
        self.mode = mode
        self.terms = clean

    @staticmethod
    def zero(n: int, mode: str = PLUS) -> "WeylElement":
        return WeylElement(n, mode, {})

    @staticmethod
    def one(n: int, mode: str = PLUS) -> "WeylElement":
        z = (0,) * n
        return WeylElement(n, mode, {(z, z): ONE})

    @staticmethod
    def monomial(n: int, mode: str, alpha: MultiIndex, beta: MultiIndex,
                 coeff: Scalar = ONE) -> "WeylElement":
        return WeylElement(n, mode, {(tuple(alpha), tuple(beta)): coeff})

    @staticmethod
    def from_witt(x: WittElement) -> "WeylElement":
        terms = vec_axpy({}, [((alpha, unit_index(x.n, j)), c)
                              for alpha, j, c in x.monomials()])
        return WeylElement(x.n, x.mode, terms)

    def __add__(self, other: "WeylElement") -> "WeylElement":
        self._check(other)
        return WeylElement(self.n, self.mode,
                           vec_axpy(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "WeylElement":
        return WeylElement(self.n, self.mode,
                           {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + (-other)

    def scale(self, a: Scalar) -> "WeylElement":
        return WeylElement(self.n, self.mode,
                           {k: a * c for k, c in self.terms.items()})

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """Product, renormalized so every t sits left of every d.

        Uses d^b t^c = sum_k C(b,k) (c)_k t^{c-k} d^{b-k} componentwise,
        where (c)_k is the falling factorial (valid for negative c).
        """
        self._check(other)
        out: Dict[Tuple[MultiIndex, MultiIndex], Scalar] = {}
        for (a, b), c1 in self.terms.items():
            for (cc, d), c2 in other.terms.items():
                terms = []
                for k in itertools.product(*(range(bi + 1) for bi in b)):
                    coef = 1
                    for i in range(self.n):
                        coef *= math.comb(b[i], k[i]) * _falling(cc[i], k[i])
                    if coef:
                        terms.append(((midx_sub(midx_add(a, cc), k),
                                       midx_sub(midx_add(b, d), k)),
                                      Scalar.integer(coef)))
                vec_axpy(out, terms, c1 * c2)
        return WeylElement(self.n, self.mode, out)

    def commutator(self, other: "WeylElement") -> "WeylElement":
        return self * other - other * self

    def apply_to(self, g: PolyElement) -> PolyElement:
        out = PolyElement.zero(self.n, self.mode)
        for (a, b), c in self.terms.items():
            h = g
            for i in range(self.n):
                for _ in range(b[i]):
                    h = h.partial(i + 1)
            if h.is_zero():
                continue
            out = out + PolyElement.monomial(self.n, self.mode, a, c) * h
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "WeylElement") -> None:
        if self.n != other.n or self.mode != other.mode:
            raise ValueError("mixed arities or modes")

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return (self.n, self.mode) == (other.n, other.mode) and \
            self.terms == other.terms

    def __hash__(self):
        return hash((self.n, self.mode, frozenset(self.terms.items())))

    def __str__(self) -> str:
        parts = []
        for (a, b) in sorted(self.terms):
            c = self.terms[(a, b)]
            bits = []
            ta = render_monomial(a)
            if ta:
                bits.append(ta)
            db = render_monomial(b, var="d")
            if db:
                bits.append(db)
            body = "*".join(bits)
            parts.append(signed_term(c, body))
        return join_terms(parts)

    def __repr__(self) -> str:
        return "WeylElement(%s)" % self


# ---------------------------------------------------------------------------
# extension by gl_n-valued coefficients and the tau embedding
# ---------------------------------------------------------------------------

class ToroidalElement:
    """A vector field plus a matrix part sum_{i,j} g_ij E(i,j)."""

    __slots__ = ("n", "mode", "vector", "matrix")

    def __init__(self, vector: WittElement,
                 matrix: Optional[Dict[Tuple[int, int], PolyElement]] = None):
        self.n = vector.n
        self.mode = vector.mode
        self.vector = vector
        clean: Dict[Tuple[int, int], PolyElement] = {}
        for (i, j), g in (matrix or {}).items():
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError("matrix index out of range: %r" % ((i, j),))
            if g.n != self.n or g.mode != self.mode:
                raise ValueError("matrix coefficient arity/mode mismatch")
            if not g.is_zero():
                clean[(i, j)] = g
        self.matrix = clean

    def __add__(self, other: "ToroidalElement") -> "ToroidalElement":
        self._check(other)
        return ToroidalElement(self.vector + other.vector,
                               vec_axpy(dict(self.matrix), other.matrix.items()))

    def __neg__(self) -> "ToroidalElement":
        return ToroidalElement(-self.vector,
                               {k: -g for k, g in self.matrix.items()})

    def __sub__(self, other: "ToroidalElement") -> "ToroidalElement":
        return self + (-other)

    def is_zero(self) -> bool:
        return self.vector.is_zero() and not self.matrix

    def _check(self, other: "ToroidalElement") -> None:
        if self.n != other.n or self.mode != other.mode:
            raise ValueError("mixed arities or modes")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ToroidalElement):
            return NotImplemented
        return self.vector == other.vector and self.matrix == other.matrix

    def __hash__(self):
        return hash((self.vector, frozenset(
            (k, g) for k, g in self.matrix.items())))

    def __str__(self) -> str:
        parts = []
        s = str(self.vector)
        if s != "0":
            parts.append(("+", s))
        for (i, j) in sorted(self.matrix):
            g = self.matrix[(i, j)]
            for e, c in g.sorted_terms():
                body = render_monomial(e)
                epart = "E(%d,%d)" % (i, j)
                term = "%s*%s" % (body, epart) if body else epart
                parts.append(signed_term(c, term))
        return join_terms(parts)

    def __repr__(self) -> str:
        return "ToroidalElement(%s)" % self


def toroidal_bracket(x: ToroidalElement, y: ToroidalElement) -> ToroidalElement:
    """[d1 + sum f E, d2 + sum g E] with
    [d1, d2] + d1(g) E - d2(f) E + f g [E, E] expanded bilinearly."""
    x._check(y)
    vec = witt_bracket(x.vector, y.vector)
    terms = [((k, l), x.vector.apply_to(g)) for (k, l), g in y.matrix.items()]
    terms += [((i, j), -y.vector.apply_to(f)) for (i, j), f in x.matrix.items()]
    # [E(i,j), E(k,l)] = delta_jk E(i,l) - delta_li E(k,j)
    for (i, j), f in x.matrix.items():
        for (k, l), g in y.matrix.items():
            fg = f * g
            if j == k:
                terms.append(((i, l), fg))
            if l == i:
                terms.append(((k, j), -fg))
    return ToroidalElement(vec, vec_axpy({}, terms))


def shen_tau(x: WittElement) -> ToroidalElement:
    """tau(f d_j) = f d_j + sum_i d_i(f) E(i,j), extended linearly."""
    mat = vec_axpy({}, [((i, j), x.coeffs[j - 1].partial(i))
                        for j in range(1, x.n + 1)
                        for i in range(1, x.n + 1)])
    return ToroidalElement(x, mat)
