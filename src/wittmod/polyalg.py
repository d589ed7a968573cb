"""Sparse (Laurent) polynomial arithmetic in t_1..t_n over exact scalars.

Elements are dicts mapping an exponent tuple of length n to a nonzero
Scalar.  mode 'plus' restricts exponents to Z_+^n (the ring C[t_1..t_n]);
mode 'laurent' allows arbitrary integer exponents.  Term iteration is
always in sorted exponent order, so rendering and traversal are
deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from wittmod.exactnum import ONE, Scalar, vec_axpy

MultiIndex = Tuple[int, ...]

PLUS = "plus"
LAURENT = "laurent"


def midx_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


def midx_sub(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x - y for x, y in zip(a, b))


def midx_total(a: MultiIndex) -> int:
    return sum(a)


def unit_index(n: int, i: int) -> MultiIndex:
    """The i-th coordinate vector (1-based i)."""
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def exponents_within(n: int, bound: int, mode: str) -> List[MultiIndex]:
    """All exponent tuples with L1 level <= bound; plus mode restricts to Z_+^n.

    Sorted ascending by (level, tuple) for deterministic iteration.
    """
    out: List[MultiIndex] = []

    def rec(prefix: Tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 0:
            out.append(prefix)
            return
        lo = 0 if mode == PLUS else -remaining
        for e in range(lo, remaining + 1):
            rec(prefix + (e,), remaining - abs(e), slots - 1)

    rec((), bound, n)
    out.sort(key=lambda a: (sum(abs(x) for x in a), a))
    return out


class PolyElement:
    """A sparse element of C[t_1..t_n] or C[t_1^pm .. t_n^pm]."""

    __slots__ = ("n", "mode", "terms")

    def __init__(self, n: int, mode: str, terms: Dict[MultiIndex, Scalar]):
        if mode not in (PLUS, LAURENT):
            raise ValueError("mode must be 'plus' or 'laurent'")
        clean: Dict[MultiIndex, Scalar] = {}
        for e, c in terms.items():
            if len(e) != n:
                raise ValueError("exponent arity %d != n = %d" % (len(e), n))
            if mode == PLUS and any(x < 0 for x in e):
                raise ValueError("negative exponent %r in plus mode" % (e,))
            if not c.is_zero():
                clean[e] = c
        self.n = n
        self.mode = mode
        self.terms = clean

    @classmethod
    def _of(cls, n: int, mode: str,
            terms: Dict[MultiIndex, Scalar]) -> "PolyElement":
        """The element with `terms` taken as they are: for results built
        from valid operands, whose exponents have arity n (nonnegative in
        plus mode) and whose coefficients are nonzero."""
        p = object.__new__(cls)
        p.n, p.mode, p.terms = n, mode, terms
        return p

    # -- constructors

    @staticmethod
    def zero(n: int, mode: str = PLUS) -> "PolyElement":
        return PolyElement(n, mode, {})

    @staticmethod
    def monomial(n: int, mode: str, e: MultiIndex,
                 coeff: Scalar = ONE) -> "PolyElement":
        return PolyElement(n, mode, {tuple(e): coeff})

    # -- ring operations

    def __add__(self, other: "PolyElement") -> "PolyElement":
        self._check(other)
        return PolyElement._of(self.n, self.mode,
                               vec_axpy(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "PolyElement":
        return PolyElement._of(self.n, self.mode,
                               {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "PolyElement") -> "PolyElement":
        return self + (-other)

    def __mul__(self, other: "PolyElement") -> "PolyElement":
        self._check(other)
        out: Dict[MultiIndex, Scalar] = {}
        for e1, c1 in self.terms.items():
            vec_axpy(out, [(midx_add(e1, e2), c2)
                           for e2, c2 in other.terms.items()], c1)
        return PolyElement._of(self.n, self.mode, out)

    def scale(self, a: Scalar) -> "PolyElement":
        if a.is_zero():
            return PolyElement.zero(self.n, self.mode)
        return PolyElement(self.n, self.mode,
                           {e: a * c for e, c in self.terms.items()})

    def partial(self, i: int) -> "PolyElement":
        """d/dt_i (1-based i); kills exponent-zero terms in either mode."""
        out: Dict[MultiIndex, Scalar] = {}
        for e, c in self.terms.items():
            k = e[i - 1]
            if k == 0:
                continue
            ee = tuple(x - 1 if idx == i - 1 else x for idx, x in enumerate(e))
            out[ee] = c * Scalar.integer(k)
        return PolyElement._of(self.n, self.mode, out)

    # -- views

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return not self.is_zero()

    def sorted_terms(self) -> List[Tuple[MultiIndex, Scalar]]:
        return [(e, self.terms[e]) for e in sorted(self.terms)]

    def _check(self, other: "PolyElement") -> None:
        if self.n != other.n or self.mode != other.mode:
            raise ValueError("mixed arities or modes: (%d,%s) vs (%d,%s)"
                             % (self.n, self.mode, other.n, other.mode))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyElement):
            return NotImplemented
        return (self.n == other.n and self.mode == other.mode
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.mode, frozenset(self.terms.items())))

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return "PolyElement(%s)" % self


def render_monomial(e: MultiIndex, var: str = "t") -> str:
    parts = []
    for i, k in enumerate(e):
        if k == 0:
            continue
        parts.append("%s%d" % (var, i + 1) if k == 1 else
                      "%s%d^%d" % (var, i + 1, k))
    return "*".join(parts)


def signed_term(c: Scalar, body: str) -> Tuple[str, str]:
    """(sign, text) of the term c*body, or of the constant c when body is
    empty.  A coefficient that prints with several terms is wrapped whole,
    its sign inside: only a one-term coefficient gives its sign to the sum.
    """
    s = str(c)
    if body and (" + " in s or " - " in s):
        return "+", "(%s)*%s" % (s, body)
    sign = "-" if s.startswith("-") else "+"
    if sign == "-":
        s = s[1:]
    if not body:
        return sign, s
    return sign, body if s == "1" else "%s*%s" % (s, body)


def join_terms(parts: List[Tuple[str, str]]) -> str:
    """Join (sign, text) terms into one sum; no terms give "0"."""
    if not parts:
        return "0"
    out = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
    for sign, text in parts[1:]:
        out += (" + " if sign == "+" else " - ") + text
    return out


def render_poly(p: PolyElement, var: str = "t") -> str:
    keys = sorted(p.terms, key=lambda e: (midx_total(e), e), reverse=True)
    return join_terms([signed_term(p.terms[e], render_monomial(e, var))
                       for e in keys])
