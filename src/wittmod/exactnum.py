"""Exact scalars and exact linear algebra over the field Q(l1, ..., lm).

A scalar is a reduced fraction num/den with integer coefficients in named
parameters.  Polynomials are sparse dicts mapping a monomial to a nonzero
int coefficient; a monomial is a tuple of (name, exponent) pairs sorted by
name with every exponent a nonzero int, so the constant monomial is the
empty tuple and the zero polynomial is {}.  A negative exponent makes the
dict a Laurent polynomial, an element of Z[l1^{±1}, ..., lm^{±1}].

Canonical form, enforced on every Scalar: num is a Laurent polynomial and
den a true polynomial (every exponent > 0) that no parameter divides, with
positive leading coefficient under graded-lex order.  num times the
monomial that clears its negative exponents is coprime to den, integer
content included.  So a monomial denominator l^k is stored as the exponent
-k in num, and a Laurent polynomial such as (l1 + 1)/l1 = 1 + l1^-1 has
den == 1 and multiplies and adds without any gcd.  The polynomial gcd and
exact-division helpers only ever see true polynomials; `_reduce` shifts
Laurent input by monomials around them.  No dict of a Scalar is ever
mutated, so scalars share them: the den of every Laurent polynomial is the
one dict `_PONE`.

The form is unique, so Scalars are hash-consed: every construction returns
the one object of its value from a process-wide table (`_INTERN`), which
keeps each value for the life of the process.  Equality is therefore
identity and the hash is the object's own, so comparing dicts of scalars
never looks inside them.  The tables are module-level by design: one value
has one object only if every caller shares the same table.  Products and
sums are memoized on the operand pair, in `_MUL` and `_ADD`.  The two share
one cap, `_MUL_CAP`: each table is emptied when it reaches that many
entries, so together they hold at most twice the cap.  A product or sum
computed again is the same interned object.  The memo is read first; a
product or sum with ZERO or ONE is taken on a miss and never memoized.
Each value holds its negative and its inverse once they are built, linked
both ways since both maps are involutions, so a second `-x` or `x.inv()`
(which `y / x` takes) of a value, or either map of its image, reads an
attribute and builds nothing.

Beside the exact field sits one fixed point mod the prime p = 2^31 - 1:
`at_point` evaluates a Scalar there, and `EchelonModP` runs the one
elimination loop of `Echelon` on int vectors over Z/p, with its own
canonical entries and inverse.  They serve certificates whose conclusion
survives specialisation, such as a rank that is full at the point.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd as _igcd
from typing import Dict, Iterable, List, Optional, Tuple

Mono = Tuple[Tuple[str, int], ...]
Poly = Dict[Mono, int]

_PONE: Poly = {(): 1}

# canonical value -> its one Scalar: an int for an integer constant, the
# sorted num items for other Laurent polynomials, else (num items, den items)
_INTERN: Dict[object, "Scalar"] = {}
# (a, b) -> a * b and (a, b) -> a + b; each table is emptied when it holds
# the cap, which costs recomputation only
_MUL: Dict[Tuple["Scalar", "Scalar"], "Scalar"] = {}
_ADD: Dict[Tuple["Scalar", "Scalar"], "Scalar"] = {}
_MUL_CAP = 1 << 12


# ---------------------------------------------------------------------------
# raw polynomial helpers
# ---------------------------------------------------------------------------

def _pconst(c: int) -> Poly:
    return {(): c} if c else {}


def _pvar(name: str) -> Poly:
    return {((name, 1),): 1}


def _is_const(f: Poly) -> bool:
    return not f or (len(f) == 1 and () in f)


def _padd(f: Poly, g: Poly) -> Poly:
    out = dict(f)
    for m, c in g.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _pneg(f: Poly) -> Poly:
    return {m: -c for m, c in f.items()}


def _psub(f: Poly, g: Poly) -> Poly:
    out = dict(f)
    for m, c in g.items():
        s = out.get(m, 0) - c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _mono_mul(a: Mono, b: Mono) -> Mono:
    """a * b; exponents that cancel to 0 are dropped."""
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for n, e in b:
        s = d.get(n, 0) + e
        if s:
            d[n] = s
        else:
            del d[n]
    return tuple(sorted(d.items()))


def _mono_inv(m: Mono) -> Mono:
    return tuple((n, -e) for n, e in m)


def _mono_content(f: Poly) -> Mono:
    """The monomial gcd of the Laurent polynomial f's terms: each parameter
    to its least exponent over the terms, a term that lacks it counting as
    exponent 0 (() for f = 0)."""
    low: Dict[str, int] = {}
    seen: Dict[str, int] = {}
    for m in f:
        for n, e in m:
            if e < low.get(n, e + 1):
                low[n] = e
            seen[n] = seen.get(n, 0) + 1
    out = []
    for n in sorted(low):
        e = low[n] if seen[n] == len(f) else min(low[n], 0)
        if e:
            out.append((n, e))
    return tuple(out)


def _neg_part(f: Poly) -> Mono:
    """The least monomial whose product with f has no negative exponent."""
    low: Dict[str, int] = {}
    for m in f:
        for n, e in m:
            if e < low.get(n, 0):
                low[n] = e
    return tuple(sorted((n, -e) for n, e in low.items()))


def _pshift(f: Poly, m: Mono) -> Poly:
    """f * m for a monomial m (one term per term of f)."""
    return {_mono_mul(k, m): c for k, c in f.items()} if m else f


def _mono_div(a: Mono, b: Mono) -> Optional[Mono]:
    """a / b, or None when b does not divide a."""
    d = dict(a)
    for n, e in b:
        r = d.get(n, 0) - e
        if r < 0:
            return None
        if r:
            d[n] = r
        else:
            d.pop(n, None)
    return tuple(sorted(d.items()))


def _pmul(f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return {}
    if _is_const(f):
        c = f[()]
        return {m: c * cc for m, cc in g.items()}
    if _is_const(g):
        c = g[()]
        return {m: c * cc for m, cc in f.items()}
    out: Poly = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = _mono_mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _mono_deg(m: Mono) -> int:
    return sum(e for _, e in m)


def _mono_gt(a: Mono, b: Mono) -> bool:
    """Graded-lex order, alphabetically earlier names take priority."""
    da, db = _mono_deg(a), _mono_deg(b)
    if da != db:
        return da > db
    ia, ib = dict(a), dict(b)
    for n in sorted(set(ia) | set(ib)):
        ea, eb = ia.get(n, 0), ib.get(n, 0)
        if ea != eb:
            return ea > eb
    return False


def _plead(f: Poly) -> Mono:
    best = None
    for m in f:
        if best is None or _mono_gt(m, best):
            best = m
    assert best is not None
    return best


def _pdeg(f: Poly) -> int:
    return max((_mono_deg(m) for m in f), default=0)


def _icontent(f: Poly) -> int:
    c = 0
    for v in f.values():
        c = _igcd(c, abs(v))
        if c == 1:
            return 1
    return c


def _pdiv_exact(f: Poly, g: Poly) -> Poly:
    """Exact division f / g; raises ArithmeticError if g does not divide f."""
    if not f:
        return {}
    if not g:
        raise ArithmeticError("division by zero polynomial")
    if _is_const(g):
        c = g[()]
        if c == 1:
            return dict(f)
        out = {}
        for m, cc in f.items():
            q, r = divmod(cc, c)
            if r:
                raise ArithmeticError("inexact polynomial division")
            out[m] = q
        return out
    out: Poly = {}
    r = dict(f)
    lg = _plead(g)
    lcg = g[lg]
    while r:
        lr = _plead(r)
        qm = _mono_div(lr, lg)
        if qm is None:
            raise ArithmeticError("inexact polynomial division")
        qc, rem = divmod(r[lr], lcg)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        out[qm] = out.get(qm, 0) + qc
        for m, c in g.items():
            mm = _mono_mul(qm, m)
            s = r.get(mm, 0) - qc * c
            if s:
                r[mm] = s
            else:
                r.pop(mm, None)
    return {m: c for m, c in out.items() if c}


def _pvars(f: Poly) -> set:
    vs = set()
    for m in f:
        for n, _ in m:
            vs.add(n)
    return vs


def _ppos(f: Poly) -> Poly:
    """Normalize sign so the graded-lex leading coefficient is positive."""
    if not f:
        return f
    return _pneg(f) if f[_plead(f)] < 0 else f


def _as_univ(f: Poly, x: str) -> Dict[int, Poly]:
    out: Dict[int, Poly] = {}
    for m, c in f.items():
        e = 0
        rest = []
        for n, ee in m:
            if n == x:
                e = ee
            else:
                rest.append((n, ee))
        out.setdefault(e, {})[tuple(rest)] = c
    return out


def _from_univ(u: Dict[int, Poly], x: str) -> Poly:
    out: Poly = {}
    for e, p in u.items():
        for m, c in p.items():
            mm = _mono_mul(m, ((x, e),)) if e else m
            out[mm] = c
    return out


def _gcd_many(polys: Iterable[Poly]) -> Poly:
    g: Poly = {}
    for p in polys:
        g = _pgcd(g, p)
        if g == _PONE:
            return g
    return g


def _univ_prim(u: Dict[int, Poly]) -> Dict[int, Poly]:
    if not u:
        return u
    cont = _gcd_many(u.values())
    if cont == _PONE:
        return u
    return {e: _pdiv_exact(p, cont) for e, p in u.items()}


def _prem_univ(a: Dict[int, Poly], b: Dict[int, Poly]) -> Dict[int, Poly]:
    """Pseudo-remainder of a by b, both nonzero univariate views, deg a >= deg b."""
    db = max(b)
    lb = b[db]
    r = a
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        new: Dict[int, Poly] = {e: _pmul(lb, p) for e, p in r.items()}
        shift = dr - db
        for e, p in b.items():
            ee = e + shift
            new[ee] = _psub(new.get(ee, {}), _pmul(lr, p))
        new.pop(dr, None)
        r = {e: p for e, p in new.items() if p}
    return r


def _pgcd_monomial(f: Poly, g: Poly) -> Poly:
    """GCD of a one-term f = c*m with a nonzero g: the integer gcd of c and
    the content of g, times each variable of m to its least exponent over
    m and every term of g.  No Euclid loop."""
    (m, c), = f.items()
    exps = dict(m)
    for mono in g:
        if not exps:
            break
        d = dict(mono)
        exps = {x: min(e, d[x]) for x, e in exps.items() if x in d}
    return {tuple(exps.items()): _igcd(c, _icontent(g))}


def _pgcd(f: Poly, g: Poly) -> Poly:
    """GCD in Z[params] including integer content, positive leading coeff."""
    if not f:
        return _ppos(g)
    if not g:
        return _ppos(f)
    if _is_const(f) or _is_const(g):
        return _pconst(_igcd(_icontent(f), _icontent(g)))
    if len(f) == 1 or len(g) == 1:
        return _pgcd_monomial(f, g) if len(f) == 1 else _pgcd_monomial(g, f)
    common = sorted(_pvars(f) & _pvars(g))
    if not common:
        return _pconst(_igcd(_icontent(f), _icontent(g)))
    x = common[0]
    uf, ug = _as_univ(f, x), _as_univ(g, x)
    cf, cg = _gcd_many(uf.values()), _gcd_many(ug.values())
    c = _pgcd(cf, cg)
    a = {e: _pdiv_exact(p, cf) for e, p in uf.items()} if cf != _PONE else uf
    b = {e: _pdiv_exact(p, cg) for e, p in ug.items()} if cg != _PONE else ug
    if max(a) < max(b):
        a, b = b, a
    while b:
        r = _prem_univ(a, b)
        a, b = b, _univ_prim(r)
    return _ppos(_pmul(c, _from_univ(a, x)))


def _poly_str(f: Poly) -> str:
    if not f:
        return "0"
    monos = sorted(f, key=lambda m: (_mono_deg(m), m))
    monos.reverse()
    # graded order with deterministic tie-break; fine for display
    parts = []
    for m in monos:
        c = f[m]
        body = "*".join(n if e == 1 else "%s^%d" % (n, e) for n, e in m)
        if not body:
            term = str(abs(c))
        elif abs(c) == 1:
            term = body
        else:
            term = "%d*%s" % (abs(c), body)
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------

class Scalar:
    """An element of Q(l1, ..., lm) in the canonical form of the module
    docstring: num a Laurent polynomial, den a true polynomial without
    monomial factors, positive-led and coprime to num.  Rational constants
    have num and den in {(): c}; Laurent polynomials, such as every
    coefficient of a Whittaker module, have den == 1.  There is one object
    per value, so `==` is `is`, and it holds its negative `_neg` and
    inverse `_inv` (None until built; ZERO never gets an inverse)."""

    __slots__ = ("num", "den", "_neg", "_inv")

    def __new__(cls, num: Poly, den: Poly, _reduced: bool = False):
        if not _reduced:
            num, den = _reduce(num, den)
        if den == _PONE:
            den = _PONE
            key = (num.get((), 0) if _is_const(num)
                   else tuple(sorted(num.items())))
        else:
            key = (tuple(sorted(num.items())), tuple(sorted(den.items())))
        s = _INTERN.get(key)
        if s is None:
            s = _INTERN[key] = object.__new__(cls)
            s.num = num
            s.den = den
            s._neg = s._inv = None
        return s

    def __reduce__(self):
        # copies and unpickled scalars come back through __new__
        return Scalar, (self.num, self.den, True)

    # -- constructors

    @staticmethod
    def integer(k: int) -> "Scalar":
        s = _INTERN.get(k)
        return Scalar(_pconst(k), _PONE, _reduced=True) if s is None else s

    @staticmethod
    def rational(p: int, q: int = 1) -> "Scalar":
        return Scalar(_pconst(p), _pconst(q))

    @staticmethod
    def param(name: str) -> "Scalar":
        if not name or not name[0].isalpha():
            raise ValueError("parameter name must start with a letter: %r" % name)
        return Scalar(_pvar(name), _PONE, _reduced=True)

    # -- predicates and views

    def is_zero(self) -> bool:
        return self is _S_ZERO

    def is_rational(self) -> bool:
        return _is_const(self.num) and _is_const(self.den)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar is not rational: %s" % self)
        return Fraction(self.num.get((), 0), self.den[()])

    def constant_part(self) -> Optional[Fraction]:
        """Value at all parameters = 0, or None when the denominator of the
        reduced fraction vanishes there: den(0) = 0, or num has a negative
        exponent (a monomial denominator)."""
        d = self.den.get((), 0)
        if d == 0 or _neg_part(self.num):
            return None
        return Fraction(self.num.get((), 0), d)

    # -- arithmetic

    def __add__(self, other: "Scalar") -> "Scalar":
        key = (self, other)
        out = _ADD.get(key)
        if out is None:
            if self is _S_ZERO:
                return other
            if other is _S_ZERO:
                return self
            if len(_ADD) >= _MUL_CAP:
                _ADD.clear()
            out = _ADD[key] = self._sum(other)
        return out

    def _sum(self, other: "Scalar") -> "Scalar":
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 is _PONE and d2 is _PONE:
            return Scalar(_padd(n1, n2), _PONE, _reduced=True)
        if _is_const(n1) and _is_const(n2) and _is_const(d1) and _is_const(d2):
            p1, q1, p2, q2 = n1[()], d1[()], n2[()], d2[()]
            p, q = p1 * q2 + p2 * q1, q1 * q2
            g = _igcd(p, q)
            return Scalar(_pconst(p // g), {(): q // g}, _reduced=True)
        if d1 == d2:
            return Scalar(_padd(n1, n2), d1)
        return Scalar(_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        out = self._neg
        if out is None:
            out = self._neg = Scalar(_pneg(self.num), self.den, _reduced=True)
            out._neg = self
        return out

    def __mul__(self, other: "Scalar") -> "Scalar":
        key = (self, other)
        out = _MUL.get(key)
        if out is None:
            if self is _S_ZERO or other is _S_ZERO:
                return _S_ZERO
            if other is _S_ONE:
                return self
            if self is _S_ONE:
                return other
            if len(_MUL) >= _MUL_CAP:
                _MUL.clear()
            out = _MUL[key] = self._product(other)
        return out

    def _product(self, other: "Scalar") -> "Scalar":
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 is _PONE and d2 is _PONE:
            return Scalar(_pmul(n1, n2), _PONE, _reduced=True)
        if _is_const(n1) and _is_const(n2) and _is_const(d1) and _is_const(d2):
            p1, q1, p2, q2 = n1[()], d1[()], n2[()], d2[()]
            g1, g2 = _igcd(p1, q2), _igcd(p2, q1)
            return Scalar({(): (p1 // g1) * (p2 // g2)},
                          {(): (q1 // g2) * (q2 // g1)}, _reduced=True)
        # cross-cancel before multiplying to limit growth
        n1, d2 = _cancel(n1, d2)
        n2, d1 = _cancel(n2, d1)
        num, den = _pmul(n1, n2), _pmul(d1, d2)
        if den[_plead(den)] < 0:
            num, den = _pneg(num), _pneg(den)
        return Scalar(num, den, _reduced=True)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inv()

    def inv(self) -> "Scalar":
        out = self._inv
        if out is None:
            if self is _S_ZERO:
                raise ZeroDivisionError("zero divisor")
            out = self._inv = Scalar(self.den, self.num)
            out._inv = self
        return out

    # -- comparison / hashing / display

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self is other
        if isinstance(other, int):
            # an integer no Scalar has been built for equals no Scalar
            return self is _INTERN.get(other)
        return NotImplemented

    __hash__ = object.__hash__

    def __str__(self) -> str:
        # rendered as a fraction of true polynomials: the monomial that
        # clears num's negative exponents moves back into den
        m = _neg_part(self.num)
        num, den = _pshift(self.num, m), _pshift(self.den, m)
        if den == _PONE:
            return _poly_str(num)
        ns = _poly_str(num)
        if len(num) > 1:
            ns = "(%s)" % ns
        ds = _poly_str(den)
        if len(den) > 1 or _pdeg(den) > 0:
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)

    def __repr__(self) -> str:
        return "Scalar(%s)" % self

    def __bool__(self) -> bool:
        return self is not _S_ZERO


def _cancel(n: Poly, d: Poly) -> Tuple[Poly, Poly]:
    """(n/g, d/g) for g the gcd of the Laurent polynomial n and a canonical
    den d.  d has no monomial factor, so neither has g, and g is the gcd of
    d with the true polynomial n * (the monomial clearing n's negative
    exponents)."""
    if d == _PONE:
        return n, d
    m = _neg_part(n)
    p = _pshift(n, m)
    g = _pgcd(p, d)
    if g == _PONE:
        return n, d
    return _pshift(_pdiv_exact(p, g), _mono_inv(m)), _pdiv_exact(d, g)


def _reduce(num: Poly, den: Poly) -> Tuple[Poly, Poly]:
    """The canonical form of num/den for Laurent polynomials num and den.

    Each is divided by its monomial content, which leaves two true
    polynomials without monomial factors; those are reduced by their gcd
    (an integer gcd when both are constants) and signed so den is
    positive-led, and the quotient of the two contents goes back into num.
    """
    if not den:
        raise ZeroDivisionError("zero divisor")
    if not num:
        return {}, _PONE
    if _is_const(num) and _is_const(den):
        p, q = num[()], den[()]
        g = _igcd(p, q)
        if q < 0:
            g = -g
        p //= g
        q //= g
        return _pconst(p), _pconst(q)
    a, b = _mono_content(num), _mono_content(den)
    if a or b:
        num, den = _reduce(_pshift(num, _mono_inv(a)),
                           _pshift(den, _mono_inv(b)))
        return _pshift(num, _mono_mul(a, _mono_inv(b))), den
    g = _pgcd(num, den)
    if g != _PONE:
        num, den = _pdiv_exact(num, g), _pdiv_exact(den, g)
    if den[_plead(den)] < 0:
        num, den = _pneg(num), _pneg(den)
    return num, den


_S_ZERO = Scalar.integer(0)
_S_ONE = Scalar.integer(1)

ZERO = _S_ZERO
ONE = _S_ONE


# ---------------------------------------------------------------------------
# sparse vectors and incremental echelon accumulation
# ---------------------------------------------------------------------------

Vec = Dict  # coordinate (any sortable hashable) -> Scalar


def vec_axpy(out: Vec, terms: Iterable[Tuple[object, Scalar]],
             a: Optional[Scalar] = None) -> Vec:
    """out += a * terms in place; returns out.

    `terms` is any iterable of (coordinate, value) pairs, so a caller that
    remaps coordinates passes the pairs without building a dict.  a=None
    means 1, and a = 1 costs no products.  Entries that cancel are dropped
    and zero terms are never inserted.  Values need +, * and a truth value
    that is False exactly on zero: Scalars or ints, with `a` of the same
    type, or PolyElements with a=None.  This is the one sparse
    accumulation loop of the package.
    """
    if a is _S_ONE:
        a = None
    for c, x in terms:
        if a is not None:
            x = a * x
        s = out.get(c)
        if s is not None:
            x = s + x
        if x:
            out[c] = x
        elif s is not None:
            del out[c]
    return out


def vec_scale(u: Vec, a: Scalar) -> Vec:
    """a * u as a new vector; a is a Scalar, or an int for int vectors."""
    return vec_axpy({}, u.items(), a) if a else {}


def vec_sub(u: Vec, v: Vec) -> Vec:
    return vec_axpy(dict(u), [(c, -x) for c, x in v.items()])


def vec_clean(u: Vec) -> Vec:
    return {c: x for c, x in u.items() if not x.is_zero()}


class Echelon:
    """Incremental reduced row-echelon accumulator over sparse vectors, of
    Scalars here and of ints mod p in `EchelonModP`.

    Coordinates may be any mutually sortable hashable values.  Rows are kept
    monic, keyed by their leading (smallest) coordinate, and mutually
    reduced: no row has an entry at another row's lead.  So two accumulators
    span the same subspace iff their row dicts are equal, and clearing a
    vector's lead entries in one pass, each with the coefficient the vector
    had there, leaves its unique residual (no row puts an entry back at a
    lead).  The field enters only through `_entries` and `_inverse`.
    """

    def __init__(self, vecs: Iterable[Vec] = ()):
        self.rows: Dict[object, Vec] = {}
        for v in vecs:
            self.add(v)

    @staticmethod
    def _entries(v: Vec) -> Vec:
        """v's canonical entries, zeros dropped; zero is one interned
        object, so the test costs no call."""
        return {c: x for c, x in v.items() if x is not _S_ZERO}

    @staticmethod
    def _inverse(x: Scalar) -> Scalar:
        return x.inv()

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vec) -> Vec:
        """Fully reduce vec against the accumulated rows; returns the residual.
        vec need not be canonical: a zero at a lead subtracts only zeros."""
        rows = self.rows
        leads = [c for c in vec if c in rows]
        if not leads:
            return self._entries(vec)
        return self._clear(dict(vec), leads, rows)

    def _clear(self, v: Vec, leads: Iterable, rows: Dict[object, Vec]) -> Vec:
        """The one elimination loop: v (the caller's copy) minus its entry
        at each lead times that lead's row, as canonical entries."""
        for lead in leads:
            x = -v.pop(lead)
            for c, y in rows[lead].items():
                s = v.get(c)
                v[c] = x * y if s is None else s + x * y
            # the row's own lead entry, 1, came back as x: drop it
            del v[lead]
        return self._entries(v)

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)

    def add(self, vec: Vec) -> bool:
        """Insert vec's residual; True if the span grew."""
        r = self.reduce(vec)
        if not r:
            return False
        self._insert(r)
        return True

    def _insert(self, r: Vec) -> None:
        """Make the nonzero residual r a monic row, the last key of `rows`;
        older rows are replaced, never changed in place."""
        lead = min(r)
        inv = self._inverse(r[lead])
        row = self._entries({c: inv * x for c, x in r.items()})
        # keep earlier rows reduced against the new one: clear its lead
        rows = self.rows
        new = {lead: row}
        for lc, old in list(rows.items()):
            if lead in old:
                rows[lc] = self._clear(dict(old), (lead,), new)
        rows[lead] = row

    def basis(self) -> List[Vec]:
        return [self.rows[c] for c in sorted(self.rows)]

    def same_span(self, other: "Echelon") -> bool:
        return self.rows == other.rows


# ---------------------------------------------------------------------------
# the fixed point mod p
# ---------------------------------------------------------------------------

MOD_P = (1 << 31) - 1

# parameter name -> its value at the point
_POINT: Dict[str, int] = {}


def point_value(name: str) -> int:
    """The value of the parameter `name` at the fixed point, drawn from
    random.Random("wittmod:" + name) in [2, p - 2].  A str seed goes through
    SHA-512, not hash(), so the point does not depend on PYTHONHASHSEED."""
    v = _POINT.get(name)
    if v is None:
        v = _POINT[name] = random.Random("wittmod:" + name).randint(
            2, MOD_P - 2)
    return v


def _peval(f: Poly) -> int:
    s = 0
    for m, c in f.items():
        for name, e in m:
            # e < 0 inverts: every parameter value is a unit mod p
            c *= pow(point_value(name), e, MOD_P)
        s += c
    return s % MOD_P


def at_point(x: Scalar) -> int:
    """x at the fixed point, in [0, p); ZeroDivisionError when the
    denominator of x vanishes there."""
    den = _peval(x.den)
    if not den:
        raise ZeroDivisionError("denominator of %s vanishes at the point" % x)
    return _peval(x.num) * pow(den, -1, MOD_P) % MOD_P


class EchelonModP(Echelon):
    """`Echelon` over Z/p, p = MOD_P, on vectors of ints: entries are taken
    mod p, and rows hold entries in [1, p).  The elimination is Echelon's;
    only the canonical entries and the inverse are the field's."""

    @staticmethod
    def _entries(v: Vec) -> Vec:
        return {c: r for c, x in v.items() if (r := x % MOD_P)}

    @staticmethod
    def _inverse(x: int) -> int:
        return pow(x, -1, MOD_P)


def coordinate_block_intersection(vectors: Iterable[Vec],
                                  in_block) -> Echelon:
    """The reduced echelon form of span(vectors) ∩ span{coordinates c with
    in_block(c)}.

    Coordinates outside the block are ordered first, so echelon rows led by
    a block coordinate are supported entirely inside the block; those rows
    are exactly a basis of the intersection, and stay monic and mutually
    reduced once the block tag is dropped.
    """
    ech = Echelon()
    for v in vectors:
        ech.add({(1 if in_block(c) else 0, c): x for c, x in v.items()})
    out = Echelon()
    for lead in sorted(ech.rows):
        if lead[0] == 1:
            out.rows[lead[1]] = {c: x for (_, c), x in ech.rows[lead].items()}
    return out


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class ExactMatrix:
    """Sparse matrix over Scalar, the input of `rank` and `kernel_basis`;
    rows are dicts col -> nonzero Scalar."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: List[Vec]):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows


def rank(mat: ExactMatrix) -> int:
    return Echelon(mat.rows).dim


def kernel_basis(mat: ExactMatrix) -> List[List[Scalar]]:
    """Basis of the right null space, one vector per free column.

    The kernel is read off the reduced row-echelon form, an `Echelon` of the
    matrix rows: the vector for a free column f has 1 at f, minus the f-entry
    of each row at that row's pivot column, and 0 elsewhere.  The reduced
    form is unique, so so is this basis.
    """
    rows = Echelon(mat.rows).rows
    basis = []
    for free in range(mat.ncols):
        if free in rows:
            continue
        v = [_S_ZERO] * mat.ncols
        v[free] = _S_ONE
        for col, row in rows.items():
            x = row.get(free)
            if x is not None:
                v[col] = -x
        basis.append(v)
    return basis
