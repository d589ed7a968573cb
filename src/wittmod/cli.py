"""Command-line front end: parse module expressions, run checks, report.

Usage: `wittmod COMMAND [flags]`; the flags may come before or after the
command, and `wittmod --help` lists them.  The checks live in `wittrep`;
each command body here only formats what they return.

Commands
--------
verify-shen    bracket-compatibility of the embedding into the toroidal algebra
               (reads neither P nor M)
verify-axioms  Lie-action axiom on F(P, M), plus chain-map intertwining
complex        homology table of the de Rham-style complex over P
irreducible    windowed irreducibility/reducibility report for F(P, M)
support        weight support of F(P, M) over the window
fingerprint    canonical window invariant of F(P, M)
torsion        randomized check of the interpolated torsion operator

Module expressions: --P takes `Apoly`, `Alaurent`, `TL(l1,...,ln)`, `Quot`,
`Whittaker(l1,...,ln)`, or `Tensor(f1,...,fn)` with rank-1 factors; --M takes
`Nat`, `Ext(k)`, `Sym(k)`, `Triv(b)`, and tensors `M1*M2`.  Arguments with a
leading letter become field parameters; anything else must be an integer (or
`p/q` rational) literal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .exactnum import Scalar
from .glmod import (
    GlModule, exterior_power, natural_module, scalar_module, sym_power,
    tensor_module,
)
from .polyalg import LAURENT, PLUS
from .weylmod import (
    LaurentFactor, PolyFactor, QuotFactor, TwistedFactor, WeylModule,
    WhittakerFactor, alaurent, apoly, laurent_quot, tensor_factors,
    twisted_laurent, whittaker,
)
from .wittrep import (
    FPModule, Verdict, check_action_axiom, check_chain_map, check_shen_tau,
    check_torsion, complex_homology, fingerprint, irreducibility_report,
    weight_support,
)

DEFAULT_WINDOW = 4
WINDOW_ENV = "WITTMOD_WINDOW"


class UsageError(ValueError):
    """Bad flags or module expressions; maps to exit code 2."""


# ---------------------------------------------------------------------------
# job specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JobSpec:
    command: str
    n: int
    mode: str
    p_expr: str
    m_expr: str
    window: int
    gen_bound: int
    as_json: bool = False

    def render(self) -> List[str]:
        """Argv that parses back to an identical JobSpec."""
        argv = [self.command, "--n", str(self.n), "--mode", self.mode,
                "--P", self.p_expr, "--M", self.m_expr,
                "--window", str(self.window),
                "--gen-bound", str(self.gen_bound)]
        if self.as_json:
            argv.append("--json")
        return argv


@dataclass
class Report:
    spec: JobSpec
    verdict: str
    certified: bool
    details: List[str] = field(default_factory=list)
    elapsed_ms: int = 0

    def as_dict(self) -> dict:
        s = self.spec
        return {
            "command": s.command, "n": s.n, "mode": s.mode,
            "P": s.p_expr, "M": s.m_expr,
            "window": s.window, "genBound": s.gen_bound,
            "verdict": self.verdict, "certified": self.certified,
            "details": list(self.details), "elapsedMs": self.elapsed_ms,
        }

    def render_text(self) -> str:
        s = self.spec
        lines = [
            "command:   %s" % s.command,
            "instance:  n=%d, mode=%s, P=%s, M=%s" % (s.n, s.mode,
                                                      s.p_expr, s.m_expr),
            "window:    D=%d, A=%d" % (s.window, s.gen_bound),
            "verdict:   %s%s" % (self.verdict,
                                 " [certified]" if self.certified else ""),
        ]
        lines.extend("  - %s" % d for d in self.details)
        lines.append("elapsed:   %d ms" % self.elapsed_ms)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

def _split_top(text: str, sep: str, expr: str) -> List[str]:
    """Split `text` at each `sep` outside parentheses; parts are stripped."""
    parts, start, depth = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                break
        elif ch == sep and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    if depth != 0:
        raise UsageError("unbalanced parentheses in %r" % expr)
    parts.append(text[start:].strip())
    return parts


def _split_call(expr: str) -> Tuple[str, Optional[List[str]]]:
    """`Head` or `Head(a,b,...)` with top-level comma splitting."""
    expr = expr.strip()
    if "(" not in expr:
        if ")" in expr or "," in expr:
            raise UsageError("malformed expression %r" % expr)
        return expr, None
    head, rest = expr.split("(", 1)
    if not rest.endswith(")"):
        raise UsageError("unbalanced parentheses in %r" % expr)
    args = _split_top(rest[:-1], ",", expr)
    if not all(args):
        raise UsageError("empty argument in %r" % expr)
    return head.strip(), args


def _scalar_literal(tok: str, expr: str) -> Scalar:
    """Leading letter -> field parameter; otherwise integer or p/q."""
    if tok[0].isalpha():
        if not tok.isalnum():
            raise UsageError("bad parameter name %r in %r" % (tok, expr))
        return Scalar.param(tok)
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return Scalar.rational(int(num), int(den))
        return Scalar.integer(int(tok))
    except (ValueError, ZeroDivisionError):
        raise UsageError("bad numeric literal %r in %r" % (tok, expr))


def _int_literal(tok: str, expr: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise UsageError("expected an integer, got %r in %r" % (tok, expr))


def _rank_one_factor(tok: str):
    head, args = _split_call(tok)
    if head == "Apoly" and args is None:
        return PolyFactor()
    if head == "Alaurent" and args is None:
        return LaurentFactor()
    if head == "Quot" and args is None:
        return QuotFactor()
    if head == "TL" and args is not None and len(args) == 1:
        return TwistedFactor(_scalar_literal(args[0], tok))
    if head == "Whittaker" and args is not None and len(args) == 1:
        return WhittakerFactor(_scalar_literal(args[0], tok))
    raise UsageError("unknown rank-1 factor %r" % tok)


def parse_p(expr: str, n: int) -> WeylModule:
    head, args = _split_call(expr)
    try:
        if head == "Apoly" and args is None:
            return apoly(n)
        if head == "Alaurent" and args is None:
            return alaurent(n)
        if head == "Quot" and args is None:
            return laurent_quot(n)
        if head in ("TL", "Whittaker"):
            if args is None or len(args) != n:
                raise UsageError("%s needs exactly %d parameters for n=%d"
                                 % (expr, n, n))
            params = [_scalar_literal(a, expr) for a in args]
            return (twisted_laurent if head == "TL" else whittaker)(params)
        if head == "Tensor":
            if args is None or len(args) != n:
                raise UsageError("Tensor needs exactly %d rank-1 factors "
                                 "for n=%d, got %r" % (n, n, expr))
            return tensor_factors([_rank_one_factor(a) for a in args])
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError("%s in %r" % (exc, expr))
    raise UsageError("unknown P kind %r" % expr)


def parse_m(expr: str, n: int) -> GlModule:
    factors = _split_top(expr, "*", expr)
    if not all(factors):
        raise UsageError("malformed tensor expression %r" % expr)
    out = None
    for tok in factors:
        head, args = _split_call(tok)
        if head == "Nat" and args is None:
            mod = natural_module(n)
        elif head == "Ext" and args is not None and len(args) == 1:
            k = _int_literal(args[0], tok)
            if not 0 <= k <= n:
                raise UsageError("Ext(%d) invalid for n=%d" % (k, n))
            mod = exterior_power(n, k)
        elif head == "Sym" and args is not None and len(args) == 1:
            k = _int_literal(args[0], tok)
            if k < 0:
                raise UsageError("Sym(%d) invalid" % k)
            mod = sym_power(n, k)
        elif head == "Triv" and args is not None and len(args) == 1:
            mod = scalar_module(n, _scalar_literal(args[0], tok))
        else:
            raise UsageError("unknown M kind %r" % tok)
        out = mod if out is None else tensor_module(out, mod)
    return out


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="wittmod", description=__doc__.splitlines()[0])
    p.add_argument("command", choices=COMMANDS, metavar="COMMAND",
                   help="one of: %s" % ", ".join(COMMANDS))
    p.add_argument("--n", type=int, default=2,
                   help="number of variables (default 2)")
    p.add_argument("--mode", choices=(PLUS, LAURENT), default=None,
                   help="operator algebra: one- or two-sided exponents"
                        " (default: laurent when P is two-sided; plus for"
                        " verify-shen, which reads no P)")
    p.add_argument("--P", default="Apoly",
                   help="module expression over the operator variables"
                        " (not read by verify-shen)")
    p.add_argument("--M", default="Triv(0)",
                   help="matrix-part module expression (not read by"
                        " verify-shen or complex)")
    p.add_argument("--window", type=int, default=None,
                   help="window depth D (default %d, or $%s)"
                        % (DEFAULT_WINDOW, WINDOW_ENV))
    p.add_argument("--gen-bound", type=int, default=None,
                   help="operator degree bound A (default D+1)")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable report")
    return p


def parse_spec(argv: Sequence[str]) -> JobSpec:
    """Flags to a JobSpec; checks P and the mode for the commands that read
    P, while M is built by run for the commands that read it."""
    ns = _PARSER.parse_args(list(argv))
    if ns.n < 2:
        raise UsageError("--n must be at least 2, got %d" % ns.n)
    window = ns.window
    if window is None:  # the environment is read on every call
        env = os.environ.get(WINDOW_ENV, str(DEFAULT_WINDOW))
        try:
            window = int(env)
        except ValueError:
            raise UsageError("bad %s value %r" % (WINDOW_ENV, env))
    if window < 1:
        raise UsageError("--window must be at least 1, got %d" % window)
    gen_bound = ns.gen_bound if ns.gen_bound is not None else window + 1
    if gen_bound < 1:
        raise UsageError("--gen-bound must be at least 1, got %d" % gen_bound)
    p_expr = ns.P.strip()
    if ns.command in _IGNORES_P:
        # the operator algebra alone, so any mode stands; the default is
        # the one-sided algebra
        mode = ns.mode if ns.mode is not None else PLUS
    else:
        P = parse_p(p_expr, ns.n)
        # the default operator algebra is the one P admits
        mode = ns.mode if ns.mode is not None else P.mode
        if mode == LAURENT and P.mode != LAURENT:
            raise UsageError("mode laurent invalid for P=%s (one-sided basis)"
                             % p_expr)
    return JobSpec(command=ns.command, n=ns.n, mode=mode,
                   p_expr=p_expr, m_expr=ns.M.strip(),
                   window=window, gen_bound=gen_bound, as_json=ns.json)


# ---------------------------------------------------------------------------
# command bodies: each returns a wittrep.Verdict
# ---------------------------------------------------------------------------

def _run_verify_shen(spec, P, M):
    bound = spec.gen_bound
    ok, checked, note = check_shen_tau(spec.n, bound, spec.mode)
    if not ok:
        return Verdict("embedding does not respect brackets", False, {}, [note])
    how = ("exhaustive |alpha| <= %d" % bound if spec.mode == PLUS
           else "randomized two-sided exponents in [-%d, %d]" % (bound, bound))
    details = ["%d monomial pairs checked (%s)" % (checked, how),
               "tau[x,y] = [tau x, tau y] exactly in every case"]
    return Verdict("embedding respects brackets", True,
                   {"monomial pairs": checked}, details)


def _run_verify_axioms(spec, P, M):
    F = FPModule(P, M)
    bound = spec.gen_bound
    ok1, pairs, note1 = check_action_axiom(F, bound, spec.window)
    details = ["action axiom on %s: %d operator pairs checked"
               % (F.name, pairs)]
    if not ok1:
        return Verdict("action axiom fails", False, {}, details + [note1])
    ok2, checked, note2 = check_chain_map(P, bound, spec.window)
    details.append("chain maps over %s: %d intertwining and composite "
                   "checks" % (P.kind, checked))
    if not ok2:
        return Verdict("chain-map identity fails", False, {}, details + [note2])
    return Verdict("module axioms hold on the window", True,
                   {"operator pairs": pairs, "chain-map checks": checked},
                   details)


def _run_complex(spec, P, M):
    h = complex_homology(P, spec.window)
    details = []
    order = lambda k: (k[0], k[1] is None, k[1] if k[1] is not None else 0)
    for key in sorted(h.table, key=order):
        r, level = key
        where = "level %s" % level if level is not None else "window total"
        details.append("r=%d, %s: dim %d" % (r, where, h.table[key]))
    if h.excluded:
        details.append("%d graded pieces excluded at the window edge"
                       % h.excluded)
    nz = h.nonzero()
    verdict = ("homology vanishes on the window" if not nz
               else "nonzero homology at %d position%s"
               % (len(nz), "" if len(nz) == 1 else "s"))
    return Verdict(verdict, True, {"computed homology pieces": len(h.table)},
                   details)


def _run_support(spec, P, M):
    try:
        sup = weight_support(P, M, spec.window)
    except ValueError as exc:
        raise UsageError("%s: P=%s, M=%s" % (exc, spec.p_expr, spec.m_expr))
    shown = sorted("(%s)" % ", ".join(str(x) for x in w) for w in sup)
    return Verdict("%d distinct weights on the window" % len(sup), True,
                   {"distinct weights": len(sup)}, shown)


def _run_fingerprint(spec, P, M):
    fp = fingerprint(P, M, spec.window)
    return Verdict("fingerprint with %d entries" % len(fp.entries), True,
                   {"window cells": sum(mult for _, mult in fp.entries)},
                   ["kind: %s" % fp.kind] + ["%s: %d" % e for e in fp.entries])


def _run_torsion(spec, P, M):
    F = FPModule(P, M)
    bound = min(spec.gen_bound, 3)
    ok, checked, note = check_torsion(F, spec.window, bound)
    if not ok:
        return Verdict("torsion operator deviates from its closed form",
                       False, {}, [note])
    details = ["%d randomized inputs on %s, exponents bounded by %d"
               % (checked, F.name, bound),
               "interpolated operator matches its closed form in every case"]
    return Verdict("torsion identity holds on all samples", True,
                   {"inputs": checked}, details)


_BODIES = {
    "verify-shen": _run_verify_shen,
    "verify-axioms": _run_verify_axioms,
    "complex": _run_complex,
    "irreducible": lambda spec, P, M: irreducibility_report(
        P, M, spec.window, spec.gen_bound),
    "support": _run_support,
    "fingerprint": _run_fingerprint,
    "torsion": _run_torsion,
}
COMMANDS = tuple(_BODIES)
# the commands whose body never reads P or M, so --P or --M is not built
# for them
_IGNORES_P = ("verify-shen",)
_IGNORES_M = ("verify-shen", "complex")
# parse_args keeps no state between calls, so one parser serves every call
_PARSER = _build_parser()


def run(spec: JobSpec) -> Tuple[Report, int]:
    """Execute a job; returns the report and the process exit code: 0 when
    the verdict is certified or none was attempted ("skipped"), else 1."""
    P = None if spec.command in _IGNORES_P else parse_p(spec.p_expr, spec.n)
    M = None if spec.command in _IGNORES_M else parse_m(spec.m_expr, spec.n)
    if P is not None and spec.mode == PLUS:
        P.mode = PLUS  # a two-sided P restricted to W_n^+
    start = time.monotonic()
    try:
        rec = _BODIES[spec.command](spec, P, M)
    except UsageError:
        raise
    except ValueError as exc:  # library precondition -> usage error
        raise UsageError(str(exc))
    elapsed = int((time.monotonic() - start) * 1000)
    branch = [] if rec.branch is None else ["branch: %s" % rec.branch]
    report = Report(spec, rec.verdict, rec.certified, branch + rec.details,
                    elapsed)
    return report, 0 if rec.certified or rec.verdict == "skipped" else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        spec = parse_spec(argv)
        report, code = run(spec)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if spec.as_json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
