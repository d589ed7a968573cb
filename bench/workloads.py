"""Certificate jobs of each workload, built from a seed, with their checks.

A job is one verdict.  Jobs that have a CLI command are built with
`cli.parse_spec` and run with `cli.run`, so every layer down to `exactnum`
is exercised; the transporter-versus-kernel certificate has no command and
calls `wittrep` directly.  The seed only draws inputs: numeric twists
(non-integer p/q for TL, nonzero integers for Whittaker), torsion sample
vectors and the job order.  Every check compares against an expectation that
holds for every seed.
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from wittmod import cli, wittrep  # noqa: E402
from wittmod.exactnum import Scalar, vec_clean  # noqa: E402
from wittmod.glmod import natural_module, sym_power  # noqa: E402
from wittmod.polyalg import exponents_within  # noqa: E402
from wittmod.weylmod import (  # noqa: E402
    alaurent, apoly, twisted_laurent, whittaker,
)


@dataclass
class Job:
    """One verdict: `run` computes it, `check` returns "" or a mismatch."""

    id: str
    run: Callable[[], object]
    check: Callable[[object], str]


@dataclass
class Twists:
    """Admissible numeric parameters drawn from the seed.

    Coefficient sizes drive the cost of exact arithmetic, so the draws keep
    numerators and denominators small: a different seed must not mean a
    different amount of work.
    """

    rng: random.Random

    def tl(self) -> Tuple[int, int]:
        """A non-integer p/q, so TL(p/q, ...) stays a generic twist."""
        q = self.rng.choice((2, 3))
        return self.rng.choice([p for p in range(-5, 6) if p % q]), q

    def whittaker(self) -> int:
        """A nonzero value, so Whittaker(...) stays non-degenerate."""
        return self.rng.choice((-3, -2, 2, 3))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _report(verdict: str, branch: Optional[str] = None) -> Callable:
    """A certified CLI report whose verdict starts with `verdict`."""
    def check(result) -> str:
        report, code = result
        if code != 0 or not report.certified:
            return "exit %d, certified=%s: %s" % (code, report.certified,
                                                 report.verdict)
        if not report.verdict.startswith(verdict):
            return "verdict %r" % report.verdict
        if branch is not None and "branch: %s" % branch not in report.details:
            return "branch %r" % report.details[:1]
        return ""
    return check


_HOMOLOGY_LINE = re.compile(r"r=(\d+), (?:level (-?\d+)|window total): "
                            r"dim (\d+)$")


def _homology(nonzero: Dict[Tuple[int, Optional[int]], int]) -> Callable:
    """A homology table whose nonzero entries are exactly `nonzero`."""
    base = _report("nonzero homology")

    def check(result) -> str:
        note = base(result)
        if note:
            return note
        got = {}
        for line in result[0].details:
            m = _HOMOLOGY_LINE.match(line)
            if m and int(m.group(3)):
                level = None if m.group(2) is None else int(m.group(2))
                got[(int(m.group(1)), level)] = int(m.group(3))
        return "" if got == nonzero else "homology %r" % got
    return check


def _same_span(dim: int) -> Callable:
    def check(result) -> str:
        lt_dim, kw_dim, same = result
        if not same or lt_dim != dim or kw_dim != dim:
            return "transporter dim %d, kernel dim %d, same_span=%s" % (
                lt_dim, kw_dim, same)
        return ""
    return check


def _no_mismatch(result) -> str:
    return "" if result == 0 else "%d torsion mismatches" % result


# ---------------------------------------------------------------------------
# job builders
# ---------------------------------------------------------------------------

def _cli(argv: str, check: Callable) -> Job:
    spec = cli.parse_spec(argv.split())
    return Job(argv, lambda: cli.run(spec), check)


def _transporter(label: str, P, r: int, D: int, A: int, dim: int) -> Job:
    """Transporter by invariance against ker pi_r on the same window."""
    def run():
        lt = wittrep.ltilde_window(P, r, D, A)
        kw = wittrep.kernel_window(P, r, D)
        return lt.dim, kw.dim, lt.same_span(kw)
    return Job("transporter %s r=%d D=%d A=%d" % (label, r, D, A), run,
               _same_span(dim))


def _torsion(label: str, P, M, rng: random.Random, samples: int,
             D: int, A: int) -> Job:
    """Interpolated torsion operator against its closed form on seeded
    sample vectors (the CLI `torsion` command fixes its own samples)."""
    F = wittrep.FPModule(P, M)
    win = F.window_basis(D)
    exps = exponents_within(F.n, A, F.mode)
    inputs = []
    for _ in range(samples):
        vec = vec_clean({rng.choice(win): Scalar.integer(rng.randint(-3, 3))
                         for _ in range(2)})
        l, i, j = (rng.randint(1, F.n) for _ in range(3))
        inputs.append((l, i, j, rng.choice(exps), vec))

    def run():
        return sum(1 for args in inputs
                   if not wittrep.torsion_matches(F, *args))
    return Job("torsion %s x%d" % (label, samples), run, _no_mismatch)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def identities(rng: random.Random) -> List[Job]:
    """Why: the criterion-2 path, the acceptance check closest to its cap.
    Action-axiom, chain-map, Shen and torsion identities over all five P
    kinds cover the three scalar tiers (integer: Apoly, Alaurent, Quot;
    polynomial: TL; rational function: Whittaker).  Time goes to the
    memoised `act_cell`, `act` and scalar `*`/`+`; no elimination runs, so
    an `Echelon` or `kernel_basis` change must leave this workload alone."""
    tw = Twists(rng)
    axioms = _report("module axioms hold on the window")
    l1, l2 = Scalar.param("l1"), Scalar.param("l2")
    p, q = tw.tl()
    return [
        _cli("verify-shen --n 2 --gen-bound 4",
             _report("embedding respects brackets")),
        _cli("verify-shen --n 2 --mode laurent --gen-bound 3",
             _report("embedding respects brackets")),
        _cli("verify-axioms --P Apoly --M Sym(2) --window 3 --gen-bound 3",
             axioms),
        _cli("verify-axioms --P Alaurent --M Nat --window 2 --gen-bound 2",
             axioms),
        _cli("verify-axioms --P Quot --M Sym(2) --window 3 --gen-bound 3",
             axioms),
        _cli("verify-axioms --P TL(l1,l2) --M Nat --window 2 --gen-bound 2",
             axioms),
        _cli("verify-axioms --P Whittaker(l1,l2) --M Sym(2) --window 2 "
             "--gen-bound 2", axioms),
        _cli("verify-axioms --P Whittaker(%d,%d) --M Nat --window 2 "
             "--gen-bound 2" % (tw.whittaker(), tw.whittaker()), axioms),
        _cli("torsion --P Alaurent --M Sym(2) --window 2 --gen-bound 3",
             _report("torsion identity holds")),
        _cli("torsion --P Whittaker(l1,l2) --M Sym(2) --window 2 "
             "--gen-bound 2", _report("torsion identity holds")),
        _torsion("F(TL(%d/%d,l2), Sym(2))" % (p, q),
                 twisted_laurent([Scalar.rational(p, q), l2]),
                 sym_power(2, 2), rng, 60, 2, 2),
        _torsion("F(Whittaker(l1,l2), Nat)", whittaker([l1, l2]),
                 natural_module(2), rng, 60, 2, 2),
    ]


def saturation(rng: random.Random) -> List[Job]:
    """Why: `irreducible` on the saturation branch over symbolic instances.
    The closure applies every operator to every span vector, so most of the
    time is the action layer (`FPModule.act`, cached `act_cell`) and the
    `Scalar` products under it, about a quarter of them with a non-constant
    denominator; the closure's `Echelon.add` inserts (most of which do not
    grow the span) are a distant second, and `kernel_basis` never runs.
    Specialising the parameters or fast gcd paths for monomial
    denominators would show here and much less on `subspaces`."""
    tw = Twists(rng)
    sat = _report("consistent with irreducible: certified saturation",
                  "saturation")
    return [
        _cli("irreducible --P Whittaker(l1,l2) --M Sym(2) --window 2 "
             "--gen-bound 3", sat),
        _cli("irreducible --P Whittaker(l1,l2) --M Triv(l1) --window 3 "
             "--gen-bound 3", sat),
        _cli("irreducible --P TL(l1,l2) --M Sym(2) --window 3 --gen-bound 3",
             sat),
        _cli("irreducible --P TL(l1,l2) --M Triv(l1) --window 3 "
             "--gen-bound 3", sat),
        _cli("irreducible --P Tensor(Apoly,Whittaker(l2)) --M Sym(2) "
             "--window 3 --gen-bound 3", sat),
        _cli("irreducible --P Whittaker(%d,%d) --M Sym(2) --window 2 "
             "--gen-bound 3" % (tw.whittaker(), tw.whittaker()), sat),
        _cli("irreducible --P TL(%d/%d,%d/%d) --M Sym(2) --window 3 "
             "--gen-bound 3" % (tw.tl() + tw.tl()), sat),
    ]


def subspaces(rng: random.Random) -> List[Job]:
    """Why: elimination against fixed rows.  Transporter-versus-kernel
    cross-checks run the batch `_rref` behind `kernel_basis` and many
    `Echelon.reduce` membership reads; the exterior-witness and top-degree
    branches of `irreducible` and the homology tables add more reads and
    small inserts.  Elimination, with the `Scalar` products inside it,
    takes most of the time.  Most of the rest is the action layer building
    the rows (`pi_map` images and mostly uncached `act_cell` calls), so
    retiring `_rref` or fraction-free elimination would show here first,
    and an action-layer change would show here less than on the other
    two workloads."""
    tw = Twists(rng)
    l1, l2 = Scalar.param("l1"), Scalar.param("l2")
    a, b = tw.whittaker(), tw.whittaker()
    return [
        _transporter("Whittaker(l1,l2)", whittaker([l1, l2]), 1, 3, 4, 6),
        _transporter("Whittaker(%d,%d)" % (a, b),
                     whittaker([Scalar.integer(a), Scalar.integer(b)]),
                     1, 3, 4, 6),
        _transporter("Apoly n=3", apoly(3), 1, 3, 4, 34),
        _transporter("Alaurent", alaurent(2), 1, 3, 4, 23),
        _cli("irreducible --P Whittaker(l1,l2) --M Ext(1) --window 4 "
             "--gen-bound 3", _report("reducible", "exterior-witness")),
        _cli("irreducible --n 3 --P Apoly --M Ext(1) --window 4 "
             "--gen-bound 3", _report("reducible", "exterior-witness")),
        _cli("irreducible --P Whittaker(l1,l2) --M Ext(2) --window 3 "
             "--gen-bound 3", _report("reducible", "top-degree")),
        _cli("irreducible --P Alaurent --M Ext(2) --window 3 --gen-bound 3",
             _report("reducible", "top-degree")),
        _cli("complex --P Whittaker(l1,l2) --window 4",
             _homology({(2, None): 1})),
        _cli("complex --P Whittaker(%d,%d) --window 4" % (a, b),
             _homology({(2, None): 1})),
        _cli("complex --n 3 --P Apoly --window 4", _homology({(0, 0): 1})),
        _cli("complex --P Alaurent --window 4",
             _homology({(0, 0): 1, (1, 0): 2, (2, 0): 1})),
    ]


WORKLOADS = {"identities": identities, "saturation": saturation,
             "subspaces": subspaces}


def build(workload: str, seed: int) -> List[Job]:
    """Build the workload's inputs from the seed, in a seeded job order."""
    rng = random.Random(seed)
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs
