"""Reports pinned byte for byte: every README command-line example, every
CLI job of the three benchmark workloads (seed 1) and two deeper saturation
windows must give the recorded `Report.as_dict()`, less `elapsedMs`, and the
recorded exit code.

A performance change must not move any output, so this file holds the
reports of the code before such changes.  `PYTHONHASHSEED` must not matter
either (Scalar hashes are object addresses); CI runs this file under two
hash seeds.  Regenerate the data file only for an intended output change:
`PYTHONPATH=src python tests/test_golden_reports.py > tests/data/golden_reports.json`.
"""

import json
import shlex
import sys
from pathlib import Path

import pytest

from wittmod import cli

DATA = Path(__file__).resolve().parent / "data" / "golden_reports.json"

README_EXAMPLES = [
    'verify-shen  --n 2 --gen-bound 3',
    'verify-axioms --n 2 --P Alaurent --M Nat --window 2 --gen-bound 2',
    'complex      --n 2 --P Alaurent --window 4',
    'irreducible  --n 2 --P Apoly --M "Sym(2)"',
    'support      --n 2 --P "TL(l1,l2)" --window 2',
    'fingerprint  --n 2 --P "Whittaker(1,2)" --M Nat',
    'torsion      --n 2 --P "Tensor(Quot,Quot)" --M "Sym(2)" --window 2',
]

# the CLI jobs of bench/workloads.py at seed 1, twists drawn
WORKLOAD_JOBS = [
    # identities
    "verify-shen --n 2 --gen-bound 4",
    "verify-shen --n 2 --mode laurent --gen-bound 3",
    "verify-axioms --P Apoly --M Sym(2) --window 3 --gen-bound 3",
    "verify-axioms --P Alaurent --M Nat --window 2 --gen-bound 2",
    "verify-axioms --P Quot --M Sym(2) --window 3 --gen-bound 3",
    "verify-axioms --P TL(l1,l2) --M Nat --window 2 --gen-bound 2",
    "verify-axioms --P Whittaker(l1,l2) --M Sym(2) --window 2 --gen-bound 2",
    "verify-axioms --P Whittaker(-3,2) --M Nat --window 2 --gen-bound 2",
    "torsion --P Alaurent --M Sym(2) --window 2 --gen-bound 3",
    "torsion --P Whittaker(l1,l2) --M Sym(2) --window 2 --gen-bound 2",
    # saturation
    "irreducible --P Whittaker(l1,l2) --M Sym(2) --window 2 --gen-bound 3",
    "irreducible --P Whittaker(l1,l2) --M Triv(l1) --window 3 --gen-bound 3",
    "irreducible --P TL(l1,l2) --M Sym(2) --window 3 --gen-bound 3",
    "irreducible --P TL(l1,l2) --M Triv(l1) --window 3 --gen-bound 3",
    "irreducible --P Tensor(Apoly,Whittaker(l2)) --M Sym(2) --window 3 "
    "--gen-bound 3",
    "irreducible --P Whittaker(-2,-3) --M Sym(2) --window 2 --gen-bound 3",
    "irreducible --P TL(-4/3,5/3) --M Sym(2) --window 3 --gen-bound 3",
    # subspaces
    "irreducible --P Whittaker(l1,l2) --M Ext(1) --window 4 --gen-bound 3",
    "irreducible --n 3 --P Apoly --M Ext(1) --window 4 --gen-bound 3",
    "irreducible --P Whittaker(l1,l2) --M Ext(2) --window 3 --gen-bound 3",
    "irreducible --P Alaurent --M Ext(2) --window 3 --gen-bound 3",
    "complex --P Whittaker(l1,l2) --window 4",
    "complex --P Whittaker(-2,-3) --window 4",
    "complex --n 3 --P Apoly --window 4",
    "complex --P Alaurent --window 4",
]

# deeper saturation windows than the benchmark's, where the closure's
# arithmetic dominates
DEEP_SATURATION = [
    "irreducible --P Whittaker(l1,l2) --M Sym(2) --window 4",
    "irreducible --n 3 --P Whittaker(l1,l2,l3) --M Sym(2) --window 3",
]

ARGVS = README_EXAMPLES + WORKLOAD_JOBS + DEEP_SATURATION

# jobs whose verdict is not certified: one with no verdict attempted (exit
# 0) and one whose claim rests on an empty window (exit 1)
UNCERTIFIED = [
    "irreducible --P Apoly --M Nat*Nat --window 2",
    "support --P Quot --window 1",
]


def _golden(argv: str) -> dict:
    report, code = cli.run(cli.parse_spec(shlex.split(argv)))
    out = report.as_dict()
    del out["elapsedMs"]
    return {"report": out, "exit": code}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


def test_every_job_is_recorded(recorded):
    assert sorted(recorded) == sorted(ARGVS)


@pytest.mark.parametrize("argv", ARGVS)
def test_report_matches_recorded(recorded, argv):
    assert _golden(argv) == recorded[argv]


@pytest.mark.parametrize("argv", ARGVS + UNCERTIFIED)
def test_exit_code_follows_the_record(argv):
    report, code = cli.run(cli.parse_spec(shlex.split(argv)))
    assert (code == 0) == (report.certified or report.verdict == "skipped")


if __name__ == "__main__":
    json.dump({argv: _golden(argv) for argv in ARGVS}, sys.stdout,
              indent=1, sort_keys=True)
    sys.stdout.write("\n")
