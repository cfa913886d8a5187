"""Self-test of the benchmark's correctness gate.

Usage, from the repository root: ``python3 perfbench/selftest.py``.

Runs real CLI steps on the first pass's inputs of seed 1, checks
that the gate accepts their reports, then corrupts each report one way:

* drop one decoding failure from a weight-2 sweep;
* change the worst expansion ratio of a certificate;
* replace a found trapping set with a same-size subset that does not trap
  (its signature adjusted so only the trapping check can catch it);
* report that no trapping set was found, with the exit code that goes with
  it, where one exists (caught by the gate's reference search).

Each corrupted report must count as a failed op. Exits 0 when all of them
do and the untouched reports pass, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from fractions import Fraction
from itertools import combinations

from run import ROOT, WORK, Spawner, run_step
from gate import Gate, one_round_flips
from workloads import steps


# Each corruption returns the exit code and report to check, or None when the
# clean report has nothing to corrupt.


def _drop_failure(gate, step, exit_code, report):
    bad = copy.deepcopy(report)
    sweeps = bad["sweeps"]
    schedule = "parallel" if sweeps["parallel"]["failures"] else "serial"
    if not sweeps[schedule]["failures"]:
        return None
    sweeps[schedule]["failures"].pop(len(sweeps[schedule]["failures"]) // 2)
    return exit_code, bad


def _change_ratio(gate, step, exit_code, report):
    bad = copy.deepcopy(report)
    worst = bad["worst_expansion"]
    ratio = Fraction(worst) if isinstance(worst, int) else Fraction(*map(int, worst.split("/")))
    ratio += Fraction(1, 7)
    bad["worst_expansion"] = f"{ratio.numerator}/{ratio.denominator}"
    return exit_code, bad


def _swap_found(gate, step, exit_code, report):
    found = report["found"]
    if found is None:
        return None
    code = gate.code(step["args"]["code"])
    k = len(found["subset"])
    for subset in combinations(range(code.n), k):
        if one_round_flips(code, subset):
            break
    bad = copy.deepcopy(report)
    odd = sum(1 for d in code.neighbourhood(subset).values() if d % 2)
    bad["found"]["subset"] = list(subset)
    bad["found"]["signature"] = [k, odd]
    return exit_code, bad


def _hide_found(gate, step, exit_code, report):
    if report["found"] is None:
        return None
    bad = dict(report, found=None, complete=True, sizes_completed=step["args"]["max_size"])
    return 1, bad


def _step(plan, cmd, code_name):
    """The step of ``plan`` running ``cmd`` on, or writing, the code file ``code_name``."""
    return next(s for s in plan if s["cmd"] == cmd and code_name in str(s["args"]))


SEED = 1


def main():
    work_dir = ROOT / WORK / "selftest"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    work = str(work_dir.relative_to(ROOT))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    sweep = steps("sweep", SEED, 0, work)
    search = steps("search", SEED, 0, work)
    plan = [
        ([_step(sweep, "gen", "sweep.alist")], _step(sweep, "verify-correction", "sweep.alist"),
         "drop one decoding failure", _drop_failure),
        ([_step(search, "gen", "g4n128.alist")],
         _step(search, "verify-expansion", "g4n128.alist"), "change the worst ratio",
         _change_ratio),
        ([_step(search, "gen", "g3n96.alist")], _step(search, "find-trapping-sets", "g3n96.alist"),
         "replace a found subset with one that does not trap", _swap_found),
        # the n=96 code is the one the entry above generated
        ([], _step(search, "find-trapping-sets", "g3n96.alist"),
         "report nothing found where a trapping set exists", _hide_found),
    ]
    gate = Gate(SEED)
    spawner = Spawner()
    outcomes = []
    try:
        for setup, step, label, corrupt in plan:
            for s in setup:
                run_step(spawner, s, env, work_dir)
            rec = run_step(spawner, step, env, work_dir)
            clean = gate.check(step, rec["exit"], rec["result"])
            bad = corrupt(gate, step, rec["exit"], rec["result"]) if clean is None else None
            caught = gate.check(step, *bad) if bad is not None else None
            ok = clean is None and caught is not None
            outcomes.append(ok)
            verdict = f"counted as a failed op: {caught}" if caught else "NOT caught"
            print(f"{label}: clean report {'passes' if clean is None else 'FAILS: ' + clean}; "
                  f"corrupted report {verdict}")
    finally:
        spawner.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"corruptions": len(plan), "caught": sum(outcomes)}))
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
