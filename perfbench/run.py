"""Benchmark for ldpcbounds: four workloads of CLI runs, gated by oracles.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all

Each step of a workload is one fresh process, started after the previous
one exits (a closed loop with one client), so every step pays interpreter
start-up and cold caches as a user does. A pass is the workload's set-up
steps then its timed steps; passes repeat until ``--seconds`` have gone by,
each on inputs derived from ``--seed`` and the pass number. Each step's
wall time is expressed at a fixed machine speed (``at_reference_speed``),
and a time is the mean over passes of the sum over steps. Every step's exit code and report is checked by ``gate.py``
after the timed passes; a step that fails the check is a failed op.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each pass
untraced as well, then replays every step in a fresh process through
``replay.py``, which records spans around the public calls it makes, and
reports the per-layer metrics. A layer that a workload does not exercise
reports 0. Spans and the run record (git sha, nproc, Python version,
networkx, seed, and each step's argv, exit code and peak RSS) are written
to ``.perfbench/out/`` when the run ends.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The run exits 2 without a result
when the checkout holds no ``src/ldpcbounds``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gate import Gate, networkx  # noqa: E402
from workloads import WORKLOADS, steps  # noqa: E402

STEP_TIMEOUT_S = 60
WORK = ".perfbench"

#: Median time of ``spawner.reference_loop`` on a 2-vCPU 2.1 GHz Xeon virtual
#: machine in its fast phases: the machine speed that times are expressed at.
REFERENCE_LOOP_S = 0.0070


# --- running one step ------------------------------------------------------------


def _argv(step, traced):
    py = sys.executable
    core = json.dumps({"cmd": step["cmd"], "args": step["args"]})
    if traced or step["cmd"] not in CLI_COMMANDS:
        return [py, "perfbench/replay.py", core, "1" if traced else "0"]
    argv = [py, "-m", "ldpcbounds.cli", step["cmd"]]
    for key, value in step["args"].items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv += [flag, str(value)]
    return argv


CLI_COMMANDS = {"bounds", "girth", "verify-expansion", "verify-correction",
                "find-trapping-sets", "make-gadget", "cage", "gen"}


class Spawner:
    """The helper process (``spawner.py``) that starts and times every step."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-I", str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, env, stdout, stderr):
        request = {"argv": argv, "cwd": str(ROOT), "env": env, "stdout": str(stdout),
                   "stderr": str(stderr), "timeout": STEP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def run_step(spawner, step, env, scratch, traced=False):
    """Run a step as a child process; return its record with wall time and peak RSS."""
    argv = _argv(step, traced)
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    reply = spawner.run(argv, env, out_path, err_path)
    report = _parse(out_path.read_text(errors="replace"))
    return {
        "cmd": step["cmd"], "phase": step["phase"], "group": step["group"],
        "traced": traced, "argv": argv[1:], "exit": reply["exit"],
        "start": reply["start"], "end": reply["end"], "wall_s": reply["end"] - reply["start"],
        "loop_s": (reply["loop_before_s"] + reply["loop_after_s"]) / 2,
        "peak_rss_mib": reply["maxrss_kib"] / 1024,
        "result": report.get("result"), "spans": report.get("spans", []),
        "stderr_tail": err_path.read_text(errors="replace")[-400:],
    }


def _parse(stdout):
    """The step's JSON report: the CLI's, or the one line ``replay.py`` prints."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return {}
    return report if isinstance(report, dict) else {}


# --- one pass ---------------------------------------------------------------------


def run_pass(spawner, workload, seed, index, run_dir, env, traced):
    """Run one pass's steps; the gate checks them later, outside the timed window."""
    work = run_dir / f"pass{index}"
    work.mkdir(parents=True)
    plan = steps(workload, seed, index, str(work.relative_to(ROOT)))
    records = []
    for trace_flag in (False, True) if traced else (False,):
        for i, step in enumerate(plan):
            if step["phase"] == "probe" and not trace_flag:
                continue
            rec = run_step(spawner, step, env, run_dir, trace_flag)
            rec["pass"], rec["index"], rec["step"] = index, i, step
            records.append(rec)
    return records


def gate_pass(gate, records):
    """Set each record's ``failure``: None when its outcome is verified."""
    untraced = {r["index"]: r for r in records if not r["traced"]}
    for rec in records:
        start = time.perf_counter()
        reference = untraced.get(rec["index"]) if rec["traced"] else None
        if reference is None:
            rec["failure"] = gate.check(rec["step"], rec["exit"], rec["result"])
        elif (rec["exit"], rec["result"]) != (reference["exit"], reference["result"]):
            rec["failure"] = "the traced replay's outcome differs from the untraced step's"
        else:
            rec["failure"] = reference["failure"]
        rec["gate_s"] = time.perf_counter() - start


# --- metrics ----------------------------------------------------------------------


def _sum_wall(records, phase, traced=False):
    return sum(r["wall_s"] for r in records if r["phase"] == phase and r["traced"] == traced)


def at_reference_speed(record):
    """The step's wall time scaled to the speed at which the reference loop takes
    ``REFERENCE_LOOP_S``.

    On a shared virtual machine the interpreter's speed drifts by up to a
    half, in phases of seconds to minutes and on each vCPU at different
    times, and CPU time drifts with wall time, so timing by rusage does not
    remove it. The reference loop, timed by ``spawner.py`` on either side of
    the step, measures the speed the step ran at.
    """
    return record["wall_s"] * REFERENCE_LOOP_S / record["loop_s"]


def end_to_end(passes):
    """Figures from the untraced steps, each with its unit and sample count (the passes).

    A time is the mean over passes of the sum over steps of each step's
    time at the reference speed; the ``_wall_s`` figures are the same
    without the scaling.
    """
    seconds = {"setup_s": 0.0, "job_s": 0.0, "setup_wall_s": 0.0, "job_wall_s": 0.0}
    for records in passes:
        for r in records:
            if r["traced"]:
                continue
            scaled = at_reference_speed(r) / len(passes)
            seconds[r["phase"] + "_s"] += scaled
            seconds[r["phase"] + "_wall_s"] += r["wall_s"] / len(passes)
            if r["phase"] == "job":
                key = r["group"] + "_s"
                seconds[key] = seconds.get(key, 0.0) + scaled
    table = {k: (v, "s") for k, v in seconds.items()}
    patterns = sum(s["patterns_checked"] for records in passes for r in records
                   if r["cmd"] == "verify-correction" and not r["traced"] and r["result"]
                   for s in r["result"]["sweeps"].values())
    if patterns:
        table["patterns_per_s"] = (patterns / len(passes) / seconds["verify_correction_s"],
                                   "1/s")
    table["peak_rss_mib"] = (max(r["peak_rss_mib"] for records in passes for r in records
                                 if not r["traced"]), "MiB")
    table["reference_loop_ms"] = (1e3 * statistics.median(
        r["loop_s"] for records in passes for r in records if not r["traced"]), "ms")
    return {k: (v, u, len(passes)) for k, (v, u) in table.items()}


def _spans(records, name, phase=None, **attrs):
    for r in records:
        if not r["traced"] or (phase is not None and r["phase"] != phase):
            continue
        for s in r["spans"]:
            if s["name"] == name and all(s.get("attrs", {}).get(k) == v for k, v in attrs.items()):
                yield s


def _busy(records, name, **attrs):
    return sum(s["end"] - s["start"] for s in _spans(records, name, **attrs))


def _count(records, name, key, **attrs):
    return sum(s["attrs"][key] for s in _spans(records, name, **attrs))


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def per_layer(passes):
    out = []
    for records in passes:
        row = {
            "alist.read_s": _busy(records, "alist.read_alist"),
            "alist.write_s": _busy(records, "alist.write_alist"),
            "alist.bytes": _count(records, "alist.read_alist", "bytes")
            + _count(records, "alist.write_alist", "bytes"),
            "graphs.girth_s": _busy(records, "graphs.girth"),
            "codegen.generate_code_s": _busy(records, "codegen.generate_code"),
            "decoder.patterns": _count(records, "decoder.sweep_error_patterns", "patterns"),
            "decoder.is_fixed_point_s": _busy(records, "decoder.is_fixed_point"),
            "analysis.verify_main_theorem_s": _busy(records, "analysis.verify_main_theorem"),
            "analysis.subsets_checked": _count(records, "analysis.verify_main_theorem", "subsets"),
            "analysis.search_min_trapping_set_s": _busy(records,
                                                        "analysis.search_min_trapping_set"),
            "analysis.subsets_visited": _count(records, "analysis.search_min_trapping_set",
                                               "subsets"),
            "analysis.classify_subset_s": _busy(records, "analysis.classify_subset"),
            "analysis.check_lemmas_s": _busy(records, "analysis.check_lemmas"),
            "bounds.brute_force_f_s": _busy(records, "bounds.brute_force_f"),
            "cages.cage_s": _busy(records, "cages.cage"),
            "cages.build_gadget_s": _busy(records, "cages.build_gadget"),
        }
        row["analysis.subsets_per_s"] = (row["analysis.subsets_checked"]
                                         / row["analysis.verify_main_theorem_s"]
                                         if row["analysis.subsets_checked"] else 0.0)
        sample = [r for r in records if r["traced"] and r["cmd"] == "decode-sample" and r["result"]]
        for algo in ("parallel", "serial"):
            row[f"decoder.sweep_{algo}_s"] = _busy(records, "decoder.sweep_error_patterns",
                                                   algo=algo)
            row[f"decoder.failures_{algo}"] = _count(records, "decoder.sweep_error_patterns",
                                                     "failures", algo=algo)
            micros = [1e6 * (s["end"] - s["start"])
                      for s in _spans(records, "decoder.decode", algo=algo)]
            row[f"decoder.decode_{algo}_us_p50"] = _percentile(micros, 0.50)
            row[f"decoder.decode_{algo}_us_p99"] = _percentile(micros, 0.99)
            runs = [run for r in sample for run in r["result"]["runs"][algo]]
            row[f"decoder.rounds_mean_{algo}"] = (statistics.fmean(x[1] for x in runs)
                                                  if runs else 0.0)
            row[f"decoder.corrected_ratio_{algo}"] = (sum(x[0] == "corrected" for x in runs)
                                                      / len(runs) if runs else 0.0)
        imports = [s["end"] - s["start"] for s in _spans(records, "cli.import", "job")]
        row["cli.startup_s"] = statistics.median(imports) if imports else 0.0
        row["cli.overhead_s"] = sum(
            r["wall_s"] - sum(s["end"] - s["start"] for s in r["spans"]
                              if s["parent"] is None and s["name"] != "cli.import")
            for r in records if r["traced"] and r["phase"] == "job")
        row["trace.overhead_s"] = _sum_wall(records, "job", True) - _sum_wall(records, "job")
        out.append(row)
    return out


def medians(rows, units):
    """Median of each per-layer metric over the passes, with the declared unit."""
    expect_names(rows[0].keys(), units, "per_layer")
    return {k: (statistics.median(r[k] for r in rows), units[k], len(rows)) for k in units}


def declared(kind):
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def expect_names(names, units, kind):
    if set(names) != set(units):
        raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(names) ^ set(units))}")


# --- the run ------------------------------------------------------------------------


def _git_sha():
    if not (ROOT / ".git").exists():  # do not report the sha of an enclosing repository
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_workload(workload, seed, seconds, traced):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run_dir = ROOT / WORK / "work" / f"{workload}-seed{seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    # byte-compile once, untimed, so that no pass pays for writing .pyc files
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/ldpcbounds"], cwd=ROOT,
                   env=env, stdout=subprocess.DEVNULL, timeout=STEP_TIMEOUT_S, check=True)
    passes = []
    spawner = Spawner()
    start = time.perf_counter()
    try:
        # start another pass only while it is expected to end by seconds + half a pass
        last = 0.0
        while not passes or time.perf_counter() - start + last / 2 < seconds:
            begin = time.perf_counter()
            passes.append(run_pass(spawner, workload, seed, len(passes), run_dir, env, traced))
            last = time.perf_counter() - begin
    finally:
        spawner.close()
    gate = Gate(seed)
    try:
        for records in passes:
            gate_pass(gate, records)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return passes


def summarize(workload, seed, seconds, traced, passes):
    records = [r for p in passes for r in p]
    failed = [r for r in records if r["failure"] is not None]
    table = end_to_end(passes)
    layer = medians(per_layer(passes), declared("per_layer")) if traced else {}
    if traced:
        metrics = layer
    else:
        units = declared("end_to_end")
        metrics = {k: table[k] for k in units if k in table}
        expect_names(metrics, units, "end_to_end")
        wrong = [k for k, (_, u, _) in metrics.items() if u != units[k]]
        if wrong:
            raise RuntimeError(f"units of {wrong} differ from BENCHMARK.json")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "git_sha": _git_sha(), "nproc": os.cpu_count(), "python": platform.python_version(),
        "networkx": networkx.__version__ if networkx is not None else None,
        "passes": len(passes), "end_to_end": table, "per_layer": layer,
        "steps": [{k: r[k] for k in ("pass", "index", "phase", "cmd", "traced", "argv", "exit",
                                     "wall_s", "loop_s", "peak_rss_mib", "gate_s", "failure")}
                  for r in records],
        "spans": _span_tree(records) if traced else [],
    }
    out_dir = ROOT / WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / f"{workload}-seed{seed}-trace{int(traced)}.json"
    out_file.write_text(json.dumps(record))
    return record, failed, metrics, out_file


def _span_tree(records):
    """Merge each traced step's spans under a span for the step itself."""
    spans = []
    for r in records:
        if not r["traced"]:
            continue
        step_id = len(spans)
        spans.append({"id": step_id, "name": f"step.{r['cmd']}", "parent": None,
                      "start": r["start"], "end": r["end"],
                      "attrs": {"pass": r["pass"], "phase": r["phase"]}})
        for s in r["spans"]:
            parent = step_id if s["parent"] is None else step_id + 1 + s["parent"]
            spans.append(dict(s, id=step_id + 1 + s["id"], parent=parent))
    return spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ldpcbounds" / "cli.py").is_file():
        print(f"error: no src/ldpcbounds under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    total_attempted = total_failed = 0
    result = None
    for name in names:
        passes = run_workload(name, args.seed, args.seconds, bool(args.trace))
        record, failed, metrics, out_file = summarize(
            name, args.seed, args.seconds, bool(args.trace), passes)
        attempted = len(record["steps"])
        total_attempted += attempted
        total_failed += len(failed)
        print(f"== {name} (seed {args.seed}, {record['passes']} passes, trace {args.trace}): "
              f"{WORKLOADS[name]}")
        shown = record["per_layer"] if args.trace else record["end_to_end"]
        for key, (value, unit, samples) in shown.items():
            print(f"  {key:38s} {value:14.6g} {unit:7s} n={samples}")
        print(f"  {'failed_ops':38s} {len(failed)} of {attempted} steps")
        for r in failed:
            print(f"    FAILED {r['cmd']} pass {r['pass']}: {r['failure']} "
                  f"{r['stderr_tail'][-200:]!r}")
        print(f"  record: {out_file.relative_to(ROOT)}")
        result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    if len(names) > 1:
        result = {"correct": total_failed == 0, "attempted": total_attempted,
                  "failed": total_failed, "metrics": {}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
