"""Start benchmark steps from a small process, one at a time, and time them.

Linux carries the memory high-water mark of the process that forks a child
into the child's ``ru_maxrss``, so children of the harness itself would
report the harness's peak RSS. This helper keeps almost nothing in memory
and starts every step instead, so the peak RSS that ``os.wait4`` returns
for a step is the step's own.

Right before and right after each step the helper also times a fixed
pure-Python loop (``reference_loop``), which imports nothing from
``ldpcbounds``. On a shared virtual machine the speed at which the
interpreter runs changes by up to half in phases of seconds to minutes, and
the step's own CPU time moves with its wall time; the loop's time measures
that speed at the moment of the step, so the harness can express each step
at a fixed machine speed.

Protocol: one JSON request per line on stdin, ``{"argv", "cwd", "env",
"stdout", "stderr", "timeout"}``; one JSON reply per line on stdout,
``{"exit", "start", "end", "maxrss_kib", "loop_before_s", "loop_after_s"}``,
with ``time.perf_counter`` times. The helper exits at end of input.
"""

import json
import os
import statistics
import subprocess
import sys
import threading
import time

#: Iterations of one reference loop: about 10 ms on a 2.1 GHz Xeon core.
LOOP_ITERATIONS = 40_000


def reference_loop(iterations=LOOP_ITERATIONS):
    """Integer arithmetic, list indexing and dict updates, as interpreted code does."""
    table = list(range(64))
    seen = {}
    acc = 0
    for i in range(iterations):
        j = table[i & 63]
        acc = (acc * 33 + j) & 0xFFFFF
        if acc & 1:
            seen[j] = seen.get(j, 0) + 1
        table[(i + acc) & 63] = acc & 63
    return acc, len(seen)


def time_loop(repeats=3):
    """Median wall time of ``repeats`` reference loops."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main():
    time_loop()  # warm-up
    for line in sys.stdin:
        req = json.loads(line)
        before = time_loop()
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdout=out, stderr=err)
            watchdog = threading.Timer(req["timeout"], proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"exit": proc.returncode, "start": start, "end": end,
                 "maxrss_kib": usage.ru_maxrss, "loop_before_s": before,
                 "loop_after_s": time_loop()}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
