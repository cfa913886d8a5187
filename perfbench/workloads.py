"""The benchmark's four workloads, each a fixed sequence of steps.

A step is ``{"cmd", "args", "phase", "group"}``. ``cmd`` is a CLI
subcommand or one of the library steps in ``replay.py``. ``phase`` is
``setup`` (generating and writing the pass's input codes, timed as
``setup_s``), ``job`` (timed as ``job_s``) or ``probe`` (run only in the
traced run, for per-call decoder latencies). ``group`` names the per-step
figure the step adds to in the summary.

Every code seed and sample seed derives from the workload seed and the pass
number, so one seed gives the same inputs on every machine, and each pass
of a run decodes and searches a different code.
"""

import hashlib

WORKLOADS = {
    "sweep": "Exhaustive weight-2 decoding of a girth-8 (3,4) code with n=120: the decoder "
             "does almost all the work and errors touch under 2% of the variables.",
    "dense": "The (4,5)-cage gadget padded to gamma=8 (n=19, t_max=8): the theorem checked "
             "where t_max >= 2, with errors and subsets covering most of the code.",
    "search": "Exhaustive subset searches on sparse girth-8 codes, the trapping-iff check, "
              "and the lemma checks with a cold extremal-graph search.",
    "construct": "Code generation, girth and alist I/O on the largest codes, plus short "
                 "commands: no decoding and no subset search.",
}


def derive(seed, pass_index, label):
    """A 31-bit seed for one input of one pass, fixed by the workload seed."""
    digest = hashlib.sha256(f"{seed}/{pass_index}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _step(cmd, phase, group=None, **args):
    return {"cmd": cmd, "args": args, "phase": phase, "group": group or cmd.replace("-", "_")}


def _gen(work, name, n, gamma, rho, min_girth, seed, phase="setup", group=None):
    return _step("gen", phase, group, n=n, gamma=gamma, rho=rho, min_girth=min_girth,
                 seed=seed, out=f"{work}/{name}.alist")


def steps(workload, seed, pass_index, work):
    """The steps of one pass; ``work`` is the pass's directory, relative to the root."""
    def s(label):
        return derive(seed, pass_index, label)

    if workload == "sweep":
        code = f"{work}/sweep.alist"
        return [
            _gen(work, "sweep", 120, 3, 4, 8, s("sweep")),
            _step("verify-correction", "job", "verify_correction",
                  code=code, weight=2, algo="both"),
            _step("decode-sample", "probe", code=code, weight=2, samples=1000, seed=s("sample")),
        ]
    if workload == "dense":
        code = f"{work}/dense.alist"
        return [
            _step("make-gadget", "setup", gamma=8, gprime=5, out=code),
            _step("bounds", "job", "light_cmds", gamma=8, girth=10),
            _step("verify-expansion", "job", "verify_expansion", code=code),
            # one step per schedule keeps each step short (see run.at_reference_speed)
            _step("verify-correction", "job", "verify_correction",
                  code=code, weight=8, algo="parallel"),
            _step("verify-correction", "job", "verify_correction",
                  code=code, weight=8, algo="serial"),
            _step("decode-sample", "probe", code=code, weight=8, samples=1000, seed=s("sample")),
        ]
    if workload == "search":
        return [
            _gen(work, "g4n128", 128, 4, 4, 8, s("g4n128")),
            _gen(work, "g3n240", 240, 3, 4, 8, s("g3n240")),
            _gen(work, "g3n96", 96, 3, 4, 8, s("g3n96")),
            _gen(work, "g3n30", 30, 3, 3, 8, s("g3n30")),
            _step("cage-incidence", "setup", d=4, g=5, out=f"{work}/cage45.alist"),
            _step("verify-expansion", "job", "verify_expansion", code=f"{work}/g4n128.alist"),
            _step("find-trapping-sets", "job", "find_trapping_sets",
                  code=f"{work}/g3n240.alist", max_size=3, potential_only=True),
            _step("find-trapping-sets", "job", "find_trapping_sets",
                  code=f"{work}/g3n96.alist", max_size=4),
            _step("trapping-iff", "job", code=f"{work}/g3n30.alist", max_size=4),
            _step("lemmas", "job", codes=[f"{work}/cage45.alist"], per_size=25,
                  seed=s("lemmas")),
            _step("lemmas", "job", codes=[f"{work}/g3n30.alist"], per_size=25,
                  seed=s("lemmas")),
        ]
    if workload == "construct":
        big, mid = f"{work}/g3n2400.alist", f"{work}/g4n1024.alist"
        return [
            _gen(work, "g4n1024", 1024, 4, 4, 8, s("g4n1024")),
            _gen(work, "g3n2400", 2400, 3, 4, 10, s("g3n2400"), "job"),
            _step("girth", "job", code=big),
            _step("girth", "job", code=mid),
            _step("make-gadget", "job", "light_cmds", gamma=5, gprime=8,
                  out=f"{work}/gadget58.alist"),
            _step("cage", "job", "light_cmds", d=4, g=5),
            _step("bounds", "job", "light_cmds", gamma=4, girth=8),
        ]
    raise ValueError(f"unknown workload {workload!r}")
