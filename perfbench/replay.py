"""Run one benchmark step in a fresh interpreter, optionally recording spans.

Usage: ``python perfbench/replay.py '<step json>' <0|1>``, with ``src`` on
``PYTHONPATH``. The step is ``{"cmd": ..., "args": {...}}``. Stdout is one
JSON object ``{"result", "exit", "spans"}`` on one line, and the exit code
is the step's.

For a CLI subcommand the step makes the same public library calls as
``ldpcbounds.cli`` does for that subcommand and returns the same ``result``
block and exit code, so the harness can gate both with one check and
compare them. ``trapping-iff``, ``lemmas`` and ``cage-incidence`` have no
subcommand; the harness runs them through this file with tracing off.
``decode-sample`` is a traced-only probe.

With tracing on, a span (name, start, end, parent) is kept in memory around
each public call made from this file and printed when the step ends. No
code inside ``ldpcbounds`` is patched or wrapped. The import of
``ldpcbounds.cli`` is timed first, before any other package import, so the
``cli.import`` span is a cold import as a user pays it.
"""

import json
import os
import sys
import time
from contextlib import contextmanager

# The package, and the standard modules the CLI imports, are imported inside
# the functions below, after the timed cold import of ldpcbounds.cli.


class Tracer:
    def __init__(self, on):
        self.on = on
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        if not self.on:
            yield attrs
            return
        # attrs stays mutable: callers may add counts after the span closes
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def _main():
    step = json.loads(sys.argv[1])
    tr = Tracer(sys.argv[2] == "1")
    with tr.span("cli.import"):
        import ldpcbounds.cli  # noqa: F401
    result, code = COMMANDS[step["cmd"]](tr, step["args"])
    print(json.dumps({"result": _jsonable(result), "exit": code, "spans": tr.spans}))
    return code


def _jsonable(obj):
    """The CLI's JSON encoding: Fractions as ints or "p/q", inf as "infinite"."""
    import dataclasses
    import math
    from enum import Enum
    from fractions import Fraction

    if isinstance(obj, Fraction):
        return int(obj) if obj.denominator == 1 else f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float) and math.isinf(obj):
        return "infinite"
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(x) for x in obj]
    return obj


def _sha256(path):
    import hashlib

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read(tr, path):
    from ldpcbounds import read_alist

    with tr.span("alist.read_alist") as attrs:
        t = read_alist(path)
    attrs["bytes"] = os.path.getsize(path)
    return t


def _load_code(tr, path):
    """Read a code and hash the file, as the CLI does for every ``--code``."""
    t = _read(tr, path)
    _sha256(path)
    return t


def _write(tr, t, path):
    from ldpcbounds import write_alist

    with tr.span("alist.write_alist") as attrs:
        write_alist(t, path)
    attrs["bytes"] = os.path.getsize(path)


def _girth(tr, g):
    from ldpcbounds import girth

    with tr.span("graphs.girth"):
        return girth(g)


# --- CLI subcommands, mirrored call for call -------------------------------


def _bounds(tr, a):
    from ldpcbounds import bound_report

    with tr.span("bounds.bound_report"):
        report = bound_report(a["gamma"], a["girth"])
    return {
        "gamma": report.gamma,
        "girth": report.girth,
        "moore_n0": report.moore_n0,
        "t_max": report.guaranteed_correction,
        "trapping_set_size": report.trapping_set_size,
        "hypothesis_ok": report.hypothesis_ok,
    }, 0


def _girth_cmd(tr, a):
    t = _load_code(tr, a["code"])
    g = _girth(tr, t)
    return {"n": t.n, "m": t.m, "gamma": t.gamma, "rho": t.rho, "girth": g}, 0


def _verify_expansion(tr, a):
    from ldpcbounds import verify_main_theorem

    t = _load_code(tr, a["code"])
    with tr.span("analysis.verify_main_theorem") as attrs:
        cert = verify_main_theorem(t)
    attrs["subsets"] = cert.subsets_checked
    return cert, 0 if cert.passed else 1


def _verify_correction(tr, a):
    from ldpcbounds import sweep_error_patterns

    t = _load_code(tr, a["code"])
    algos = ["parallel", "serial"] if a["algo"] == "both" else [a["algo"]]
    sweeps = []
    for algo in algos:
        with tr.span("decoder.sweep_error_patterns", algo=algo) as attrs:
            s = sweep_error_patterns(t, a["weight"], algo, None)
        attrs["patterns"] = s.patterns_checked
        attrs["failures"] = len(s.failures)
        sweeps.append(s)
    result = {
        "weight": a["weight"],
        "sweeps": {
            s.algorithm: {
                "patterns_checked": s.patterns_checked,
                "failures": s.failures,
                "all_corrected": s.all_corrected,
            }
            for s in sweeps
        },
    }
    return result, 0 if all(s.all_corrected for s in sweeps) else 1


def _find_trapping_sets(tr, a):
    from ldpcbounds import search_min_trapping_set

    t = _load_code(tr, a["code"])
    potential = bool(a.get("potential_only"))
    with tr.span("analysis.search_min_trapping_set") as attrs:
        res = search_min_trapping_set(t, a["max_size"], potential_only=potential)
    attrs["subsets"] = res.subsets_visited
    return res, 0 if res.found else 1


def _make_gadget(tr, a):
    from ldpcbounds import build_gadget

    with tr.span("cages.build_gadget"):
        gadget = build_gadget(a["gamma"], a["gprime"])
    _write(tr, gadget.graph, a["out"])
    return {
        "a": gadget.a,
        "b": gadget.b,
        "subset": gadget.subset,
        "n": gadget.graph.n,
        "m": gadget.graph.m,
        "girth": _girth(tr, gadget.graph),
        "out": {"path": a["out"], "sha256": _sha256(a["out"])},
    }, 0


def _cage(tr, a):
    from ldpcbounds import CageEntry, cage

    with tr.span("cages.cage"):
        entry = cage(a["d"], a["g"])
    if not isinstance(entry, CageEntry):
        return {"known": False, "d": entry.d, "g": entry.g,
                "order_interval": [entry.lower, entry.upper]}, 1
    return {
        "known": True,
        "d": entry.d,
        "g": entry.g,
        "order": entry.order,
        "certified": entry.certified,
        "edges": entry.graph.edge_count,
    }, 0


def _gen(tr, a):
    from ldpcbounds import generate_code

    with tr.span("codegen.generate_code"):
        t = generate_code(a["n"], a["gamma"], a["rho"], a["min_girth"], a["seed"])
    _write(tr, t, a["out"])
    result = {
        "n": t.n,
        "m": t.m,
        "gamma": t.gamma,
        "rho": t.rho,
        "girth": _girth(tr, t),
        "out": {"path": a["out"], "sha256": _sha256(a["out"])},
    }
    _girth(tr, t)  # the CLI computes girth a second time for its stderr summary
    return result, 0


# --- library steps without a subcommand -------------------------------------


def _trapping_iff(tr, a):
    """Structural trapping classification against the decoder's fixed points.

    These are the two halves of ``trapping_matches_decoder``, called
    separately so each gets its own span and the trapping subsets can be
    reported for the gate to re-check.
    """
    from itertools import combinations

    from ldpcbounds import ErrorPattern, classify_subset, is_fixed_point

    t = _read(tr, a["code"])
    subsets = [s for k in range(1, a["max_size"] + 1) for s in combinations(range(t.n), k)]
    with tr.span("analysis.classify_subset", calls=len(subsets)):
        structural = [classify_subset(t, s).is_trapping for s in subsets]
    with tr.span("decoder.is_fixed_point", calls=len(subsets)):
        behavioral = [is_fixed_point(t, ErrorPattern(t.n, s)) for s in subsets]
    return {
        "subsets_checked": len(subsets),
        "mismatches": [s for s, x, y in zip(subsets, structural, behavioral) if x != y],
        "trapping": [s for s, x in zip(subsets, structural) if x],
    }, 0


def _lemmas(tr, a):
    """Girth, the extremal table f(k, girth/2) for k <= 8, then sampled lemma checks."""
    import random

    from ldpcbounds import brute_force_f, check_lemmas

    out = []
    for path in a["codes"]:
        t = _read(tr, path)
        g = _girth(tr, t)
        with tr.span("bounds.brute_force_f"):
            table = [brute_force_f(k, g // 2) for k in range(1, 9)]
        rng = random.Random(f"{a['seed']}/{path}")
        subsets = [sorted(rng.sample(range(t.n), k))
                   for k in range(1, 9) for _ in range(a["per_size"])]
        with tr.span("analysis.check_lemmas", calls=len(subsets)):
            checks = [check_lemmas(t, s) for s in subsets]
        out.append({"code": path, "girth": g, "f": table,
                    "subsets": subsets, "checks": checks})
    return {"codes": out}, 0


def _cage_incidence(tr, a):
    """Edge-vertex incidence of the (d, g) catalog cage: Tanner girth 2g."""
    from ldpcbounds import cage, edge_vertex_incidence

    with tr.span("cages.cage"):
        entry = cage(a["d"], a["g"])
    with tr.span("transforms.edge_vertex_incidence"):
        t = edge_vertex_incidence(entry.graph)
    _write(tr, t, a["out"])
    return {"n": t.n, "m": t.m, "gamma": t.gamma, "out": {"path": a["out"]}}, 0


def _decode_sample(tr, a):
    """Decode a seeded sample of patterns one call each, per schedule."""
    import random

    from ldpcbounds import ErrorPattern, decode_parallel, decode_serial

    t = _read(tr, a["code"])
    rng = random.Random(a["seed"])
    supports = [tuple(sorted(rng.sample(range(t.n), a["weight"])))
                for _ in range(a["samples"])]
    out = {}
    for algo, decode in (("parallel", decode_parallel), ("serial", decode_serial)):
        runs = []
        for s in supports:
            e = ErrorPattern(t.n, s)
            with tr.span("decoder.decode", algo=algo):
                r = decode(t, e)
            runs.append([r.status.value, r.rounds])
        out[algo] = runs
    return {"supports": supports, "runs": out}, 0


COMMANDS = {
    "bounds": _bounds,
    "girth": _girth_cmd,
    "verify-expansion": _verify_expansion,
    "verify-correction": _verify_correction,
    "find-trapping-sets": _find_trapping_sets,
    "make-gadget": _make_gadget,
    "cage": _cage,
    "gen": _gen,
    "trapping-iff": _trapping_iff,
    "lemmas": _lemmas,
    "cage-incidence": _cage_incidence,
    "decode-sample": _decode_sample,
}


if __name__ == "__main__":
    sys.exit(_main())
