"""Command-line surface: JSON reports to stdout, summaries to stderr.

Exit codes: 0 when the requested check passes or the requested object is
found, 1 on a verified failure (sweep failures, failed certificate, nothing
found, generation budget exhausted), 2 on usage or input errors. Reports
are bit-exact reproducible given identical inputs and seed. Rationals are
emitted as JSON integers when integral, else as "p/q" strings; an infinite
girth is the string "infinite".

Variable and check indices are 0-based everywhere in JSON, matching the
library; only alist files are 1-based.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__

# Each command imports the library modules it calls, so a process loads only
# what its subcommand runs (see the table in README.md).
if TYPE_CHECKING:
    from .graphs import Graph


def _jsonable(obj):
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


def _sha256(path: str) -> str:
    # imported here: loading hashlib (OpenSSL) costs a process about 2.4 MiB,
    # and the commands that hash no file never pay it
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def _emit(command: str, argv: list[str], result, inputs=None, seed=None, summary: str = ""):
    report = {"command": command, "argv": list(argv), "version": __version__}
    if inputs is not None:
        report["inputs"] = inputs
    if seed is not None:
        report["seed"] = seed
    report["result"] = result
    print(json.dumps(_jsonable(report), indent=2, sort_keys=True))
    if summary:
        print(summary, file=sys.stderr)


def _load_code(path: str):
    from .alist import read_alist

    t = read_alist(path)
    return t, {"code": {"path": path, "sha256": _sha256(path)}}


def to_dot(g: Graph, name: str = "G") -> str:
    """Graphviz DOT form of a simple graph."""
    lines = [f"graph {name} {{"]
    lines += [f"  {u};" for u in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in g.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_bounds(args, argv) -> int:
    from .bounds import bound_report

    report = bound_report(args.gamma, args.girth)
    result = {
        "gamma": report.gamma,
        "girth": report.girth,
        "moore_n0": report.moore_n0,
        "t_max": report.guaranteed_correction,
        "trapping_set_size": report.trapping_set_size,
        "hypothesis_ok": report.hypothesis_ok,
    }
    _emit(
        "bounds", argv, result,
        summary=f"gamma={report.gamma} girth={report.girth} "
        f"t_max={report.guaranteed_correction} hypothesis_ok={report.hypothesis_ok}",
    )
    return 0


def _cmd_girth(args, argv) -> int:
    from .graphs import girth

    t, inputs = _load_code(args.code)
    g = girth(t)
    result = {"n": t.n, "m": t.m, "gamma": t.gamma, "rho": t.rho, "girth": g}
    _emit("girth", argv, result, inputs=inputs, summary=f"girth={g} n={t.n} m={t.m}")
    return 0


def _parse_positions(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise ValueError(f"--errors expects comma-separated integers, got {text!r}") from None


def _cmd_decode(args, argv) -> int:
    from .decoder import ALGORITHMS, DecodeStatus, ErrorPattern

    t, inputs = _load_code(args.code)
    pattern = ErrorPattern(t.n, _parse_positions(args.errors))
    decode = ALGORITHMS[args.algo]
    res = decode(t, pattern, args.max_iters)
    result = {
        "algorithm": args.algo,
        "input_support": pattern.support,
        "status": res.status,
        "rounds": res.rounds,
        "flips_per_round": res.flips_per_round,
        "final_support": res.final.support,
    }
    _emit("decode", argv, result, inputs=inputs,
          summary=f"status={res.status.value} rounds={res.rounds}")
    return 0 if res.status is DecodeStatus.CORRECTED else 1


def _cmd_verify_expansion(args, argv) -> int:
    from .analysis import verify_main_theorem

    t, inputs = _load_code(args.code)
    cert = verify_main_theorem(t, budget=args.budget)
    _emit("verify-expansion", argv, cert, inputs=inputs,
          summary=f"passed={cert.passed} complete={cert.complete} "
          f"worst={cert.worst_expansion} over {cert.subsets_checked} subsets")
    return 0 if cert.passed else 1


def _cmd_verify_correction(args, argv) -> int:
    from .decoder import sweep_error_patterns

    t, inputs = _load_code(args.code)
    algos = ["parallel", "serial"] if args.algo == "both" else [args.algo]
    sweeps = [sweep_error_patterns(t, args.weight, a, args.max_iters) for a in algos]
    result = {
        "weight": args.weight,
        "sweeps": {
            s.algorithm: {
                "patterns_checked": s.patterns_checked,
                "failures": s.failures,
                "all_corrected": s.all_corrected,
            }
            for s in sweeps
        },
    }
    ok = all(s.all_corrected for s in sweeps)
    counters = "".join(
        f"\n{s.algorithm}: "
        + " ".join(f"{status}={k}" for status, k in s.status_counts.items())
        + " rounds " + " ".join(f"{r}:{k}" for r, k in s.rounds_histogram.items())
        for s in sweeps
    )
    _emit("verify-correction", argv, result, inputs=inputs,
          summary=f"weight={args.weight} all_corrected={ok} "
          f"patterns={sweeps[0].patterns_checked} per algorithm{counters}")
    return 0 if ok else 1


def _cmd_find_trapping_sets(args, argv) -> int:
    from .analysis import search_min_trapping_set

    t, inputs = _load_code(args.code)
    res = search_min_trapping_set(
        t, args.max_size, potential_only=args.potential_only, budget=args.budget
    )
    if res.found:
        summary = f"found size {len(res.found.subset)} subset {list(res.found.subset)}"
    else:
        summary = f"none up to size {res.sizes_completed} (complete={res.complete})"
    _emit("find-trapping-sets", argv, res, inputs=inputs, summary=summary)
    return 0 if res.found else 1


def _cmd_make_gadget(args, argv) -> int:
    from .alist import write_alist
    from .cages import build_gadget
    from .graphs import girth

    gadget = build_gadget(args.gamma, args.gprime)
    write_alist(gadget.graph, args.out)
    result = {
        "a": gadget.a,
        "b": gadget.b,
        "subset": gadget.subset,
        "n": gadget.graph.n,
        "m": gadget.graph.m,
        "girth": girth(gadget.graph),
        "out": {"path": args.out, "sha256": _sha256(args.out)},
    }
    _emit("make-gadget", argv, result,
          summary=f"gadget (a,b)=({gadget.a},{gadget.b}) written to {args.out}")
    return 0


def _cmd_cage(args, argv) -> int:
    from .cages import CageEntry, UnknownCage, cage

    entry = cage(args.d, args.g)
    if isinstance(entry, UnknownCage):
        _emit("cage", argv, {"known": False, "d": entry.d, "g": entry.g,
                             "order_interval": [entry.lower, entry.upper]},
              summary=f"({args.d},{args.g}) cage not in catalog; "
              f"order in [{entry.lower}, {entry.upper}]")
        return 1
    assert isinstance(entry, CageEntry)
    result = {
        "known": True,
        "d": entry.d,
        "g": entry.g,
        "order": entry.order,
        "certified": entry.certified,
        "edges": entry.graph.edge_count,
    }
    if args.dot:
        with open(args.dot, "w", encoding="ascii") as fh:
            fh.write(to_dot(entry.graph, name=f"cage_{entry.d}_{entry.g}"))
        result["dot"] = {"path": args.dot, "sha256": _sha256(args.dot)}
    _emit("cage", argv, result,
          summary=f"({entry.d},{entry.g}) cage: order {entry.order}, certified")
    return 0


def _cmd_gen(args, argv) -> int:
    from .alist import write_alist
    from .codegen import GenerationError, generate_code
    from .graphs import girth

    try:
        t = generate_code(args.n, args.gamma, args.rho, args.min_girth, args.seed)
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_alist(t, args.out)
    result = {
        "n": t.n,
        "m": t.m,
        "gamma": t.gamma,
        "rho": t.rho,
        "girth": girth(t),
        "out": {"path": args.out, "sha256": _sha256(args.out)},
    }
    _emit("gen", argv, result, seed=args.seed,
          summary=f"generated n={t.n} m={t.m} girth={girth(t)} to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldpcbounds",
        description="Bit-flipping correction guarantees and trapping-set analysis "
        "for left-regular LDPC codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="closed-form bounds for (gamma, girth)")
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--girth", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("girth", help="girth and degree profile of a code")
    p.add_argument("--code", required=True, help="alist file")
    p.set_defaults(func=_cmd_girth)

    p = sub.add_parser("decode", help="run one decoder on one error pattern")
    p.add_argument("--code", required=True)
    p.add_argument("--errors", required=True,
                   help="comma-separated 0-based error positions, e.g. 3,7,11")
    p.add_argument("--algo", choices=["parallel", "serial"], default="parallel")
    p.add_argument("--max-iters", type=int, default=None)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("verify-expansion",
                       help="exhaustive expansion certificate for all covered sizes")
    p.add_argument("--code", required=True)
    p.add_argument("--budget", type=int, default=2_000_000,
                   help="most connected subsets to check (variables linked by a "
                   "shared check); default %(default)s")
    p.set_defaults(func=_cmd_verify_expansion)

    p = sub.add_parser("verify-correction",
                       help="decode every error pattern of one weight")
    p.add_argument("--code", required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--algo", choices=["parallel", "serial", "both"], default="both")
    p.add_argument("--max-iters", type=int, default=None)
    p.set_defaults(func=_cmd_verify_correction)

    p = sub.add_parser("find-trapping-sets",
                       help="exhaustive search for a smallest (potential) trapping set")
    p.add_argument("--code", required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--potential-only", action="store_true")
    p.add_argument("--budget", type=int, default=5_000_000,
                   help="most connected subsets to visit (variables linked by a "
                   "shared check); default %(default)s")
    p.set_defaults(func=_cmd_find_trapping_sets)

    p = sub.add_parser("make-gadget", help="build the cage-based trapping gadget")
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--gprime", type=int, required=True)
    p.add_argument("--out", required=True, help="alist output path")
    p.set_defaults(func=_cmd_make_gadget)

    p = sub.add_parser("cage", help="catalog lookup with certificate")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--dot", default=None, help="write the graph in DOT form here")
    p.set_defaults(func=_cmd_cage)

    p = sub.add_parser("gen", help="random regular code with girth repair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--min-girth", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    # reports are exact, so lift the interpreter's int-to-str digit limit
    # while the command runs: moore_n0 at large girth has thousands of digits
    saved = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args, argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
