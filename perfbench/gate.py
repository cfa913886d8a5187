"""Correctness gate: checks each step's report and exit code against oracles.

The oracles are written here from the definitions and import nothing from
``ldpcbounds``: alist files are parsed afresh, girth comes from networkx
when it is installed and from a breadth-first search here otherwise, and
the bit-flipping decoders are re-implemented from their stated rules. A
sweep is checked by decoding every pattern again, so a single failure
missing from a report is caught.

Exit code 1 is a verified negative (a sweep with failures, a failed
certificate, no trapping set found). It is a failed op only when the report
does not say the same. The subset counters (``subsets_checked``,
``subsets_visited``) are reported as layer counts and never gated, because
enumerating only connected subsets is meant to change them.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import deque
from fractions import Fraction
from itertools import combinations

try:
    import networkx
except ImportError:  # the harness's own BFS takes over
    networkx = None

#: Maximum edge count of a k-node graph with no 3- or 4-cycle, k = 1..8 (OEIS A006855).
A006855 = (0, 1, 2, 3, 5, 6, 8, 10)

#: Orders of the cages the workloads use, from the literature.
CAGE_ORDERS = {(2, 4): 4, (3, 8): 30, (4, 5): 19}


class GateError(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise GateError(message)


# --- codes -------------------------------------------------------------------


class Code:
    """A Tanner graph parsed from an alist file, 0-based."""

    def __init__(self, path, data):
        self.sha256 = hashlib.sha256(data).hexdigest()
        rows = [[int(x) for x in line.split()] for line in data.decode("ascii").splitlines()]
        self.n, self.m = rows[0]
        self.var_adj = [[c - 1 for c in row if c] for row in rows[4:4 + self.n]]
        self.check_adj = [[v - 1 for v in row if v] for row in rows[4 + self.n:4 + self.n + self.m]]
        from_vars = {(v, c) for v in range(self.n) for c in self.var_adj[v]}
        from_checks = {(v, c) for c in range(self.m) for v in self.check_adj[c]}
        expect(from_vars == from_checks, f"{path}: adjacency blocks disagree")
        expect(len(from_vars) == sum(map(len, self.var_adj)), f"{path}: repeated edge")
        self.var_mask = [_mask(row) for row in self.var_adj]
        self.near_mask = [_mask({u for c in row for u in self.check_adj[c]})
                          for row in self.var_adj]
        self.half_degree = [len(row) // 2 for row in self.var_adj]
        self.gamma = _common({len(a) for a in self.var_adj})
        self.rho = _common({len(a) for a in self.check_adj})
        self._girth = None

    @property
    def girth(self):
        if self._girth is None:
            self._girth = _tanner_girth(self)
        return self._girth

    def neighbourhood(self, subset):
        """Induced degree of each check adjacent to the subset."""
        induced = {}
        for v in subset:
            for c in self.var_adj[v]:
                induced[c] = induced.get(c, 0) + 1
        return induced


def _common(degrees):
    return degrees.pop() if len(degrees) == 1 and 0 not in degrees else None


def _tanner_girth(code):
    n = code.n
    adj = [[n + c for c in row] for row in code.var_adj] + code.check_adj
    if networkx is not None:
        g = networkx.Graph()
        g.add_nodes_from(range(len(adj)))
        g.add_edges_from((u, w) for u in range(len(adj)) for w in adj[u] if u < w)
        return networkx.girth(g)
    best = math.inf
    for root in range(len(adj)):
        dist = {root: 0}
        parent = {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best:
                break
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def _json_girth(value):
    return math.inf if value == "infinite" else value


def _fraction(value):
    return Fraction(value) if isinstance(value, int) else Fraction(*map(int, value.split("/")))


def moore(d, g):
    """Moore bound: fewest nodes of a graph with average degree d and girth g."""
    d = Fraction(d)
    geometric = sum((d - 1) ** i for i in range(g // 2))
    return 1 + d * geometric if g % 2 else 2 * geometric


# --- reference bit-flipping decoders -------------------------------------------
#
# Patterns and syndromes are bitmasks (bit v set when variable v is in error,
# bit c when check c is unsatisfied). A variable flips when strictly more
# than half of its checks are unsatisfied; only a check next to an error can
# be unsatisfied, so only variables sharing a check with an error are
# examined.


def _lowest_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _syndrome(code, error):
    synd = 0
    for v in _lowest_bits(error):
        synd ^= code.var_mask[v]
    return synd


def _near(code, error):
    """Variables sharing a check with a variable of ``error``."""
    near = 0
    for v in _lowest_bits(error):
        near |= code.near_mask[v]
    return near


def reference_decode(code, error, schedule):
    """Status and rounds of bit flipping from the error bitmask ``error``.

    Parallel flips every qualifying variable at once per round. Serial scans
    variables in ascending order and updates the syndrome after each flip,
    one scan being one round: a variable above the current position that a
    flip brings next to an unsatisfied check is examined later in the same
    scan. The run stops at a round with no flip (fixed point), at the zero
    pattern (corrected), on revisiting a pattern (oscillation) or after n
    rounds (max_iters), tested in that order.
    """
    if not error:
        return "corrected", 0
    var_mask, near_mask, half = code.var_mask, code.near_mask, code.half_degree
    synd = _syndrome(code, error)
    seen = {error}
    rounds = 0
    while True:
        rounds += 1
        flipped = 0
        pending = _near(code, error)
        if schedule == "parallel":
            toggled = 0
            while pending:
                low = pending & -pending
                pending ^= low
                v = low.bit_length() - 1
                if (var_mask[v] & synd).bit_count() > half[v]:
                    flipped |= low
                    toggled ^= var_mask[v]
            synd ^= toggled
        else:
            while pending:
                low = pending & -pending
                pending ^= low
                v = low.bit_length() - 1
                if (var_mask[v] & synd).bit_count() > half[v]:
                    flipped |= low
                    synd ^= var_mask[v]
                    pending |= near_mask[v] & ~((low << 1) - 1)
        error ^= flipped
        if not flipped:
            return "fixed_point", rounds
        if not error:
            return "corrected", rounds
        if error in seen:
            return "oscillation", rounds
        seen.add(error)
        if rounds >= max(code.n, 1):
            return "max_iters", rounds


def one_round_flips(code, subset):
    """Variables one parallel round flips from the subset's indicator pattern."""
    error = _mask(subset)
    synd = _syndrome(code, error)
    return [v for v in _lowest_bits(_near(code, error))
            if (code.var_mask[v] & synd).bit_count() > code.half_degree[v]]


def traps(code, subset, potential):
    """Whether one round from the subset's indicator pattern keeps it (potential) trapped."""
    flips = set(one_round_flips(code, subset))
    return not flips & set(subset) if potential else not flips


def reference_min_trapping_size(code, max_size, potential):
    """Fewest variables of a (potential) trapping set, or None above ``max_size``.

    Each connected part of a (potential) trapping set, variables joined by
    a shared check, is one as well: a check's induced degree comes from one
    part, and dropping a part only lowers the count of unsatisfied checks
    of any variable. A smallest one is therefore connected, and growing
    connected subsets one neighbour at a time finds it.
    """
    level = {frozenset()}
    for k in range(1, max_size + 1):
        level = ({frozenset([v]) for v in range(code.n)} if k == 1 else
                 {s | {u} for s in level for u in _lowest_bits(_near(code, _mask(s)) & ~_mask(s))})
        if any(traps(code, sorted(s), potential) for s in level):
            return k
    return None


def _mask(subset):
    """Bitmask of a set of distinct indices."""
    return sum(1 << v for v in subset)


# --- the gate ------------------------------------------------------------------


class Gate:
    """Checks step reports; parsed codes are cached by content for one run."""

    def __init__(self, seed):
        self.seed = seed
        self._codes = {}

    def code(self, path):
        with open(path, "rb") as fh:
            data = fh.read()
        if data not in self._codes:
            self._codes[data] = Code(path, data)
        return self._codes[data]

    def check(self, step, exit_code, result):
        """Return None when the step's outcome is verified, else the reason it is not."""
        try:
            expect(exit_code in (0, 1), f"exit code {exit_code}")
            expect(isinstance(result, dict), "no report on stdout")
            code = CHECKS[step["cmd"]](self, step["args"], result)
            expect(exit_code == code, f"exit code {exit_code}, report implies {code}")
        except GateError as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
            return f"malformed report: {exc!r}"
        return None


def _check_code_file(gate, path, sha256=None):
    code = gate.code(path)
    if sha256 is not None:
        expect(code.sha256 == sha256, f"{path}: sha256 differs from the report")
    return code


def _check_gen(gate, a, r):
    code = _check_code_file(gate, a["out"], r["out"]["sha256"])
    expect((code.n, code.m) == (a["n"], a["n"] * a["gamma"] // a["rho"]), "wrong size")
    expect((code.gamma, code.rho) == (a["gamma"], a["rho"]), "code is not (gamma, rho)-regular")
    expect([r["n"], r["m"], r["gamma"], r["rho"]] == [code.n, code.m, code.gamma, code.rho],
           "reported sizes differ from the file")
    expect(code.girth >= a["min_girth"], f"girth {code.girth} below {a['min_girth']}")
    expect(_json_girth(r["girth"]) == code.girth, f"reported girth {r['girth']} != {code.girth}")
    return 0


def _check_girth(gate, a, r):
    code = _check_code_file(gate, a["code"])
    expect([r["n"], r["m"], r["gamma"], r["rho"]] == [code.n, code.m, code.gamma, code.rho],
           "reported sizes differ from the file")
    expect(_json_girth(r["girth"]) == code.girth, f"reported girth {r['girth']} != {code.girth}")
    return 0


def _check_bounds(gate, a, r):
    gamma, girth = a["gamma"], a["girth"]
    n0 = moore(Fraction(gamma, 2), girth // 2)
    expect(_fraction(r["moore_n0"]) == n0, "moore_n0")
    expect(r["t_max"] == math.ceil(n0 / 2) - 1, "t_max")
    d = (gamma + 1) // 2
    size = r["trapping_set_size"]
    expect(size["lower"] == math.ceil(moore(d, girth // 2)), "trapping-set lower bound")
    expect(size["exact"] == CAGE_ORDERS.get((d, girth // 2), size["exact"]), "cage order")
    expect(size["upper"] >= size["lower"], "empty trapping-set bracket")
    expect(r["hypothesis_ok"] == (gamma >= 4), "hypothesis_ok")
    return 0


def _check_cage(gate, a, r):
    order = CAGE_ORDERS[(a["d"], a["g"])]
    expect(r["known"] and r["certified"], "catalog cage not certified")
    expect((r["d"], r["g"], r["order"]) == (a["d"], a["g"], order), "cage order")
    expect(r["edges"] * 2 == a["d"] * order, "a regular graph has d * order / 2 edges")
    return 0


def _check_make_gadget(gate, a, r):
    code = _check_code_file(gate, a["out"], r["out"]["sha256"])
    order = CAGE_ORDERS[((a["gamma"] + 1) // 2, a["gprime"])]
    expect(r["subset"] == list(range(order)) and r["a"] == order, "gadget subset is not the cage")
    expect((r["n"], r["m"]) == (code.n, code.m) and code.n == order, "gadget size")
    expect(code.gamma == a["gamma"], "gadget is not gamma-regular on the left")
    expect(code.girth == 2 * a["gprime"] == _json_girth(r["girth"]), "gadget girth")
    odd = sum(1 for d in code.neighbourhood(r["subset"]).values() if d % 2)
    expect(r["b"] == odd, f"b = {r['b']}, {odd} odd checks")
    expect(traps(code, r["subset"], potential=True), "a gadget variable flips in one round")
    return 0


def _check_verify_expansion(gate, a, r):
    code = _check_code_file(gate, a["code"])
    expect(r["gamma"] == code.gamma and r["girth"] == code.girth, "gamma or girth")
    threshold = Fraction(3 * code.gamma, 4)
    expect(_fraction(r["threshold"]) == threshold, "threshold is not 3 gamma / 4")
    expect(r["k_max_required"] == math.ceil(moore(Fraction(code.gamma, 2), code.girth // 2)) - 1,
           "k_max_required")
    expect(r["complete"] and r["k_max_checked"] == min(r["k_max_required"], code.n),
           "certificate is incomplete")
    worst = r["worst_subset"]
    expect(worst == sorted(set(worst)) and 1 <= len(worst) <= r["k_max_checked"], "worst subset")
    ratio = Fraction(len(code.neighbourhood(worst)), len(worst))
    expect(_fraction(r["worst_expansion"]) == ratio,
           f"worst ratio {r['worst_expansion']} but |N(S)|/|S| = {ratio}")
    expect(r["passed"] == (ratio > threshold), "passed disagrees with worst > 3 gamma / 4")
    return 0 if r["passed"] else 1


def _check_verify_correction(gate, a, r):
    """Decode every pattern of the weight with the reference decoders."""
    code = _check_code_file(gate, a["code"])
    weight = a["weight"]
    expect(r["weight"] == weight, "weight")
    total = math.comb(code.n, weight)
    schedules = ["parallel", "serial"] if a["algo"] == "both" else [a["algo"]]
    expect(sorted(r["sweeps"]) == sorted(schedules), "schedules")
    ok = True
    for schedule in schedules:
        sweep = r["sweeps"][schedule]
        expect(sweep["patterns_checked"] == total, f"{schedule}: {total} patterns expected")
        expected = [list(s) for s in combinations(range(code.n), weight)
                    if reference_decode(code, _mask(s), schedule)[0] != "corrected"]
        want, got = set(map(tuple, expected)), set(map(tuple, sweep["failures"]))
        expect(want == got, f"{schedule}: failures not reported {sorted(want - got)[:3]}, "
               f"reported but corrected {sorted(got - want)[:3]}")
        expect(sweep["failures"] == expected, f"{schedule}: failures out of order")
        expect(sweep["all_corrected"] == (not expected), f"{schedule}: all_corrected")
        ok = ok and not expected
    return 0 if ok else 1


def _check_find_trapping_sets(gate, a, r):
    code = _check_code_file(gate, a["code"])
    potential = bool(a.get("potential_only"))
    expect(r["potential_only"] == potential and r["max_size"] == a["max_size"], "echoed arguments")
    lower = math.ceil(moore((code.gamma + 1) // 2, code.girth // 2))
    found = r["found"]
    if found is None:
        expect(r["complete"] and r["sizes_completed"] == min(a["max_size"], code.n),
               "search stopped early without a result")
        _expect_none_below(code, a["max_size"] + 1, lower, potential)
        return 1
    subset = found["subset"]
    k = len(subset)
    expect(subset == sorted(set(subset)) and 1 <= k <= a["max_size"], "found subset")
    expect(k >= lower, f"found size {k} below the Moore bound {lower}")
    expect(r["sizes_completed"] == k - 1, "a smaller size was not completed")
    odd = sum(1 for d in code.neighbourhood(subset).values() if d % 2)
    expect(found["signature"] == [k, odd], "signature")
    expect(traps(code, subset, potential),
           f"{subset} is not a {'potential ' * potential}trapping set: round one flips "
           f"{one_round_flips(code, subset)[:5]}")
    _expect_none_below(code, k, lower, potential)
    return 0


def _expect_none_below(code, size, lower, potential):
    """No (potential) trapping set has fewer than ``size`` variables.

    Below the Moore bound this holds by the theorem; above it the reference
    search decides.
    """
    if size <= lower:
        return
    k = reference_min_trapping_size(code, size - 1, potential)
    expect(k is None, f"the reference search finds a trapping set of size {k}, "
           f"but the report has none below {size}")


def _check_trapping_iff(gate, a, r):
    code = _check_code_file(gate, a["code"])
    subsets = [s for k in range(1, a["max_size"] + 1) for s in combinations(range(code.n), k)]
    expect(r["subsets_checked"] == len(subsets), "not every subset was checked")
    expect(r["mismatches"] == [], f"structure and decoder disagree on {r['mismatches'][:3]}")
    trapping = [tuple(s) for s in r["trapping"]]
    for s in trapping:
        expect(not one_round_flips(code, s), f"{list(s)} is reported trapping but is not fixed")
    rest = sorted(set(subsets) - set(trapping))
    for s in random.Random(f"{gate.seed}/iff").sample(rest, min(300, len(rest))):
        expect(one_round_flips(code, s), f"{list(s)} is a fixed point but not reported trapping")
    return 0


def _check_lemmas(gate, a, r):
    expect([c["code"] for c in r["codes"]] == a["codes"], "codes")
    for entry in r["codes"]:
        code = _check_code_file(gate, entry["code"])
        expect(entry["girth"] == code.girth, "girth")
        pinned = {4: [k * k // 4 for k in range(1, 9)], 5: list(A006855)}
        expect(entry["f"] == pinned.get(code.girth // 2), f"f(k, {code.girth // 2}) = {entry['f']}")
        expect(len(entry["subsets"]) == 8 * a["per_size"], "sample size")
        for s, check in zip(entry["subsets"], entry["checks"]):
            k = len(s)
            f = entry["f"][k - 1]
            induced = code.neighbourhood(s)
            edge_r = sum(d for d in induced.values() if d >= 2)
            expect([check["subset_size"], check["f_value"], check["edge_r"], check["check_count"]]
                   == [k, f, edge_r, len(induced)], f"lemma counts for {s}")
            expect(check["lemma1_ok"] and edge_r <= 2 * f, f"lemma 1 fails on {s}")
            expect(check["lemma2_ok"] and len(induced) >= code.gamma * k - f,
                   f"lemma 2 fails on {s}")
    return 0


def _check_cage_incidence(gate, a, r):
    code = _check_code_file(gate, a["out"])
    order = CAGE_ORDERS[(a["d"], a["g"])]
    expect((code.n, code.m) == (order, a["d"] * order // 2), "incidence size")
    expect((code.gamma, code.rho) == (a["d"], 2), "incidence degrees")
    expect(code.girth == 2 * a["g"], f"incidence girth {code.girth}")
    return 0


def _check_decode_sample(gate, a, r):
    code = _check_code_file(gate, a["code"])
    for schedule, runs in r["runs"].items():
        for s, (status, rounds) in zip(r["supports"], runs):
            expect(reference_decode(code, _mask(s), schedule) == (status, rounds),
                   f"{schedule} decode of {s}")
    return 0


CHECKS = {
    "gen": _check_gen,
    "girth": _check_girth,
    "bounds": _check_bounds,
    "cage": _check_cage,
    "make-gadget": _check_make_gadget,
    "verify-expansion": _check_verify_expansion,
    "verify-correction": _check_verify_correction,
    "find-trapping-sets": _check_find_trapping_sets,
    "trapping-iff": _check_trapping_iff,
    "lemmas": _check_lemmas,
    "cage-incidence": _check_cage_incidence,
    "decode-sample": _check_decode_sample,
}
