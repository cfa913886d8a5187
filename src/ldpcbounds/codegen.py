"""Random (gamma, rho)-regular Tanner graph generation with girth repair.

Construction is socket matching: gamma stubs per variable, rho per check,
shuffled and paired. Parallel edges are repaired by swapping stubs; short
cycles, found by ``graphs.short_cycle`` from each variable in turn, by
2-opt edge swaps. A swap is accepted only when both replacement edges
close no cycle below the target girth, so the number of offending cycles
never increases and the repair loop cannot regress. That check meets in
the middle: two breadth-first balls of half the radius, one around each
end of the edge. Everything is driven by one seeded generator, so output
is a deterministic function of the arguments.

Girth targets near the Moore limit for the chosen size are infeasible; the
generator gives up after a swap budget across a few restarts and, naming the
best girth it reached, suggests a larger n rather than spinning forever.
"""

from __future__ import annotations

import random
from itertools import chain

from .graphs import TannerGraph, build_tanner_graph, girth, short_cycle


class GenerationError(RuntimeError):
    """The swap budget ran out before the target girth was reached."""


def _layers(adj, src, side, avoid, radius):
    """Breadth-first layers around ``src`` out to ``radius``, without the edge to ``avoid``.

    ``adj`` is ``(var_adj, check_adj)`` and ``side`` is 0 when ``src`` is a
    variable, 1 when it is a check. Yields ``(side, layer)`` pairs; the graph
    is bipartite, so the layers alternate sides.
    """
    seen = (set(), set())
    seen[side].add(src)
    layer = [src]
    yield side, layer
    for depth in range(radius):
        nbrs = adj[side]
        side ^= 1
        mark = seen[side]
        nxt = []
        for u in layer:
            for w in nbrs[u]:
                if w not in mark and (depth or w != avoid):
                    mark.add(w)
                    nxt.append(w)
        layer = nxt
        yield side, layer


def _edge_cycle_ok(var_adj, check_adj, v, c, target):
    """True when edge (v, c) lies on no cycle shorter than target.

    Equivalent to: the distance from v to c avoiding the edge itself is at
    least target - 1. Decided by meeting in the middle: that distance is at
    most target - 2 iff some node lies within ``(target - 2) // 2`` of v and
    within the rest of ``target - 2`` of c (both without the edge), so the
    ball around v is built first and the ball around c grows until a layer
    meets it. Two half-radius balls cost far less than one of radius target - 2.
    """
    adj = (var_adj, check_adj)
    near_v = (target - 2) // 2
    ball = (set(), set())
    for side, layer in _layers(adj, v, 0, c, near_v):
        ball[side].update(layer)
    for side, layer in _layers(adj, c, 1, v, target - 2 - near_v):
        if not ball[side].isdisjoint(layer):
            return False
    return True


def _swap(var_adj, check_adj, v, c, v2, c2):
    """Replace edges (v, c) and (v2, c2) by (v, c2) and (v2, c); swapping c and c2 undoes it."""
    var_adj[v].discard(c)
    check_adj[c].discard(v)
    var_adj[v2].discard(c2)
    check_adj[c2].discard(v2)
    var_adj[v].add(c2)
    check_adj[c2].add(v)
    var_adj[v2].add(c)
    check_adj[c].add(v2)


def _try_repair(var_adj, check_adj, edge_list, n, target, rng, budget):
    """Swap edges until no short cycle remains; returns (success, attempts)."""
    attempts = 0
    start = 0
    while True:
        cycle = short_cycle(var_adj, check_adj, chain(range(start, n), range(start)), target)
        if cycle is None:
            return True, attempts
        start = cycle[0][0]
        rng.shuffle(cycle)
        fixed = False
        for v, c in cycle:
            for _ in range(120):
                if attempts >= budget:
                    return False, attempts
                attempts += 1
                v2, c2 = edge_list[rng.randrange(len(edge_list))]
                if v2 == v or c2 == c or c2 in var_adj[v] or c in var_adj[v2]:
                    continue
                _swap(var_adj, check_adj, v, c, v2, c2)
                if _edge_cycle_ok(var_adj, check_adj, v, c2, target) and _edge_cycle_ok(
                    var_adj, check_adj, v2, c, target
                ):
                    edge_list.remove((v, c))
                    edge_list.remove((v2, c2))
                    edge_list.append((v, c2))
                    edge_list.append((v2, c))
                    fixed = True
                    break
                _swap(var_adj, check_adj, v, c2, v2, c)
            if fixed:
                break
        if not fixed:
            return False, attempts


def generate_code(
    n: int,
    gamma: int,
    rho: int,
    min_girth: int,
    seed: int,
    swap_budget: int = 60_000,
    restarts: int = 64,
) -> TannerGraph:
    """Generate a random (gamma, rho)-regular Tanner graph of girth >= min_girth.

    ``n * gamma`` must be divisible by rho (the check count is
    ``n * gamma / rho``). Raises :class:`GenerationError` when the budget
    runs out, which at small n usually means the girth target is infeasible;
    its message names the swap attempts spent and the best girth reached.
    """
    if n < 1 or gamma < 1 or rho < 1:
        raise ValueError(f"n, gamma, rho must be positive, got {n}, {gamma}, {rho}")
    if (n * gamma) % rho != 0:
        raise ValueError(
            f"n * gamma = {n * gamma} is not divisible by rho = {rho}; "
            "no regular check side exists"
        )
    if min_girth % 2 != 0 or min_girth < 4:
        raise ValueError(f"min_girth must be an even integer >= 4, got {min_girth}")
    m = n * gamma // rho
    if rho > n or gamma > m:
        raise ValueError(
            f"degrees need rho <= n and gamma <= m for a simple graph, "
            f"got rho={rho}, n={n}, gamma={gamma}, m={m}"
        )
    rng = random.Random(seed)
    spent = 0
    # each failed repair's graph as the flat run of its variables' checks,
    # gamma per variable; their girths are needed only if every restart fails
    failed = []
    for _ in range(restarts):
        var_sockets = [v for v in range(n) for _ in range(gamma)]
        check_sockets = [c for c in range(m) for _ in range(rho)]
        rng.shuffle(check_sockets)
        for _ in range(500):
            seen = set()
            duplicate = None
            for idx in range(len(var_sockets)):
                e = (var_sockets[idx], check_sockets[idx])
                if e in seen:
                    duplicate = idx
                    break
                seen.add(e)
            if duplicate is None:
                break
            j = rng.randrange(len(check_sockets))
            check_sockets[duplicate], check_sockets[j] = (
                check_sockets[j],
                check_sockets[duplicate],
            )
        else:
            continue
        var_adj = [set() for _ in range(n)]
        check_adj = [set() for _ in range(m)]
        for v, c in zip(var_sockets, check_sockets):
            var_adj[v].add(c)
            check_adj[c].add(v)
        edge_list = list(zip(var_sockets, check_sockets))
        ok, attempts = _try_repair(
            var_adj, check_adj, edge_list, n, min_girth, rng, swap_budget - spent
        )
        spent += attempts
        if ok:
            t = build_tanner_graph(
                [(v, c) for v in range(n) for c in var_adj[v]], n=n, m=m
            )
            if t.gamma != gamma or t.rho != rho or girth(t) < min_girth:
                raise AssertionError("generator postcondition violated; repair logic bug")
            return t
        failed.append(tuple(c for checks in var_adj for c in checks))
        if spent >= swap_budget:
            break
    if failed:
        best = max(
            girth(build_tanner_graph([(i // gamma, c) for i, c in enumerate(checks)], n=n, m=m))
            for checks in failed
        )
        reached = f"best girth reached {best}"
    else:
        reached = "no simple socket matching found"
    raise GenerationError(
        f"girth {min_girth} not reached for n={n}, gamma={gamma}, rho={rho} "
        f"after {spent} swap attempts ({reached}); try a larger n"
    )
