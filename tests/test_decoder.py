"""Parallel and serial bit flipping: statuses, round counts, flip traces."""

import random
from collections import Counter
from functools import cached_property
from itertools import combinations

import pytest

from helpers import reference_sweep
from ldpcbounds import (
    DecodeStatus,
    ErrorPattern,
    TannerGraph,
    build_tanner_graph,
    decode_parallel,
    decode_serial,
    edge_vertex_incidence,
    girth,
    guaranteed_correction_count,
    is_fixed_point,
    parallel_round,
    sweep_error_patterns,
    unsatisfied_checks,
)
from ldpcbounds.cages import build_gadget, cage


@pytest.fixture()
def two_by_two():
    # both variables sit in both checks; weight-1 inputs oscillate under
    # parallel flipping and correct under serial
    return build_tanner_graph([(0, 0), (0, 1), (1, 0), (1, 1)])


def test_error_pattern_normalises_support():
    e = ErrorPattern(5, (3, 1, 3))
    assert e.support == (1, 3)
    assert e.weight == 2
    assert e.bits() == (0, 1, 0, 1, 0)
    assert ErrorPattern.from_bits([0, 1, 0, 1, 0]) == e


def test_error_pattern_validation():
    with pytest.raises(ValueError, match="out of range"):
        ErrorPattern(3, (3,))
    with pytest.raises(ValueError, match="out of range"):
        ErrorPattern(3, (-1,))
    with pytest.raises(ValueError, match="nonnegative"):
        ErrorPattern(-1, ())


def test_error_pattern_flip_is_xor():
    e = ErrorPattern(6, (0, 2))
    assert e.flip((2, 5)).support == (0, 5)
    assert e.flip(e.support).weight == 0
    assert e.flip((1,)).flip((1,)) == e


def test_unsatisfied_checks_frozen(eight_cycle_code):
    t = eight_cycle_code
    assert unsatisfied_checks(t, ErrorPattern(4, (0,))) == {0, 3}
    assert unsatisfied_checks(t, ErrorPattern(4, (0, 1))) == {1, 3}
    assert unsatisfied_checks(t, ErrorPattern(4, ())) == frozenset()
    # the all-ones word satisfies every degree-2 check
    assert unsatisfied_checks(t, ErrorPattern(4, (0, 1, 2, 3))) == frozenset()


def test_pattern_length_must_match(eight_cycle_code):
    with pytest.raises(ValueError, match="length 5"):
        unsatisfied_checks(eight_cycle_code, ErrorPattern(5, (0,)))
    with pytest.raises(ValueError, match="length 5"):
        decode_parallel(eight_cycle_code, ErrorPattern(5, (0,)))


def test_zero_pattern_corrects_in_zero_rounds(code_g3_girth6_n12):
    for decode in (decode_parallel, decode_serial):
        r = decode(code_g3_girth6_n12, ErrorPattern(12, ()))
        assert r.status is DecodeStatus.CORRECTED
        assert r.rounds == 0
        assert r.flips_per_round == ()


def test_single_errors_correct_in_one_round(code_g3_girth6_n12, code_g3_girth8_n30):
    for t in (code_g3_girth6_n12, code_g3_girth8_n30):
        for v in range(t.n):
            for decode in (decode_parallel, decode_serial):
                r = decode(t, ErrorPattern(t.n, (v,)))
                assert r.status is DecodeStatus.CORRECTED
                assert r.rounds == 1
                assert r.flips_per_round == ((v,),)
                assert r.final.weight == 0


def test_parallel_oscillation(two_by_two):
    r = decode_parallel(two_by_two, ErrorPattern(2, (0,)))
    assert r.status is DecodeStatus.OSCILLATION
    assert r.rounds == 2
    assert r.flips_per_round == ((0, 1), (0, 1))
    assert r.final.support == (0,)


def test_serial_corrects_where_parallel_oscillates(two_by_two):
    r = decode_serial(two_by_two, ErrorPattern(2, (0,)))
    assert r.status is DecodeStatus.CORRECTED
    assert r.rounds == 1
    assert r.flips_per_round == ((0,),)


def test_serial_scan_order_changes_outcome(two_by_two):
    # scanning variable 1 first flips it onto the other codeword
    r = decode_serial(two_by_two, ErrorPattern(2, (0,)), order=[1, 0])
    assert r.status is DecodeStatus.FIXED_POINT
    assert r.final.support == (0, 1)
    assert r.rounds == 2
    with pytest.raises(ValueError, match="permutation"):
        decode_serial(two_by_two, ErrorPattern(2, (0,)), order=[0])


def test_serial_scan_order_may_be_an_iterator(code_g3_girth8_n30):
    # the order is read once, so a generator must drive every scan
    t = code_g3_girth8_n30
    e = ErrorPattern(t.n, (4,))
    r = decode_serial(t, e, order=(v for v in range(t.n)))
    assert r == decode_serial(t, e)
    assert r.status is DecodeStatus.CORRECTED


def test_serial_flip_makes_a_later_variable_qualify_in_the_same_scan():
    # variable 0 is not in error but sees errors 1 and 2 through checks 0 and 1;
    # its flip leaves check 2 unsatisfied, so variable 3, which shares no check
    # with an error, flips later in the same scan
    t = build_tanner_graph([(0, 0), (1, 0), (0, 1), (2, 1), (0, 2), (3, 2)])
    r = decode_serial(t, ErrorPattern(4, (1, 2)))
    assert r.flips_per_round == ((0, 3), ())
    assert r.status is DecodeStatus.FIXED_POINT
    assert r.final.support == (0, 1, 2, 3)
    # scanned before variable 0, variable 3 waits for the next scan
    r = decode_serial(t, ErrorPattern(4, (1, 2)), order=[3, 0, 1, 2])
    assert r.flips_per_round == ((0,), (3,), ())


def test_max_iters_cutoff(two_by_two):
    r = decode_parallel(two_by_two, ErrorPattern(2, (0,)), max_iters=1)
    assert r.status is DecodeStatus.MAX_ITERS
    assert r.rounds == 1
    with pytest.raises(ValueError, match="positive"):
        decode_parallel(two_by_two, ErrorPattern(2, (0,)), max_iters=0)


def test_rounds_equal_executed_scans(code_g4_girth6_n32):
    t = code_g4_girth6_n32
    for support in [(0,), (0, 1), (2, 17, 30)]:
        for decode in (decode_parallel, decode_serial):
            r = decode(t, ErrorPattern(t.n, support))
            assert len(r.flips_per_round) == r.rounds


def test_gadget_pattern_is_fixed_point_in_one_round():
    gadget = build_gadget(3, 4)
    t = gadget.graph
    e = ErrorPattern(t.n, gadget.subset)
    assert is_fixed_point(t, e)
    for decode in (decode_parallel, decode_serial):
        r = decode(t, e)
        assert r.status is DecodeStatus.FIXED_POINT
        assert r.rounds == 1
        assert r.final == e
        assert r.flips_per_round == ((),)


def test_even_degree_ties_do_not_flip():
    # every gadget variable sees exactly two unsatisfied and two satisfied
    # checks; a non-strict rule would flip them all
    gadget = build_gadget(4, 4)
    t = gadget.graph
    assert t.gamma == 4
    e = ErrorPattern(t.n, gadget.subset)
    nxt, flipped = parallel_round(t, e)
    assert flipped == ()
    assert nxt == e


def test_codeword_is_undetectable_fixed_point(eight_cycle_code):
    c = ErrorPattern(4, (0, 1, 2, 3))
    for decode in (decode_parallel, decode_serial):
        r = decode(eight_cycle_code, c)
        assert r.status is DecodeStatus.FIXED_POINT
        assert r.rounds == 1
        assert r.final == c


def test_trajectory_invariant_under_codeword_shift(eight_cycle_code):
    """Flip decisions depend on the syndrome only, so shifting the input by
    a codeword shifts every later state by the same codeword."""
    t = eight_cycle_code
    codeword = (0, 1, 2, 3)
    for w in (0, 1, 2):
        for support in combinations(range(4), w):
            e = ErrorPattern(4, support)
            shifted = e.flip(codeword)
            assert unsatisfied_checks(t, e) == unsatisfied_checks(t, shifted)
            assert parallel_round(t, e)[1] == parallel_round(t, shifted)[1]
            assert is_fixed_point(t, e) == is_fixed_point(t, shifted)


def test_sweep_counts_and_failures(code_g3_girth6_n12, two_by_two):
    t = code_g3_girth6_n12
    for algo in ("parallel", "serial"):
        s = sweep_error_patterns(t, 1, algo)
        assert s.patterns_checked == 12
        assert s.all_corrected
        assert s.failures == ()
    bad = sweep_error_patterns(two_by_two, 1, "parallel")
    assert bad.patterns_checked == 2
    assert bad.failures == ((0,), (1,))
    assert not bad.all_corrected


def test_sweep_validation(code_g3_girth6_n12):
    with pytest.raises(ValueError, match="unknown algorithm"):
        sweep_error_patterns(code_g3_girth6_n12, 1, "majority")
    with pytest.raises(ValueError, match="between 0 and 12"):
        sweep_error_patterns(code_g3_girth6_n12, 13)
    for weight in (0, 1):
        with pytest.raises(ValueError, match="positive"):
            sweep_error_patterns(code_g3_girth6_n12, weight, "serial", max_iters=0)


def test_sweep_weight_zero(code_g3_girth6_n12):
    s = sweep_error_patterns(code_g3_girth6_n12, 0)
    assert s.patterns_checked == 1
    assert s.all_corrected


def test_sweep_counters_on_two_by_two(two_by_two):
    def counts(corrected=0, fixed_point=0, oscillation=0, max_iters=0):
        return {"corrected": corrected, "fixed_point": fixed_point,
                "oscillation": oscillation, "max_iters": max_iters}

    rows = [
        ("parallel", 0, None, counts(corrected=1), {0: 1}),
        ("parallel", 1, None, counts(oscillation=2), {2: 2}),
        ("parallel", 1, 1, counts(max_iters=2), {1: 2}),
        ("parallel", 2, None, counts(fixed_point=1), {1: 1}),
        ("serial", 1, None, counts(corrected=1, fixed_point=1), {1: 1, 2: 1}),
        ("serial", 2, None, counts(fixed_point=1), {1: 1}),
    ]
    for algo, weight, max_iters, statuses, rounds in rows:
        s = sweep_error_patterns(two_by_two, weight, algo, max_iters)
        assert list(s.status_counts.items()) == list(statuses.items())
        assert s.rounds_histogram == rounds
        assert s in {s}  # the counters leave the result hashable


def test_sweep_counters_add_up(code_g4_girth6_n32, code_g3_girth8_n30):
    for t in (code_g4_girth6_n32, code_g3_girth8_n30):
        for algo in ("parallel", "serial"):
            for max_iters in (None, 1):
                s = sweep_error_patterns(t, 2, algo, max_iters)
                assert list(s.status_counts) == [status.value for status in DecodeStatus]
                assert sum(s.status_counts.values()) == s.patterns_checked
                assert sum(s.rounds_histogram.values()) == s.patterns_checked
                assert s.status_counts["corrected"] == s.patterns_checked - len(s.failures)
                assert list(s.rounds_histogram) == sorted(s.rounds_histogram)
                assert reference_sweep(t, 2, algo, max_iters) == (
                    s.patterns_checked, s.failures, s.status_counts, s.rounds_histogram)


def test_theorem_holds_where_t_max_is_2():
    # the (4,5) cage's edge-vertex incidence: gamma 4, Tanner girth 10
    t = edge_vertex_incidence(cage(4, 5).graph)
    assert (t.n, t.gamma, girth(t)) == (19, 4, 10)
    assert guaranteed_correction_count(t.gamma, girth(t)) == 2
    for algo in ("parallel", "serial"):
        for weight in (1, 2):
            s = sweep_error_patterns(t, weight, algo)
            assert s.all_corrected
            assert s.status_counts["corrected"] == s.patterns_checked
        # one past the guarantee, the sweep must still agree with the reference decoders
        s = sweep_error_patterns(t, 3, algo)
        checked, failures, _, _ = reference_sweep(t, 3, algo)
        assert (s.patterns_checked, s.failures) == (checked, failures)
        assert s.patterns_checked == 969


def test_gadget_sweep_at_t_max_is_pinned():
    # the (4,5)-cage gadget at gamma 8: n = 19, girth 10, t_max = 8; every
    # value below was taken from helpers.reference_sweep (about 9 s for the
    # four sweeps), the library's sweeps take well under a second each
    t = build_gadget(8, 5).graph
    assert (t.n, t.gamma, girth(t)) == (19, 8, 10)
    assert guaranteed_correction_count(t.gamma, girth(t)) == 8
    for algo, rounds, first, last in [
        ("parallel", {1: 68704, 2: 6878},
         (0, 1, 2, 3, 4, 5, 6, 10), (10, 12, 13, 14, 15, 16, 17, 18)),
        ("serial", {1: 75218, 2: 364},
         (0, 1, 2, 3, 4, 8, 12, 18), (0, 1, 8, 12, 15, 16, 17, 18)),
    ]:
        s = sweep_error_patterns(t, 8, algo)
        assert s.patterns_checked == 75582
        assert s.all_corrected
        assert s.rounds_histogram == rounds
        # with one round allowed, the patterns that needed two run out of rounds
        s = sweep_error_patterns(t, 8, algo, max_iters=1)
        assert s.status_counts == {"corrected": rounds[1], "fixed_point": 0,
                                   "oscillation": 0, "max_iters": rounds[2]}
        assert s.rounds_histogram == {1: 75582}
        assert (len(s.failures), s.failures[0], s.failures[-1]) == (rounds[2], first, last)


def test_single_decodes_build_the_graph_tables_once(monkeypatch):
    # the per-graph bitmask tables are cached on the graph, so a run of
    # single-pattern decodes builds them once
    builds = Counter()
    for name in ("var_masks", "var_reach"):
        build = TannerGraph.__dict__[name].func

        def counted(t, build=build, name=name):
            builds[name] += 1
            return build(t)

        prop = cached_property(counted)
        prop.__set_name__(TannerGraph, name)
        monkeypatch.setattr(TannerGraph, name, prop)
    t = build_tanner_graph([(v, c) for v in range(24) for c in (v % 8, 8 + v % 6, 14 + v % 5)])
    rng = random.Random(3)
    for _ in range(1000):
        decode_parallel(t, ErrorPattern(t.n, rng.sample(range(t.n), 2)))
    assert builds == {"var_masks": 1, "var_reach": 1}
