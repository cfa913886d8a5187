"""Differential tests: the connected-subset searches and the capped extremal count
against the reference oracles in helpers.

The certificate runs on small conftest codes, cage incidences and gadgets,
with the default threshold and with thresholds that make it fail, and with
budgets one short of, equal to and one past its connected-subset count.
The trapping-set search runs on random Tanner graphs (isolated variables
and checks allowed), with both notions and ``max_size`` 1 to 4; its counter
must equal the number of connected subsets the walk hands out. Single
subset reports run on the same kind of graphs against
``helpers.reference_subset_report``.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
pytest.importorskip("networkx")

from helpers import (  # noqa: E402
    connected_subsets,
    random_tanner,
    reference_brute_force_f,
    reference_certificate,
    reference_subset_report,
    reference_trapping_search,
)
from ldpcbounds import (  # noqa: E402
    brute_force_f,
    classify_subset,
    edge_vertex_incidence,
    induced_check_partition,
    is_potential_trapping_set,
    search_min_trapping_set,
    verify_main_theorem,
)
from ldpcbounds.cages import build_gadget, cage  # noqa: E402


@pytest.fixture(scope="module")
def certificate_codes(code_g3_girth6_n12, code_g3_girth6_n24, code_g3_girth8_n30,
                      code_g4_girth6_n32, code_g3_girth8_n60, pendant_square_code):
    codes = [code_g3_girth6_n12, code_g3_girth6_n24, code_g3_girth8_n30,
             code_g4_girth6_n32, code_g3_girth8_n60, pendant_square_code]
    codes += [edge_vertex_incidence(cage(d, g).graph)
              for d, g in [(3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (4, 5)]]
    # gadgets: nearly every subset is connected, sizes up to 9 (and past n on K4)
    codes += [build_gadget(gamma, gprime).graph
              for gamma, gprime in [(4, 5), (5, 4), (5, 3), (6, 4), (6, 5)]]
    # each code with the connected subsets its certificate covers, sizes ascending
    out = []
    for t in codes:
        k_max = verify_main_theorem(t).k_max_checked
        out.append((t, [s for k in range(1, k_max + 1) for s in connected_subsets(t, k)]))
    return out


def _ratio(t, s):
    return Fraction(len({c for v in s for c in t.var_adj[v]}), len(s))


@hypothesis.settings(max_examples=100, database=None, deadline=None)
@hypothesis.given(data=st.data())
def test_certificate_matches_reference(certificate_codes, data):
    """At the default budget, and at one short of, equal to and one past the connected count.

    One short, the walk has visited every connected subset but one of the
    largest size: the certificate is the reference over the others, where
    the subset left out is unknown unless it was the worst.
    """
    t, connected = data.draw(st.sampled_from(certificate_codes))
    threshold = data.draw(st.one_of(
        st.none(), st.fractions(min_value=1, max_value=t.gamma + 1, max_denominator=12)))
    total = len(connected)
    budget = data.draw(st.sampled_from([None, total - 1, total, total + 1]))
    if budget is None:
        cert = verify_main_theorem(t, threshold=threshold)
    else:
        cert = verify_main_theorem(t, threshold=threshold, budget=budget)
    top = len(connected[-1])
    if budget == total - 1:
        assert (cert.subsets_checked, cert.k_max_checked, cert.complete) == (
            total - 1, top - 1, False)
        ranked = sorted(connected, key=lambda s: (_ratio(t, s), len(s), s))
        dropped = () if cert.worst_subset == ranked[0] else ranked[0]
        assert len(dropped) in (0, top)
        assert cert.worst_subset == (ranked[1] if dropped else ranked[0])
        assert cert.worst_expansion == _ratio(t, cert.worst_subset)
        assert cert.passed == all(
            _ratio(t, s) > cert.threshold for s in connected if s != dropped)
        return
    assert cert.complete and cert.k_max_checked == min(cert.k_max_required, t.n)
    assert cert.subsets_checked == total
    want = reference_certificate(t, cert.k_max_required, cert.threshold)
    assert (cert.worst_subset, cert.worst_expansion, cert.passed) == want
    # a threshold equal to the worst ratio fails: the inequality is strict
    edge = verify_main_theorem(t, threshold=cert.worst_expansion)
    assert (edge.worst_subset, edge.passed) == (cert.worst_subset, False)


@st.composite
def search_cases(draw):
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 8))
    edges = draw(st.integers(0, n * m))
    t = random_tanner(random.Random(draw(st.integers(0, 2**32 - 1))), n, m, edges)
    return t, draw(st.integers(1, 4)), draw(st.booleans())


@hypothesis.settings(max_examples=300, database=None, deadline=None)
@hypothesis.given(search_cases())
def test_search_matches_reference(case):
    t, max_size, potential_only = case
    res = search_min_trapping_set(t, max_size, potential_only=potential_only)
    subset, signature, sizes_completed = reference_trapping_search(t, max_size, potential_only)
    got = (res.found.subset, res.found.signature) if res.found else (None, None)
    assert got == (subset, signature)
    assert (res.sizes_completed, res.complete) == (sizes_completed, True)
    # every smaller size in full, then the hit's size up to the end of its block:
    # the subsets whose smallest member is at most the hit's
    visited = sum(len(connected_subsets(t, k)) for k in range(1, sizes_completed + 1))
    if subset is not None:
        visited += sum(1 for s in connected_subsets(t, len(subset)) if s[0] <= subset[0])
    assert res.subsets_visited == visited


@st.composite
def report_cases(draw):
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 9))
    # any edge count: uneven degrees, isolated variables and checks
    t = random_tanner(random.Random(draw(st.integers(0, 2**32 - 1))), n, m,
                      draw(st.integers(0, n * m)))
    subset = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    return t, subset


@hypothesis.settings(max_examples=400, database=None, deadline=None)
@hypothesis.given(report_cases())
def test_subset_report_matches_reference(case):
    t, subset = case
    report = classify_subset(t, subset)
    part = report.partition
    got = {
        "subset": report.subset,
        "partition": (part.even, part.odd, part.pendant, part.induced_edge_count),
        "expansion": report.expansion,
        "signature": report.signature,
        "condition_a": report.condition_a,
        "condition_b": report.condition_b,
        "condition_b_witness": report.condition_b_witness,
        "is_trapping": report.is_trapping,
    }
    assert got == reference_subset_report(t, subset)
    assert induced_check_partition(t, subset) == part
    assert is_potential_trapping_set(t, subset) == report.condition_a


def test_helpers_use_nothing_from_analysis():
    """The oracles in helpers import no name that ``ldpcbounds.analysis`` defines."""
    import ast
    from pathlib import Path

    import helpers
    import ldpcbounds.analysis as analysis

    tree = ast.parse(Path(helpers.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any("analysis" in alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert "analysis" not in (node.module or "")
            for alias in node.names:
                defined = getattr(analysis, alias.name, None)
                assert getattr(defined, "__module__", None) != analysis.__name__, alias.name


def test_brute_force_f_matches_reference():
    for g in range(3, 10):
        for k in range(1, 8):
            assert brute_force_f(k, g) == reference_brute_force_f(k, g), (k, g)
