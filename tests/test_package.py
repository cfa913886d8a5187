"""The package namespace: every public name resolves, loaded on first access."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ldpcbounds

# dir(ldpcbounds) before its names were loaded lazily, less the module dunders
PUBLIC = [
    "AlistError", "BoundReport", "CageCertificate", "CageEntry", "CheckPartition",
    "DecodeResult", "DecodeStatus", "ErrorPattern", "ExpansionCertificate", "Gadget",
    "GenerationError", "Graph", "GraphError", "InverseIncidenceResult", "LemmaCheck",
    "SubsetReport", "SweepResult", "TannerGraph", "TrappingSearchResult",
    "TrappingSetSizeBound", "UnknownCage", "__version__", "alist", "analysis",
    "augmented_graph", "bound_report", "bounds", "brute_force_f", "build_gadget",
    "build_tanner_graph", "cage", "cage_upper_bound", "cages", "check_lemmas",
    "classify_subset", "codegen", "complete_graph", "cycle_graph", "decode_parallel",
    "decode_serial", "decoder", "edge_vertex_incidence", "embed_gadget", "expansion",
    "generate_code", "girth", "graphs", "guaranteed_correction_count",
    "induced_check_partition", "inverse_edge_vertex_incidence", "is_fixed_point",
    "is_potential_trapping_set", "is_trapping_set", "max_edges_girth_bound", "moore_bound",
    "parallel_round", "parse_alist", "read_alist", "reduced_graph",
    "search_min_trapping_set", "sweep_error_patterns", "theorem_hypothesis_ok",
    "to_alist_string", "transforms", "trapping_matches_decoder", "trapping_set_size_bound",
    "unsatisfied_checks", "verify_cage_candidate", "verify_main_theorem", "write_alist",
]
SUBMODULES = ["alist", "analysis", "bounds", "cages", "codegen", "decoder", "graphs",
              "transforms"]


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_resolves_to_its_submodule_object(name):
    value = getattr(ldpcbounds, name)
    assert name in dir(ldpcbounds)
    if name in SUBMODULES:
        assert value is importlib.import_module(f"ldpcbounds.{name}")
    elif name != "__version__":
        assert value is getattr(sys.modules[value.__module__], name)
        assert value.__module__.startswith("ldpcbounds.")


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from ldpcbounds import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == sorted(
        n for n in PUBLIC if not n.startswith("_"))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        ldpcbounds.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from ldpcbounds import no_such_name", {})


def test_importing_the_package_loads_no_submodule():
    src = Path(ldpcbounds.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    script = ("import sys, ldpcbounds; "
              "print(sorted(m for m in sys.modules if m.startswith('ldpcbounds')))")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "['ldpcbounds']"
