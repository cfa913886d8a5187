"""Guaranteed error correction of bit-flipping decoders on left-regular LDPC codes.

The package computes how many worst-case errors a (gamma, rho)-regular LDPC
code of known girth is guaranteed to correct under parallel or serial
bit-flipping, brackets the size of the smallest trapping sets, and verifies
both constructively: exhaustive expansion and decoding sweeps on one side,
an explicit cage-based trapping gadget on the other.

The public names, and the submodules themselves, are loaded on first access
(PEP 562), so a process pays only for the submodules it uses.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "alist": ("AlistError", "parse_alist", "read_alist", "to_alist_string", "write_alist"),
    "analysis": (
        "ExpansionCertificate", "LemmaCheck", "SubsetReport", "TrappingSearchResult",
        "check_lemmas", "classify_subset", "expansion", "is_potential_trapping_set",
        "is_trapping_set", "search_min_trapping_set", "trapping_matches_decoder",
        "verify_main_theorem",
    ),
    "bounds": (
        "BoundReport", "TrappingSetSizeBound", "bound_report", "brute_force_f",
        "cage_upper_bound", "guaranteed_correction_count", "max_edges_girth_bound",
        "moore_bound", "theorem_hypothesis_ok", "trapping_set_size_bound",
    ),
    "cages": (
        "CageCertificate", "CageEntry", "Gadget", "UnknownCage", "build_gadget", "cage",
        "embed_gadget", "verify_cage_candidate",
    ),
    "codegen": ("GenerationError", "generate_code"),
    "decoder": (
        "DecodeResult", "DecodeStatus", "ErrorPattern", "SweepResult", "decode_parallel",
        "decode_serial", "is_fixed_point", "parallel_round", "sweep_error_patterns",
        "unsatisfied_checks",
    ),
    "graphs": (
        "CheckPartition", "Graph", "GraphError", "TannerGraph", "build_tanner_graph",
        "complete_graph", "cycle_graph", "girth", "induced_check_partition",
    ),
    "transforms": (
        "InverseIncidenceResult", "augmented_graph", "edge_vertex_incidence",
        "inverse_edge_vertex_incidence", "reduced_graph",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SUBMODULE_OF, *_EXPORTS])


def __getattr__(name):
    sub = _SUBMODULE_OF.get(name, name)
    if sub not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a submodule binds it in this namespace; __import__, unlike
    # importlib.import_module, is reported by python -X importtime
    __import__(f"{__name__}.{sub}")
    if name != sub:
        globals()[name] = getattr(globals()[sub], name)
    return globals()[name]


def __dir__():
    return sorted(globals().keys() | set(__all__))
