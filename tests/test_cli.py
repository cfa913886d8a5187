"""End-to-end CLI behavior: JSON reports, summaries, exit codes."""

import importlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import reference_moore_bound
from ldpcbounds import build_tanner_graph, decoder, graphs
from ldpcbounds.alist import write_alist
from ldpcbounds.cli import _build_parser, main, to_dot


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


@pytest.fixture()
def small_code(tmp_path, capsys):
    path = tmp_path / "code.alist"
    code, report, _ = run_cli(
        capsys, "gen", "--n", "12", "--gamma", "3", "--rho", "4",
        "--min-girth", "6", "--seed", "1", "--out", str(path),
    )
    assert code == 0
    return path, report


def test_bounds_report_schema(capsys):
    code, report, err = run_cli(capsys, "bounds", "--gamma", "4", "--girth", "8")
    assert code == 0
    assert report["command"] == "bounds"
    assert report["argv"] == ["bounds", "--gamma", "4", "--girth", "8"]
    assert isinstance(report["version"], str)
    result = report["result"]
    assert result == {
        "gamma": 4,
        "girth": 8,
        "moore_n0": 4,
        "t_max": 1,
        "trapping_set_size": {"lower": 4, "upper": 4, "exact": 4},
        "hypothesis_ok": True,
    }
    assert "t_max=1" in err


def test_bounds_fractional_moore(capsys):
    code, report, _ = run_cli(capsys, "bounds", "--gamma", "5", "--girth", "10")
    assert code == 0
    assert report["result"]["moore_n0"] == "29/4"
    assert report["result"]["t_max"] == 3
    assert report["result"]["trapping_set_size"] == {
        "lower": 10, "upper": 20, "exact": 10,
    }


def test_bounds_input_error_exits_2(capsys):
    code, report, err = run_cli(capsys, "bounds", "--gamma", "2", "--girth", "8")
    assert code == 2
    assert report is None
    assert err.startswith("error:")


def test_usage_error_raises_system_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--gamma", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_gen_girth_decode_pipeline(small_code, capsys):
    path, gen_report = small_code
    assert gen_report["result"]["girth"] >= 6
    assert gen_report["seed"] == 1
    assert gen_report["result"]["out"]["path"] == str(path)
    assert len(gen_report["result"]["out"]["sha256"]) == 64

    code, report, _ = run_cli(capsys, "girth", "--code", str(path))
    assert code == 0
    assert report["result"] == {"n": 12, "m": 9, "gamma": 3, "rho": 4,
                                "girth": gen_report["result"]["girth"]}
    assert report["inputs"]["code"]["sha256"] == gen_report["result"]["out"]["sha256"]

    code, report, _ = run_cli(capsys, "decode", "--code", str(path), "--errors", "0")
    assert code == 0
    assert report["result"]["status"] == "corrected"
    assert report["result"]["rounds"] == 1
    assert report["result"]["flips_per_round"] == [[0]]

    code, report, _ = run_cli(capsys, "decode", "--code", str(path), "--errors", "")
    assert code == 0
    assert report["result"]["rounds"] == 0


def test_gen_computes_girth_once(tmp_path, capsys, monkeypatch):
    # the generator's postcondition, the report and the stderr summary all
    # need the girth; it is kept on the graph after the first search. The
    # girth repair's cycle scans call graphs.short_cycle directly, so only
    # girth searches pass through this seam
    searches = []
    bipartite_girth = graphs._bipartite_girth
    monkeypatch.setattr(graphs, "_bipartite_girth",
                        lambda near, far: searches.append(len(near) + len(far))
                        or bipartite_girth(near, far))
    code, report, err = run_cli(
        capsys, "gen", "--n", "12", "--gamma", "3", "--rho", "4",
        "--min-girth", "6", "--seed", "1", "--out", str(tmp_path / "code.alist"),
    )
    assert code == 0
    assert f"girth={report['result']['girth']}" in err
    assert searches == [12 + 9]


def test_decode_fixed_point_exits_1(tmp_path, capsys):
    gadget_path = tmp_path / "gadget.alist"
    code, report, _ = run_cli(
        capsys, "make-gadget", "--gamma", "3", "--gprime", "4",
        "--out", str(gadget_path),
    )
    assert code == 0
    assert report["result"]["a"] == 4 and report["result"]["b"] == 4
    assert report["result"]["girth"] == 8

    code, report, _ = run_cli(
        capsys, "decode", "--code", str(gadget_path), "--errors", "0,1,2,3",
    )
    assert code == 1
    assert report["result"]["status"] == "fixed_point"
    assert report["result"]["final_support"] == [0, 1, 2, 3]


def test_verify_correction_passes(small_code, capsys):
    path, _ = small_code
    code, report, err = run_cli(
        capsys, "verify-correction", "--code", str(path), "--weight", "1",
    )
    assert code == 0
    sweeps = report["result"]["sweeps"]
    assert set(sweeps) == {"parallel", "serial"}
    for sweep in sweeps.values():
        assert sweep["patterns_checked"] == 12
        assert sweep["all_corrected"] is True
        assert sweep["failures"] == []
    assert "all_corrected=True" in err
    for algo in ("parallel", "serial"):
        assert f"\n{algo}: corrected=12 fixed_point=0 oscillation=0 max_iters=0 rounds 1:12" in err


def test_verify_correction_failure_exits_1(tmp_path, capsys):
    bad = build_tanner_graph([(0, 0), (0, 1), (1, 0), (1, 1)])
    path = tmp_path / "bad.alist"
    write_alist(bad, path)
    code, report, err = run_cli(
        capsys, "verify-correction", "--code", str(path), "--weight", "1",
        "--algo", "parallel",
    )
    assert code == 1
    assert report["result"]["sweeps"]["parallel"]["failures"] == [[0], [1]]
    # the per-status and per-round counters go to stderr only
    assert err.splitlines()[1:] == [
        "parallel: corrected=0 fixed_point=0 oscillation=2 max_iters=0 rounds 2:2"
    ]


def test_verify_expansion(small_code, capsys):
    path, _ = small_code
    code, report, _ = run_cli(capsys, "verify-expansion", "--code", str(path))
    assert code == 0
    result = report["result"]
    assert result["passed"] is True and result["complete"] is True
    assert result["threshold"] == "9/4"
    assert result["worst_expansion"] == "5/2"
    # connected subsets: 12 singles and the 54 pairs that share a check
    assert result["subsets_checked"] == 66


def test_negative_budget_exits_2(small_code, capsys):
    path, _ = small_code
    code, report, err = run_cli(
        capsys, "verify-expansion", "--code", str(path), "--budget", "-1")
    assert (code, report) == (2, None)
    assert "budget must be nonnegative" in err
    code, report, err = run_cli(
        capsys, "find-trapping-sets", "--code", str(path), "--max-size", "3",
        "--budget", "-5")
    assert (code, report) == (2, None)
    assert "budget must be nonnegative" in err


def test_verify_expansion_rejects_low_girth(tmp_path, capsys):
    square = build_tanner_graph([(0, 0), (0, 1), (1, 0), (1, 1)])
    path = tmp_path / "square.alist"
    write_alist(square, path)
    code, report, err = run_cli(capsys, "verify-expansion", "--code", str(path))
    assert code == 2
    assert "girth" in err


def test_find_trapping_sets_none(small_code, capsys):
    path, _ = small_code
    code, report, err = run_cli(
        capsys, "find-trapping-sets", "--code", str(path), "--max-size", "3",
    )
    assert code == 1
    result = report["result"]
    assert result["found"] is None
    assert result["complete"] is True
    assert result["sizes_completed"] == 3
    assert "none up to size 3" in err


def test_find_trapping_sets_in_gadget(tmp_path, capsys):
    gadget_path = tmp_path / "gadget.alist"
    assert main(["make-gadget", "--gamma", "3", "--gprime", "4",
                 "--out", str(gadget_path)]) == 0
    capsys.readouterr()
    code, report, _ = run_cli(
        capsys, "find-trapping-sets", "--code", str(gadget_path), "--max-size", "4",
    )
    assert code == 0
    found = report["result"]["found"]
    assert found["subset"] == [0, 1, 2, 3]
    assert found["signature"] == [4, 4]
    assert found["is_trapping"] is True


def test_cage_known_with_dot_export(tmp_path, capsys):
    dot_path = tmp_path / "petersen.dot"
    code, report, _ = run_cli(
        capsys, "cage", "--d", "3", "--g", "5", "--dot", str(dot_path),
    )
    assert code == 0
    result = report["result"]
    assert result["known"] is True
    assert result["order"] == 10
    assert result["edges"] == 15
    assert result["certified"] is True
    text = dot_path.read_text()
    assert text.startswith("graph cage_3_5 {")
    assert text.count(" -- ") == 15


def test_cage_unknown_exits_1(capsys):
    code, report, err = run_cli(capsys, "cage", "--d", "5", "--g", "5")
    assert code == 1
    assert report["result"] == {"known": False, "d": 5, "g": 5,
                                "order_interval": [26, 128]}
    assert "[26, 128]" in err


def test_gen_infeasible_exits_1(tmp_path, capsys):
    code, report, err = run_cli(
        capsys, "gen", "--n", "12", "--gamma", "3", "--rho", "4",
        "--min-girth", "20", "--seed", "1", "--out", str(tmp_path / "x.alist"),
    )
    assert code == 1
    assert "try a larger n" in err


def test_missing_code_file_exits_2(tmp_path, capsys):
    code, report, err = run_cli(
        capsys, "girth", "--code", str(tmp_path / "missing.alist"),
    )
    assert code == 2
    assert "error:" in err


def test_malformed_alist_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.alist"
    path.write_text("4\n")
    code, _, err = run_cli(capsys, "girth", "--code", str(path))
    assert code == 2
    assert "line 1" in err


def test_bounds_at_large_girth_prints_exact_moore_count(capsys):
    # moore_n0 at gamma 3, girth 57200 is a fraction with 4,305-digit terms,
    # above Python's default int-to-str limit of 4,300 digits
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, report, _ = run_cli(capsys, "bounds", "--gamma", "3", "--girth", "57200")
    assert code == 0
    assert report["result"]["t_max"] == 1
    if limit is None:
        moore_n0 = Fraction(report["result"]["moore_n0"])
    else:
        assert sys.get_int_max_str_digits() == limit  # main restores the limit
        sys.set_int_max_str_digits(0)
        try:
            moore_n0 = Fraction(report["result"]["moore_n0"])
        finally:
            sys.set_int_max_str_digits(limit)
    assert moore_n0 == reference_moore_bound(Fraction(3, 2), 28600)


def test_decode_algo_choices_are_the_decoders():
    subcommands = _build_parser()._subparsers._group_actions[0].choices
    algo = subcommands["decode"]._option_string_actions["--algo"]
    assert algo.choices == sorted(decoder.ALGORITHMS)


def test_reports_are_reproducible(tmp_path, capsys):
    outputs = []
    paths = []
    for name in ("a.alist", "b.alist"):
        path = tmp_path / name
        assert main(["gen", "--n", "16", "--gamma", "3", "--rho", "4",
                     "--min-girth", "6", "--seed", "9", "--out", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    # reports differ only in the output path they mention
    assert outputs[0].replace("a.alist", "b.alist") == outputs[1]


def test_to_dot_shape():
    g = build_tanner_graph([(0, 0), (1, 0)]).as_graph()
    text = to_dot(g, name="T")
    assert text.splitlines()[0] == "graph T {"
    assert text.endswith("}\n")


def test_console_entry_point():
    exe = shutil.which("ldpcbounds")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "bounds", "--gamma", "3", "--girth", "8"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["t_max"] == 1


def test_console_entry_point_in_process(capsys):
    # the same [project.scripts] target the installed script runs, resolved
    # from pyproject.toml, so the test runs without an install
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["ldpcbounds"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry(["bounds", "--gamma", "3", "--girth", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["t_max"] == 1
