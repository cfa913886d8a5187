"""The CLI as users run it: ``python -m ldpcbounds.cli`` in a fresh interpreter.

Each case runs one subcommand twice, in process through ``main`` and in a
fresh process under ``python -X importtime``, which lists every module the
process imports on stderr. Both runs must give the same exit code, stdout
and summary, and the fresh process must load only the ``ldpcbounds``
modules its subcommand runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ldpcbounds.alist import write_alist
from ldpcbounds.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# (argv, exit code, ldpcbounds submodules loaded besides the cli itself);
# {code} is a (3,4)-regular code with n=12 and girth 6, {out} a scratch path
CASES = [
    (["bounds", "--gamma", "4", "--girth", "8"], 0,
     {"bounds", "cages", "graphs", "transforms"}),
    (["cage", "--d", "4", "--g", "5"], 0, {"bounds", "cages", "graphs", "transforms"}),
    (["girth", "--code", "{code}"], 0, {"alist", "graphs"}),
    (["gen", "--n", "16", "--gamma", "3", "--rho", "4", "--min-girth", "6",
      "--seed", "9", "--out", "{out}"], 0, {"alist", "codegen", "graphs"}),
    (["decode", "--code", "{code}", "--errors", "0"], 0, {"alist", "decoder", "graphs"}),
    (["verify-correction", "--code", "{code}", "--weight", "1"], 0,
     {"alist", "decoder", "graphs"}),
    (["verify-expansion", "--code", "{code}"], 0, {"alist", "analysis", "bounds", "graphs"}),
    (["find-trapping-sets", "--code", "{code}", "--max-size", "2"], 1,
     {"alist", "analysis", "bounds", "graphs"}),
    (["make-gadget", "--gamma", "3", "--gprime", "4", "--out", "{out}"], 0,
     {"alist", "analysis", "bounds", "cages", "graphs", "transforms"}),
]


def _fresh(args, cwd):
    """Run ``python -X importtime *args``; return the process and the submodules it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    lines = proc.stderr.splitlines(keepends=True)
    imported = {line.rsplit("|", 1)[1].strip() for line in lines
                if line.startswith("import time:")}
    loaded = {name.split(".", 1)[1] for name in imported
              if name.startswith("ldpcbounds.")} - {"cli"}
    summary = "".join(line for line in lines if not line.startswith("import time:"))
    return proc, summary, loaded


@pytest.fixture(scope="module")
def code_path(tmp_path_factory, code_g3_girth6_n12):
    path = tmp_path_factory.mktemp("cli_process") / "code.alist"
    write_alist(code_g3_girth6_n12, path)
    return path


def test_importing_the_cli_loads_no_library_module(tmp_path):
    proc, summary, loaded = _fresh(["-c", "import ldpcbounds.cli"], tmp_path)
    assert (proc.returncode, summary, loaded) == (0, "", set())


@pytest.mark.parametrize("argv, exit_code, modules", CASES, ids=[c[0][0] for c in CASES])
def test_fresh_process_matches_main(argv, exit_code, modules, code_path, tmp_path, capsys):
    argv = [a.format(code=code_path, out=tmp_path / "out.alist") for a in argv]
    assert main(argv) == exit_code
    captured = capsys.readouterr()
    proc, summary, loaded = _fresh(["-m", "ldpcbounds.cli", *argv], tmp_path)
    assert proc.returncode == exit_code
    assert proc.stdout == captured.out
    assert summary == captured.err
    assert loaded == modules
