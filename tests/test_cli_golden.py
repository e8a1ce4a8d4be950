"""Golden command-line output: exact stdout, stderr and exit code.

Every case runs ``spinchsh.cli.main`` in process and compares the bytes it
prints with ``tests/data/cli_golden.json``.  The cases cover ``gamma``,
``concurrence``, ``validate`` and ``optimize`` for every family, ``validate``
on malformed state files, flag errors, and ``--help`` for each subcommand.

Regenerate the golden file (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from spinchsh.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

FAMILY_ARGS = {
    "antisym": ["--alpha12", "0.48", "--alpha13", "0.6j", "--alpha23", "0.64"],
    "sym": ["--alpha11", "0.36+0.48j", "--alpha22", "0.8", "--alpha33", "0"],
    "ghz3": [],
    "werner": ["--phi", "-0.5"],
    "horodecki": ["--tau", "3.5"],
    "example1": ["--t", "0.25"],
    "example2": ["--t", "0.7"],
    "product": [],
}


def _pairs(values):
    return [[float(v.real), float(v.imag)] for v in values]


def _matrix_file(entries):
    """A 3x3-qutrit matrix file, zero except for {flat index: value}."""
    flat = [0j] * 81
    for i, v in entries.items():
        flat[i] = v
    return {"dims": [3, 3], "matrix": _pairs(flat)}


# Files the cases name as {key}; the test writes them to a temporary directory.
STATE_FILES = {
    "up": {"dims": [3, 3], "matrix": _pairs([1, 0, 0, 0, 0, 0, 0, 0, 0])},
    "unnormalized_pure": {"dims": [3, 3], "amplitudes": _pairs([0.6, 0, 0, 0, 0.6, 0, 0, 0, 0.6])},
    "unnormalized": _matrix_file({0: 0.5, 10: 0.5, 20: 0.5, 30: 0.5}),
    "non_hermitian": _matrix_file({0: 0.5, 80: 0.5, 1: 0.25, 9: -0.25}),
    "non_psd": _matrix_file({0: 1.2, 10: -0.2}),
}


def _cases():
    cases = []
    for name, params in FAMILY_ARGS.items():
        for command in ("gamma", "concurrence", "validate", "optimize"):
            cases.append([command, "--family", name, *params])
    for command in ("gamma", "concurrence", "validate", "optimize"):
        cases.append([command, "--family", "product", "--state-a", "{up}", "--state-b", "{up}"])
    cases += [
        ["gamma", "--family", "sym", *FAMILY_ARGS["sym"], "--format", "csv"],
        ["concurrence", "--family", "example2", "--t", "0.7", "--format", "csv"],
        ["--decimals", "4", "gamma", "--family", "horodecki", "--tau", "2"],
    ]
    cases += [["validate", "--state-file", "{" + key + "}"]
              for key in ("unnormalized_pure", "unnormalized", "non_hermitian", "non_psd")]
    cases += [
        ["gamma", "--family", "werner"],
        ["optimize", "--family", "antisym", "--alpha12", "1"],
        ["concurrence", "--family", "example1"],
        ["gamma"],
        ["scan"],
    ]
    cases.append(["--help"])
    cases += [[command, "--help"]
              for command in ("gamma", "sweep", "scan", "optimize", "concurrence", "validate")]
    return cases


def run(argv, workdir):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    paths = {}
    for key, payload in STATE_FILES.items():
        path = Path(workdir) / f"{key}.json"
        path.write_text(json.dumps(payload))
        paths[key] = str(path)
    argv = [a.format(**paths) if a.startswith("{") else a for a in argv]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _key(argv):
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", _cases(), ids=_key)
def test_cli_output_matches_golden(argv, golden, tmp_path, monkeypatch):
    if "--help" in argv and sys.version_info[:2] != tuple(golden["help_python"]):
        pytest.skip("argparse help layout differs between Python versions")
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(argv, tmp_path)
    expected = golden["cases"][_key(argv)]
    assert (code, out, err) == (expected["exit"], expected["stdout"], expected["stderr"])


def test_golden_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(_key(a) for a in _cases())


if __name__ == "__main__":
    import os
    import tempfile

    os.environ["COLUMNS"] = "80"
    cases = {}
    with tempfile.TemporaryDirectory() as workdir:
        for argv in _cases():
            code, out, err = run(argv, workdir)
            cases[_key(argv)] = {"exit": code, "stdout": out, "stderr": err}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"help_python": list(sys.version_info[:2]),
                                  "cases": cases}, indent=1) + "\n")
