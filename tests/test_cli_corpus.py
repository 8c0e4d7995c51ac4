"""A committed corpus of CLI outputs: stdout, stderr and exit code of every
command over three scenarios, in both output formats.  Every run also
prints the same bytes in an interpreter that cannot import mpmath.

The golden file pins the bytes of entropy decimals, probabilities, every
``prob-report`` field (certified residuals that print ``0.0`` among
them), Landauer margins, irreversibility brackets, demon sizes and suite
reports.  Record it again only for a change that is meant to move output
bytes:

    PYTHONPATH=src python tests/test_cli_corpus.py
"""

import contextlib
import io
import json
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

from eidothermo import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "cli_corpus.json"

SZILARD = str(files("eidothermo").joinpath("scenarios", "szilard.txt"))
RESIDUES = str(HERE / "scenarios" / "residues.txt")
DIMENSIONS = str(HERE / "scenarios" / "dimensions.txt")

SUITES = (
    ("check-axioms", "--cases", "5"),
    ("check-theorems", "--cases", "5"),
)

#: (scenario label, scenario path, command argument lists).
CORPUS = (
    ("szilard", SZILARD, (
        ("classify", "vr", "Inserted"),
        ("classify", "Measured", "Final"),
        ("classify", "r", "Ib"),
        ("classify", "Ib", "r"),
        ("entropy", "Ib"),
        ("entropy", "Final"),
        ("prob", "v0", "Split"),
        ("prob-report", "Final"),
        ("landauer", "v0", "v"),
        ("landauer", "v0", "v1"),
        ("irrev", "v0", "v", "--qmax", "8"),
        ("irrev", "v0", "v", "--qmax", "64"),
        ("demon", "r", "Ib"),
        ("demon", "Ib", "Split"),
        *SUITES,
    )),
    ("residues", RESIDUES, (
        ("classify", "a", "b"),
        ("classify", "Trio", "Pairs"),
        ("entropy", "Trio"),
        ("entropy", "Pairs"),
        ("entropy", "Mixed"),
        ("prob", "a", "Trio"),
        ("prob", "ab", "Lean"),
        ("prob-report", "Trio"),
        ("prob-report", "Lean"),
        ("prob-report", "Skew"),
        ("landauer", "zz", "bb"),
        ("landauer", "bb", "zz"),
        ("irrev", "a", "b", "--qmax", "8"),
        ("irrev", "z", "b", "--qmax", "64"),
        ("demon", "b", "a"),
        *SUITES,
    )),
    ("dimensions", DIMENSIONS, (
        ("classify", "t", "f"),
        ("classify", "All", "t"),
        ("entropy", "All"),
        ("entropy", "Wide"),
        ("prob", "t", "All"),
        ("prob-report", "Wide"),
        ("prob-report", "Even"),
        ("prob-report", "Stack"),
        ("landauer", "t", "x"),
        ("landauer", "x", "t"),
        ("irrev", "t", "f", "--qmax", "8"),
        ("demon", "f", "t"),
        *SUITES,
    )),
)


def _runs():
    for label, path, commands in CORPUS:
        for argv in commands:
            for fmt in ("text", "structured"):
                key = f"{label}: {' '.join(argv)} --format {fmt}"
                yield key, [*argv, "--format", fmt, "--scenario", path]


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stderr": err.getvalue(), "stdout": out.getvalue()}


def _record() -> None:
    corpus = {key: _run(argv) for key, argv in _runs()}
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_corpus_covers_every_run(golden):
    assert sorted(golden) == sorted(key for key, _ in _runs())


#: prob-report runs whose residual at 128 bits of plain floats was 2^-126
#: or 2^-125 of rounding noise.
NOISY_DECOMPOSITIONS = (
    ("dimensions", "Even"),
    ("dimensions", "Stack"),
    ("residues", "Lean"),
    ("residues", "Skew"),
)


def test_corpus_pins_certified_zero_residuals(golden):
    for label, name in NOISY_DECOMPOSITIONS:
        run = golden[f"{label}: prob-report {name} --format text"]
        assert run["stdout"].endswith("\nresidual: 0.0\n"), name
        run = golden[f"{label}: prob-report {name} --format structured"]
        assert '"residual": "0.0",' in run["stdout"], name


@pytest.mark.parametrize("key,argv", list(_runs()), ids=[key for key, _ in _runs()])
def test_cli_bytes_match_corpus(golden, key, argv):
    assert _run(argv) == golden[key]


#: Runs the given (key, argv) runs in one interpreter in which importing
#: mpmath fails, and prints their outputs as JSON.
WITHOUT_MPMATH = """
import contextlib, io, json, sys
sys.modules["mpmath"] = None
from eidothermo import cli
outputs = {}
for key, argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    outputs[key] = {"exit": code, "stderr": err.getvalue(), "stdout": out.getvalue()}
print(json.dumps(outputs))
"""


def test_every_command_runs_without_mpmath(golden):
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_MPMATH, json.dumps(list(_runs()))],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    outputs = json.loads(proc.stdout)
    assert outputs.keys() == golden.keys()
    for key, run in outputs.items():
        assert run == golden[key], key


if __name__ == "__main__":
    _record()
