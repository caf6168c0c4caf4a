"""The stdout bytes of the README's CLI examples, pinned by a committed manifest.

Every ``iondecoh table|factor|xray|classify`` example in README.md is read
from the README itself, so the docs and the corpus cannot drift, and runs in
each of human, csv and json, with two examples of the explicit-input forms
besides. sim and bcs are left out: their last digits depend on the BLAS
build and numpy's SIMD paths, so their bytes compare only between two trees
on one machine.

Regenerate the manifest after a deliberate change of output or of the README:

    PYTHONPATH=src python tests/test_readme_corpus.py
"""

import hashlib
import io
import json
import os
import pathlib
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from iondecoh import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = pathlib.Path(__file__).with_name("readme_corpus.json")
COMMANDS = ("table", "factor", "xray", "classify")
FORMATS = ("human", "csv", "json")
EXTRA_EXAMPLES = [
    ["factor", "--wavelength", "3e-11", "--rate", "2e15", "--dx", "3e-9", "--time", "1e-15"],
    ["classify", "--tau1", "1e-3", "--tau2", "2e-3", "--tau-dyn", "0.5"],
]


def readme_examples():
    """The argv of each README example of COMMANDS, in README order, with no --format."""
    examples, pending = [], ""
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        line = pending + line.strip()
        pending = ""
        if not line.startswith("iondecoh "):
            continue
        if line.endswith("\\"):
            pending = line[:-1]
            continue
        argv = shlex.split(line, comments=True)
        if argv[1] in COMMANDS:
            if "--format" in argv:
                at = argv.index("--format")
                del argv[at:at + 2]
            examples.append(argv[1:])
    return examples


# case id -> argv: each example in each format
CASES = {" ".join([*argv, "--format", fmt]): [*argv, "--format", fmt]
         for argv in readme_examples() + EXTRA_EXAMPLES for fmt in FORMATS}


def stdout_sha256(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_the_readme_shows_an_example_of_each_command():
    assert {argv[0] for argv in readme_examples()} == set(COMMANDS)


def test_the_manifest_holds_every_case():
    assert sorted(json.loads(MANIFEST.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_readme_example_bytes(monkeypatch, case):
    monkeypatch.delenv(cli.ENV_DATA_DIR, raising=False)
    assert stdout_sha256(CASES[case]) == json.loads(MANIFEST.read_text())[case]


if __name__ == "__main__":
    if cli.ENV_DATA_DIR in os.environ:
        sys.exit(f"unset {cli.ENV_DATA_DIR}: the manifest is of the bundled table")
    MANIFEST.write_text(json.dumps({case: stdout_sha256(argv) for case, argv in CASES.items()}, indent=2) + "\n")
    print(f"wrote {len(CASES)} cases to {MANIFEST}")
