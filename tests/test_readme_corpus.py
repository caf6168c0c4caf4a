"""The stdout bytes of every successful CLI run that tier-1 pins, in one committed manifest.

The cases: every ``table``, ``factor``, ``xray`` and ``classify`` example in
README.md, read from the README itself so that the two cannot drift, in human,
csv and json, plus two explicit-input examples; and ``table --data-file`` over
a seeded file of perturbed bundled rows, in csv and json at four settings,
and over a longer one, of more than two of table's chunks of rows, in each
format; and ``bcs`` in csv and json over 10^6 modes and over three counts
whose halves leave a remainder mod 8 at several levels of numpy's pairwise
sum, the bits that summing a profile a block at a time must keep.
Each digest is checked for the case as listed, for the case with ``--output
FILE`` and for each README example as written. The README's sim and bcs
examples are left out: their last digits depend on the BLAS build, as the
bcs cases' decay rate and log overlaps depend on this machine's numpy and
BLAS, so a new build rewrites their digests. Error lines are pinned as text in
``test_cli.ONE_LINE_ERRORS``. After a deliberate change of output, rewrite the
manifest; this prints each case whose digest changed, appeared or went away:

    PYTHONPATH=src python tests/test_readme_corpus.py

``faulty_data_files.json`` holds 39 data files drawn once, with a fixed seed,
from the ``data_files`` strategy of ``test_cli_properties.py``, each with the
exit code and stderr line of ``table`` over it. This draws them again and
records this tree's lines:

    PYTHONPATH=src python tests/test_cli_properties.py

To compare this working tree with a commit on one machine, sim and bcs
included, run every case, plus the README's sim and bcs examples in each
format and a bcs run over counts on each side of its block size in csv
and json, as a child ``python -m iondecoh.cli`` of each tree; this prints each
case whose stdout, stderr or exit code differs, and exits 1 if any does; the
faulty data files are cases too, so every changed error line shows at once:

    PYTHONPATH=src python tests/test_readme_corpus.py --against REV
"""

import argparse
import hashlib
import io
import json
import os
import pathlib
import random
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

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
SEED, ROWS, STREAMED_ROWS = 7, 500, 2500
# so the case ids record the generator's settings
PERTURBED, STREAMED = (f"perturbed-seed{SEED}-rows{rows}.csv" for rows in (ROWS, STREAMED_ROWS))
BULK_FLAGS = {"250K": ["--temperature", "250"], "310K": [], "400K": ["--temperature", "400"],
              "310K-N1e19": ["--ion-count", "1e19"]}


def readme_examples(commands=COMMANDS):
    """The argv of each README example of commands, exactly as written, in README order."""
    examples, pending = [], ""
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        line = pending + line.strip()
        pending = ""
        if not line.startswith("iondecoh "):
            continue
        if line.endswith("\\"):
            pending = line[:-1]
            continue
        argv = shlex.split(line, comments=True)[1:]
        if argv[0] in commands:
            examples.append(argv)
    return examples


def with_format(argv, fmt=None):
    """argv with its --format moved last and set to fmt, else to its own, else to human."""
    argv = list(argv)
    if "--format" in argv:
        at = argv.index("--format")
        fmt = fmt or argv[at + 1]
        del argv[at:at + 2]
    return [*argv, "--format", fmt or "human"]


def write_perturbed_salts(path, rows=ROWS):
    """rows valid records: bundled rows with seeded, full-precision perturbations."""
    text = resources.files("iondecoh").joinpath("data/salts.csv").read_text(encoding="utf-8")
    bundled = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
    rng = random.Random(SEED)
    lines = []
    for i in range(rows):
        name, cation, m_cat, anion, m_an, density, edge, water, ref1, ref2 = rng.choice(bundled)
        lines.append(",".join([
            f"{name}{i}", cation, repr(float(m_cat) * rng.uniform(0.5, 2.0)),
            anion, repr(float(m_an) * rng.uniform(0.5, 2.0)),
            repr(float(density) * rng.uniform(0.5, 2.0)), repr(float(edge) * rng.uniform(0.8, 1.25)),
            water, ref1 if rng.random() < 0.5 else "-", ref2 if rng.random() < 0.5 else "-",
        ]))
    path.write_text("\n".join(lines) + "\n")


# case id -> argv
README_CASES = {" ".join(argv): argv for argv in
                (with_format(example, fmt) for example in readme_examples() + EXTRA_EXAMPLES for fmt in FORMATS)}
BULK_CASES = {" ".join(argv): argv for argv in (
    *(["table", "--data-file", PERTURBED, *flags, "--format", fmt] for flags in BULK_FLAGS.values()
      for fmt in ("csv", "json")),
    *(["table", "--data-file", STREAMED, "--format", fmt] for fmt in FORMATS))}
BCS_CASES = {" ".join(argv): argv for argv in (["bcs", "--modes", modes, "--format", fmt]
                                                for modes in ("1000000", "131075,1000003,2000003")
                                                for fmt in ("csv", "json"))}
CASES = {**README_CASES, **BULK_CASES, **BCS_CASES}
# file name -> its text (an invalid byte as a lone surrogate), and table's exit code and stderr over it
FAULTY = json.loads(MANIFEST.with_name("faulty_data_files.json").read_text(encoding="utf-8"))
FAULTY_CASES = {" ".join(argv): argv for argv in (["table", "--data-file", name, "--format", "csv"] for name in FAULTY)}
# bcs over counts on each side of the pairing profile's block size (vacuum._BLOCK_MODES, 65,536), for --against
BCS_BLOCK_CASES = {" ".join(argv): argv for argv in
                   (["bcs", "--modes", "65535,65536,65537,200000", "--format", fmt] for fmt in ("csv", "json"))}


def write_data_files(directory):
    """PERTURBED, STREAMED and each FAULTY file, in directory."""
    write_perturbed_salts(directory / PERTURBED)
    write_perturbed_salts(directory / STREAMED, STREAMED_ROWS)
    for name, file in FAULTY.items():
        (directory / name).write_bytes(file["text"].encode("utf-8", "surrogateescape"))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def stdout_sha256(argv):
    code, out, err = run(argv)
    assert (code, err) == (0, ""), argv
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """The manifest's digests; the cases run over the bundled table, beside the written data files."""
    workdir = tmp_path_factory.mktemp("corpus")
    write_data_files(workdir)
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(cli.ENV_DATA_DIR, raising=False)
        patch.chdir(workdir)
        yield json.loads(MANIFEST.read_text())


def check_case(case, digests, tmp_path):
    """The case's stdout, and its --output file with stdout empty, both hash to its digest."""
    assert stdout_sha256(CASES[case]) == digests[case]
    target = tmp_path / "out"
    assert run([*CASES[case], "--output", str(target)]) == (0, "", "")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digests[case]


def test_the_readme_shows_an_example_of_each_command():
    assert {argv[0] for argv in readme_examples()} == set(COMMANDS)


def test_the_manifest_holds_every_case():
    assert sorted(json.loads(MANIFEST.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", list(README_CASES))
def test_readme_example_bytes(digests, tmp_path, case):
    check_case(case, digests, tmp_path)


@pytest.mark.parametrize("case", list(BULK_CASES))
def test_bulk_table_bytes(digests, tmp_path, case):
    check_case(case, digests, tmp_path)


@pytest.mark.parametrize("case", list(BCS_CASES))
def test_bcs_bytes(digests, tmp_path, case):
    check_case(case, digests, tmp_path)


@pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
def test_readme_example_as_written(digests, argv):
    assert stdout_sha256(argv) == digests[" ".join(with_format(argv))]


@pytest.mark.parametrize("case", list(FAULTY_CASES))
def test_faulty_data_file_error_line(digests, case):
    file = FAULTY[FAULTY_CASES[case][2]]
    assert run(FAULTY_CASES[case]) == (file["exit"], "", file["stderr"])


def run_child(src, argv, cwd):
    """The exit code, stdout and stderr of argv run as a child python -m iondecoh.cli of the tree src."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-m", "iondecoh.cli", *argv], cwd=cwd, env=env, capture_output=True)
    return done.returncode, done.stdout, done.stderr


def against(rev):
    """Run each case in this working tree and in rev's committed files; print each that differs, 1 if any does."""
    cases = {**CASES, **FAULTY_CASES, **BCS_BLOCK_CASES, **{" ".join(argv): argv for argv in
                         (with_format(example, fmt) for example in readme_examples(("sim", "bcs")) for fmt in FORMATS)}}
    with tempfile.TemporaryDirectory() as work:
        tree = pathlib.Path(work, "rev")
        tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True)
        if archive.returncode:
            sys.exit(f"cannot read {rev}: {archive.stderr.decode().strip()}")
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
        write_data_files(pathlib.Path(work))
        differ = 0
        for case, argv in cases.items():
            ours, theirs = run_child(ROOT / "src", argv, work), run_child(tree / "src", argv, work)
            parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"), ours, theirs) if a != b]
            if parts:
                differ += 1
                print(f"differs ({', '.join(parts)}):", case)
    print(f"{differ} of {len(cases)} cases differ between this tree and {rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    os.environ.pop(cli.ENV_DATA_DIR, None)  # the manifest is of the bundled table
    parser = argparse.ArgumentParser(description="Rewrite the manifest, or compare this tree with a commit.")
    parser.add_argument("--against", metavar="REV", help="run every case here and at REV and print each that differs")
    rev = parser.parse_args().against
    if rev is not None:
        sys.exit(against(rev))
    old = json.loads(MANIFEST.read_text())
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        write_data_files(pathlib.Path(work))
        new = {case: stdout_sha256(argv) for case, argv in CASES.items()}
    for case in {**old, **new}:
        if old.get(case) != new.get(case):
            print("changed:" if case in old and case in new else "appeared:" if case in new else "went away:", case)
    MANIFEST.write_text(json.dumps(new, indent=2) + "\n")
    print(f"wrote {len(new)} cases to {MANIFEST}")
