"""Property tests over generated argv and generated data files.

Every CLI run either writes finite output or prints one ``error:`` line,
for all six subcommands.

Numeric flags mostly draw from the range a user would type, and otherwise
from the edges of the float range (0, subnormals, 1e-300, 1e300, the
largest double, inf, -inf, nan), from any double or from a power of ten
near either end of the range. A float flag given a value that is not a
finite double exits 1 with a line that names the flag. Sizes stay small
so each run is cheap: ``--num-points`` <= 32, ``--steps`` <= 3 and mode
counts <= 2000.
pytest's ``error::RuntimeWarning`` filter turns a numpy warning into an
exception that escapes ``main``, which fails the example.

Data files are built from bundled rows with a numeric field swapped for an
edge, a wrong column count, a duplicate name or a bad ion symbol, with
comment lines, CRLF line ends, a byte-order mark or an invalid UTF-8 byte,
and with no rows at all. ``table``, ``xray``, ``classify``, ``factor`` and
``sim`` (the last four with ``--salt`` and a name of the file) read each
through ``--data-file`` or ``IONDECOH_DATA_DIR``: a run exits 0 with
finite output, 2 naming the file or a line, or 1 with one ``error:`` line.
That line names a salt of the file for ``table`` and ``xray``, whose
formulas all run inside the CLI's evaluation of the salt; classify's ratio
and the factor and sim kernels combine the salt's values with other flags
outside it.

Valid data files with generated salt names (non-ASCII, quotes, backslashes,
punctuation), reference times present or missing, and ``--salts`` subsets
in any order give ``table`` text, streamed a few rows a chunk, equal to the
text of a run that renders every row at once, in all three formats.

Run as a script, ``PYTHONPATH=src python tests/test_cli_properties.py``
draws ``faulty_data_files.json`` again from ``data_files``, with its fixed
seed, and records ``table``'s exit code and error line over each file.
"""

import collections
import contextlib
import io
import json
import math
import os
import re
import tempfile
from unittest import mock

import hypothesis
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from iondecoh import cli, core
from iondecoh.materials import bundled_salt_database, load_salts
from iondecoh.units import temperature_kelvin

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
         1e300, -1e300, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
NAMES = [record.name for record in bundled_salt_database()]
SALTS = st.sampled_from([*NAMES, "Kryptonite"])
NON_FINITE = re.compile(r"\b(?:nan|inf)\b")


# an edge, any double, or a power of ten near either end of the float range
WILD = st.one_of(st.sampled_from(EDGES), st.floats(),
                 st.one_of(st.integers(-323, -280), st.integers(280, 308)).map(lambda k: 10.0 ** k))


def mostly(typical, wild=WILD):
    """``typical`` in four draws of five, else ``wild``."""
    return st.sampled_from(range(5)).flatmap(lambda i: wild if i == 0 else typical)


def real(low, high):
    """Mostly 10**k for k in [low, high], else a wild double."""
    return mostly(st.floats(low, high).map(lambda k: 10.0 ** k))


def flag(name, values, optional=True):
    """``[name=value]``, or, for an optional flag, possibly nothing.

    The ``=`` form lets argparse take a value such as ``-inf``.
    """
    given_flag = values.map(lambda value: [f"{name}={value}"])
    return st.one_of(st.just([]), given_flag) if optional else given_flag


def joined(*flags):
    return st.tuples(*flags).map(lambda parts: [arg for part in parts for arg in part])


def command(name, *flags):
    return joined(*flags).map(lambda args: [name, *args])


FORMAT = flag("--format", st.sampled_from(["human", "csv", "json"]))
THERMAL = (flag("--temperature", real(-3, 4)), flag("--ion-count", real(0, 30)))


def source(*flags):
    """Mostly ``--salt`` or all of ``flags``, else any mix of them (which is then usually rejected)."""
    return mostly(
        st.one_of(flag("--salt", SALTS, optional=False),
                  joined(*(flag(name, values, optional=False) for name, values in flags))),
        joined(flag("--salt", SALTS), *(flag(name, values) for name, values in flags)),
    )


# mostly a width and a separation of 1 to 15 widths, which the grid can hold
PACKETS = st.tuples(st.floats(-10, -8), st.floats(1, 15)).flatmap(lambda pair: joined(
    flag("--width", mostly(st.just(10.0 ** pair[0])), optional=False),
    flag("--separation", mostly(st.just(pair[1] * 10.0 ** pair[0])), optional=False),
))
WAVELENGTH_AND_RATE = source(("--wavelength", real(-12, -8)), ("--rate", real(10, 20)))
BOOLEAN = st.one_of(st.just([]), st.just(["--observed-coherence"]))

ARGV = {
    "table": command(
        "table",
        flag("--salts", st.one_of(SALTS, st.sampled_from(["all", "NaCl,KBr", ",", ""]))),
        *THERMAL, FORMAT,
    ),
    "factor": command(
        "factor", WAVELENGTH_AND_RATE,
        flag("--dx", real(-12, -6), optional=False),
        flag("--time", real(-20, -10), optional=False),
        *THERMAL, FORMAT,
    ),
    "sim": command(
        "sim", WAVELENGTH_AND_RATE,
        PACKETS,
        flag("--t-total", real(-18, -14), optional=False),
        flag("--steps", mostly(st.integers(1, 3), st.integers(-2, 0)), optional=False),
        flag("--num-points", mostly(st.integers(8, 32), st.integers(-1, 7)), optional=False),
        flag("--extent-widths", real(1.5, 1.8)),
        flag("--phase", real(-2, 1)),
        *THERMAL, FORMAT,
    ),
    "xray": command(
        "xray",
        flag("--salt", SALTS, optional=False),
        flag("--tau-x", real(-20, -15), optional=False),
        *THERMAL, FORMAT,
    ),
    "bcs": command(
        "bcs",
        flag("--modes", st.lists(st.integers(-1, 2000), min_size=1, max_size=4)
             .map(lambda counts: ",".join(map(str, counts))), optional=False),
        flag("--uniform-u", real(-3, 0)),
        flag("--gap", real(-3, 1)),
        flag("--half-bandwidth", real(-2, 1)),
        flag("--seed", st.integers(-1, 2 ** 64)),
        FORMAT,
    ),
    "classify": command(
        "classify",
        source(("--tau1", real(-45, 3)), ("--tau2", real(-45, 3))),
        flag("--tau-dyn", real(-45, 3), optional=False),
        BOOLEAN,
        flag("--threshold", real(0, 6)),
        *THERMAL, FORMAT,
    ),
}


SUBPARSERS = next(action for action in cli.build_parser()._actions if isinstance(action.choices, dict)).choices
# each subcommand's float flags, as the parser declares them
FLOAT_FLAGS = {
    name: [action.option_strings[0] for action in parser._actions if action.type is cli._finite]
    for name, parser in SUBPARSERS.items()
}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_a_non_finite_float_flag_names_itself(data):
    subcommand = data.draw(st.sampled_from([name for name in ARGV if FLOAT_FLAGS[name]]), label="subcommand")
    option = data.draw(st.sampled_from(FLOAT_FLAGS[subcommand]), label="flag")
    value = data.draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity", "-nan", "1e309", "-1e999"]),
                      label="value")
    # as --flag=value or --flag value: a leading - is a negative value, not an option name
    given = data.draw(st.sampled_from([[f"{option}={value}"], [option, value]]), label="form")
    # first, so that argparse converts it before any other flag of the drawn argv
    argv = [subcommand, *given, *data.draw(ARGV[subcommand], label="argv")[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, out.getvalue(), err.getvalue()) == (1, "", f"error: argument {option}: {value!r} is not a finite number\n")


def test_only_the_gap_takes_a_bare_float():
    # bcs --gap inf writes the infinite-gap limit and exits 0
    assert [action.dest for parser in SUBPARSERS.values() for action in parser._actions if action.type is float] == ["gap"]


def _reject_constant(name):
    raise AssertionError(f"json output holds the non-finite constant {name}")


@pytest.mark.parametrize("subcommand", list(ARGV))
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_run_writes_finite_output_or_one_error_line(subcommand, data):
    argv = data.draw(ARGV[subcommand], label="argv")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop(cli.ENV_DATA_DIR, None)
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    event(f"exit {code}")
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        return
    assert err == ""
    if "--format=json" in argv:
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert not NON_FINITE.search(out), out


with open(os.path.join(os.path.dirname(cli.__file__), "data", "salts.csv"), encoding="utf-8") as _handle:
    BUNDLED_ROWS = [line.rstrip("\n") for line in _handle if not line.startswith("#")]
NUMERIC_COLUMNS = (2, 4, 5, 6, 7, 8, 9)
HUGE_EDGES = [edge for edge in EDGES if edge > 1]
BAD_IONS = ["Na", "na+", "Cl0-", "Zn2", "+", ""]
FAULTS = st.sampled_from([None, None, "edge", "edge", "huge-masses", "number-density", "columns", "duplicate", "ion"])
# ion masses in amu and a density, each a positive normal double, whose number density is not:
# it overflows, or underflows to 0.0 or to a subnormal
NUMBER_DENSITY_FAULTS = [("1", "1e308"), ("1e300", "2.3e-308"), ("1e35", "1e-300")]
# each subcommand's argv after its name, apart from the data source and --salt
DATA_FILE_RUNS = {
    "table": [],
    "xray": ["--tau-x", "0.5e-18"],
    "classify": ["--tau-dyn", "1"],
    "factor": ["--dx", "1e-9", "--time", "1e-16"],
    "sim": ["--separation", "3e-9", "--width", "3e-10", "--t-total", "2e-16", "--steps", "2", "--num-points", "16"],
}


@st.composite
def data_files(draw):
    """The bytes of a data file with at most one faulty row, the salt names of its rows, the faulty row's name
    and its fault."""
    rows = [row.split(",") for row in draw(st.lists(st.sampled_from(BUNDLED_ROWS), max_size=4))]
    for index, fields in enumerate(rows):
        fields[0] += str(index)
    fault = draw(FAULTS) if rows else None
    if fault == "duplicate" and len(rows) == 1:
        fault = None  # a one-row file has no other row to copy a name from
    index = None
    if fault is not None:
        index = draw(st.integers(0, len(rows) - 1))
        fields = rows[index]
        if fault == "edge":
            fields[draw(st.sampled_from(NUMERIC_COLUMNS))] = repr(draw(st.sampled_from(EDGES)))
        elif fault == "huge-masses":
            # two ions of 1e300 amu or the largest double load, and tau1 then overflows; inf fails to load
            fields[2] = fields[4] = repr(draw(st.sampled_from(HUGE_EDGES)))
        elif fault == "number-density":
            mass, fields[5] = draw(st.sampled_from(NUMBER_DENSITY_FAULTS))
            fields[2] = fields[4] = mass
        elif fault == "columns":
            rows[index] = draw(st.sampled_from([fields[:-1], [*fields, "-"]]))
        elif fault == "duplicate":
            # the name of another row, before or after this one
            fields[0] = rows[draw(st.sampled_from([other for other in range(len(rows)) if other != index]))][0]
        else:
            fields[draw(st.sampled_from((1, 3)))] = draw(st.sampled_from(BAD_IONS))
    lines, names = [], []
    for fields in rows:
        if draw(st.booleans()):
            lines.append("# a comment")
        names.append(fields[0])
        lines.append(",".join(fields))
    if draw(st.booleans()):
        lines.append("# a comment")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data = (newline.join(lines) + draw(st.sampled_from([newline, ""]))).encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 5)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data, names, None if index is None else rows[index][0], fault


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(file=data_files(), subcommand=st.sampled_from(list(DATA_FILE_RUNS)),
       via=st.sampled_from(["flag", "env"]), fmt=st.sampled_from(["human", "csv", "json"]), pick=st.data())
def test_data_file_run_writes_finite_output_or_names_its_fault(file, subcommand, via, fmt, pick):
    data, names, faulty, fault = file
    argv = [subcommand, *DATA_FILE_RUNS[subcommand], "--format", fmt]
    if subcommand != "table":
        # the faulty row's salt in about half the runs, when there is one; a
        # file with no rows fails to load before the salt is looked up
        salts = st.sampled_from(names) if names else st.just("NaCl")
        if faulty is not None:
            salts = st.one_of(st.just(faulty), salts)
        argv += ["--salt", pick.draw(salts, label="salt")]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "salts.csv")
        with open(path, "wb") as handle:
            handle.write(data)
        if via == "flag":
            argv += ["--data-file", path]
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            os.environ.pop(cli.ENV_DATA_DIR, None)
            if via == "env":
                os.environ[cli.ENV_DATA_DIR] = directory
            code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    event(f"{subcommand} exit {code}")
    # a row whose number density is out of range, or whose name another row holds, never loads, and every
    # command reads the whole file, whatever salt the run asks for
    assert code == 2 or fault not in ("number-density", "duplicate"), err
    if code == 0:
        assert err == ""
        if fmt == "json":
            payload = json.loads(out, parse_constant=_reject_constant)
            if subcommand == "table":
                assert [entry["name"] for entry in payload["salts"]] == names
            return
        if subcommand != "table":
            assert not NON_FINITE.search(out), out
            return
        rows = [line.split("," if fmt == "csv" else None) for line in out.splitlines()[1:]]
        assert [row[0] for row in rows] == names
        assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:]), out
        return
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    if code == 2:
        assert f"'{path}'" in err or re.match(r"error: line \d+: ", err), err
        return
    assert code == 1, err
    if subcommand in ("table", "xray"):
        assert any(err.startswith(f"error: salt {name!r}: ") for name in names), err


# salt names as a data file can hold them: non-ASCII letters, quotes, backslashes and other
# punctuation, but no comma, control character or surrogate, no whitespace at either end
# (the loader strips it), no leading # (a comment) and not "all" (every salt, to --salts)
SALT_NAMES = st.text(
    st.one_of(st.characters(blacklist_categories=("Cc", "Cs"), blacklist_characters=",\ufeff"),
              st.sampled_from("\"'\\!$%&()*+-./:;<=>?@[]^_`{|}~"),
              st.sampled_from("\u00e9\u03a9\u6f22\U0001f600\u00a0\u2028")),  # a line separator splits no line
    min_size=1, max_size=10,
).filter(lambda name: name == name.strip() and not name.startswith("#") and name != "all")
REFERENCE = st.one_of(st.just("-"), st.floats(0.01, 100.0).map(repr))


@st.composite
def table_files(draw):
    """The text of a valid data file of generated salt names and its names, in file order."""
    names = draw(st.lists(SALT_NAMES, min_size=1, max_size=8, unique=True))
    lines = []
    for name in names:
        fields = draw(st.sampled_from(BUNDLED_ROWS)).split(",")
        fields[0] = name
        fields[2], fields[4] = (repr(draw(st.floats(1.0, 300.0))) for _ in range(2))
        fields[5], fields[6] = repr(draw(st.floats(500.0, 20000.0))), repr(draw(st.floats(1.0, 10.0)))
        fields[8], fields[9] = draw(REFERENCE), draw(REFERENCE)
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n", names


def _table_text_as_rendered_whole(path, selection, fmt, temperature, ion_count):
    """table's text as a run that loads every record, then renders all its rows at once, gives it."""
    records = load_salts(path)
    if selection is not None:
        records = [record for record in records if record.name in selection]
    times = []
    for record in records:
        ctx = core.context_for_salt(record, temperature_kelvin(temperature), ion_count)
        times.append((core.tau1(ctx).si, core.tau2(ctx).si))
    if fmt == "json":
        salts = []
        for record, (t1, t2) in zip(records, times):
            entry = {"name": record.name, "tau1_s": t1, "tau2_s": t2}
            for key, ref in (("ref_tau1_s", record.ref_tau1), ("ref_tau2_s", record.ref_tau2)):
                if ref is not None:
                    entry[key] = ref.si
            salts.append(entry)
        payload = {"temperature_k": temperature, "ion_count": ion_count, "salts": salts}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    cells = [["name", "tau1_1e-40s", "tau2_1e-38s", "tau1_s", "tau2_s"]] + [
        [record.name, f"{t1 / 1e-40:.1f}", f"{t2 / 1e-38:.1f}", repr(t1), repr(t2)]
        for record, (t1, t2) in zip(records, times)]
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in cells)
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "".join("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() + "\n" for row in cells)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(file=table_files(), fmt=st.sampled_from(["human", "csv", "json"]), pick=st.data(),
       temperature=st.floats(10.0, 1000.0), ion_count=st.floats(1.0, 1e25),
       chunk_rows=st.integers(1, 3), to_file=st.booleans())
def test_streamed_table_text_equals_the_text_rendered_whole(file, fmt, pick, temperature, ion_count,
                                                            chunk_rows, to_file):
    text, names = file
    # a subset of the names in any order, or every salt
    selection = pick.draw(st.one_of(st.none(), st.lists(st.sampled_from(names), min_size=1, unique=True)))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "salts.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        output = os.path.join(directory, "table.txt")
        argv = ["table", "--data-file", path, "--format", fmt, f"--temperature={temperature!r}",
                f"--ion-count={ion_count!r}", f"--salts={'all' if selection is None else ','.join(selection)}",
                *(["--output", output] if to_file else [])]
        out = io.StringIO()
        # rows are joined a few at a time, so that chunk boundaries fall inside these small tables
        with mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows), contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        if to_file:
            with open(output, encoding="utf-8") as handle:
                out = io.StringIO(handle.read())
        expected = _table_text_as_rendered_whole(path, selection and set(selection), fmt, temperature, ion_count)
    assert out.getvalue() == expected


FAULTY_FILES = os.path.join(os.path.dirname(__file__), "faulty_data_files.json")


def draw_faulty_files(count=40, per_kind=3, seed=26):
    """The first count files the seeded data_files strategy draws that ``table`` rejects, at most per_kind of each
    kind of error line, as file name -> its text (an invalid byte as a lone surrogate), exit code and stderr line.
    A line's kind is the line without its line number, quoted texts and numbers, so the files spread over faults."""
    drawn = []

    @hypothesis.seed(seed)
    @settings(max_examples=3000, database=None, deadline=None, phases=[hypothesis.Phase.generate])
    @given(file=data_files())
    def draw(file):
        drawn.append(file[0])

    draw()
    faulty, kinds = {}, collections.Counter()
    with tempfile.TemporaryDirectory() as directory:
        for data in dict.fromkeys(drawn):
            name = f"faulty-{len(faulty):02d}.csv"
            with open(os.path.join(directory, name), "wb") as handle:
                handle.write(data)
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                os.environ.pop(cli.ENV_DATA_DIR, None)
                code = cli.main(["table", "--data-file", os.path.join(directory, name), "--format", "csv"])
            line = err.getvalue().replace(os.path.join(directory, name), name)
            kind = re.sub(r"line \d+|'[^']*'|\S*\d\S*", "", line)  # the line without its line, names and numbers
            if code and kinds[kind] < per_kind:
                kinds[kind] += 1
                faulty[name] = {"text": data.decode("utf-8", "surrogateescape"), "exit": code, "stderr": line}
                if len(faulty) == count:
                    break
    return faulty


if __name__ == "__main__":
    # draws the committed faulty data files and records each one's error line from this tree
    with open(FAULTY_FILES, "w", encoding="utf-8") as _out:
        json.dump(draw_faulty_files(), _out, indent=2)
        _out.write("\n")
    print(f"wrote {FAULTY_FILES}")
