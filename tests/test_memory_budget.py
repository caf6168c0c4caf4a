"""Traced peak memory of sim's and bcs's numpy work, of json rendering, and of table.

numpy reports its data allocations to tracemalloc, so the traced peak
counts every full-size temporary. LAPACK's eigensolver buffer is not
traced, so the budgets below leave it out.
"""

import collections
import contextlib
import io
import math
import os
import tracemalloc

import pytest

from iondecoh import cli, densmat, vacuum
from iondecoh.materials import load_salts
from iondecoh.units import length_m, rate_per_s, time_s

N = 256
STATE_BYTES = 16 * N * N  # N^2 complex doubles
SEPARATION = length_m(1e-8)
SPEC = densmat.SuperpositionSpec(separation=SEPARATION, width=length_m(1e-9), relative_phase=0.7)
BUNDLED_CSV = os.path.join(os.path.dirname(cli.__file__), "data", "salts.csv")


def traced_peak(fn):
    """Bytes traced at fn's peak above those traced when it starts.

    fn runs once untraced first, so that imports and caches made on the
    first call (numpy itself is imported on first use) are not counted.
    """
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def traced_size(fn):
    """Bytes traced that fn's result still holds once fn has returned."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()  # held while measured
        return tracemalloc.get_traced_memory()[0] - start
    finally:
        if not tracing:
            tracemalloc.stop()


class _Discard(io.TextIOBase):
    """A stdout that keeps nothing; its writelines, as sys.stdout's, holds no line past its write."""

    def write(self, text):
        return len(text)


def test_prepare_stays_within_two_and_a_quarter_states():
    # the outer product plus its conjugate transpose, symmetrised in place
    peak = traced_peak(lambda: densmat.prepare_superposition(SPEC, num_points=N))
    assert peak / STATE_BYTES <= 2.25


def test_one_step_stays_within_1_8_states_above_the_prepared_one():
    # the new state, the |rho|^2 buffer of purity (half a state) and row blocks
    rho = densmat.prepare_superposition(SPEC, num_points=N)
    peak = traced_peak(lambda: densmat.evolve_series(
        rho, rate_per_s(1e15), length_m(1e-10), t_total=time_s(1e-15), steps=1, separation=SEPARATION
    ))
    assert peak / STATE_BYTES <= 1.8


BCS_MODES = 1_000_000
BCS_MODE_BYTES = 8 * BCS_MODES  # one array of K doubles


def test_pairing_profile_stays_within_1_2_mode_arrays():
    # reading u draws the one array of K doubles a leaf at a time: measured
    # 1.07 arrays at 10^6 modes, the array plus one leaf's band energies,
    # where drawing every band energy at once took 2.00
    family = vacuum.pairing_family(seed=7)
    peak = traced_peak(lambda: family(BCS_MODES).u)
    assert peak / BCS_MODE_BYTES <= 1.2


# bcs and overlap_decay_rate draw, check and sum each profile a leaf of
# 65,536 modes at a time: over 4 * 10^6 modes (32 MB as one array) measured
# 1,027,824 to 1,029,068 traced bytes, a leaf's U_k and a leaf of logs,
# where one array of K doubles took 32 MB; the bound is that plus about 15%
BCS_PEAK_BYTES = 1_180_000
BCS_BIG_MODES = 4_000_000


@pytest.mark.parametrize("extra", [[], ["--uniform-u", "0.9"]], ids=["pairing", "uniform"])
def test_bcs_peak_does_not_grow_with_the_mode_count(extra):
    def run():
        with contextlib.redirect_stdout(_Discard()):
            assert cli.main(["bcs", "--modes", str(BCS_BIG_MODES), *extra]) == 0

    assert traced_peak(run) <= BCS_PEAK_BYTES


def test_decay_rate_peak_does_not_grow_with_the_mode_count():
    family = vacuum.pairing_family()
    assert traced_peak(lambda: vacuum.overlap_decay_rate(family, [10, 100, BCS_BIG_MODES])) <= BCS_PEAK_BYTES


def test_inline_prepared_series_stays_within_two_and_a_half_states():
    # as the CLI runs it: prepare's outer product plus its conjugate
    # transpose, then the current state with the next one or with purity's
    # |rho|^2 buffer; no step keeps the prepared state next to them
    peak = traced_peak(lambda: densmat.evolve_series(
        densmat.prepare_superposition(SPEC, num_points=N), rate_per_s(1e15), length_m(1e-10),
        t_total=time_s(1e-15), steps=2, separation=SEPARATION,
    ))
    assert peak / STATE_BYTES <= 2.5


TABLE_ROWS = 2000
# traced peak of table per byte of the text it renders: table renders each
# record's row as the record is read, beside the loader's set of names seen;
# csv and json write each chunk of rows as it is joined, and human keeps the
# csv text and aligns one chunk at a time as it writes. Measured over 2,000
# rows: 3.16 (csv), 1.48 (json) and 2.71 (human) times 122,183, 372,708 and
# 164,692 bytes of text, where holding every chunk until the file was read
# took 3.65, 1.87 and 2.83; each bound is the measured value plus about 15%.
TABLE_PEAK_PER_TEXT_BYTE = {"csv": 3.63, "json": 1.71, "human": 3.12}


def _bundled_rows_file(tmp_path, rows=TABLE_ROWS):
    """rows bundled rows, each name made unique."""
    path = tmp_path / "salts.csv"
    with open(BUNDLED_CSV, encoding="utf-8") as handle:
        bundled = [line for line in handle if not line.startswith("#")]
    path.write_text("".join(f"{i}{bundled[i % len(bundled)]}" for i in range(rows)))
    return path


@pytest.mark.parametrize("fmt", list(TABLE_PEAK_PER_TEXT_BYTE))
def test_table_stays_within_its_bound_per_byte_of_text(tmp_path, fmt):
    path = _bundled_rows_file(tmp_path)
    argv = ["table", "--data-file", str(path), "--format", fmt]
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert cli.main(argv) == 0

    def run():
        with contextlib.redirect_stdout(_Discard()):
            assert cli.main(argv) == 0

    assert traced_peak(run) / len(text.getvalue().encode()) <= TABLE_PEAK_PER_TEXT_BYTE[fmt]


STREAMED_TABLE_ROWS = 20_000


def test_json_table_stays_within_215_bytes_a_row(tmp_path):
    # json text does not pile up: over 20,000 rows (3.7 MB of text) a json
    # table peaks at the loader's set of names and one chunk of rows,
    # measured 196 traced bytes a row, where the loader alone peaks at 188
    # as its set of names resizes; holding the whole text took 374
    argv = ["table", "--data-file", str(_bundled_rows_file(tmp_path, STREAMED_TABLE_ROWS)), "--format", "json"]

    def run():
        with contextlib.redirect_stdout(_Discard()):
            assert cli.main(argv) == 0

    assert traced_peak(run) / STREAMED_TABLE_ROWS <= 215


def test_loaded_records_stay_within_450_bytes_a_row(tmp_path):
    # a record keeps its SI floats, not IonSpecies and Quantities: measured
    # 425 bytes a row, where records of Quantities took 825
    path = _bundled_rows_file(tmp_path)
    assert traced_size(lambda: load_salts(path)) / TABLE_ROWS <= 450


def test_factor_salt_stays_within_165_bytes_a_row(tmp_path):
    # factor --salt reads the whole file but keeps the names read, not the
    # records: measured 141 traced bytes a row, the loader's set of names
    # included, where a list of every record took 490
    path = _bundled_rows_file(tmp_path)
    last = path.read_text().splitlines()[-1].split(",")[0]
    argv = ["factor", "--salt", last, "--dx", "3e-9", "--time", "1e-16", "--data-file", str(path)]

    def run():
        with contextlib.redirect_stdout(_Discard()):
            assert cli.main(argv) == 0

    assert traced_peak(run) / TABLE_ROWS <= 165


SIM_SAMPLES = 2000
SIM_PAYLOAD = {
    "separation_m": 3e-9, "width_m": 3e-10, "wavelength_m": 2.9912e-11, "rate_per_s": 2.1687e16,
    "samples": [{"time_s": 1e-19 * i, "coherence": math.exp(-i / 300), "trace": 1.0 - 1e-16 * (i % 3),
                 "purity": 0.5 + 0.5 * math.exp(-i / 300), "min_eigenvalue": -1e-18 * (i % 7)}
                for i in range(SIM_SAMPLES)],
}


def test_sim_json_chunks_stay_within_7250_bytes():
    # the encoder's chunks are handed on as they are yielded, so no whole text
    # is held: measured 6,305 bytes over 2,000 samples (366,960 bytes of
    # text), where joining the text before writing it took 737,791
    peak = traced_peak(lambda: collections.deque(cli._render_table([], "json", SIM_PAYLOAD), maxlen=0))
    assert peak <= 7250
