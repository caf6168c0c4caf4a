"""Traced peak memory of sim's and bcs's numpy work, and of table.

numpy reports its data allocations to tracemalloc, so the traced peak
counts every full-size temporary. LAPACK's eigensolver buffer is not
traced, so the budgets below leave it out.
"""

import contextlib
import io
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


def test_pairing_profile_stays_within_two_and_a_quarter_mode_arrays():
    # the band energies and the one buffer U_k is evaluated in
    modes = 100_000
    family = vacuum.pairing_family(seed=7)
    peak = traced_peak(lambda: family(modes))
    assert peak / (8 * modes) <= 2.25


def test_inline_prepared_series_stays_within_two_and_a_half_states():
    # as the CLI runs it: prepare's outer product plus its conjugate
    # transpose, then the current state with the next one or with purity's
    # |rho|^2 buffer; no step keeps the prepared state next to them
    peak = traced_peak(lambda: densmat.evolve_series(
        densmat.prepare_superposition(SPEC, num_points=N), rate_per_s(1e15), length_m(1e-10),
        t_total=time_s(1e-15), steps=2, separation=SEPARATION,
    ))
    assert peak / STATE_BYTES <= 2.5


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


TABLE_ROWS = 2000
# traced peak of table per byte of the text it renders: table renders each
# record's row as the record is read and keeps only the text, in chunks of
# rows, plus the loader's set of names seen; human keeps the csv text and
# aligns one chunk at a time as it writes. Measured over 2,000 rows: 3.61
# (csv), 1.86 (json) and 2.83 (human) times 122,183, 372,708 and 164,692
# bytes of text; each bound is the measured value plus about 15%.
TABLE_PEAK_PER_TEXT_BYTE = {"csv": 4.15, "json": 2.15, "human": 3.25}


def _bundled_rows_file(tmp_path):
    """TABLE_ROWS bundled rows, each name made unique."""
    path = tmp_path / "salts.csv"
    with open(BUNDLED_CSV, encoding="utf-8") as handle:
        bundled = [line for line in handle if not line.startswith("#")]
    path.write_text("".join(f"{i}{bundled[i % len(bundled)]}" for i in range(TABLE_ROWS)))
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


def test_loaded_records_stay_within_450_bytes_a_row(tmp_path):
    # a record keeps its SI floats, not IonSpecies and Quantities: measured
    # 425 bytes a row, where records of Quantities took 825
    path = _bundled_rows_file(tmp_path)
    assert traced_size(lambda: load_salts(path)) / TABLE_ROWS <= 450
