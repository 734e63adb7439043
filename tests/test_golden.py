"""CLI outputs against frozen CSV files in tests/golden.

Covers the README command-line examples, a Coulomb-continuum validate run, and
one whole-grid wavefunction each for the Laguerre residue and the Morse ray.
Headers, text cells and footer keys must match exactly; numeric cells (and
numeric footer values) within 1e-10 relative with a 1e-13 absolute floor, so a
different libm passes while a change in any formula or order of operations
beyond the last digits does not.
"""

from pathlib import Path

import pytest

from laplaceqm.cli import main, read_csv

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "spectrum_coulomb3d.csv": ["spectrum", "--kind", "coulomb3d", "--param", "l=1",
                               "--param", "n_max=5"],
    "wavefunction_sho1d_hermite.csv": ["wavefunction", "--kind", "sho1d_hermite",
                                       "--param", "n=3", "--grid=-4,4,81"],
    "wavefunction_coulomb3d_cont_circle.csv": [
        "wavefunction", "--kind", "coulomb3d_cont", "--param", "E=1", "--method", "circle",
        "--radius", "1.1", "--steps", "100000", "--grid", "0,10,21"],
    "wavefunction_coulomb3d_residue.csv": [
        "wavefunction", "--kind", "coulomb3d", "--param", "l=1", "--param", "n=3",
        "--grid", "0,40,201"],
    "wavefunction_morse_cont_ray.csv": [
        "wavefunction", "--kind", "morse_cont", "--param", "E=1", "--param", "V0=1.2",
        "--grid=-1.5,3.5,41"],
    "validate_free3d.csv": ["validate", "--kind", "free3d", "--param", "E=1",
                            "--grid", "0.5,10,20"],
    "validate_coulomb3d_cont.csv": ["validate", "--kind", "coulomb3d_cont", "--param", "E=1",
                                    "--grid", "0.5,12,12"],
}


def _same_cell(got, want) -> bool:
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    if want != want:  # NaN
        return got != got
    return abs(got - want) <= max(1e-10 * abs(want), 1e-13)


def _footer(line):
    key, _, value = line.partition(" = ")
    try:
        return key, float(value)
    except ValueError:
        return key, value


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(capsys, name):
    assert main(CASES[name]) == 0
    header, rows, footers = read_csv(capsys.readouterr().out)
    want_header, want_rows, want_footers = read_csv((GOLDEN / name).read_text())
    assert header == want_header
    assert len(rows) == len(want_rows)
    for i, (row, want) in enumerate(zip(rows, want_rows)):
        assert len(row) == len(want)
        bad = [(h, g, w) for h, g, w in zip(header, row, want) if not _same_cell(g, w)]
        assert not bad, f"row {i}: {bad}"
    got_footers = [_footer(f) for f in footers]
    want_footers = [_footer(f) for f in want_footers]
    assert [k for k, _ in got_footers] == [k for k, _ in want_footers]
    for (key, got), (_, want) in zip(got_footers, want_footers):
        assert _same_cell(got, want), key
