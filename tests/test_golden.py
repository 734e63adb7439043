"""CLI outputs against frozen CSV files in tests/golden, and against the truth.

Covers the README command-line examples, a Coulomb-continuum validate run, and
one whole-grid wavefunction each for the Laguerre residue and the Morse ray.
Headers, text cells and footer keys must match exactly; numeric cells (and
numeric footer values) within 1e-10 relative with a 1e-13 absolute floor, so a
different libm passes while a change in any formula or order of operations
beyond the last digits does not.

The quadrature routes' cells are the exception. The circle's and the real
integral's rules may change their last digits, so in the three goldens that
print them, every route's value is held to frozen mpmath values of Phi
instead, each within a bound taken from that route's measured error; the
circle's and the real integral's cells are held only to that bound, the
series' to it and to the golden. Every dev_* cell must equal
|va - vb| / |v_ref| recomputed from the printed values and lie within what the
value bounds allow, and the pairwise_max_rel_dev footer must be the largest
printed dev_* cell.
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
        "--radius", "1.1", "--grid", "0,10,21"],
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

# (Im Phi, scale) at every grid point of the goldens that print the circle
# route, where scale = sqrt(|Phi|^2 + |dPhi/dxi|^2); Re Phi = 0 for these
# states. From mpmath at 40 digits by Euler's integral for M,
# Phi = C 2^(beta-1) B(a-, a+) e^{-i xi} M(a-, beta, 2i xi), a+- = (beta -+ i delta)/2,
# beta = 2: coulomb3d_cont at E = 1 has delta = sqrt(2) and
# C = i(e^{-pi delta/2} - e^{pi delta/2}); free3d has delta = 0 and C = i.
# Every seventh point was confirmed by direct quadrature of the segment
# integral C 2^(beta-1) e^{-i xi} int_0^1 e^{2i xi t} t^(a- - 1) (1-t)^(a+ - 1) dt.
TRUTH = {
    "validate_coulomb3d_cont.csv": (  # xi = 0.5, ..., 12
        (-5.8068420459096215e+00, 8.2879602169044073e+00),
        (-7.8189297690669834e-01, 3.5207541275914038e+00),
        (1.2285952849788093e+00, 1.3372679705292365e+00),
        (8.1865932165147304e-01, 1.2978881569995193e+00),
        (-2.7129147345442689e-01, 8.9160069998529679e-01),
        (-6.9139814375690234e-01, 6.9452429304389685e-01),
        (-2.7120472585641020e-01, 6.7163288763289253e-01),
        (3.1715260807681073e-01, 5.1106886406803986e-01),
        (4.4432398276614549e-01, 4.7136751211032696e-01),
        (9.1535259688178369e-02, 4.4460185174873146e-01),
        (-2.8799892301613306e-01, 3.6435529316908244e-01),
        (-3.0940901568350671e-01, 3.5461074450107699e-01),
    ),
    "validate_free3d.csv": (  # xi = 0.5, ..., 10
        (1.9177021544168120e+00, 1.9450590475270515e+00),
        (1.6829419696157930e+00, 1.7874853749867601e+00),
        (1.3299933154720727e+00, 1.5481260640181036e+00),
        (9.0929742682568171e-01, 1.2590102065757511e+00),
        (4.7877771528316521e-01, 9.6029220054004727e-01),
        (9.4080005373244818e-02, 6.9772686832230002e-01),
        (-2.0044755867978278e-01, 5.1818658657278938e-01),
        (-3.7840124765396410e-01, 4.4397559459971270e-01),
        (-4.3445783007337646e-01, 4.3446723803092419e-01),
        (-3.8356970986525540e-01, 4.2812814021213846e-01),
        (-2.5656011838923343e-01, 3.9805679644214925e-01),
        (-9.3138499399641958e-02, 3.4826514718344243e-01),
        (6.6190765565481702e-02, 2.9775558409566200e-01),
        (1.8771045677679687e-01, 2.6608169182399294e-01),
        (2.5013332713993036e-01, 2.5701695577197364e-01),
        (2.4733956165584545e-01, 2.5633012518932002e-01),
        (1.8787932061729185e-01, 2.4922637361301930e-01),
        (9.1581885609279240e-02, 2.3153165134260312e-01),
        (-1.5821288518275644e-02, 2.0886566398392747e-01),
        (-1.0880422217787396e-01, 1.9096230671189227e-01),
    ),
    "wavefunction_coulomb3d_cont_circle.csv": (  # xi = sqrt(2) * (0, 0.5, ..., 10)
        (-8.8857658763167322e+00, 1.0882796185405306e+01),
        (-4.6161665819870077e+00, 7.2327465009320209e+00),
        (-1.2576265811152847e+00, 4.0174481433098830e+00),
        (7.0480650988333227e-01, 1.8800791361814011e+00),
        (1.2921578157261646e+00, 1.2923314156521266e+00),
        (9.1695918714247826e-01, 1.3130617359893182e+00),
        (1.5902693652666125e-01, 1.0912618453929352e+00),
        (-4.7114158721754779e-01, 7.9144976180038373e-01),
        (-6.9393021120563225e-01, 6.9395431983290823e-01),
        (-5.0136753793706312e-01, 7.0129395263929672e-01),
        (-8.4727373719931401e-02, 6.3035139965964870e-01),
        (3.0074128753800589e-01, 5.1622114471208924e-01),
        (4.6728585740046846e-01, 4.6905848589031984e-01),
        (3.6862109120401149e-01, 4.7316330849454630e-01),
        (9.5709402327296383e-02, 4.4530046691599839e-01),
        (-1.8970463159736362e-01, 3.8649805461760595e-01),
        (-3.4348854181804717e-01, 3.5353838888204397e-01),
        (-3.0573451162333998e-01, 3.5468137632180002e-01),
        (-1.1812641366969429e-01, 3.4421493808838932e-01),
        (1.0918494618509574e-01, 3.1041044513713872e-01),
        (2.5912027020962292e-01, 2.8438030015214938e-01),
    ),
}

# |value - Phi| <= bound * |Phi| per file and printed route: ten times the
# route's worst error measured when these checks were introduced, or for the
# real integral when it moved to double-exponential contours (written beside
# each bound), rounded up to two digits. |Phi| >= 0.07 scale at every
# point of these grids, so no node inflates the relative error.
BOUNDS = {
    "validate_coulomb3d_cont.csv": {
        "real_integral": 1.6e-12,  # measured 1.55e-13
        "circle": 9.7e-11,  # measured 9.70e-12
        "series": 3.0e-9,  # measured 2.98e-10
    },
    "validate_free3d.csv": {
        "real_integral": 2.8e-12,  # measured 2.75e-13, the %.12e print rounding at xi = 9.5
        "circle": 3.4e-8,  # measured 3.33e-9
        "series": 8.6e-11,  # measured 8.53e-12
    },
    "wavefunction_coulomb3d_cont_circle.csv": {
        "phi": 1.8e-9,  # measured 1.70e-10
        "psi": 1.8e-9,  # measured 1.70e-10 (the prefactor r^l is 1 at l = 0)
    },
}

# numeric cells left to the truth checks: the circle's and the real
# integral's values and the deviations and footer computed from them
TRUTH_CELLS = {"re_circle", "im_circle", "re_real_integral", "im_real_integral",
               "dev_real_integral_circle", "dev_real_integral_series", "dev_circle_series",
               "re_phi", "im_phi", "re_psi", "im_psi", "pairwise_max_rel_dev"}

# every dev_* column, and the routes each compares
DEVS = {"dev_real_integral_circle": ("real_integral", "circle"),
        "dev_real_integral_series": ("real_integral", "series"),
        "dev_circle_series": ("circle", "series")}

PRINT_ROUNDING = 1e-12  # relative rounding of a %.12e cell, with headroom


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


def _run(capsys, name):
    assert main(CASES[name]) == 0
    return read_csv(capsys.readouterr().out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(capsys, name):
    header, rows, footers = _run(capsys, name)
    want_header, want_rows, want_footers = read_csv((GOLDEN / name).read_text())
    free = TRUTH_CELLS if name in TRUTH else set()
    assert header == want_header
    assert len(rows) == len(want_rows)
    for i, (row, want) in enumerate(zip(rows, want_rows)):
        assert len(row) == len(want)
        bad = [(h, g, w) for h, g, w in zip(header, row, want)
               if h not in free and not _same_cell(g, w)]
        assert not bad, f"row {i}: {bad}"
    got_footers = [_footer(f) for f in footers]
    want_footers = [_footer(f) for f in want_footers]
    assert [k for k, _ in got_footers] == [k for k, _ in want_footers]
    for (key, got), (_, want) in zip(got_footers, want_footers):
        assert key in free or _same_cell(got, want), key


def _value(row, col, route):
    return complex(row[col["re_" + route]], row[col["im_" + route]])


@pytest.mark.parametrize("name", sorted(TRUTH))
def test_routes_match_truth(capsys, name):
    header, rows, footers = _run(capsys, name)
    col = {h: i for i, h in enumerate(header)}
    truth = TRUTH[name]
    bounds = BOUNDS[name]
    assert len(rows) == len(truth)
    for i, (row, (im_phi, scale)) in enumerate(zip(rows, truth)):
        phi = 1j * im_phi
        assert abs(phi) >= 0.07 * scale
        for route, bound in bounds.items():
            err = abs(_value(row, col, route) - phi) / abs(phi)
            assert err <= bound, f"row {i}: {route} off by {err:.3g} > {bound:.3g}"
    if not name.startswith("validate"):
        return
    for i, (row, (im_phi, _)) in enumerate(zip(rows, truth)):
        ref = _value(row, col, "real_integral")
        for h, (a, b) in DEVS.items():
            va, vb, dev = _value(row, col, a), _value(row, col, b), row[col[h]]
            recomputed = abs(va - vb) / abs(ref)
            slack = PRINT_ROUNDING * ((abs(va) + abs(vb)) / abs(ref) + dev)
            assert abs(dev - recomputed) <= slack, f"row {i}: {h} {dev} vs {recomputed}"
            allowed = (bounds[a] + bounds[b]) * abs(im_phi) / abs(ref)
            assert dev <= allowed + slack, f"row {i}: {h} {dev:.3g} > {allowed:.3g}"
    worst = max(row[col[h]] for row in rows for h in header if h.startswith("dev_"))
    notes = dict(_footer(f) for f in footers)
    assert abs(notes["pairwise_max_rel_dev"] - worst) <= 1e-6 * worst
