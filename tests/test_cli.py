"""End-to-end CLI tests: exit codes, CSV contracts, config handling."""

import cmath
import math
import os
import shlex
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import laplaceqm.cli as cli
import laplaceqm.contour_eval as ce
import laplaceqm.special_fn as sf
from laplaceqm.cli import (
    ConfigError,
    _parse_grid,
    main,
    read_csv,
    render_csv,
)
from laplaceqm.potential_catalog import Kind, ProblemSpec, bound_energy, coordinate_map


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_hermite_ladder(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--kind", "sho1d_hermite",
                           "--param", "n_max=2")
        assert code == 0
        header, rows, footers = read_csv(out)
        assert header == ["n", "N", "E"]
        assert rows == [[0, 0, 0.5], [1, 1, 1.5], [2, 2, 2.5]]
        assert footers == []

    def test_hydrogen_ground_row(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--kind", "coulomb3d",
                           "--param", "l=0", "--param", "n_max=1")
        assert code == 0
        assert out == "n,N,E\n1,0,-5.000000000000e-01\n"

    def test_continuum_kind_rejected(self, capsys):
        code, out, err = run(capsys, "spectrum", "--kind", "free3d")
        assert code == 2
        assert out == ""
        assert "not a bound problem" in err

    def test_morse_truncation_visible(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--kind", "morse",
                           "--param", "V0=3.125", "--param", "n_max=10")
        assert code == 0
        _, rows, _ = read_csv(out)
        assert [r[0] for r in rows] == [0, 1]


class TestWavefunctionCommand:
    def test_two_point_grid_gives_two_rows(self, capsys):
        code, out, _ = run(capsys, "wavefunction", "--kind", "sho1d_even",
                           "--grid", "0,2,2")
        assert code == 0
        header, rows, _ = read_csv(out)
        assert header == ["coordinate", "xi", "re_phi", "im_phi",
                          "re_psi", "im_psi", "method"]
        assert len(rows) == 2
        assert rows[0][-1] == "residue"

    def test_low_coulomb_energy_warns_then_fails_precisely(self, capsys):
        # E = 1e-3 prints with a warning; E = 1e-8 exits 3 at once, naming
        # delta and its bound
        base = ("wavefunction", "--kind", "coulomb3d_cont", "--grid", "1,3,2")
        with pytest.warns(ce.PrecisionLoss, match="real integral at xi = ") as record:
            code, _, _ = run(capsys, *base, "--param", "E=1e-3")
        assert code == 0
        assert len(record) == 2
        code, out, err = run(capsys, *base, "--param", "E=1e-8")
        assert (code, out) == (3, "")
        assert "point 0" in err and "delta = 14142.1" in err and "452.303" in err

    @pytest.mark.parametrize("n", [41, 201])
    def test_high_coulomb_level_against_mpmath(self, capsys, n):
        # a power series in xi cancels to garbage at n = 41, and its integer
        # coefficients no longer fit a double at n = 201
        mp = pytest.importorskip("mpmath")
        hi = 2.0 * n * n + 20.0 * n  # past the last turning point, r = 2 n^2
        code, out, _ = run(capsys, "wavefunction", "--kind", "coulomb3d", "--param", f"n={n}",
                           f"--grid=0.5,{hi},9")
        assert code == 0
        _, rows, _ = read_csv(out)
        got = np.array([complex(r[2], r[3]) for r in rows])
        spec = ProblemSpec(kind=Kind.COULOMB3D)
        xi = coordinate_map(spec, bound_energy(spec, n)).xi(np.linspace(0.5, hi, 9))
        with mp.workdps(40):  # beta = 2, lambda = 1: Phi = -4 pi i e^{-xi} L_{n-1}^(1)(2 xi)
            want = np.array([complex(-4j * mp.pi * mp.exp(-mp.mpf(x))
                                     * mp.laguerre(n - 1, 1, 2 * mp.mpf(x))) for x in xi])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind, n, part", [("coulomb3d", 2, "re"), ("sho1d_even", 1, "im")])
    def test_real_state_prints_its_zero_part_exactly(self, capsys, kind, n, part):
        # the residue phase e^{i pi (beta - 1)} is exactly -1 and -i here;
        # cmath.exp printed its rounding as 1e-16 of max|Phi|
        code, out, _ = run(capsys, "wavefunction", "--kind", kind, "--param", f"n={n}",
                           "--grid=0.5,4,3")
        header, rows, _ = read_csv(out)
        assert code == 0
        for column in (f"{part}_phi", f"{part}_psi"):
            assert [row[header.index(column)] for row in rows] == [0.0] * 3

    @pytest.mark.parametrize("kind, n, grid, coord", [
        ("sho1d_hermite", 10_000, "-1,1,3", "-1"), ("coulomb3d", 10**6, "0,10,5", "0")],
        ids=["sho1d_hermite", "coulomb3d"])
    def test_level_past_overflow_exits_3_at_once(self, capsys, kind, n, grid, coord):
        # the recurrence overflows at every point within a few hundred steps
        # and stops there; the exit-3 message is the one report
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "wavefunction", "--kind", kind,
                                 "--param", f"n={n}", f"--grid={grid}")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err.count("\n") == 1
        assert err.startswith(f"error: evaluation failed at point 0 (coordinate={coord})")
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_hermite_level_finite_on_its_grid_prints(self, capsys):
        # H_194 overflows past its turning point, but not on [-1, 1]
        code, out, _ = run(capsys, "wavefunction", "--kind", "sho1d_hermite",
                           "--param", "n=194", "--grid=-1,1,3")
        header, rows, _ = read_csv(out)
        assert code == 0
        phi = np.array([row[header.index("re_phi")] for row in rows])
        assert np.all(np.isfinite(phi)) and phi[0] == pytest.approx(-1.478487036064e209)

    def test_bound_label_sets_energy_scale(self, capsys):
        # coulomb3d n=2: kappa = 1/2, so xi = r/2
        code, out, _ = run(capsys, "wavefunction", "--kind", "coulomb3d",
                           "--param", "n=2", "--grid", "2,4,2")
        assert code == 0
        _, rows, _ = read_csv(out)
        assert rows[0][0] == pytest.approx(2.0)
        assert rows[0][1] == pytest.approx(1.0)
        assert rows[1][1] == pytest.approx(2.0)

    def test_circle_method_selected(self, capsys):
        code, out, _ = run(capsys, "wavefunction", "--kind", "coulomb3d_cont",
                           "--param", "E=0.1", "--method", "circle",
                           "--radius", "1.1", "--grid", "1,2,2")
        assert code == 0
        _, rows, _ = read_csv(out)
        assert all(r[-1] == "circle" for r in rows)

    def test_morse_continuum_curve(self, capsys):
        code, out, _ = run(capsys, "wavefunction", "--kind", "morse_cont",
                           "--param", "V0=1", "--param", "E=10",
                           "--grid=-2,8,21")
        assert code == 0
        _, rows, _ = read_csv(out)
        assert len(rows) == 21
        assert all(r[-1] == "morse_ray" for r in rows)
        amp = [math.hypot(r[4], r[5]) for r in rows]
        # x = -2 is past the turning point: deeply suppressed wavefunction
        assert amp[0] < 0.05 * max(amp)

    def test_continuum_needs_energy(self, capsys):
        code, _, err = run(capsys, "wavefunction", "--kind", "free2d",
                           "--grid", "0,5,4")
        assert code == 2
        assert "E=" in err

    @pytest.mark.parametrize("energy", ["-1", "0"])
    def test_continuum_energy_sign_rejected(self, capsys, energy):
        code, out, err = run(capsys, "wavefunction", "--kind", "coulomb3d_cont",
                             "--param", f"E={energy}", "--grid=1,2,3")
        assert (code, out) == (2, "")
        assert err == f"error: coulomb3d_cont needs finite E > 0, got E = {float(energy)}\n"

    def test_negative_radial_grid_rejected(self, capsys):
        code, _, err = run(capsys, "wavefunction", "--kind", "free3d",
                           "--param", "E=1", "--grid=-1,5,4")
        assert code == 2
        assert "nonnegative" in err

    def test_label_below_start_rejected(self, capsys):
        code, _, err = run(capsys, "wavefunction", "--kind", "coulomb3d",
                           "--param", "n=0", "--grid", "0,4,3")
        assert code == 2
        assert "smallest admissible" in err

    @pytest.mark.filterwarnings("ignore::laplaceqm.contour_eval.PrecisionLoss")
    def test_evaluation_failure_reports_point(self, capsys):
        # the ascending Kummer series cannot reach xi ~ 2800: exit 3, not 2
        code, _, err = run(capsys, "wavefunction", "--kind", "coulomb3d_cont",
                           "--param", "E=1", "--method", "series",
                           "--grid", "1999,2001,2")
        assert code == 3
        assert "failed at point 0" in err

    def test_method_of_another_regime_rejected(self, capsys):
        code, out, err = run(capsys, "wavefunction", "--kind", "coulomb3d",
                             "--method", "circle", "--grid", "0,5,3")
        assert code == 2
        assert out == ""
        assert err == "error: method circle not valid for coulomb3d\n"

    @pytest.mark.filterwarnings("ignore::laplaceqm.contour_eval.PrecisionLoss")
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_value_is_a_failed_point(self, capsys):
        # R*xi = 1.1 * 707 overflows the circle sum: no NaN rows with exit 0
        code, out, err = run(capsys, "wavefunction", "--kind", "coulomb3d_cont",
                             "--param", "E=1", "--method", "circle",
                             "--grid", "0,1000,3")
        assert code == 3
        assert out == ""
        assert "failed at point 1 (coordinate=500)" in err
        assert "circle route" in err
        # Phi is finite but r^400 overflows the prefactor: psi is checked too;
        # H_192 overflows at xi = 30. The exit-3 message is the only report
        # (no numpy warning)
        for kind, param, grid, coord in (("sho3d", "l=400", "0,20,3", "10"),
                                         ("sho1d_hermite", "n=192", "0,30,2", "30")):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run(capsys, "wavefunction", "--kind", kind,
                                     "--param", param, f"--grid={grid}")
            assert code == 3
            assert out == ""
            assert f"failed at point 1 (coordinate={coord})" in err
            assert [w for w in caught if issubclass(w.category, RuntimeWarning)
                    and not issubclass(w.category, sf.PrecisionLoss)] == []

    def test_bad_circle_radius(self, capsys):
        code, _, err = run(capsys, "wavefunction", "--kind", "coulomb3d_cont",
                           "--param", "E=1", "--method", "circle",
                           "--radius", "0.9", "--grid", "1,2,2")
        assert code == 2
        assert "radius" in err


class TestCircleMemo:
    @pytest.mark.parametrize("argv", [
        ("validate", "--kind", "coulomb3d_cont", "--param", "E=1", "--grid", "0.5,12,12"),
        ("wavefunction", "--kind", "coulomb3d_cont", "--param", "E=1",
         "--method", "circle", "--grid", "0,10,21"),
    ])
    def test_nodes_built_once_per_grid(self, capsys, monkeypatch, argv):
        # each rule level adds only its odd nodes and is built at most once
        # per grid, and these grids (xi <= 14) converge at the 6,250-node
        # level of the 100,000: 3,125 nodes, then 3,125 new ones
        built = []
        original = ce.phase_phi1

        def counted(theta, radius):
            built.append(theta.size)
            return original(theta, radius)

        monkeypatch.setattr(ce, "phase_phi1", counted)
        ce._circle_terms.cache_clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert sum(built) <= 6250


# (Re Phi, Im Phi, scale) of the deep Morse well V0 = 40, E = 1 (mu = a = 1)
# at the 61 points of --grid=-0.9225,5.618,61, xi = 45.0 down to 0.065, from
# mpmath at 40 digits: Phi = e^{i pi (beta-1)} Gamma(a) e^{-xi/2} U(a, beta, xi)
# with beta = 1 + 2 sqrt(2) i, a = beta/2 - sqrt(80), and
# scale = sqrt(|Phi|^2 + |xi dPhi/dxi|^2), dU/dxi = -a U(a+1, beta+1, xi)
DEEP_WELL_TRUTH = (
    (1.0912088392677098e-07, 1.8518490442138274e-07, 2.4697316985361776e-06),
    (2.3325228602161872e-07, 5.8684966517881606e-07, 5.4306489591792275e-06),
    (2.9946013674935573e-07, 1.3134814112194817e-06, 7.7107693363284596e-06),
    (1.4342597935388235e-07, 2.0456792918967060e-06, 5.6694969325193108e-06),
    (-1.7339297716604031e-07, 2.0553144699718254e-06, 6.1790107531459099e-06),
    (-2.1885028330855335e-07, 9.0083299713804315e-07, 1.5078970388148774e-05),
    (3.2201265868245404e-07, -7.7787594779256162e-07, 1.5256508540748665e-05),
    (9.8824151328360404e-07, -1.6240577596937219e-06, 4.1958766635619992e-06),
    (8.3954223597499598e-07, -9.9510631748151849e-07, 1.2964069529539696e-05),
    (-3.4600813492140130e-07, 3.0092736672771301e-07, 1.6890532890601840e-05),
    (-1.5337129169834227e-06, 9.6512384611318624e-07, 6.7485521221661072e-06),
    (-1.4485192915499865e-06, 6.2527946052228337e-07, 1.0215066239165336e-05),
    (3.8214626457218130e-09, -9.8940294735535699e-10, 1.6916991710084623e-05),
    (1.5871844986696330e-06, -1.5793965965071425e-07, 1.0596279075618127e-05),
    (1.9575814144641984e-06, 1.0773296782266510e-07, 5.1215752113652925e-06),
    (8.7259139586676123e-07, 1.8520126052614654e-07, 1.4487573383816522e-05),
    (-7.4739289641722227e-07, -2.8414048580087147e-07, 1.4855858850998137e-05),
    (-1.7322674286417095e-06, -9.8599960023850690e-07, 6.9402554143455620e-06),
    (-1.5721823831685008e-06, -1.2497253738093356e-06, 6.5943026582734017e-06),
    (-6.1982309720278436e-07, -6.7202321465408373e-07, 1.3523069907259044e-05),
    (3.6478403543037118e-07, 5.4381268173112997e-07, 1.4162306121380905e-05),
    (8.1526177317416086e-07, 1.7467001930787070e-06, 9.0411943117648904e-06),
    (6.6246293049220746e-07, 2.2820330975722949e-06, 4.1295883506368050e-06),
    (2.4138284196218611e-07, 1.8700498862720661e-06, 8.8749305490603317e-06),
    (-1.8229988211164736e-08, 7.0663583355008586e-07, 1.2719120003059378e-05),
    (1.2765995484715178e-07, -7.0173055021987351e-07, 1.2743353200332559e-05),
    (6.3069324721298910e-07, -1.8168853171840578e-06, 9.6149978620986873e-06),
    (1.2213442061139199e-06, -2.2993238559266146e-06, 5.5685575286706930e-06),
    (1.5726000427315416e-06, -2.1014558718569333e-06, 5.3362919164508714e-06),
    (1.4558510261610922e-06, -1.4236006501299129e-06, 8.4914421750921385e-06),
    (8.2480955371355289e-07, -5.8888552627221246e-07, 1.0815712559712624e-05),
    (-1.8676675695477674e-07, 9.3904272430933728e-08, 1.1399474528383718e-05),
    (-1.3304487663896903e-06, 4.2869695004265909e-07, 1.0408141984229278e-05),
    (-2.3333076636530922e-06, 3.7069479919397974e-07, 8.4439630465126709e-06),
    (-2.9781789583719184e-06, 1.0105402037588172e-08, 6.4219409252325796e-06),
    (-3.1529411781715525e-06, -4.7899727900763830e-07, 5.5240023332354869e-06),
    (-2.8630053239300238e-06, -9.0111713233289902e-07, 6.2201374980852761e-06),
    (-2.2128442196864497e-06, -1.0938442392888900e-06, 7.5596529279483650e-06),
    (-1.3684826915236708e-06, -9.6309590092815657e-07, 8.6978118051640037e-06),
    (-5.1392002358429483e-07, -4.9575801474500659e-07, 9.3303887145772538e-06),
    (1.8788490982879059e-07, 2.4754948003426951e-07, 9.4313023368083445e-06),
    (6.2274688099446284e-07, 1.1534315121429552e-06, 9.1034803314791497e-06),
    (7.3902563768591910e-07, 2.0832241832169747e-06, 8.5110222799152601e-06),
    (5.4803878448299572e-07, 2.9005776876709914e-06, 7.8397424924566398e-06),
    (1.1388113423125815e-07, 3.4943197503657226e-06, 7.2632974020595448e-06),
    (-4.6354473317705302e-07, 3.7937976694555423e-06, 6.9038700261686354e-06),
    (-1.0683556148215726e-06, 3.7757585241611499e-06, 6.7969840970623574e-06),
    (-1.5879423586172376e-06, 3.4633022646800511e-06, 6.8917826905902087e-06),
    (-1.9290708404902728e-06, 2.9184370911111933e-06, 7.0944392602220005e-06),
    (-2.0292170766570105e-06, 2.2302945356580902e-06, 7.3172253527620117e-06),
    (-1.8624515797538726e-06, 1.5011973848563373e-06, 7.5028315320844873e-06),
    (-1.4399743920569596e-06, 8.3261600306093513e-07, 7.6264390074828902e-06),
    (-8.0599923499784829e-07, 3.1269775804891844e-07, 7.6883099815633060e-06),
    (-3.0081120215724920e-08, 6.5981472905161290e-09, 7.7044698469129183e-06),
    (8.0281159501086933e-07, -4.9648423024184228e-08, 7.6980238228854959e-06),
    (1.6031371094014241e-06, 1.4854728981068190e-07, 7.6917645174824392e-06),
    (2.2872783543819032e-06, 5.7565830767765961e-07, 7.7025198677431703e-06),
    (2.7866350427180523e-06, 1.1805317733453681e-06, 7.7378407477984602e-06),
    (3.0545016014553504e-06, 1.8933005297145969e-06, 7.7954211459553378e-06),
    (3.0702166365114220e-06, 2.6338227553253387e-06, 7.8649770526346482e-06),
    (2.8403734845262788e-06, 3.3206971462189718e-06, 7.9316199253128090e-06),
)


class TestMorseDeepWell:
    ARGV = ("wavefunction", "--kind", "morse_cont", "--param", "E=1", "--param", "V0=40",
            "--grid=-0.9225,5.618,61")

    def test_barrier_side_rows_match_mpmath(self, capsys, monkeypatch):
        # the first 11 points lie past U's Kummer crossover (xi > 15.12),
        # where U(c) and U(c + 1) share each level of the ray: at
        # c = a + 15 each stops at the first two levels that agree, levels
        # 0-3 here, 401 nodes a point; each level is summed for its live
        # points at once, so the count is nodes times live rows
        nodes = []
        ray = sf._u_ray_level

        def counted_ray(c, b, log_x, up, k):
            nodes.append(sf._RAY_LEVELS[k][0].size * log_x.size)
            return ray(c, b, log_x, up, k)

        monkeypatch.setattr(sf, "_u_ray_level", counted_ray)
        code, out, _ = run(capsys, *self.ARGV)
        assert code == 0
        assert 0 < sum(nodes) <= 11 * 401
        _, rows, _ = read_csv(out)
        assert len(rows) == len(DEEP_WELL_TRUTH)
        for (_, xi, re_phi, im_phi, re_psi, im_psi, _), (re, im, scale) in zip(
                rows, DEEP_WELL_TRUTH):
            want = complex(re, im)
            assert abs(complex(re_phi, im_phi) - want) <= 1e-10 * scale, xi
            # psi = xi^(i kbar) Phi with kbar = sqrt(2)
            pref = cmath.exp(1j * math.sqrt(2.0) * math.log(xi))
            assert abs(complex(re_psi, im_psi) - pref * want) <= 1e-10 * scale, xi

    def test_deepest_well_barrier_rows_match_mpmath(self, capsys):
        # V0 = 2000 (delta = 63.2), E = 0.5: xi = 28.2 and 17.1 lie past U's
        # crossover 14.5, on the ray at c = a + 68 and the recurrence down to
        # a; (Phi, scale) from mpmath at 40 digits, scale as for
        # DEEP_WELL_TRUTH.  xi = 10.38 keeps the Kummer branch, whose series
        # cancel and warn
        truth = ((complex(1.5982293100405654e-05, 5.971102910877802e-07), 0.0016929823490736816),
                 (complex(-2.5987576921463948e-05, -1.5484026150172745e-05),
                  0.0012884917182770807))
        with pytest.warns(sf.PrecisionLoss, match=r"kummer_m at a = -62\.7456\+1j, b = 1\+2j, "
                                                  r"z = 10\.383"):
            code, out, _ = run(capsys, "wavefunction", "--kind", "morse_cont", "--param",
                               "E=0.5", "--param", "V0=2000", "--grid=1.5,2.5,3")
        assert code == 0
        rows = read_csv(out)[1]
        assert [round(r[1], 2) for r in rows] == [28.22, 17.12, 10.38]
        for row, (want, scale) in zip(rows, truth):
            assert abs(complex(row[2], row[3]) - want) <= 1e-10 * scale, row[1]

    @pytest.mark.parametrize("energy, depth, grid, z", [
        ("E=120000", "V0=1", "-1,3,3", "-0.914214+489.898j"),  # the reflection's sin
        ("E=1", "V0=20000", "3,4,3", "-199.5+1.41421j"),  # Lanczos' t^(z+1/2)
    ])
    def test_gamma_past_the_double_range_exits_3_naming_it(self, capsys, energy, depth, grid,
                                                           z):
        # Gamma(alpha_-) of the route's prefactor leaves the double range
        code, out, err = run(capsys, "wavefunction", "--kind", "morse_cont", "--param", energy,
                             "--param", depth, f"--grid={grid}")
        assert (code, out) == (3, "")
        assert err == (f"error: evaluation failed at point 0 (coordinate={grid.split(',')[0]}): "
                       f"Gamma leaves the double range at z = {z}: its Lanczos form holds for "
                       "about |Re z| < 141, and |Im z| < 226 for Re z < 1/2, < 457 elsewhere\n")


class TestCircleCancellationWarning:
    @pytest.mark.parametrize("argv, rows", [
        (("validate", "--kind", "coulomb3d_cont", "--param", "E=1", "--grid", "0.5,1000,3"), 3),
        (("wavefunction", "--kind", "coulomb3d_cont", "--param", "E=1",
          "--method", "circle", "--grid", "0,353.6,2"), 2),
    ])
    def test_cancelled_sum_warns(self, capsys, argv, rows):
        # at xi ~ 500 (R*xi = 550) the circle sum is rounding noise of order
        # 1e222 where |Phi| ~ 3e-3: the rows still print, with a warning
        with pytest.warns(ce.PrecisionLoss, match="circle sum at R\\*xi = 550"):
            code, out, _ = run(capsys, *argv)
        assert code == 0
        assert len(read_csv(out)[1]) == rows


class TestValidateCommand:
    def test_agreement_report(self, capsys):
        code, out, _ = run(capsys, "validate", "--kind", "free3d",
                           "--param", "E=1", "--grid", "0.5,10,8")
        assert code == 0
        header, rows, footers = read_csv(out)
        assert header[0] == "xi"
        dev_cols = [i for i, h in enumerate(header) if h.startswith("dev_")]
        assert len(dev_cols) == 3
        worst = max(
            r[i] for r in rows for i in dev_cols if not math.isnan(r[i])
        )
        assert worst <= 1e-6
        assert any(f.startswith("pairwise_max_rel_dev") for f in footers)
        assert sum(f.startswith("failure_onset_") for f in footers) == 3
        assert all(f.endswith("none") for f in footers if "onset" in f)

    def test_no_usable_point_footer_reads_nan(self, capsys):
        # every |Phi_ref| ~ 1e-13 is below the reference floor: nothing compared
        code, out, _ = run(capsys, "validate", "--kind", "coulomb3d_cont",
                           "--param", "E=1e26", "--grid", "0.5,4,3")
        assert code == 0
        _, rows, footers = read_csv(out)
        assert all(math.isnan(v) for r in rows for v in r[-3:])
        assert "pairwise_max_rel_dev = nan" in footers

    def test_warned_reference_is_not_usable(self, capsys):
        # at E = 1e-3 the real integral warns PrecisionLoss at both points and
        # reads 3e14 where Phi is -9.875i: the series matches mpmath there, so
        # no deviation from that reference means anything; its dev_* cells
        # read nan, its onset is the first warned point, and its warnings are
        # passed on as they were raised
        with pytest.warns(ce.PrecisionLoss) as record:
            code, out, _ = run(capsys, "validate", "--kind", "coulomb3d_cont",
                               "--param", "E=1e-3", "--grid", "0.5,2,2")
        assert code == 0
        _, rows, footers = read_csv(out)
        assert all(math.isnan(v) for r in rows for v in r[-3:])
        assert footers == ["pairwise_max_rel_dev = nan", "failure_onset_real_integral = 0.5",
                           "failure_onset_circle = none", "failure_onset_series = none"]
        real = [w for w in record if str(w.message).startswith("real integral")]
        assert [str(w.message) for w in real] == [
            "real integral at xi = 0.5 carries a relative rounding error of 2.4",
            "real integral at xi = 2 carries a relative rounding error of 0.021"]
        assert all(w.filename == ce.__file__ for w in real)

    def test_grid_required(self, capsys):
        code, _, err = run(capsys, "validate", "--kind", "free3d", "--param", "E=1")
        assert code == 2
        assert "--grid" in err

    def test_count_and_ordering_guards(self, capsys):
        code, _, err = run(capsys, "validate", "--kind", "free3d",
                           "--param", "E=1", "--grid", "0.5,10,1")
        assert code == 2
        assert "at least 2" in err
        code, _, err = run(capsys, "validate", "--kind", "free3d",
                           "--param", "E=1", "--grid", "5,1,4")
        assert code == 2
        assert "below" in err

    @pytest.mark.parametrize("energy", ["-1", "0"])
    def test_continuum_energy_sign_rejected(self, capsys, energy):
        # an input error exits 2; it is not a route failing at every point
        code, out, err = run(capsys, "validate", "--kind", "free2d",
                             "--param", f"E={energy}", "--grid=1,2,3")
        assert (code, out) == (2, "")
        assert err == f"error: free2d needs finite E > 0, got E = {float(energy)}\n"

    def test_morse_continuum_rejected(self, capsys):
        code, _, err = run(capsys, "validate", "--kind", "morse_cont",
                           "--param", "E=1", "--grid", "0.5,4,3")
        assert code == 2
        assert "continuum" in err


class TestConfigHandling:
    def test_config_file_drives_a_run(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# oscillator ladder\n"
            "kind = sho1d_hermite\n"
            "omega = 2.0\n"
            "n_max = 1\n"
        )
        code, out, _ = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 0
        _, rows, _ = read_csv(out)
        assert [r[2] for r in rows] == [1.0, 3.0]

    def test_flags_override_file_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind=sho1d_hermite\nomega=2.0\nn_max=1\n")
        code, out, _ = run(capsys, "spectrum", "--config", str(cfg),
                           "--param", "omega=1.0")
        assert code == 0
        _, rows, _ = read_csv(out)
        assert [r[2] for r in rows] == [0.5, 1.5]

    def test_config_file_lines_are_the_flags_they_stand_for(self, capsys, tmp_path):
        # one token per line, so a grid that starts with a minus sign parses
        flags = ("wavefunction", "--kind", "morse_cont", "--param", "E=1",
                 "--param", "V0=2", "--grid=-4,4,81")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind=morse_cont\nE=1\nV0=2\ngrid=-4,4,81\n")
        code, out, err = run(capsys, "wavefunction", "--config", str(cfg))
        assert (code, out, err) == run(capsys, *flags)
        assert code == 0 and len(read_csv(out)[1]) == 81

    @pytest.mark.parametrize("line,message", [
        ("method=bogus", "argument --method: invalid choice: 'bogus'"),
        ("radius=wide", "argument --radius: invalid float value: 'wide'"),
    ])
    def test_bad_config_value_fails_as_its_flag_does(self, capsys, tmp_path, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kind=coulomb3d_cont\nE=1\ngrid=1,2,2\n{line}\n")
        code, out, err = run(capsys, "wavefunction", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert message in err

    def test_flag_beats_file_through_the_module_entry_point(self, tmp_path):
        # main(None) reads sys.argv
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind=sho1d_hermite\nomega=2.0\nn_max=1\n")
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "laplaceqm.cli", "spectrum", "--config", str(cfg),
             "--param", "omega=1.0"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "n,N,E\n0,0,5.000000000000e-01\n1,1,1.500000000000e+00\n"

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "spectrum", "--kind", "morse",
                           "--config", "/nonexistent/path.cfg")
        assert code == 2
        assert "cannot read config" in err

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind=morse\njust a dangling phrase\n")
        code, _, err = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 2
        assert "key=value" in err

    def test_unknown_kind_lists_choices(self, capsys):
        code, _, err = run(capsys, "spectrum", "--kind", "hydrogen")
        assert code == 2
        assert "coulomb3d" in err

    def test_unknown_param_key(self, capsys):
        for key in ("depth", "tol"):
            code, _, err = run(capsys, "spectrum", "--kind", "morse",
                               "--param", f"{key}=3")
            assert code == 2
            assert f"unknown parameter {key!r}" in err

    @pytest.mark.parametrize("argv,key,value", [
        (("validate", "--kind", "coulomb3d_cont", "--grid", "0.5,4,4"), "E", "inf"),
        (("validate", "--kind", "coulomb3d_cont", "--grid", "0.5,4,4"), "E", "nan"),
        (("spectrum", "--kind", "coulomb3d"), "mu", "nan"),
        (("spectrum", "--kind", "morse"), "V0", "inf"),
        (("wavefunction", "--kind", "morse_cont", "--param", "E=1",
          "--grid=-1,1,3"), "a", "-inf"),
    ])
    def test_non_finite_param_rejected(self, capsys, argv, key, value):
        code, out, err = run(capsys, *argv, "--param", f"{key}={value}")
        assert code == 2
        assert out == ""
        assert f"bad value for {key}" in err

    @pytest.mark.parametrize("argv,option", [
        (("spectrum", "--kind", "coulomb3d", "--method", "series"), "--method"),
        (("spectrum", "--kind", "coulomb3d", "--radius", "1.5"), "--radius"),
        (("spectrum", "--kind", "coulomb3d", "--param", "E=1"), "--param"),
        (("spectrum", "--kind", "coulomb3d", "--grid", "0,1,3"), "--grid"),
        (("validate", "--kind", "free3d", "--param", "E=1", "--method", "morse",
          "--grid", "1,2,2"), "--method"),
        (("wavefunction", "--kind", "coulomb3d_cont", "--param", "E=1",
          "--radius", "1.5", "--grid", "1,2,2"), "--radius"),
        (("wavefunction", "--kind", "coulomb3d_cont", "--param", "E=1",
          "--method", "series", "--param", "n=2", "--grid", "1,2,2"), "--param"),
    ])
    def test_ignored_option_rejected(self, capsys, argv, option):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        if argv[0] == "wavefunction" and option == "--radius":
            # the library rejects a radius that no circle reads
            assert err.startswith("error: the real_integral route for coulomb3d_cont "
                                  "reads no circle radius")
        else:
            assert err.startswith(f"error: {argv[0]} does not use {option}")

    @pytest.mark.parametrize("argv", [
        ("validate", "--kind", "free3d", "--param", "E=1", "--grid", "0.5,10,4",
         "--radius", "3"),
        ("wavefunction", "--kind", "free3d", "--param", "E=1", "--grid", "0.5,10,4",
         "--method", "circle", "--radius", "3"),
    ])
    def test_radius_for_free3d_rejected(self, capsys, argv):
        # free3d's circle integrates the degenerate free segment, which has no
        # radius; the library rejects it, for a library caller as for the CLI
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: the circle route for free3d reads no circle radius")

    @pytest.mark.parametrize("argv,key", [
        (("spectrum", "--kind", "coulomb3d", "--param", "E=1", "--param", "n=4"), "E"),
        (("spectrum", "--kind", "coulomb3d", "--param", "n=4"), "n"),
        (("wavefunction", "--kind", "coulomb3d", "--param", "E=-0.5",
          "--grid", "0,4,3"), "E"),
        (("wavefunction", "--kind", "coulomb3d", "--param", "n_max=3",
          "--grid", "0,4,3"), "n_max"),
        (("wavefunction", "--kind", "free3d", "--param", "E=1", "--param", "n=2",
          "--grid", "0,4,3"), "n"),
        (("validate", "--kind", "free3d", "--param", "E=1", "--param", "n=2",
          "--grid", "1,2,2"), "n"),
        (("validate", "--kind", "free3d", "--param", "E=1", "--param", "n_max=3",
          "--grid", "1,2,2"), "n_max"),
    ])
    def test_unused_param_rejected(self, capsys, argv, key):
        # a spectrum lists every level, a bound state is chosen by n and a
        # continuum state by E; any other state key would be ignored
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {argv[0]} does not use --param {key} for {argv[2]}")

    @pytest.mark.parametrize("argv,key", [
        (("spectrum", "--kind", "coulomb3d", "--param", "V0=3", "--param", "m=2",
          "--param", "omega=7", "--param", "n_max=1"), "omega"),
        (("spectrum", "--kind", "sho2d", "--param", "l=1"), "l"),
        (("validate", "--kind", "free3d", "--param", "E=1", "--param", "a0=2",
          "--grid", "1,2,2"), "a0"),
        (("wavefunction", "--kind", "morse_cont", "--param", "E=1", "--param", "m=1",
          "--grid=-1,1,3"), "m"),
        (("wavefunction", "--kind", "sho1d_hermite", "--param", "a=2",
          "--grid=-1,1,3"), "a"),
    ])
    def test_unread_problem_key_rejected(self, capsys, argv, key):
        # a key outside the kind's ProblemSpec fields would change nothing
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {argv[0]} does not use --param {key} for {argv[2]}\n"

    def test_unread_problem_key_in_config_file_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind=sho1d_even\nV0=3\n")
        code, out, err = run(capsys, "spectrum", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: spectrum does not use --param V0 for sho1d_even\n"

    def test_parser_built_once_without_leaking_params(self, capsys):
        cli._build_parser.cache_clear()
        code, out, _ = run(capsys, "spectrum", "--kind", "sho2d", "--param", "m=1",
                           "--param", "n_max=1")
        assert (code, out) == (0, "n,N,E\n0,0,2.000000000000e+00\n1,1,4.000000000000e+00\n")
        code, out, _ = run(capsys, "spectrum", "--kind", "sho2d", "--param", "n_max=1")
        assert (code, out) == (0, "n,N,E\n0,0,1.000000000000e+00\n1,1,3.000000000000e+00\n")
        assert cli._build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("line", ["stepz=5", "steps=5000", "tol=1e-9", "config=x.cfg"])
    def test_unknown_config_key_rejected(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kind=coulomb3d\n{line}\n")
        code, out, err = run(capsys, "spectrum", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert f":2: unknown key {line.partition('=')[0]!r}" in err

    def test_steps_flag_rejected(self, capsys):
        # the circle sizes its own rule, so the CLI takes no step count
        code, out, err = run(capsys, "wavefunction", "--kind", "coulomb3d_cont",
                             "--param", "E=1", "--method", "circle", "--steps", "5000",
                             "--grid", "1,2,2")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --steps 5000" in err

    def test_kind_required(self, capsys):
        code, _, err = run(capsys, "spectrum")
        assert code == 2
        assert "--kind" in err

    def test_bad_grid_text(self):
        with pytest.raises(ConfigError):
            _parse_grid("1,2")
        with pytest.raises(ConfigError):
            _parse_grid("a,b,c")
        for text in ("0,inf,3", "nan,1,3"):
            with pytest.raises(ConfigError, match="finite"):
                _parse_grid(text)
        assert _parse_grid("0.5,8,31") == (0.5, 8.0, 31)

    @pytest.mark.parametrize("argv, code, message", [
        (("spectrum", "--kind", "coulomb3d", "--param", "mu=-1"), 2,
         "mu must be positive and finite"),
        (("spectrum", "--kind", "coulomb3d", "--param", "l=-1"), 2, "l must be >= 0"),
        (("spectrum", "--kind", "coulomb3d", "--param", "n_max"), 2,
         "--param needs k=v, got 'n_max'"),
        (("spectrum", "--kind", "coulomb3d", "--param", "n_max=abc"), 2,
         "bad value for n_max: 'abc'"),
        (("validate", "--kind", "coulomb3d_cont", "--grid", "0.5,2,3"), 2,
         "validate needs --param E=<energy>"),
        pytest.param(("validate", "--kind", "coulomb3d_cont", "--param", "E=1e-6",
                      "--grid", "0.5,2,3"), 3, "method real_integral failed at every grid point",
                     marks=pytest.mark.filterwarnings(
                         "ignore::laplaceqm.contour_eval.PrecisionLoss")),
    ], ids=["negative_mu", "negative_l", "param_without_value", "non_integer_n_max",
            "validate_without_E", "route_fails_everywhere"])
    def test_exit_path_names_its_cause(self, capsys, argv, code, message):
        assert run(capsys, *argv) == (code, "", f"error: {message}\n")

    def test_argparse_exits_are_returned(self, capsys):
        assert main([]) == 2  # no subcommand
        capsys.readouterr()
        assert main(["--help"]) == 0
        capsys.readouterr()


# every cell type the subcommands emit or read_csv parses, with the values
# whose formatting is easy to get wrong
CELLS = st.one_of(
    st.text(alphabet=st.characters(blacklist_characters=",\n\r")),
    st.integers(),
    st.booleans(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, np.float64(-0.0)]),
)


def _reference_cell(v) -> str:
    """The cell rule written out per value: str as is, integers in full, else %.12e."""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.12e" % float(v)


class TestCsvContracts:
    def test_formatting(self):
        assert render_csv(["a", "b", "c"], [[3, 0.5, "series"]]) == (
            "a,b,c\n3,5.000000000000e-01,series\n")

    @given(rows=st.lists(st.lists(CELLS, min_size=1, max_size=6), max_size=6))
    @example(rows=[[1, 0.5, "x"], [np.int64(1), np.float64(0.5), "x"], ["1", True, -0.0],
                   [False, math.nan, np.int64(-3)], [1, 0.5, "x"]])
    def test_render_matches_per_cell_rule(self, rows):
        header = ["a", "b"]
        want = "a,b\n" + "".join(
            ",".join(_reference_cell(v) for v in row) + "\n" for row in rows) + "# note\n"
        assert render_csv(header, rows, ["note"]) == want

    def test_round_trip_idempotence(self, capsys):
        code, out, _ = run(capsys, "validate", "--kind", "free3d",
                           "--param", "E=1", "--grid", "0.5,6,4")
        assert code == 0
        header, rows, footers = read_csv(out)
        assert render_csv(header, rows, footers) == out

    def test_round_trip_with_nan_cells(self):
        text = render_csv(["a", "b"], [[float("nan"), 1]], ["note"])
        header, rows, footers = read_csv(text)
        assert math.isnan(rows[0][0])
        assert render_csv(header, rows, footers) == text

    def test_empty_document_rejected(self):
        with pytest.raises(ConfigError):
            read_csv("")

    def test_determinism_across_runs(self, capsys, tmp_path):
        argv = ["validate", "--kind", "coulomb3d_cont", "--param", "E=1",
                "--grid", "0.5,4,4"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["spectrum", "--kind", "sho2d", "--param", "m=1",
                "--param", "n_max=3"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "spec.csv"
        assert main(argv + ["--out", str(path)]) == 0
        capsys.readouterr()
        assert path.read_text() == out

    @pytest.mark.parametrize("where", ["missing/x.csv", "."])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, where):
        # a path in a directory that does not exist, and a directory itself
        path = tmp_path / where
        code, out, err = run(capsys, "spectrum", "--kind", "coulomb3d", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write --out {path}: ")
        assert "Traceback" not in err


@pytest.mark.skipif(shutil.which("laplaceqm") is None,
                    reason="console script not on PATH")
def test_installed_entry_point():
    proc = subprocess.run(
        ["laplaceqm", "spectrum", "--kind", "coulomb3d", "--param", "n_max=1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == "n,N,E\n1,0,-5.000000000000e-01\n"


def test_readme_commands_run(capsys):
    """Every laplaceqm line of README's command-line block exits 0."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("laplaceqm ")]
    assert len(commands) == 5
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()
