"""End-to-end CLI tests: exit codes, CSV contracts, config handling."""

import math
import shutil
import subprocess

import pytest

from laplaceqm.cli import (
    ConfigError,
    _format_cell,
    _parse_grid,
    main,
    read_csv,
    render_csv,
)


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
        assert [r[0] for r in rows] == [0, 1, 2]


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
                           "--radius", "1.1", "--steps", "100000",
                           "--grid", "1,2,2")
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
    def test_non_finite_value_is_a_failed_point(self, capsys):
        # R*xi = 1.1 * 707 overflows the circle sum: no NaN rows with exit 0
        code, out, err = run(capsys, "wavefunction", "--kind", "coulomb3d_cont",
                             "--param", "E=1", "--method", "circle",
                             "--grid", "0,1000,3")
        assert code == 3
        assert out == ""
        assert "failed at point 1 (coordinate=500)" in err
        assert "circle route" in err

    def test_bad_circle_radius(self, capsys):
        code, _, err = run(capsys, "wavefunction", "--kind", "coulomb3d_cont",
                           "--param", "E=1", "--method", "circle",
                           "--radius", "0.9", "--grid", "1,2,2")
        assert code == 2
        assert "radius" in err


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

    def test_argparse_exits_are_returned(self, capsys):
        assert main([]) == 2  # no subcommand
        capsys.readouterr()
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestCsvContracts:
    def test_formatting(self):
        assert _format_cell(3) == "3"
        assert _format_cell(0.5) == "5.000000000000e-01"
        assert _format_cell("series") == "series"

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


@pytest.mark.skipif(shutil.which("laplaceqm") is None,
                    reason="console script not on PATH")
def test_installed_entry_point():
    proc = subprocess.run(
        ["laplaceqm", "spectrum", "--kind", "coulomb3d", "--param", "n_max=1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == "n,N,E\n1,0,-5.000000000000e-01\n"
