"""End-to-end command tests through cli.main (no subprocesses)."""

import filecmp
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kgcoulomb import cli, fuchsian


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _csv_rows(text):
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")]
    return rows


class TestSpectrum:
    def test_solver_agrees_with_closed_form(self, capsys):
        code, out, _ = _run(capsys, "spectrum", "--Z", "10", "--n", "0..3")
        assert code == 0
        rows = _csv_rows(out)
        assert len(rows) == 4
        for row in rows:
            assert float(row[4]) <= 1e-12  # agreement column

    def test_supercritical_exit_code(self, capsys):
        code, out, err = _run(capsys, "spectrum", "--Z", "100")
        assert code == 2
        assert out == ""
        assert err.startswith("kgcoulomb:")
        assert "exceeds 1/2" in err

    def test_json_csv_parity(self, capsys):
        code, csv_out, _ = _run(capsys, "spectrum", "--Z", "5", "--n", "0..2")
        assert code == 0
        code, json_out, _ = _run(capsys, "spectrum", "--Z", "5", "--n", "0..2",
                                 "--format", "json")
        assert code == 0
        doc = json.loads(json_out)
        assert doc["command"] == "spectrum"
        csv_rows = _csv_rows(csv_out)
        assert len(doc["rows"]) == len(csv_rows)
        for jrow, crow in zip(doc["rows"], csv_rows):
            assert jrow["n"] == int(crow[0])
            assert jrow["eta_closed"] == float(crow[2])
            assert jrow["eta_solver"] == float(crow[3])

    def test_empty_level_range_rejected(self, capsys):
        code, out, err = _run(capsys, "spectrum", "--Z", "1", "--n", "3..1")
        assert code == 1
        assert out == ""
        assert err != ""

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = _run(capsys, "spectrum", "--frobnicate", "7")
        assert code == 1
        assert err != ""

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code, out, _ = _run(capsys, "spectrum", "--Z", "50", "--n", "0..5",
                                "--out", str(target))
            assert code == 0
            assert out == ""
        assert filecmp.cmp(a, b, shallow=False)
        assert a.read_bytes().startswith(b"# kgcoulomb spectrum")


class TestExponents:
    def test_deformed_fit_matches_analytic(self, capsys):
        code, out, _ = _run(capsys, "exponents", "--model", "deformed-zero-energy",
                            "--g", "0.3", "--theta", "0.05")
        assert code == 0
        rows = _csv_rows(out)
        assert len(rows) == 2
        for row in rows:
            analytic = float(row[1])
            fitted = float(row[3])
            assert math.isfinite(fitted)
            assert abs(fitted - analytic) <= 0.01 * abs(analytic)
            assert row[5] == "0"  # oscillatory flag off

    def test_supercritical_flags_oscillation(self, capsys):
        # complex pair: analytic parts reported, fits withheld, exit 0
        code, out, _ = _run(capsys, "exponents", "--model", "ordinary",
                            "--Z", "100")
        assert code == 0
        rows = _csv_rows(out)
        assert len(rows) == 2
        for row in rows:
            assert float(row[1]) == pytest.approx(-2.5, abs=1e-12)
            assert float(row[2]) != 0.0
            assert row[3] == "nan"
            assert row[5] == "1"

    def test_first_order_subdominant(self, capsys):
        code, out, _ = _run(capsys, "exponents", "--model", "deformed-first-order",
                            "--g", "0.3", "--eta", "0.8", "--theta", "0.04")
        assert code == 0
        rows = _csv_rows(out)
        analytic = sorted(float(r[1]) for r in rows)
        assert analytic[0] == pytest.approx(-10.0 / 3.0, abs=1e-12)
        assert analytic[1] == pytest.approx(-2.0, abs=1e-12)

    def test_wide_window_keeps_real_pair(self, capsys):
        # the slow branch decays to ~1e-24 over this window; it must
        # still fit as a power law, not trip the oscillation test
        code, out, _ = _run(capsys, "exponents", "--window", "10:1e12")
        assert code == 0
        for row in _csv_rows(out):
            analytic, fitted = float(row[1]), float(row[3])
            assert row[5] == "0"
            assert abs(fitted - analytic) <= 0.01 * abs(analytic)

    def test_window_below_seed_is_usage_error(self, capsys):
        code, out, err = _run(capsys, "exponents", "--window", "1e-6:1e6")
        assert code == 1
        assert out == ""
        assert err.startswith("kgcoulomb: usage error: ")
        assert "seed point" in err

    def test_unreachable_window_exits_cleanly(self, capsys):
        code, out, err = _run(capsys, "exponents", "--window", "2:1e100")
        assert code == 2
        assert out == ""
        assert err.startswith("kgcoulomb: ")

    @pytest.mark.parametrize("tol", ["0.002", "0.1", "0.5", "10"])
    def test_tol_too_coarse_for_a_fit_is_usage_error(self, capsys, tol):
        # at tol 0.1 and above most real pairs came out nan with the
        # oscillatory flag set, a silently wrong answer
        code, out, err = _run(capsys, "exponents", "--tol", tol)
        assert code == 1
        assert out == ""
        assert err.startswith("kgcoulomb: usage error: --tol")

    def test_coarsest_tol_still_fits(self, capsys):
        code, out, _ = _run(capsys, "exponents", "--tol", "1e-3")
        assert code == 0
        for row in _csv_rows(out):
            assert row[5] == "0"
            assert abs(float(row[3]) - float(row[1])) <= 0.01 * abs(float(row[1]))

    def test_bad_window_rejected(self, capsys):
        code, _, err = _run(capsys, "exponents", "--model", "deformed",
                            "--g", "0.3", "--theta", "0.05", "--window", "5:2")
        assert code == 1
        assert err != ""


class TestWavefunction:
    def test_ordinary_default_grid(self, capsys):
        code, out, _ = _run(capsys, "wavefunction", "--Z", "1")
        assert code == 0
        rows = _csv_rows(out)
        assert len(rows) == 200
        assert float(rows[0][0]) == pytest.approx(0.01, rel=1e-12)
        assert float(rows[-1][0]) == pytest.approx(100.0, rel=1e-12)
        # |psi| column is the modulus of the two middle columns
        for row in rows[:5]:
            re, im, ab = float(row[1]), float(row[2]), float(row[3])
            assert ab == pytest.approx(math.hypot(re, im), rel=1e-15)

    def test_deformed_zero_energy_profile(self, capsys):
        code, out, _ = _run(capsys, "wavefunction", "--model",
                            "deformed-zero-energy", "--g", "0.2", "--theta",
                            "0.05", "--theta-prime", "0.05", "--window", "0.01:50")
        assert code == 0
        rows = _csv_rows(out)
        assert len(rows) == 200
        # zero-energy profile is real and decays
        assert all(float(r[2]) == 0.0 for r in rows)
        assert float(rows[-1][3]) < float(rows[0][3])

    def test_computed_energy_at_threshold_is_domain_error(self, capsys):
        # at g = 1e-9 the closed-form eta rounds to 1; no flag is at fault
        code, out, err = _run(capsys, "wavefunction", "--g", "1e-9")
        assert code == 2
        assert out == ""
        assert err.startswith("kgcoulomb: level n = 0 ")
        assert "--eta" not in err and "Traceback" not in err

    def test_march_toward_xi_one_exits_cleanly(self, capsys):
        # past u ~ 1500 the hops come within ~1e-5 of the singular point
        # xi = 1, where the order-64 series overflows
        code, out, err = _run(capsys, "wavefunction", "--model", "deformed-zero-energy",
                              "--theta", "0.05", "--theta-prime", "0.02", "--g", "0.2",
                              "--window", "0.01:1e4")
        assert code == 2
        assert out == ""
        assert err.startswith("kgcoulomb: wavefunction grid point u = ")
        assert "overflows" in err
        assert "Traceback" not in err

    def test_march_close_to_xi_one_matches_direct_integration(self, capsys):
        # hops reach xi = 1 - 1.4e-5; the last values are checked against
        # a 20-digit Taylor integration of the Heun equation by mpmath
        import mpmath
        from kgcoulomb.kgmodels import to_heun
        from kgcoulomb.physcore import DeformationParams
        from kgcoulomb.specialfn import heun_ode

        code, out, _ = _run(capsys, "wavefunction", "--model", "deformed-zero-energy",
                            "--theta", "0.05", "--theta-prime", "0.02", "--g", "0.2",
                            "--window", "0.01:1000")
        assert code == 0
        rows = _csv_rows(out)
        hp, vmap = to_heun(0.2, DeformationParams(0.05, 0.02))
        start = fuchsian.frobenius_series(heun_ode(hp), 0j, 0j)
        x0 = 0.25 * start.radius
        h0, dh0, _ = fuchsian.evaluate_with_derivatives(start, x0)

        def rhs(x, y):
            p1 = hp.c / x + hp.e / (x - 1) + hp.d / (x - hp.xi0)
            p0 = (hp.a * hp.b * x + hp.q) / (x * (x - 1) * (x - hp.xi0))
            return [y[1], -p1 * y[1] - p0 * y[0]]

        with mpmath.workdps(20):
            heun = mpmath.odefun(rhs, x0, [mpmath.mpc(h0), mpmath.mpc(dh0)])
            for row in rows[-11::5]:  # u from about 530 to 1000
                xi = vmap.forward(float(row[0]))
                ref = complex((1 - xi) * heun(xi)[0])
                assert abs(complex(float(row[1]), float(row[2])) - ref) <= 1e-12 * abs(ref)

    def test_one_census_per_equation(self, capsys, monkeypatch):
        # 200 grid points reached through many Taylor hops; the Heun
        # equation and its pullback are each normalised (two root
        # solves) and censused (two more) once
        counts = {"roots": 0, "hops": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fuchsian, "_poly_roots", counted(fuchsian._poly_roots, "roots"))
        monkeypatch.setattr(fuchsian, "taylor_series", counted(fuchsian.taylor_series, "hops"))
        code, out, _ = _run(capsys, "wavefunction", "--model", "deformed-zero-energy",
                            "--theta", "0.05", "--theta-prime", "0.02", "--g", "0.2",
                            "--window", "0.01:100")
        assert code == 0
        assert len(_csv_rows(out)) == 200
        assert counts["hops"] > 8
        assert counts["roots"] <= 8

    def test_gnuplot_format(self, capsys):
        code, out, _ = _run(capsys, "wavefunction", "--Z", "1",
                            "--format", "gnuplot-dat")
        assert code == 0
        body = [line for line in out.splitlines() if not line.startswith("#")]
        assert len(body) == 200
        assert all("," not in line for line in body)
        assert all(len(line.split()) == 4 for line in body)


class TestParams:
    def test_heun_block_equal_strengths(self, capsys):
        code, out, _ = _run(capsys, "params", "--model", "heun", "--g", "0.2",
                            "--theta", "0.05", "--theta-prime", "0.05")
        assert code == 0
        vals = {row[0]: (float(row[1]), float(row[2])) for row in _csv_rows(out)}
        assert vals["e"] == (0.0, 0.0)
        assert vals["c"] == (1.5, 0.0)
        assert vals["d"] == (2.0, 0.0)
        assert vals["xi0"][0] == pytest.approx(-1.0 / 9.0, rel=1e-14)
        assert vals["fuchsian_residual"][0] <= 1e-14

    def test_generalized_heun_block(self, capsys):
        code, out, _ = _run(capsys, "params", "--model", "generalized-heun",
                            "--g", "0.3", "--eta", "0.8", "--theta", "0.04")
        assert code == 0
        vals = {row[0]: (float(row[1]), float(row[2])) for row in _csv_rows(out)}
        assert vals["a"][0] == 1.0
        assert vals["b"][0] == pytest.approx(7.0 / 3.0, rel=1e-14)
        assert all(v[1] == 0.0 for v in vals.values())
        assert vals["x1"][0] + vals["x2"][0] == pytest.approx(1.0, rel=1e-14)

    def test_confluence_warning_is_one_prefixed_line(self, capsys):
        outs = []
        for _ in range(2):  # reported on every run, not once per process
            code, out, err = _run(capsys, "params", "--model", "generalized-heun",
                                  "--theta", "1e-9")
            assert code == 0
            lines = err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("kgcoulomb: warning: singular points x1, x2")
            assert "confluent" in lines[0]
            outs.append(out)
        assert outs[0] == outs[1]
        assert len(_csv_rows(outs[0])) == 11

    def test_parameter_pole_exit_code(self, capsys):
        # theta + theta' = 1 degenerates the reduction
        code, _, err = _run(capsys, "params", "--model", "heun", "--g", "0.2",
                            "--theta", "0.5", "--theta-prime", "0.5")
        assert code == 2
        assert err != ""


class TestHeunCheck:
    def test_agreement(self, capsys):
        code, out, _ = _run(capsys, "heun-check", "--g", "0.2", "--theta",
                            "0.05", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["max_abs_diff"] <= 1e-10
        assert len(doc["rows"]) == 50
        for row in doc["rows"]:
            assert row["abs_diff"] <= 1e-10

    def test_mismatched_strengths_rejected(self, capsys):
        code, _, err = _run(capsys, "heun-check", "--g", "0.2",
                            "--theta", "0.05", "--theta-prime", "0.02")
        assert code == 1
        assert "equal deformation" in err


class TestGrids:
    def test_linspace_matches_numpy(self):
        assert cli._linspace(0.0, 0.4, 50) == [float(x) for x in np.linspace(0.0, 0.4, 50)]

    def test_geomspace_matches_numpy(self):
        # same formula; numpy's vectorised log10 and pow may round the
        # exponent and the power differently by an ulp each, and the
        # exponent's error is amplified by ln(10) |log10 u|
        rng = random.Random(5)
        eps = 2.0 ** -52
        for _ in range(300):
            lo = 10.0 ** rng.uniform(-4.0, 2.0)
            hi = lo * 10.0 ** rng.uniform(0.01, 6.0)
            ours = cli._geomspace(lo, hi, 200)
            ref = np.geomspace(lo, hi, 200)
            assert ours[0] == lo and ours[-1] == hi
            bound = 8 * eps * (1.0 + math.log(10.0) * max(abs(math.log10(lo)), abs(math.log10(hi))))
            assert max(abs(x - y) / y for x, y in zip(ours, ref)) <= bound


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("Z = 10\nn = 0..1\n")
        # config supplies both values
        code, out, _ = _run(capsys, "spectrum", "--config", str(cfg))
        assert code == 0
        rows = _csv_rows(out)
        assert len(rows) == 2 and rows[0][1] == "10"
        # explicit flag overrides the config charge, keeps the config range
        code, out, _ = _run(capsys, "spectrum", "--config", str(cfg), "--Z", "50")
        assert code == 0
        rows = _csv_rows(out)
        assert len(rows) == 2 and rows[0][1] == "50"

    def test_dashed_keys_normalized(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g = 0.2\ntheta = 0.05\ntheta-prime = 0.05\n")
        code, out, _ = _run(capsys, "params", "--model", "heun",
                            "--config", str(cfg))
        assert code == 0
        vals = {row[0]: float(row[1]) for row in _csv_rows(out)}
        assert vals["e"] == 0.0

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = _run(capsys, "spectrum", "--config",
                            str(tmp_path / "absent.cfg"))
        assert code == 1
        assert err != ""


@pytest.mark.parametrize("argv", [
    ["spectrum", "--alpha", "-1"],
    ["wavefunction", "--alpha", "0"],
    ["exponents", "--eta", "1"],
    ["wavefunction", "--eta", "0"],
    ["heun-check", "--theta", "0"],
    ["exponents", "--model", "deformed-zero-energy", "--theta", "nan"],
    ["exponents", "--g", "inf"],
    ["exponents", "--window", "2:inf"],
    ["spectrum", "--format", "xml"],
], ids=lambda argv: " ".join(argv))
def test_out_of_range_flag_is_usage_error(capsys, argv):
    # these raised a traceback, or printed numbers for an infinite coupling
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("kgcoulomb: usage error: ")


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, kgcoulomb.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "False"


def test_exponents_leave_scipy_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import contextlib, io, sys\n"
            "from kgcoulomb import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['exponents']) == 0\n"
            "print('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "False"


def test_parser_built_once_keeps_no_state(capsys):
    assert cli._build_parser() is cli._build_parser()
    code, out, _ = _run(capsys, "spectrum", "--Z", "10", "--n", "0")
    assert code == 0 and "# Z = 10" in out
    code, out, _ = _run(capsys, "spectrum")
    assert code == 0 and "# Z = 1\n" in out
    assert len(_csv_rows(out)) == 6


def test_commands_without_arrays_leave_numpy_unloaded():
    # numpy loads only inside the exponents integration and fit
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import contextlib, io, sys\n"
            "from kgcoulomb import cli\n"
            "runs = [['spectrum'], ['params'],\n"
            "        ['params', '--model', 'generalized-heun', '--theta', '0.05'],\n"
            "        ['wavefunction'],\n"
            "        ['wavefunction', '--model', 'deformed-zero-energy', '--theta', '0.05',\n"
            "         '--theta-prime', '0.02', '--g', '0.2'],\n"
            "        ['heun-check']]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(argv) for argv in runs]\n"
            "print(codes, 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0, 0] False"
