"""End-to-end command tests through cli.main, and a few in fresh interpreters."""

import contextlib
import filecmp
import importlib.util
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import closed_form
from kgcoulomb import asymptotics, cli, fuchsian, kgmodels, physcore, specialfn, spectra


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _csv_rows(text):
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")]
    return rows


def _check_against_direct_integration(capsys, theta, theta_prime, g, window):
    """The last deformed-wavefunction values of a window against a 20-digit
    Taylor integration of the Heun equation by mpmath, to rounding level."""
    import mpmath
    from kgcoulomb.kgmodels import to_heun
    from kgcoulomb.physcore import DeformationParams
    from kgcoulomb.specialfn import heun_ode

    code, out, _ = _run(capsys, "wavefunction", "--model", "deformed-zero-energy",
                        "--theta", str(theta), "--theta-prime", str(theta_prime),
                        "--g", str(g), "--window", window)
    assert code == 0
    rows = _csv_rows(out)
    hp, vmap = to_heun(g, DeformationParams(theta, theta_prime))
    start = fuchsian.frobenius_series(heun_ode(hp), 0j, 0j)
    x0 = 0.25 * start.radius
    h0, dh0, _ = fuchsian.evaluate_with_derivatives(start, x0)

    def rhs(x, y):
        p1 = hp.c / x + hp.e / (x - 1) + hp.d / (x - hp.xi0)
        p0 = (hp.a * hp.b * x + hp.q) / (x * (x - 1) * (x - hp.xi0))
        return [y[1], -p1 * y[1] - p0 * y[0]]

    with mpmath.workdps(20):
        heun = mpmath.odefun(rhs, x0, [mpmath.mpc(h0), mpmath.mpc(dh0)])
        for row in rows[-11::5]:  # the last tenth of the logarithmic grid
            xi = vmap.forward(float(row[0]))
            ref = complex((1 - xi) * heun(xi)[0])
            assert abs(complex(float(row[1]), float(row[2])) - ref) <= 1e-14 * abs(ref)


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

    def test_level_bound_below_the_smallest_double(self, capsys):
        # the binding, about g^2/2, lies below sys.float_info.min: the
        # level exists, the solver's bracket cannot hold it
        code, out, err = _run(capsys, "spectrum", "--g", "2e-154", "--n", "0")
        assert (code, out) == (2, "")
        assert err == ("kgcoulomb: level n = 0 at g = 2e-154 is bound by less than the "
                       "smallest normal double, 2.23e-308 m c^2; no level of --n 0 solves\n")
        code, out, _ = _run(capsys, "spectrum", "--g", "2.2e-154", "--n", "0")
        assert code == 0
        assert float(_csv_rows(out)[0][6]) == pytest.approx(2.2e-154 ** 2 / 2, rel=1e-12)

    def test_range_refused_at_its_first_unsolved_level_names_the_levels_before(self, capsys):
        # the binding falls with n, so the levels that solve are the ones
        # before the first that does not; the run prints none of them
        code, out, err = _run(capsys, "spectrum", "--g", "1e-152", "--n", "0..200")
        assert (code, out) == (2, "")
        assert err.startswith("kgcoulomb: level n = 47 at g = 1e-152 is bound by less than ")
        assert err.endswith("; the levels --n 0..46 solve\n")
        code, out, _ = _run(capsys, "spectrum", "--g", "1e-152", "--n", "0..46")
        assert code == 0 and len(_csv_rows(out)) == 47
        code, out, err = _run(capsys, "spectrum", "--g", "1e-152", "--n", "47..200")
        assert (code, out) == (2, "")
        assert err.endswith("; no level of --n 47..200 solves\n")

    @pytest.mark.parametrize("z", [1, 68])
    def test_both_bindings_against_mpmath(self, capsys, z):
        # b = g^2 / (S (S + N)), S = sqrt(N^2 + g^2), at 50 digits: the
        # solver's binding and the closed one each hold 14 digits, and
        # agreement is their distance relative to the closed one
        import mpmath

        code, out, _ = _run(capsys, "spectrum", "--Z", str(z), "--n", "0..9999")
        assert code == 0
        columns = out.split("# columns: ")[1].splitlines()[0].split(",")
        assert columns[-1] == "binding_closed"
        rows = _csv_rows(out)
        with mpmath.workdps(50):
            gm = mpmath.mpf(z * physcore.FINE_STRUCTURE_ALPHA)
            for n in (0, 100, 5000, 9999):
                row = dict(zip(columns[2:], map(float, rows[n][2:])))
                big_n = n + mpmath.mpf(1) / 2 + mpmath.sqrt(mpmath.mpf(1) / 4 - gm * gm)
                big_s = mpmath.sqrt(big_n * big_n + gm * gm)
                exact = gm * gm / (big_s * (big_s + big_n))
                for name in ("binding", "binding_closed"):
                    assert abs(row[name] - exact) <= 1e-14 * exact, (n, name)
                assert row["agreement"] == (abs(row["binding"] - row["binding_closed"])
                                            / row["binding_closed"])

    def test_level_range_past_the_cap_is_usage_error(self, capsys):
        # 10^12 levels would run for years; the cap names itself
        code, out, err = _run(capsys, "spectrum", "--n", "0..999999999999")
        assert code == 1
        assert out == ""
        assert err.startswith("kgcoulomb: usage error: --n 0..999999999999")
        assert str(cli._MAX_LEVELS) in err

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

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_coupling_given_as_g_prints_g_alone(self, capsys, tmp_path, source):
        # neither the default Z nor the default alpha entered the energies
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g = 0.3\n")
        coupling = ["--g", "0.3"] if source == "flag" else ["--config", str(cfg)]
        code, out, _ = _run(capsys, "spectrum", "--n", "0", *coupling)
        assert code == 0
        assert out.splitlines()[:3] == ["# kgcoulomb spectrum", "# g = 0.29999999999999999",
                                        "# conventions: u = p / (m c) dimensionless, "
                                        "eta = E / (m c^2)"]
        assert _csv_rows(out)[0][1] == "nan"
        code, out, _ = _run(capsys, "spectrum", "--n", "0", "--format", "json", *coupling)
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"] == {"g": 0.3} and doc["rows"][0]["Z"] is None

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

    def test_supercritical_pair_is_measured(self, capsys):
        # complex pair: flagged oscillatory, and since the exponents come from
        # the transfer matrix both parts are measured (the fits printed nan)
        code, out, _ = _run(capsys, "exponents", "--model", "ordinary",
                            "--Z", "100")
        assert code == 0
        rows = _csv_rows(out)
        assert len(rows) == 2
        for row in rows:
            assert float(row[1]) == pytest.approx(-2.5, abs=1e-12)
            assert float(row[2]) != 0.0
            assert float(row[3]) == pytest.approx(-2.5, rel=0.01)
            assert row[5] == "1"
            assert float(row[6]) == pytest.approx(float(row[2]), rel=0.01)

    @pytest.mark.parametrize("model", list(cli._COMMANDS["exponents"][1]))
    def test_no_cell_reads_negative_zero(self, capsys, model):
        # negating the pullback's exponents gave a real pair im_analytic = -0
        argv = ["exponents", "--model", model] + ([] if model == "ordinary" else
                                                  ["--theta", "0.05"])
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        assert "-0" not in [cell for row in _csv_rows(out) for cell in row]
        code, out, _ = _run(capsys, *argv, "--format", "json")
        assert code == 0
        cells = [v for row in json.loads(out)["rows"] for v in row.values()]
        assert [v for v in cells if v == 0 and math.copysign(1.0, v) < 0] == []

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

    def test_window_reaching_below_u_1_answers(self, capsys):
        # the generic seed at u = 1 had to sit below the window; the
        # transfer matrix is read over the window's top alone
        code, out, err = _run(capsys, "exponents", "--window", "1e-6:1e6")
        assert code == 0, err
        for row in _csv_rows(out):
            assert abs(float(row[3]) - float(row[1])) <= 0.01 * abs(float(row[1]))

    def test_narrow_window_answers(self, capsys):
        # fewer than 8 points of the old 400-point grid lay in 9000..10000,
        # too few for a fit; the transfer matrix needs no samples
        code, out, err = _run(capsys, "exponents", "--model", "ordinary", "--Z", "10",
                              "--window", "9000:10000")
        assert code == 0, err
        assert [float(r[3]) for r in _csv_rows(out)] == pytest.approx(
            [-2.005354, -2.994646], abs=1e-5)

    def test_window_too_narrow_to_measure_is_usage_error(self, capsys):
        code, out, err = _run(capsys, "exponents", "--window", "100:102")
        assert code == 1
        assert out == ""
        assert err.startswith("kgcoulomb: usage error: --window 100:102: ")
        assert "too narrow" in err

    def test_unreachable_window_exits_cleanly(self, capsys):
        code, out, err = _run(capsys, "exponents", "--window", "2:1e150")
        assert code == 2
        assert out == ""
        assert err.startswith("kgcoulomb: ")

    def test_tol_is_not_an_option_of_exponents(self, capsys, tmp_path):
        # the exponent hop is cut at one constant, asymptotics._HOP_TOL
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = 1e-6\n")
        for argv in (["--tol", "1e-6"], ["--config", str(cfg)]):
            code, out, err = _run(capsys, "exponents", *argv)
            assert (code, out) == (1, ""), argv
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("kgcoulomb: usage error: "), argv

    def test_default_fits_a_real_pair(self, capsys):
        code, out, _ = _run(capsys, "exponents")
        assert code == 0
        for row in _csv_rows(out):
            assert row[5] == "0"
            assert abs(float(row[3]) - float(row[1])) <= 0.01 * abs(float(row[1]))

    @pytest.mark.parametrize("argv", [
        # the worst draw of exponent-fit seeds 1-10: 2.1e-5 over pieces of
        # ratio 2, 6.9e-6 over pieces of ratio 2^(1/4)
        ["--model", "deformed-zero-energy", "--Z", "10", "--theta", "0.0294479",
         "--theta-prime", "0.0160015", "--window", "37.9669:1239.58"],
        # the worst with the hop cut at 1e-3: 0.15% over pieces of ratio 2,
        # each on its own hop, and 1.8e-6 over pieces of ratio 2^(1/4) on one hop
        ["--model", "ordinary", "--Z", "68", "--eta", "0.281127",
         "--window", "63.0213:12879.4"],
        # the worst with the hop cut at 1e-3 over pieces of ratio 10, where
        # its dominant row missed by 1.06%; one march up over pieces of
        # ratio 2 missed by 0.52%, one hop per piece 0.017%, and pieces of
        # ratio 2^(1/4) on one hop 2.3e-6
        ["--model", "deformed-zero-energy", "--Z", "78", "--theta", "0.171644",
         "--theta-prime", "0.0164598", "--window", "40.4637:1328.4"],
    ], ids=["default-tol", "ordinary-Z68", "deformed-zero-energy-Z78"])
    def test_worst_draw_measures_within_1e_5(self, capsys, argv):
        code, out, err = _run(capsys, "exponents", *argv)
        assert code == 0, err
        assert max(float(row[4]) for row in _csv_rows(out)) <= 1e-5

    @pytest.mark.parametrize("argv, fitted", [
        (["--Z", "100", "--theta", "0.0774178", "--theta-prime", "0.167589",
          "--window", "137.267:21035.7"], ["-1.9999999984998147", "-3.6319645260923896"]),
        (["--Z", "45", "--theta", "0.0156428", "--theta-prime", "0.0203915",
          "--window", "32.8028:3378.42"], ["-1.9999999823903285", "-3.8682207466253575"]),
    ], ids=["Z100", "Z45"])
    def test_real_hop_keeps_the_bits_of_complex_reads(self, capsys, argv, fitted):
        # the zero-energy hop is read in floats; a float (a - d) ** 2 in the
        # eigenvalues is C's pow and moved these by about 1e-15, where the
        # complex square is a product
        code, out, err = _run(capsys, "exponents", "--model", "deformed-zero-energy", *argv)
        assert code == 0, err
        assert [row[3] for row in _csv_rows(out)] == fitted

    def test_bad_window_rejected(self, capsys):
        code, _, err = _run(capsys, "exponents", "--model", "deformed-zero-energy",
                            "--g", "0.3", "--theta", "0.05", "--window", "5:2")
        assert code == 1
        assert "invalid window '5:2'" in err


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

    def test_off_quantization_answers_down_to_small_u(self, capsys):
        # the hypergeometric argument 2/(1 + i u/eps) nears 2 at small u,
        # where the series and its Pfaff transform both fail to converge
        import mpmath

        code, out, err = _run(capsys, "wavefunction", "--model", "ordinary", "--eta", "0.7",
                              "--g", "0.3", "--window", "0.01:1")
        assert code == 0, err
        rows = _csv_rows(out)
        assert len(rows) == 200
        with mpmath.workdps(30):
            g, eta = mpmath.mpf(0.3), mpmath.mpf(0.7)
            mu, eps = mpmath.sqrt(0.25 - g * g), mpmath.sqrt(1 - eta * eta)
            for row in rows[::40]:
                u = float(row[0])
                base = 1 + 1j * mpmath.mpf(u) / eps
                ref = complex(base ** (-1.5 - mu) / u * mpmath.hyp2f1(
                    1.5 + mu, 0.5 - g * eta / eps + mu, 2 * mu + 1, 2 / base))
                assert abs(complex(float(row[1]), float(row[2])) - ref) <= 1e-12 * abs(ref)

    def test_off_quantization_near_threshold_is_refused(self, capsys):
        # b = 1/2 - w + mu = -211: the hypergeometric series cancels
        code, out, err = _run(capsys, "wavefunction", "--model", "ordinary", "--eta", "0.999999",
                              "--g", "0.3", "--window", "0.001:1000")
        assert code == 2
        assert out == ""
        assert err.startswith("kgcoulomb: wavefunction grid point u = ") and "cancels" in err

    def test_high_level_at_small_u_is_refused(self, capsys):
        # the degree-30 polynomial at z = 2/(1 + i u/eps), near 2, cancels:
        # its terms reach 6e12 against a sum of about 1
        code, out, err = _run(capsys, "wavefunction", "--Z", "1", "--n", "30",
                              "--window", "0.0001:1")
        assert code == 2
        assert out == ""
        assert err.startswith("kgcoulomb: wavefunction grid point u = ") and "cancels" in err

    def test_most_cancelling_quantized_draw_keeps_ten_digits(self, capsys):
        # Z 35, n 5 cancels most among Z 1-68, n <= 5, u from 0.01 to 1000:
        # its terms reach 69 times the sum, far below the refusal at 1e6
        from kgcoulomb.physcore import CoulombSystem

        code, out, err = _run(capsys, "wavefunction", "--Z", "35", "--n", "5",
                              "--window", "0.01:1000")
        assert code == 0, err
        eta = float(next(line for line in out.splitlines() if line.startswith("# eta = "))[8:])
        system = CoulombSystem(g=35 * cli.FINE_STRUCTURE_ALPHA, eta=eta)
        for row in _csv_rows(out)[::66]:
            ref = closed_form.psi(system, float(row[0]))
            assert abs(complex(float(row[1]), float(row[2])) - ref) <= 1e-10 * abs(ref)

    def test_grid_point_past_the_float_range_is_refused_by_name(self, capsys):
        # u^2 overflows to inf past u ~ 1e154 and maps xi to nan
        code, out, err = _run(capsys, "wavefunction", "--model", "deformed-zero-energy",
                              "--g", "0.3", "--theta", "0.05", "--window", "1e160:1e200")
        assert (code, out) == (2, "")
        assert err == ("kgcoulomb: wavefunction grid point u = 1e+160 cannot be evaluated: "
                       "target (nan+0j) is not finite\n")

    def test_computed_energy_at_threshold_is_domain_error(self, capsys):
        # at g = 1e-9 the closed-form eta rounds to 1; no flag is at fault
        code, out, err = _run(capsys, "wavefunction", "--g", "1e-9")
        assert code == 2
        assert out == ""
        assert err.startswith("kgcoulomb: level n = 0 ")
        assert "--eta" not in err and "Traceback" not in err

    def test_march_toward_xi_one_matches_direct_integration(self, capsys):
        # past u ~ 1500 the hops come within ~1e-5 of the singular point
        # xi = 1, where series unscaled in the hop radius overflowed
        _check_against_direct_integration(capsys, 0.05, 0.02, 0.2, "0.01:1e4")

    def test_march_close_to_xi_one_matches_direct_integration(self, capsys):
        # hops reach xi = 1 - 1.4e-5; u from about 530 to 1000
        _check_against_direct_integration(capsys, 0.05, 0.02, 0.2, "0.01:1000")

    def test_far_grid_points_match_direct_integration(self, capsys):
        # xi reaches 1 - 1.6e-5 at u = 522; the product form of the
        # recurrences put psi 1.5e-12 off there (4e-13 at u = 311)
        _check_against_direct_integration(capsys, 0.0413312, 0.182287, 0.853151,
                                          "0.017337:522.351")

    def test_one_census_per_equation(self, capsys, monkeypatch):
        # 200 grid points reached through many Taylor hops, each reading
        # the equation's points for its radius, none making a local record;
        # the census makes the record of each of the Heun equation's three
        # finite points and of infinity, and the series at xi = 0 makes its
        # own record there: five records, two of them at 0
        made, hops, built = [], [], []
        make_record, taylor, make_heun = (fuchsian._local_record, fuchsian.taylor_series,
                                          specialfn.heun_ode)

        def counted_record(ode, point):
            made.append((ode, point))
            return make_record(ode, point)

        def counted_taylor(ode, center, *args, **kwargs):
            hops.append(center)
            return taylor(ode, center, *args, **kwargs)

        monkeypatch.setattr(fuchsian, "_local_record", counted_record)
        monkeypatch.setattr(fuchsian, "taylor_series", counted_taylor)
        monkeypatch.setattr(specialfn, "heun_ode", lambda p: built.append(make_heun(p)) or built[-1])
        code, out, _ = _run(capsys, "wavefunction", "--model", "deformed-zero-energy",
                            "--theta", "0.05", "--theta-prime", "0.02", "--g", "0.2",
                            "--window", "0.01:100")
        assert code == 0
        assert len(_csv_rows(out)) == 200
        assert len(hops) > 8
        heun = [(ode, point) for ode, point in made if ode in built]
        assert len(built) == 1 and len(heun) == 5
        points = [point for _, point in heun]
        assert points.count(0) == 2 and len(set(points)) == 4
        assert {point for _, point in heun} == {r for r, _, _ in built[0].points} | {
            fuchsian.INFINITY}

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

    def test_weak_deformation_agrees(self, capsys):
        # xi / xi0 reaches -2000, where the direct series of the Pfaff
        # transform did not settle in 10000 terms
        code, out, err = _run(capsys, "heun-check", "--theta", "1e-4", "--g", "0.2",
                              "--format", "json")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["meta"]["max_abs_diff"] <= 1e-10

    def test_cancelling_hypergeometric_sum_is_refused(self, capsys):
        # at theta 0.3 the 2F1 side's argument xi/xi0 is negative, where the
        # alternating terms of the direct sum cancel: at g 40 each point's
        # own check refuses it, a check at z = +1/2 alone would not
        code, out, err = _run(capsys, "heun-check", "--g", "40", "--theta", "0.3")
        assert code == 2 and out == ""
        assert re.search(r"the hypergeometric series at z = \S+ cancels", err)
        code, out, err = _run(capsys, "heun-check", "--g", "20", "--theta", "0.3",
                              "--format", "json")
        assert code == 0, err
        assert json.loads(out)["meta"]["max_abs_diff"] <= 1e-10

    def test_complex_pair_meta_matches_params(self, capsys):
        # past g of about 0.3 at theta 0.3, a and b are the pair 1.25 -+ 0.75i
        _, out, _ = _run(capsys, "heun-check", "--g", "1", "--theta", "0.3")
        meta = dict(re.findall(r"^# (\w+) = (\S+)$", out, re.MULTILINE))
        _, out, _ = _run(capsys, "params", "--model", "heun", "--g", "1",
                         "--theta", "0.3", "--theta-prime", "0.3")
        rows = {row[0]: row[1:] for row in _csv_rows(out)}
        assert [meta["re_a"], meta["im_a"]] == rows["a"] == ["1.25", "-0.75"]
        assert [meta["re_b"], meta["im_b"]] == rows["b"] == ["1.25", "0.75"]

    def test_real_pair_prints_zero_imaginary_parts(self, capsys):
        _, out, _ = _run(capsys, "heun-check", "--g", "0.2", "--theta", "0.05")
        assert "\n# im_a = 0\n" in out and "\n# im_b = 0\n" in out

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
        cfg.write_text("# a comment\nZ = 10\n\nn = 0..1\n")
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

    def test_order_key_is_unknown(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("order = 16\n")
        code, out, err = _run(capsys, "wavefunction", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.startswith("kgcoulomb: usage error: ") and "'order'" in err

    @pytest.mark.parametrize("text, flags", [
        ("window = 1:2\n", ()),          # a key of exponents, not of spectrum
        ("g = 0.3\n", ("--Z", "50")),
        ("Z = 50\n", ("--g", "0.3")),
        ("g = 0.3\nalpha = 0.01\n", ()),
        ("g 0.3\n", ()),                 # no '=': expected 'key = value'
    ])
    def test_key_the_command_would_ignore_is_usage_error(self, capsys, tmp_path, text, flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = _run(capsys, "spectrum", "--config", str(cfg), *flags)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("kgcoulomb: usage error: ")

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = _run(capsys, "spectrum", "--config",
                            str(tmp_path / "absent.cfg"))
        assert code == 1
        assert err != ""


def test_unwritable_out_and_undecodable_config_are_usage_errors(capsys, tmp_path):
    # each ended in a FileNotFoundError, IsADirectoryError or
    # UnicodeDecodeError traceback before
    config = tmp_path / "accent.cfg"
    config.write_bytes("g = 0.3 # é\n".encode("utf-8"))
    missing = tmp_path / "no" / "such" / "psi.csv"
    for argv, path in ((["wavefunction", "--out", str(missing)], missing),
                       (["wavefunction", "--out", str(tmp_path)], tmp_path),
                       (["exponents", "--config", str(config)], config)):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("kgcoulomb: usage error: "), argv
        assert repr(str(path)) in lines[0]
    assert not missing.parent.exists()


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
    ["wavefunction", "--model", "ordinary", "--n", "2..5"],
    ["wavefunction", "--n", "2", "--eta", "0.5"],
    ["wavefunction", "--model", "deformed-zero-energy", "--theta", "0.05", "--order", "4"],
    ["spectrum", "--Z", "0"],
    # options the command does not read, and a coupling given twice
    ["spectrum", "--window", "1:2", "--eta", "0.3", "--model", "nope"],
    ["heun-check", "--window", "1:2", "--n", "7", "--tol", "1e-5"],
    ["wavefunction", "--model", "deformed-zero-energy", "--theta", "0.05", "--n", "2..5",
     "--eta", "0.3"],
    ["spectrum", "--g", "0.3", "--Z", "50"],
    ["exponents", "--alpha", "0.01", "--g", "0.3"],
], ids=lambda argv: " ".join(argv))
def test_out_of_range_flag_is_usage_error(capsys, argv):
    # these raised a traceback, printed numbers for an infinite coupling,
    # or printed a table that ignored some of the flags
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("kgcoulomb: usage error: ")


def _help(capsys, command):
    code, out, err = _run(capsys, command, "--help")
    assert (code, err) == (0, "")
    return out


def test_top_level_help_lists_the_subcommands(capsys):
    for flag in ("-h", "--help"):
        code, out, err = _run(capsys, flag)
        assert (code, err) == (0, "")
        assert [line.split()[0] for line in out.splitlines()[1:-1]] == list(cli._COMMANDS)


def test_spectrum_help_omits_window(capsys):
    assert "--window" not in _help(capsys, "spectrum")


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_help_lists_the_table_entry(capsys, command):
    text = _help(capsys, command)
    models = cli._COMMANDS[command][1]
    taken = set().union(*models.values())
    if None not in models:
        first, *rest = models
        assert f"model selector: {first} (default), {', '.join(rest)}\n" in text
        taken.add("model")
    listed = set(re.findall(r"--([\w-]+)", text))
    assert listed == taken | {"format", "out", "config", "help"}


class _ReadLog(dict):
    """A configuration that records every key looked up in it."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


# a valid value of each option that some model does not read
_UNREAD_VALUES = {"theta": "0.05", "theta-prime": "0.05", "eta": "0.3", "n": "1"}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_table_entry_is_what_the_command_reads(capsys, tmp_path, command):
    # each model, run at its entry's defaults, reads its entry's keys, found
    # or not, no more and no fewer; each key of a sibling entry that its own
    # lacks is refused, from a flag and from a config key alike
    models = cli._COMMANDS[command][1]
    for model, entry in models.items():
        argv = [command] + (["--model", model] if model else [])
        if "theta" in entry and entry["theta"] is None:  # required, no default
            argv += ["--theta", "0.05"]
        cfg = _ReadLog(cli._merge(*cli._parse_args(argv)))
        _, _, rows = cli._COMMANDS[command][2](cfg)
        assert rows
        listed = set(entry) | ({"model"} if model else set())
        if model == "deformed-first-order":  # theta' = 2 theta: --theta-prime is taken, not read
            listed.remove("theta-prime")
        assert cfg.read == listed, model
        config = tmp_path / "run.cfg"
        for key in sorted(set().union(*models.values()) - set(entry)):
            config.write_text(f"{key} = {_UNREAD_VALUES[key]}\n")
            for extra in (["--" + key, _UNREAD_VALUES[key]], ["--config", str(config)]):
                code, out, err = _run(capsys, *argv, *extra)
                assert (code, out) == (1, ""), (argv, extra)
                assert err == f"kgcoulomb: usage error: {command} --model {model} takes no --{key}\n"


@pytest.mark.parametrize("command", [c for c, (_, models, _) in sorted(cli._COMMANDS.items())
                                     if None not in models])
def test_unknown_model_is_one_message(capsys, tmp_path, command):
    config = tmp_path / "run.cfg"
    config.write_text("model = nope\n")
    choices = ", ".join(cli._COMMANDS[command][1])
    for extra in (["--model", "nope"], ["--config", str(config)]):
        code, out, err = _run(capsys, command, *extra)
        assert (code, out) == (1, "")
        assert err == (f"kgcoulomb: usage error: unknown {command} model 'nope'; "
                       f"choose from {choices}\n")


@pytest.mark.parametrize("target", ["csv", "gnuplot-dat", "json", "out"])
def test_non_finite_cell_is_refused(capsys, tmp_path, monkeypatch, target):
    # the diagnostic names the first inf or nan, meta before rows, and
    # nothing reaches stdout or the --out file; None still prints as nan
    text, models, _ = cli._COMMANDS["params"]
    table = {}
    monkeypatch.setitem(cli._COMMANDS, "params", (text, models, lambda cfg: table["now"]))
    out_file = tmp_path / "table.txt"
    extra = ["--out", str(out_file)] if target == "out" else ["--format", target]
    columns = ["name", "re", "im"]
    for meta, rows, bad in [({"g": 0.2, "theta": math.inf}, [["a", math.nan, 0.0]], "theta = inf"),
                            ({"g": 0.2}, [["a", 1.0, None], ["b", -math.inf, math.nan]],
                             "re = -inf")]:
        table["now"] = meta, columns, rows
        assert _run(capsys, "params", *extra) == (
            2, "", f"kgcoulomb: params gives {bad}: the inputs take the computation out of "
                   "the floating-point range\n")
        assert not out_file.exists()
    table["now"] = {"g": 0.2}, columns, [["a", 1.0, None]]
    code, out, err = _run(capsys, "params", *extra)
    assert (code, err) == (0, "")
    if target == "json":
        assert json.loads(out)["rows"] == [{"name": "a", "re": 1.0, "im": None}]
    else:
        out = out_file.read_text() if target == "out" else out
        assert out.splitlines()[-1] == ("a 1 nan" if target == "gnuplot-dat" else "a,1,nan")


def _render_cell_by_cell(command, meta, columns, rows, fmt):
    """The table as a walk that formats every cell through _fmt renders it."""
    sep = "," if fmt == "csv" else " "
    lines = [f"# kgcoulomb {command}",
             *[f"# {key} = {cli._fmt(command, key, val)}" for key, val in meta.items()],
             "# conventions: u = p / (m c) dimensionless, eta = E / (m c^2)",
             "# columns: " + sep.join(columns),
             *[sep.join([cli._fmt(command, name, cell) for name, cell in zip(columns, row)])
               for row in rows]]
    if fmt != "json":
        return "\n".join(lines) + "\n"
    doc = {"command": command, "meta": meta, "columns": columns,
           "rows": [dict(zip(columns, row)) for row in rows]}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


_FLOAT_ROWS = [[0.1, -0.0, 0.0, 1e17], [5e-324, -1.5e-310, 1.7976931348623157e308, 2.0 ** 53 + 2],
               [123456789.12345679, -1e-5, 0.050000000000000003, 1e22]]
# ints from 1e17 up and 2^53 + 1, which %.17g would round; a bool, None and a str
_MIXED_ROWS = [[10 ** 17, 1.0, -0.0, 2.5], [2 ** 53 + 1, True, None, "x"], [0.5, 3, -0.0, "nan"]]
# a table of finite floats alone, long like a wavefunction's
_LONG_ROWS = [[k / 7.0, -1.0 / (k + 1), 2.0 ** (k - 100), 1e300 * k] for k in range(200)]


@pytest.mark.parametrize("fmt", ["csv", "json", "gnuplot-dat"])
def test_float_rows_render_as_the_cell_walk_does(monkeypatch, fmt):
    meta = {"g": 0.2, "n": 10 ** 17, "flag": True, "name": "s", "none": None, "zero": -0.0}
    columns = ["a", "b", "c", "d"]
    for rows in (_FLOAT_ROWS, _MIXED_ROWS, _FLOAT_ROWS + _MIXED_ROWS + _FLOAT_ROWS):
        want = _render_cell_by_cell("params", meta, columns, rows, fmt)
        assert cli._render("params", meta, columns, rows, fmt) == want
    # json formats no cell of a finite table, only meta; in csv and
    # gnuplot-dat a table that is not all floats walks every cell
    calls = []
    fmt_cell = cli._fmt
    monkeypatch.setattr(cli, "_fmt", lambda *args: calls.append(args[1]) or fmt_cell(*args))
    rows = _FLOAT_ROWS + _MIXED_ROWS
    cli._render("params", meta, columns, rows, fmt)
    assert calls == [*meta] + ([] if fmt == "json" else [*columns * len(rows)])
    # a long table of floats alone takes one format for all its rows
    rng = random.Random(7)
    rows = [[rng.choice([rng.uniform(-1.0, 1.0), 10.0 ** rng.randint(-320, 308), -0.0, 0.1])
             for _ in columns] for _ in range(200)] + _FLOAT_ROWS
    want = _render_cell_by_cell("params", meta, columns, rows, fmt)
    calls.clear()
    assert cli._render("params", meta, columns, rows, fmt) == want
    assert calls == [*meta]
    # one row of another type sends the whole text table through the cell walk
    rows += _MIXED_ROWS[1:2]
    want = _render_cell_by_cell("params", meta, columns, rows, fmt)
    calls.clear()
    assert cli._render("params", meta, columns, rows, fmt) == want
    assert calls == [*meta] + ([] if fmt == "json" else [*columns * len(rows)])


@pytest.mark.parametrize("fmt", ["csv", "json", "gnuplot-dat"])
@pytest.mark.parametrize("meta, rows, bad", [
    ({"g": 0.2, "xi0": math.nan}, _FLOAT_ROWS, "xi0 = nan"),
    ({"g": math.inf}, [[math.nan] * 4], "g = inf"),
    ({"g": 0.2}, _FLOAT_ROWS + [[1.0, 2.0, math.inf, math.nan]], "c = inf"),
    ({"g": 0.2}, [[1.0, -math.inf, 3.0, 4.0], [math.nan, 1.0, 1.0, 1.0]], "b = -inf"),
    ({"g": 0.2}, [[0.5, 1.0, 2.0, math.nan]], "d = nan"),
    ({"g": 0.2}, _LONG_ROWS[:150] + [[1.0, 2.0, 3.0, -math.inf]] + _LONG_ROWS[150:]
     + [[math.nan] * 4], "d = -inf"),
    ({"g": 0.2}, _LONG_ROWS + [[0.5, 1.0, math.nan, math.inf]], "c = nan"),
], ids=["meta-nan", "meta-first", "row-inf-before-nan", "row-neg-inf", "row-nan",
        "deep-in-long-table", "last-row-of-long-table"])
def test_non_finite_float_row_is_refused_at_its_first_bad_cell(fmt, meta, rows, bad):
    with pytest.raises(cli.OutOfDomainError) as info:
        cli._render("params", meta, ["a", "b", "c", "d"], rows, fmt)
    assert str(info.value) == (f"params gives {bad}: the inputs take the computation out of "
                               "the floating-point range")


def _same_cell(value, text):
    """A json cell against its csv text: the number, the string, or null as nan."""
    if value is None:
        return text == "nan"
    return text == value if isinstance(value, str) else float(text) == value


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_three_formats_carry_one_table(capsys, command):
    # each model at its defaults: gnuplot-dat is the csv text with spaces on
    # the column and data lines, and json holds the csv cells
    models = cli._COMMANDS[command][1]
    runs = [[command] + (["--model", model] if model else [])
            + (["--theta", "0.05"] if "theta" in entry and entry["theta"] is None else [])
            for model, entry in models.items()]
    if command == "spectrum":
        runs.append([command, "--g", "0.3"])  # no charge: the Z cells are absent
    for argv in runs:
        texts = {}
        for fmt in cli._FORMATS:
            code, texts[fmt], _ = _run(capsys, *argv, "--format", fmt)
            assert code == 0, (argv, fmt)
        lines = texts["csv"].splitlines()
        spaced = [line.replace(",", " ") if line.startswith("# columns: ")
                  or not line.startswith("#") else line for line in lines]
        assert texts["gnuplot-dat"] == "\n".join(spaced) + "\n", argv
        doc = json.loads(texts["json"])
        meta = [line[2:].split(" = ", 1) for line in lines[1:1 + len(doc["meta"])]]
        assert [key for key, _ in meta] == list(doc["meta"]), argv
        assert all(_same_cell(doc["meta"][key], text) for key, text in meta), argv
        assert lines[2 + len(meta)] == "# columns: " + ",".join(doc["columns"])
        rows = [line.split(",") for line in lines[3 + len(meta):]]
        assert len(rows) == len(doc["rows"]) > 0, argv
        for row, cells in zip(doc["rows"], rows):
            assert list(row) == doc["columns"], argv
            assert all(_same_cell(v, t) for v, t in zip(row.values(), cells)), (argv, cells)


def _heun_check_meta(g, theta):
    hp, _ = kgmodels.to_heun(g, physcore.DeformationParams(theta, theta))
    grid = cli._linspace(0.0, 0.4, cli._HEUN_CHECK_POINTS)
    heun = specialfn.heun_local(hp, grid)
    hyper = specialfn.hyp2f1(hp.a, hp.b, hp.c, [xi / hp.xi0 for xi in grid])
    return {"g": g, "theta": theta, "re_a": hp.a.real, "im_a": hp.a.imag,
            "re_b": hp.b.real, "im_b": hp.b.imag, "c": hp.c, "xi0": hp.xi0,
            "max_abs_diff": max(abs(h - f) for h, f in zip(heun, hyper))}


_ALPHA = physcore.FINE_STRUCTURE_ALPHA
_DP = physcore.DeformationParams


# one command per subcommand and model, with the meta each should print,
# every value read off the library object it came from
@pytest.mark.parametrize("argv, meta", [
    (["spectrum", "--Z", "3", "--n", "0..1"], {"Z": 3, "alpha": _ALPHA, "g": 3 * _ALPHA}),
    (["exponents", "--model", "ordinary", "--g", "0.3", "--eta", "0.6"],
     {"model": "ordinary", "g": 0.3, "eta": 0.6, "window_lo": 1e2, "window_hi": 1e4}),
    (["exponents", "--model", "deformed-zero-energy", "--theta", "0.05",
      "--theta-prime", "0.02", "--window", "1e3:1e5"],
     {"model": "deformed-zero-energy", "g": _ALPHA, "window_lo": 1e3, "window_hi": 1e5,
      "theta": 0.05, "theta_prime": 0.02}),
    (["exponents", "--model", "deformed-first-order", "--g", "0.2", "--theta", "0.04",
      "--theta-prime", "0.08"],
     {"model": "deformed-first-order", "g": 0.2, "eta": 0.5, "window_lo": 1e2,
      "window_hi": 1e4, "theta": 0.04}),
    (["wavefunction", "--model", "ordinary", "--Z", "2", "--n", "1"],
     {"model": "ordinary", "g": 2 * _ALPHA, "eta": spectra.energy_closed_form(2 * _ALPHA, 1)}),
    (["wavefunction", "--model", "deformed-zero-energy", "--g", "0.2", "--theta", "0.05",
      "--theta-prime", "0.02"],
     {"model": "deformed-zero-energy", "g": 0.2, "theta": 0.05, "theta_prime": 0.02,
      "xi0": kgmodels.to_heun(0.2, _DP(0.05, 0.02))[0].xi0}),
    (["params", "--model", "heun", "--g", "1", "--theta", "0.3", "--theta-prime", "0.3"],
     {"model": "heun", "g": 1.0, "theta": 0.3, "theta_prime": 0.3,
      "minimal_length_3d": physcore.minimal_length(_DP(0.3, 0.3))}),
    (["params", "--model", "generalized-heun", "--g", "0.3", "--eta", "0.8", "--theta", "0.04"],
     {"model": "generalized-heun", "g": 0.3, "eta": 0.8, "theta": 0.04}),
    (["heun-check", "--g", "1", "--theta", "0.3"], _heun_check_meta(1.0, 0.3)),
    (["heun-check", "--g", "0.2", "--theta", "0.05"], _heun_check_meta(0.2, 0.05)),
])
def test_meta_is_what_the_library_computed(capsys, argv, meta):
    # the meta lines, and then every cell of the table
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    printed = re.findall(r"^# (\w+) = (\S+)$", out, re.MULTILINE)
    assert [key for key, _ in printed] == list(meta), argv
    for key, text in printed:
        assert _same_cell(meta[key], text), (argv, key, text)
    rows, expected = _csv_rows(out), _library_rows(argv, meta)
    assert len(rows) == len(expected) > 0, argv
    for cells, row in zip(rows, expected):
        assert len(cells) == len(row) and all(map(_same_cell, row, cells)), (argv, cells)


def _library_rows(argv, meta):
    """The rows a command of test_meta_is_what_the_library_computed prints,
    each cell from the library call it came from; a string cell is the
    text it prints (a deformed wavefunction is real: im_psi prints 0)."""
    opts = {key[2:]: text for key, text in zip(argv[1::2], argv[2::2])}
    command, model, g = argv[0], opts.get("model"), meta.get("g")
    theta = float(opts.get("theta", "nan"))
    dp = _DP(theta, float(opts.get("theta-prime", theta)))
    if command == "spectrum":
        rows = []
        for n in range(2):
            line, closed = spectra.solve_quantization(g, n), spectra.binding_closed_form(g, n)
            rows.append([n, 3, spectra.energy_closed_form(g, n), line.eta,
                         abs(line.binding - closed) / closed, line.residual, line.binding, closed])
        return rows
    if command == "exponents":
        if model == "deformed-zero-energy":
            ode = kgmodels.build_deformed_zero_energy(g, dp)
        elif model == "ordinary":
            ode = kgmodels.build_ordinary_kg(physcore.CoulombSystem(g, meta["eta"]))
        else:
            system = physcore.CoulombSystem(g, meta["eta"])
            ode = kgmodels.build_deformed_first_order_psi(system, theta)
        exps = fuchsian.indicial_exponents(ode, fuchsian.INFINITY)
        window = (meta["window_lo"], meta["window_hi"])
        measured = asymptotics.paired(exps, asymptotics.transfer_exponents(ode, window))
        return [[label, s.real, s.imag, rho.real, abs(rho.real - s.real) / abs(s.real),
                 int(exps[0].imag != 0.0), rho.imag]
                for label, s, rho in zip(("subdominant", "dominant"), exps, measured)]
    if command == "wavefunction":
        grid = cli._geomspace(0.01, 100.0, cli._WAVEFUNCTION_POINTS)
        if model == "ordinary":
            psis = specialfn.psi_ordinary(physcore.CoulombSystem(g, meta["eta"]), grid)
            return [[u, psi.real, psi.imag, abs(psi)] for u, psi in zip(grid, psis)]
        hp, vmap = kgmodels.to_heun(g, dp)
        xis = vmap.forward(grid)
        psis = [(1.0 - xi) * h for xi, h in zip(xis, specialfn.heun_local(hp, xis))]
        assert all(type(psi) is float for psi in psis)
        return [[u, psi, "0", abs(psi)] for u, psi in zip(grid, psis)]
    if command == "params":
        if model == "heun":
            hp, _ = kgmodels.to_heun(g, dp)
            values = [("omega1", dp.omega1), ("omega2", dp.omega2), ("nu", hp.b - hp.a)]
            values += [(name, getattr(hp, name)) for name in ("q", "xi0", "a", "b", "c", "d", "e")]
            residual = hp.fuchsian_residual
        else:
            ghp, _ = kgmodels.to_generalized_heun(physcore.CoulombSystem(g, meta["eta"]), theta)
            values = [(name, getattr(ghp, name))
                      for name in ("a", "b", "rho1", "rho2", "c", "d", "e", "f", "x1", "x2")]
            residual = ghp.fuchsian_residual
        return ([[name, complex(v).real, complex(v).imag] for name, v in values]
                + [["fuchsian_residual", residual, 0.0]])
    hp, _ = kgmodels.to_heun(g, _DP(theta, theta))  # heun-check
    grid = cli._linspace(0.0, 0.4, cli._HEUN_CHECK_POINTS)
    heun = specialfn.heun_local(hp, grid)
    hyper = specialfn.hyp2f1(hp.a, hp.b, hp.c, [xi / hp.xi0 for xi in grid])
    return [[xi, h, f, abs(h - f)] for xi, h, f in zip(grid, heun, hyper)]


def _readme_cli_table(name):
    """The command-line table of README.md or PAPER.md: (subcommand, model)
    -> {option: default text}."""
    doc = (Path(__file__).resolve().parent.parent / name).read_text()
    section = doc.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0].startswith("`"):
            continue
        model = re.match(r"`([\w-]+)`", cells[1])
        key = (cells[0].strip("`"), model and model.group(1))
        assert key not in rows, key
        rows[key] = (cells[1], dict(re.findall(r"`--([\w-]+)`(?: \(([^)]*)\))?", cells[2])))
    return rows


def _readme_value(text):
    """A README default: `text` for a string, else a number or a fraction a/b."""
    if text.startswith("`"):
        return text.strip("`")
    num, _, den = text.partition("/")
    return float(num) / float(den or 1)


@pytest.mark.parametrize("name", ["README.md", "PAPER.md"])
def test_readme_table_is_the_command_table(name):
    rows = _readme_cli_table(name)
    expected = [(command, model) for command, (_, models, _) in cli._COMMANDS.items()
                for model in models]
    assert list(rows) == expected
    for command, (_, models, _) in cli._COMMANDS.items():
        for i, (model, entry) in enumerate(models.items()):
            model_cell, listed = rows[command, model]
            assert ("(default)" in model_cell) == (i == 0 and model is not None)
            assert list(listed) == list(entry), (command, model)
            for key, default in entry.items():
                text = listed[key]
                if default is None:
                    assert text == "", (command, model, key)
                else:
                    assert _readme_value(text) == default, (command, model, key)


def _benchmark_checks():
    """perfbench/checks.py, the benchmark's correctness checks, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("benchmark_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind, argv", [
    ("wavefunction-deformed", ["wavefunction", "--model", "deformed-zero-energy", "--theta",
                               "0.05", "--theta-prime", "0.02", "--g", "0.3",
                               "--window", "0.05:200"]),
    ("exponents", ["exponents", "--model", "deformed-zero-energy", "--Z", "10", "--theta",
                   "0.05", "--theta-prime", "0.05"]),
])
def test_benchmark_check_passes_on_cli_output(capsys, kind, argv):
    # the benchmark's checks of these two kinds call the library and read
    # the output's layout themselves; a change to a name, a signature or
    # the layout they use fails here, not as failed benchmark commands
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    checks = _benchmark_checks()
    found = checks.check(kind, argv, out)
    assert found and checks.passes(kind, found)


def _benchmark_workloads():
    """perfbench/workloads.py, the benchmark's command lists, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def test_exponent_fit_seed_1_passes_every_check():
    # the 144 exponent-fit commands of seed 1, near-critical draws included;
    # over pieces of ratio 2 every row measures within 2e-5 (ratio 10 missed
    # by up to 9.6e-5)
    checks, workloads = _benchmark_checks(), _benchmark_workloads()
    failed, worst = [], 0.0
    for cmd in workloads.commands("exponent-fit", 1, 15):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(cmd.argv))
        if code != 0 or not checks.passes(cmd.kind, checks.check(cmd.kind, cmd.argv,
                                                                  out.getvalue())):
            failed.append((cmd.region, " ".join(cmd.argv)))
            continue
        worst = max([worst] + [float(row[4]) for row in _csv_rows(out.getvalue())])
    assert failed == []
    assert worst <= 2e-5


def _fresh_python(*args, check=True):
    """A fresh interpreter with the package on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=check)


def test_cli_import_leaves_scipy_unloaded():
    proc = _fresh_python("-c", "import sys, kgcoulomb.cli; print('scipy' in sys.modules)")
    assert proc.stdout.strip() == "False"


def test_package_binds_its_modules_alone():
    # every public name is imported from its module; the package re-exports
    # none, and importing it loads the whole library
    library = {"asymptotics", "errors", "fuchsian", "kgmodels", "physcore", "specialfn",
               "spectra"}
    proc = _fresh_python("-c", "import sys, kgcoulomb\n"
                         "print(*(n for n in vars(kgcoulomb) if not n.startswith('__')))\n"
                         "print(*sys.modules)")
    names, loaded = (set(line.split()) for line in proc.stdout.splitlines())
    assert names == library
    assert {f"kgcoulomb.{name}" for name in library} <= loaded


def test_cli_import_loads_neither_dataclasses_nor_json():
    # measured against a bare interpreter, whose site setup may load any of them
    listing = "import sys; print(*sys.modules)"
    bare = set(_fresh_python("-c", listing).stdout.split())
    loaded = set(_fresh_python("-c", "import kgcoulomb.cli; " + listing).stdout.split())
    assert "kgcoulomb.cli" in loaded
    assert not {"dataclasses", "inspect", "json"} & (loaded - bare)


def test_json_format_in_a_fresh_process():
    # the only route that imports json; in process, json is always loaded already
    proc = _fresh_python("-m", "kgcoulomb.cli", "heun-check", "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["command"] == "heun-check" and len(doc["rows"]) == cli._HEUN_CHECK_POINTS


def test_exponents_leave_scipy_unloaded():
    code = ("import contextlib, io, sys\n"
            "from kgcoulomb import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['exponents']) == 0\n"
            "print('scipy' in sys.modules)")
    proc = _fresh_python("-c", code)
    assert proc.stdout.strip() == "False"


def test_process_argv_takes_the_plain_path_without_argparse(capsys, tmp_path):
    # a fresh `python -m kgcoulomb.cli` calls main() with no argument and
    # reads its own argv. No argv imports argparse (or the locale module
    # its gettext loads), help and refusals included, and each prints
    # what main(argv) prints
    config = tmp_path / "run.cfg"
    config.write_text("Z = 3\nn = 0..2\n")
    for argv in (["spectrum", "--Z", "3", "--n", "0..2"], ["--help"], ["spectrum", "-h"],
                 ["spectrum", "--Z=3", "--n=0..2"], ["spectrum", "--config", str(config)],
                 ["spectrum", "--Z", "3", "extra"]):
        code = ("import sys\n"
                f"sys.argv = ['kgcoulomb', *{argv!r}]\n"
                "from kgcoulomb import cli\n"
                "code = cli.main()\n"
                "assert 'argparse' not in sys.modules, 'argparse'\n"
                "sys.exit(code)\n")
        proc = _fresh_python("-c", code, check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == _run(capsys, *argv), argv


# argv beyond the plain `COMMAND --key value ...` form, each with the exit
# code that argparse gave it when it read them: the forms a user may give
# (--key=value, a unique prefix, a repeated key, -h or --help) and the
# ones refused with one usage error line
_PROBES = [
    (["exponents", "--g=0.3"], 0), (["exponents", "--the", "0.1"], 1),
    (["exponents", "--g", "-1"], 1), (["exponents", "--g", "0.3", "--g", "0.4"], 0),
    (["exponents", "--g", "x"], 1), (["exponents", "--g"], 1), (["exponents", "--help"], 0),
    (["exponents", "--n", "0"], 1), (["nosuch"], 1), (["--g", "0.3"], 1), ([], 1),
    (["exponents", "--"], 1), (["exponents", "--", "--g", "0.3"], 1),
    (["exponents", "--Z", "5", "extra"], 1), (["exponents", "--window", "-1:2"], 1),
    (["exponents", "-g", "0.3"], 1), (["exponents", "--wind=100:1000"], 0),
    (["exponents", "--mod", "deformed-zero-energy", "--theta", "0.05"], 0),
    (["spectrum", "--config"], 1), (["exponents", "--g=0.3=4"], 1),
    (["spectrum", "--n=-1"], 1), (["spectrum", "--n", "abc"], 1),
    (["exponents", "--model", "deformed-zero-energy", "--theta", "-1", "--theta-prime", "2"], 1),
]


@pytest.mark.parametrize("argv, code", [pytest.param(*probe, id=repr(probe[0]))
                                        for probe in _PROBES])
def test_plain_argv_parser_declines_the_rest(capsys, argv, code):
    # each argv off the plain form is answered by the one reader: with a
    # table, or with exit 1 and one usage error line
    got, out, err = _run(capsys, *argv)
    assert got == code
    if code:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("kgcoulomb: usage error: ")


def test_negative_deformation_strength_is_named(capsys):
    # theta + theta' is positive, so the refusal is DeformationParams' own
    _, _, err = _run(capsys, "exponents", "--model", "deformed-zero-energy", "--theta", "-1",
                     "--theta-prime", "2")
    assert err == "kgcoulomb: usage error: deformation strengths must be nonnegative\n"


def test_argv_is_read_left_to_right(capsys):
    # the first token that decides the run decides it: an unknown option
    # before --help is refused, and -h before a bad value prints the help
    assert _run(capsys, "exponents", "--bogus", "1", "--help")[:2] == (1, "")
    assert _run(capsys, "exponents", "--g", "x", "-h")[:2] == (1, "")
    code, out, _ = _run(capsys, "exponents", "-h", "--g", "x")
    assert code == 0 and out.startswith("usage: kgcoulomb exponents ")


def test_argv_forms_read_as_the_plain_form(capsys):
    # --key=value, a unique prefix and a repeated key (the last one wins)
    # read the options the plain form gives
    plain = ("exponents", "--model", "deformed-zero-energy", "--theta", "0.05",
             "--window", "100:1000")
    expected = cli._parse_args(list(plain))
    assert expected == ("exponents", {"model": "deformed-zero-energy", "theta": 0.05,
                                      "window": "100:1000"})
    for argv in (["--model=deformed-zero-energy", "--theta=0.05", "--window=100:1000"],
                 ["--mod", "deformed-zero-energy", "--theta", "0.05", "--wind=100:1000"],
                 ["--model", "ordinary", "--theta", "0.3", "--window", "1:2",
                  *plain[1:]]):
        assert cli._parse_args(["exponents", *argv]) == expected, argv
    assert _run(capsys, "exponents", "--mod", "deformed-zero-energy", "--theta=0.05",
                "--wind", "100:1000") == _run(capsys, *plain)


def test_commands_without_arrays_leave_numpy_unloaded():
    # no subcommand imports numpy, the exponents integration and fit included
    code = ("import contextlib, io, sys\n"
            "from kgcoulomb import cli\n"
            "runs = [['spectrum'], ['params'],\n"
            "        ['params', '--model', 'generalized-heun', '--theta', '0.05'],\n"
            "        ['wavefunction'],\n"
            "        ['wavefunction', '--model', 'deformed-zero-energy', '--theta', '0.05',\n"
            "         '--theta-prime', '0.02', '--g', '0.2'],\n"
            "        ['heun-check'],\n"
            "        ['exponents', '--Z', '10'], ['exponents', '--Z', '100'],\n"
            "        ['exponents', '--model', 'deformed-zero-energy', '--theta', '0.05',\n"
            "         '--theta-prime', '0.02', '--Z', '57'],\n"
            "        ['exponents', '--model', 'deformed-first-order', '--theta', '0.05']]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(argv) for argv in runs]\n"
            "print(codes, 'numpy' in sys.modules)")
    proc = _fresh_python("-c", code)
    assert proc.stdout.strip() == f"{[0] * 10} False"


def test_hydrogen_far_above_the_old_bracket_edge(capsys):
    # bound by about 6.6e-10 m c^2: once "no sign change", now solved in b
    code, out, _ = _run(capsys, "spectrum", "--Z", "1", "--n", "200..202")
    assert code == 0
    for row in _csv_rows(out):
        n = int(row[0])
        big_n = n + 0.5 + math.sqrt(0.25 - cli.FINE_STRUCTURE_ALPHA ** 2)
        balmer = cli.FINE_STRUCTURE_ALPHA ** 2 / (2.0 * big_n ** 2)
        assert float(row[6]) == pytest.approx(balmer, rel=1e-8)


# --- argv fuzzing: every run ends in a table or in a kgcoulomb: diagnostic ---
#
# The argv lists come from a seeded random.Random, so every session runs
# the same 300 of them, whatever else it imported: hypothesis would draw
# some values from the constants of the modules loaded so far.

_EDGE_NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e-300", "1e300", "1e-14", "0.5", "1", "3"]
_WINDOWS = ["1e2:1e4", "0.01:100", "0.2:1", "1e5:1e7", "5:1", "0:1", ":", "1:", "a:b",
            "1e2", "", "1:1", "nan:2", "1:inf", "-1:2", "1e-300:1e300", "3:4:5"]
_VALUES = {
    "n": ["0", "0..5", "200..202", "3..1", "-1", "x", "1..", "0..0", "999"],
    "model": ["ordinary", "deformed-zero-energy", "deformed-first-order",
              "heun", "generalized-heun", "nope"],
    "format": ["csv", "json", "gnuplot-dat", "xml"],
    "order": ["-1", "0", "4", "16", "64", "nan"],
    "tol": ["1e-10", "1e-3", "1e-300", "0", "-1", "0.5", "nan", "inf"],
}


def _number(rng):
    """An edge value, a float in [1e-6, 2] spread over its decades, or an integer."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice(_EDGE_NUMBERS)
    if kind == 1:
        return repr(2.0 * 10.0 ** rng.uniform(-6.3, 0.0))
    return str(rng.randint(-2, 140))


def _window(rng):
    if rng.randrange(2):
        return rng.choice(_WINDOWS)
    return f"{10.0 ** rng.uniform(-3.0, 4.0)!r}:{10.0 ** rng.uniform(-2.0, 6.0)!r}"


def _argv(rng):
    command = rng.choice(sorted(cli._COMMANDS))
    # --out would write files; the table must reach stdout to be checked.
    taken = [key for key in cli._options(command) if key != "out"]
    keys = rng.sample(taken, rng.randint(0, 5))
    if rng.randrange(10) == 9:
        # now and then an option the command does not take, or the removed
        # --order and --tol, so that their usage error stays covered
        keys.append(rng.choice(
            [key for key in cli._OPTIONS if key not in taken and key != "out"]
            + ["order", "tol"]))
    argv = [command]
    for key in keys:
        if key in _VALUES:
            value = rng.choice(_VALUES[key])
        elif key == "window":
            value = _window(rng)
        else:
            value = _number(rng)
        argv += ["--" + key, value]
    return argv


def _numbers(cells):
    out = []
    for cell in cells:
        try:
            out.append(float(cell))
        except (TypeError, ValueError):
            pass
    return out


def _check_table_or_diagnostic(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code != 0:
        assert code in (1, 2), argv
        assert out == "", argv
        assert any(line.startswith("kgcoulomb: ") for line in err.splitlines()), argv
        return
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        doc = json.loads(out)
        rows = [list(row.values()) for row in doc["rows"]]
        meta = list(doc["meta"].values())
    else:
        lines = out.splitlines()
        rows = [line.replace(",", " ").split() for line in lines if not line.startswith("#")]
        meta = [line.split(" = ", 1)[1] for line in lines if " = " in line]
    assert rows, argv
    for value in _numbers(meta):
        assert math.isfinite(value), argv
    for row in rows:
        if argv[0] == "spectrum" and "--g" in argv:  # no charge: the Z cell is nan (null)
            assert row[1] in ("nan", None), argv
            row = row[:1] + row[2:]
        assert all(math.isfinite(v) for v in _numbers(row)), (argv, row)
        assert None not in row, (argv, row)


def test_fuzzed_argv_ends_in_a_table_or_a_diagnostic():
    rng = random.Random(2013)
    for _ in range(300):
        _check_table_or_diagnostic(_argv(rng))


@pytest.mark.parametrize("argv, code", [
    (["params", "--model", "generalized-heun", "--g", "0"], 1),
    (["exponents", "--g", "1e300"], 1),
    (["params", "--alpha", "1e300"], 1),
    (["params", "--theta", "1e-14"], 2),
    (["heun-check", "--theta", "1e15"], 2),
    (["params", "--model", "generalized-heun", "--theta", "1e100"], 2),
    (["exponents", "--model", "deformed-first-order", "--theta", "1e-300"], 2),
    (["exponents", "--model", "deformed-zero-energy", "--theta", "1e155"], 2),
], ids=lambda x: " ".join(x) if isinstance(x, list) else str(x))
def test_extreme_inputs_end_in_a_diagnostic(capsys, argv, code):
    # each raised a traceback, or printed nan or inf, before
    got, out, err = _run(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith("kgcoulomb: ")


# Extreme values per option, drawn only into the options that the drawn
# model reads, so that every draw that parses reaches the computation.
_EXTREME = {
    "Z": ["1", "2", "68", "137", "1000"],
    "alpha": ["1e-300", "1e-8", "0.0072973525693", "1", "1e150"],
    "g": ["1e-300", "1e-152", "1e-8", "0.49999999", "0.5", "0.5000000001", "0.51", "1",
          "1e3", "1e150"],
    "eta": ["1e-300", "1e-8", "0.3", "0.5", "0.9", "0.999999999999"],
    "n": ["0", "0..3", "47", "200"],
    "theta": ["1e-300", "1e-150", "1e-8", "0.05", "0.5", "1", "1e150", "1e300"],
    "theta-prime": ["0", "1e-300", "1e-8", "0.05", "1e150"],
    "window": ["1e-300:1e-299", "1e-3:1e-2", "0.01:100", "1.5:100", "1e2:1e4",
               "1e100:1e200", "1e300:1e308", "1:1e308"],
}


def _extreme_argv(rng):
    command = rng.choice(sorted(cli._COMMANDS))
    models = cli._COMMANDS[command][1]
    model = rng.choice(sorted(models, key=str))
    keys = rng.sample(list(models[model]), rng.randint(1, len(models[model])))
    if "g" in keys:  # --g excludes --Z and --alpha
        keys = [key for key in keys if key not in ("Z", "alpha")]
    argv = [command] + (["--model", model] if model else [])
    for key in keys:
        argv += ["--" + key, rng.choice(_EXTREME[key])]
    return argv


def test_extreme_values_end_in_a_table_or_a_diagnostic():
    # each draw returns 0, 1 or 2 through cli.main and raises nothing; the
    # first two raised ZeroDivisionError and OverflowError from the complex
    # power of a supercritical prefactor, the third summed a 2F1 polynomial
    # of degree 5e149 until memory ran out
    fixed = [["wavefunction", "--g", "0.51", "--eta", "0.9", "--window", "1e300:1e308"],
             ["wavefunction", "--g", "1e3", "--eta", "0.9", "--window", "1e100:1e200"],
             ["heun-check", "--g", "1e150", "--theta", "1"]]
    rng = random.Random(1311)
    for argv in fixed + [_extreme_argv(rng) for _ in range(800)]:
        _check_table_or_diagnostic(argv)


@pytest.mark.parametrize("g, window", [("0.51", "1e300:1e308"), ("1e3", "1e100:1e200")])
def test_supercritical_wavefunction_far_out_is_a_domain_error(capsys, g, window):
    # the prefactor (1 + i u / eps)^(-3/2 - mu) with complex mu ended in a
    # traceback; a subcritical run prints 0 there
    code, out, err = _run(capsys, "wavefunction", "--g", g, "--eta", "0.9", "--window", window)
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"kgcoulomb: wavefunction grid point u = \S+ cannot be evaluated: .*\n",
                        err)


@pytest.mark.parametrize("eta", ["0.3", "0.5", "0.9"])
def test_critical_coupling_is_an_exact_double_root(capsys, eta):
    # at g = 1/2 the indicial discriminant at infinity is zero; rounded, it
    # was +-3.6e-15 against terms of 25, and the pair split by sqrt(eps),
    # into two reals or a complex pair flagged oscillatory, with eta
    code, out, _ = _run(capsys, "exponents", "--g", "0.5", "--eta", eta)
    assert code == 0
    rows = _csv_rows(out)
    assert [(r[1], r[2], r[5]) for r in rows] == [("-2.5", "0", "0")] * 2
    assert all(math.isfinite(float(r[3])) for r in rows)


def _measured(capsys, *argv):
    """(rows, oscillatory flags) of an exponents run that answers: each row
    (re_analytic, im_analytic, fitted, im_fitted)."""
    code, out, err = _run(capsys, "exponents", *argv)
    assert code == 0, err
    rows = _csv_rows(out)
    return [tuple(float(r[i]) for i in (1, 2, 3, 6)) for r in rows], [r[5] for r in rows]


@pytest.mark.parametrize("g", ["0.49", "0.4999"])
def test_near_critical_exponents_are_measured(capsys, g):
    # the fit of the march from u = 1 missed by up to 5.4% here: the slow
    # branch's admixture decays only as u^(-2 mu)
    rows, flags = _measured(capsys, "--g", g)
    assert flags == ["0", "0"]
    for re_analytic, _, fitted, _ in rows:
        assert abs(fitted - re_analytic) <= 0.01 * abs(re_analytic)


@pytest.mark.parametrize("eta", ["0.3", "0.5", "0.9"])
def test_critical_coupling_is_measured(capsys, eta):
    # a Jordan block splits the measured pair by O(u^(-1/2)); the real
    # parts stay within 1% of -5/2 and the analytic pair is not flagged
    rows, flags = _measured(capsys, "--g", "0.5", "--eta", eta)
    assert flags == ["0", "0"]
    assert [r[2] for r in rows] == pytest.approx([-2.5, -2.5], rel=0.01)


@pytest.mark.parametrize("argv", [("--g", "0.6"), ("--Z", "100"),
                                  ("--Z", "137", "--window", "30:9000")], ids=" ".join)
def test_complex_pair_is_measured(capsys, argv):
    rows, flags = _measured(capsys, *argv)
    assert flags == ["1", "1"]
    for re_analytic, im_analytic, fitted, im_fitted in rows:
        assert abs(fitted - re_analytic) <= 0.01 * abs(re_analytic)
        assert abs(im_fitted - im_analytic) <= 0.01 * abs(im_analytic)


@pytest.mark.parametrize("g", ["2", "5", "30", "50", "1000"])
def test_fast_turning_pair_is_measured_or_refused(capsys, g):
    # over [1e2, 1e4] the principal log wrapped at g 2 and 5 (im 0.792 for
    # 1.936, 0.483 for 4.975); past what the series resolve, exit 2
    code, out, err = _run(capsys, "exponents", "--g", g)
    if code == 2:
        assert out == "" and err.startswith("kgcoulomb: ")
        assert float(g) > 10.0
        return
    assert code == 0, err
    for row in _csv_rows(out):
        assert abs(float(row[3]) + 2.5) <= 0.025
        assert abs(float(row[6]) - float(row[2])) <= 0.01 * abs(float(row[2]))


def test_fast_turning_pair_read_near_hop_centres(capsys):
    # the phase anchor cuts the ratio to 1.044; read off the march over
    # [hi/4, hi], the pieces fell near the edge of a 64-term disk and
    # missed by 1.9e-3
    code, out, err = _run(capsys, "exponents", "--g", "30")
    assert code == 0, err
    assert max(float(row[4]) for row in _csv_rows(out)) <= 1e-6


@pytest.mark.parametrize("argv, bound", [
    (("--g", "40"), 1e-8), (("--g", "50"), 1e-8), (("--g", "60"), 1e-8), (("--g", "100"), 1e-8),
    (("--g", "31.5022", "--window", "14.2968:17.4251", "--eta", "0.4571"), 0.01),
    (("--g", "37.6496", "--window", "429.789:8801.59", "--eta", "0.176428"), 1e-7),
    (("--g", "20"), 1e-6), (("--g", "40", "--window", "10:1e3"), 1e-6),
], ids=lambda arg: " ".join(arg) if isinstance(arg, tuple) else None)
def test_fast_turning_pair_answers_at_the_default_tol(capsys, argv, bound):
    # the hop's settle check judged its whole trusted half disk, and the
    # first six exited 2 ("do not settle in 64 terms"); judged on the disk
    # the pieces are read on, each answers, the sixth on a ratio cut within
    # its estimate. Read across the hand-overs of one march up over
    # [hi/4, hi] with the hop cut at 1e-3, the last two missed by 0.092
    # and 0.030 and still exited 0
    code, out, err = _run(capsys, "exponents", *argv)
    assert code == 0, err
    assert max(float(row[4]) for row in _csv_rows(out)) <= bound


def test_turn_too_fast_for_a_hop_is_refused(capsys):
    code, out, err = _run(capsys, "exponents", "--g", "150")
    assert code == 2
    assert out == "" and err.startswith("kgcoulomb: ")


@pytest.mark.parametrize("argv", [
    ("--model", "ordinary", "--g", "15.7492", "--window", "1.43648:2.79532", "--eta", "0.617259"),
    ("--g", "10.9248", "--window", "2.13029:2.6871", "--eta", "0.881461"),
    ("--model", "deformed-zero-energy", "--g", "36.1452", "--window", "7.58967:11.863",
     "--theta", "0.0128765", "--theta-prime", "0.0303547"),
    ("--model", "deformed-zero-energy", "--g", "20.9073", "--window", "5.74188:6.84344",
     "--theta", "0.0135097", "--theta-prime", "0.068539"),
], ids=" ".join)
def test_measure_past_its_estimate_is_refused(capsys, argv):
    # a top too low for one Richardson step: the first two, on a ratio the
    # phase cuts, printed deviations of about 0.096 and 0.057 with exit 0;
    # the last two, on the uncut ratio above the singular scale, 4.67 and
    # 3.11, the first of them once the hop was cut on its read disk
    code, out, err = _run(capsys, "exponents", *argv)
    assert code == 2
    assert out == "" and err.startswith("kgcoulomb: ") and "error estimate" in err


@pytest.mark.parametrize("argv, limit", [
    # the phase cuts the ratio below its width's
    (("--model", "ordinary", "--g", "15.7492", "--window", "1.43648:2.79532", "--eta",
      "0.617259"), "their phase"),
    # sqrt(1.2 / 1.01) lies below the cap, and the phase cuts nothing
    (("--g", "0.3", "--window", "1.01:1.2"), "the window's width sqrt(hi/lo)"),
    # a window wider than a factor sqrt(2) meets the cap first
    (("--model", "deformed-zero-energy", "--g", "36.1452", "--window", "7.58967:11.863",
      "--theta", "0.0128765", "--theta-prime", "0.0303547"), "the cap 2^(1/4)"),
], ids=["phase", "width", "cap"])
def test_refused_estimate_names_what_set_the_ratio(capsys, argv, limit):
    code, out, err = _run(capsys, "exponents", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("kgcoulomb: the exponents' error estimate")
    assert err.endswith(f"lies too low for the ratio that {limit} allows\n")


def test_exponents_need_no_local_data_at_finite_points(capsys):
    # +-i eps_tilde and +-i/sqrt(6 theta) lie one rounding apart, where
    # their local expansions are lost; infinity is classified alone
    code, out, _ = _run(capsys, "exponents", "--model", "deformed-first-order",
                        "--theta", "0.22222222222222227")
    assert code == 0
    rows = _csv_rows(out)
    assert float(rows[0][1]) == pytest.approx(-2.0, abs=1e-12)
    assert float(rows[1][1]) == pytest.approx(-10.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("model, theta, dominant", [
    ("deformed-zero-energy", "1e110", -5.0),
    ("deformed-zero-energy", "1e150", -5.0),
    ("deformed-first-order", "1e160", -10.0 / 3.0),
    ("deformed-first-order", "1e300", -10.0 / 3.0),
])
def test_strong_deformation_stays_in_range(capsys, model, theta, dominant):
    # the pullback's far points +-i sqrt(T) spread its monic coefficients
    # up to T^2; the series products must not overflow
    code, out, _ = _run(capsys, "exponents", "--model", model, "--theta", theta)
    assert code == 0
    rows = _csv_rows(out)
    assert [float(r[1]) for r in rows] == pytest.approx([-2.0, dominant], abs=1e-12)
    assert [float(r[3]) for r in rows] == pytest.approx([-2.0, dominant], abs=1e-3)


@pytest.mark.parametrize("theta, window", [("1e-8", "1e5:1e7"), ("1e-14", "1e8:1e10"),
                                           ("1e-120", "1e62:1e64")])
def test_weak_deformation_window_fits(capsys, theta, window):
    # the Frobenius series at infinity lives on a disk of radius
    # sqrt(theta) in 1/u; at 1e-14 its unscaled coefficients would grow
    # like 1e7^k and overflow by order 48. At 1e-120 the subdominant branch
    # marches from u = 1 to 1e64, where the hop radius to the power 7 of
    # the shifted P2 leaves the range unless taken as an exact power of two
    code, out, err = _run(capsys, "exponents", "--model", "deformed-zero-energy", "--theta", theta,
                          "--theta-prime", "0", "--Z", "10", "--window", window)
    assert code == 0
    assert err == ""  # the window starts ten times above the deformation scale
    rows = _csv_rows(out)
    assert [float(r[1]) for r in rows] == pytest.approx([-2.0, -5.0], abs=1e-12)
    assert [float(r[3]) for r in rows] == pytest.approx([-2.0, -5.0], abs=1e-3)


@pytest.mark.parametrize("theta, window", [("1e-80", "1e2:1e4"), ("1e-14", "1e5:1e7")])
def test_window_below_the_singular_scale_warns(capsys, theta, window):
    # the deformation scale 1/sqrt(theta) lies above the window, whose fits
    # then follow the undeformed regime; at theta 1e-80 the product form
    # d1 d0 put the pivot of the series at infinity near theta^3, out of
    # range once scaled, where the least-degree form has it near theta^2
    for _ in range(2):  # reported on every run, not once per process
        code, out, err = _run(capsys, "exponents", "--model", "deformed-zero-energy",
                              "--theta", theta, "--theta-prime", "0", "--Z", "10",
                              "--window", window)
        assert code == 0
        assert "pivot vanished" not in err
        assert err.count("kgcoulomb: warning:") == 1
        assert "singular scale" in err
        assert [float(r[1]) for r in _csv_rows(out)] == pytest.approx([-2.0, -5.0], abs=1e-12)


@pytest.mark.parametrize("model, window, expected", [
    ("deformed-zero-energy", "10:1e28", [-2.0, -5.0]),
    ("ordinary", "10:1e30", None),
])
def test_far_windows_answer(capsys, model, window, expected):
    # 10:1e28 overflowed with the product form's wider band, and 10:1e30
    # needs more than 200 hops from u = 1
    extra = ("--theta", "0.1") if model != "ordinary" else ("--Z", "10")
    code, out, err = _run(capsys, "exponents", "--model", model, *extra, "--window", window)
    assert code == 0, err
    rows = _csv_rows(out)
    analytic = [float(r[1]) for r in rows]
    assert [float(r[3]) for r in rows] == pytest.approx(expected or analytic, rel=1e-4)


@pytest.mark.parametrize("argv", [
    ("--window", "2:1e100"),
    ("--Z", "10", "--window", "10:1e47"),
    ("--model", "deformed-first-order", "--theta", "0.1", "--window", "1e40:1e61"),
], ids=" ".join)
def test_windows_inside_the_disk_at_infinity_answer(capsys, argv):
    # the dominant branch is read off its series at infinity on the whole
    # window; marched back from the top, these ran out of hops or range
    code, out, err = _run(capsys, "exponents", *argv)
    assert code == 0, err
    rows = _csv_rows(out)
    assert [float(r[3]) for r in rows] == pytest.approx([float(r[1]) for r in rows], abs=1e-3)


def test_tiny_first_order_deformation_marches_inward(capsys):
    # the series at infinity is trusted only beyond u = 8e59 (8e64 at
    # 1e-130), so the dominant branch marches from there to u = 100: about
    # 260 hops inward, in hop radii whose powers leave the range unless
    # taken as exact powers of two
    for theta in ("1e-120", "1e-130"):
        code, out, err = _run(capsys, "exponents", "--model", "deformed-first-order",
                              "--theta", theta, "--Z", "10")
        assert code == 0, err
        assert err.count("kgcoulomb: warning:") == 1
        assert err.startswith("kgcoulomb: warning:") and "singular scale" in err
        assert err.count("\n") == 1
        rows = _csv_rows(out)
        assert [float(r[1]) for r in rows] == pytest.approx([-2.0, -10.0 / 3.0], abs=1e-12)
        assert all(math.isfinite(float(r[3])) for r in rows)


def test_window_too_far_out_is_a_clean_error(capsys):
    code, out, err = _run(capsys, "exponents", "--model", "deformed-zero-energy",
                          "--theta", "0.1", "--window", "10:1e60")
    assert code == 2
    assert out == ""
    assert err.startswith("kgcoulomb: ")
