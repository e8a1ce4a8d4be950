"""Command line interface: values, formats, and exit codes."""

import csv
import json
import math

import numpy as np
import pytest

from conftest import random_mixed
from spinchsh import PureState, pure_to_density
from spinchsh.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestGamma:

    def test_ghz(self, capsys):
        code, out = run_cli(capsys, "gamma", "--family", "ghz3")
        data = json.loads(out)
        assert code == 0
        assert data["gamma"] == pytest.approx(math.sqrt(8 / 9), abs=1e-12)
        assert data["violated"] is False

    def test_horodecki(self, capsys):
        code, out = run_cli(capsys, "gamma", "--family", "horodecki", "--tau", "4.5")
        assert code == 0
        assert json.loads(out)["gamma"] == pytest.approx(4 * math.sqrt(2) / 21, abs=1e-12)

    def test_werner_near_zero(self, capsys):
        code, out = run_cli(capsys, "gamma", "--family", "werner", "--phi", "0.3333333")
        assert code == 0
        assert json.loads(out)["gamma"] == pytest.approx(0.0, abs=1e-6)

    def test_antisym_flags(self, capsys):
        r = repr(1 / math.sqrt(2))
        code, out = run_cli(capsys, "gamma", "--family", "antisym",
                            "--alpha12", r, "--alpha13", "0", "--alpha23", r)
        assert code == 0
        assert json.loads(out)["gamma"] == pytest.approx(1.0, abs=1e-9)

    def test_state_file_round_trip(self, capsys, tmp_path, rng):
        rho = random_mixed(rng)
        path = write_json(tmp_path / "state.json", rho.to_json())
        code, out = run_cli(capsys, "gamma", "--state-file", path)
        assert code == 0
        from spinchsh import chsh_analysis, correlation_matrix_trace, spin_operators
        expected = chsh_analysis(correlation_matrix_trace(rho, spin_operators(1))).gamma
        assert json.loads(out)["gamma"] == pytest.approx(expected, abs=1e-11)

    def test_violation_exit_code(self, capsys, tmp_path):
        bell = PureState(np.array([1, 0, 0, 1]) / math.sqrt(2), (2, 2))
        path = write_json(tmp_path / "bell.json", bell.to_json())
        code, out = run_cli(capsys, "gamma", "--state-file", path)
        data = json.loads(out)
        assert code == 3
        assert data["violated"] is True
        assert data["gamma"] == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "gamma", "--family", "ghz3", "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split(",")[3] == "gamma"
        assert float(row.split(",")[3]) == pytest.approx(math.sqrt(8 / 9), abs=1e-11)

    def test_decimals_flag(self, capsys):
        code, out = run_cli(capsys, "--decimals", "2", "gamma", "--family", "ghz3")
        assert code == 0
        assert json.loads(out)["gamma"] == 0.94

    def test_malformed_file_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["gamma", "--state-file", str(path)]) == 1
        path2 = write_json(tmp_path / "empty.json", {"dims": [3, 3]})
        assert main(["gamma", "--state-file", path2]) == 1
        zero = [[0.0, 0.0]] * 8
        malformed = {
            "flat_list": {"dims": [3, 3], "amplitudes": [1, 0, 0, 0, 0, 0, 0, 0, 0]},
            "one_dim": {"dims": [3], "amplitudes": [[1.0, 0.0]] + zero},
            "one_dim_matrix": {"dims": [3], "matrix": [[1.0, 0.0]] + [[0.0, 0.0]] * 80},
            "triples": {"dims": [3, 3], "amplitudes": [[1.0, 0.0, 5.0]] + [[0.0, 0.0, 0.0]] * 8},
            "too_few": {"dims": [3, 3], "amplitudes": [[0.5, 0.0]] * 4},
            "no_dims": {"amplitudes": [[1.0, 0.0]] + zero},
            "not_numbers": {"dims": [3, 3], "amplitudes": [[{}, 0.0]] + zero},
            "null_entry": {"dims": [3, 3], "amplitudes": [[1.0, None]] + zero},
            "not_an_object": [[1.0, 0.0]] + zero,
        }
        for name, payload in malformed.items():
            bad = write_json(tmp_path / f"{name}.json", payload)
            for command in ("gamma", "validate"):
                capsys.readouterr()
                assert main([command, "--state-file", bad]) == 1, (command, name)
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1, (command, name, err)
        for name, payload in (("short", {"matrix": [[1.0, 0.0]] * 4}), ("list", [[1.0, 0.0]] * 9)):
            factor = write_json(tmp_path / f"factor_{name}.json", payload)
            assert main(["gamma", "--family", "product", "--state-a", factor]) == 1, name
            assert capsys.readouterr().err.startswith("error: "), name

    def test_invariant_failure_exit_2(self, capsys, tmp_path):
        matrix = [[0.0, 0.0]] * 81
        matrix[0] = [1.2, 0.0]
        matrix[10] = [-0.2, 0.0]
        path = write_json(tmp_path / "nonpsd.json", {"dims": [3, 3], "matrix": matrix})
        assert main(["gamma", "--state-file", str(path)]) == 2

    def test_missing_family_parameter_exit_1(self, capsys):
        assert main(["gamma", "--family", "werner"]) == 1

    def test_missing_source_exit_1(self, capsys):
        assert main(["gamma"]) == 1

    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gamma", "--family", "ghz3", "--bogus"])
        assert err.value.code == 1

    def test_spin_mismatch_exit_1(self, capsys):
        assert main(["gamma", "--family", "ghz3", "--spin", "0.5"]) == 1


class TestSweep:

    def test_example1_grid(self, capsys):
        code, out = run_cli(capsys, "sweep", "--example", "1", "--points", "101")
        rows = list(csv.DictReader(out.splitlines()))
        assert code == 0
        assert len(rows) == 101
        mid = rows[50]
        assert float(mid["t"]) == pytest.approx(0.5)
        assert float(mid["gamma"]) == pytest.approx(1.0, abs=1e-12)
        assert float(mid["concurrence"]) == pytest.approx(1.0, abs=1e-10)

    def test_example2_endpoint(self, capsys):
        code, out = run_cli(capsys, "sweep", "--example", "2", "--points", "101")
        rows = list(csv.DictReader(out.splitlines()))
        last = rows[-1]
        assert code == 0
        assert float(last["gamma"]) == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-11)
        assert float(last["concurrence"]) == pytest.approx(2 / math.sqrt(3), abs=1e-11)

    def test_two_point_grid(self, capsys):
        code, out = run_cli(capsys, "sweep", "--example", "1", "--points", "2")
        rows = list(csv.DictReader(out.splitlines()))
        assert [float(r["t"]) for r in rows] == [0.0, 1.0]
        assert all(float(r["gamma"]) == 1.0 for r in rows)

    def test_werner_columns(self, capsys):
        code, out = run_cli(capsys, "sweep", "--example", "werner", "--points", "5")
        rows = list(csv.DictReader(out.splitlines()))
        assert set(rows[0]) == {"phi", "gamma"}
        assert float(rows[0]["gamma"]) == pytest.approx(math.sqrt(2) / 3, abs=1e-11)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _ = run_cli(capsys, "sweep", "--example", "2", "--points", "11",
                          "--out", str(path))
        assert code == 0
        assert len(path.read_text().splitlines()) == 12

    def test_bad_points_exit_1(self, capsys):
        assert main(["sweep", "--example", "1", "--points", "1"]) == 1


class TestScan:

    def test_summary_line_and_determinism(self, capsys):
        code, out1 = run_cli(capsys, "scan", "--n", "500", "--sampler", "paper", "--seed", "42")
        code2, out2 = run_cli(capsys, "scan", "--n", "500", "--sampler", "paper", "--seed", "42")
        assert code == code2 == 0
        assert out1 == out2
        assert out1.startswith("max_gamma=")
        assert "violation_count=0" in out1

    def test_report_and_hist_files(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        hist = tmp_path / "hist.csv"
        rows = tmp_path / "rows.csv"
        code, _ = run_cli(capsys, "scan", "--n", "300", "--seed", "1",
                          "--hist-bins", "15", "--report-out", str(report),
                          "--hist-out", str(hist), "--rows-out", str(rows), "--rows", "7")
        assert code == 0
        data = json.loads(report.read_text())
        assert data["n_samples"] == 300
        assert sum(c for _, _, c in data["histogram"]) == 300
        with open(hist) as fh:
            hist_rows = list(csv.reader(fh))
        assert len(hist_rows) == 16
        with open(rows) as fh:
            sample_rows = list(csv.reader(fh))
        assert len(sample_rows) == 8

    def test_rows_out_decimals_zero(self, capsys, tmp_path):
        rows = tmp_path / "rows.csv"
        code, _ = run_cli(capsys, "--decimals", "0", "scan", "--n", "5",
                          "--rows", "2", "--rows-out", str(rows))
        assert code == 0
        with open(rows) as fh:
            values = [v for row in list(csv.reader(fh))[1:] for v in row]
        assert len(values) == 2 * 19
        assert set(values) <= {"0.0", "1.0"}

    def test_workers_flag_matches_serial(self, capsys):
        _, out1 = run_cli(capsys, "scan", "--n", "2000", "--seed", "3", "--workers", "1")
        _, out2 = run_cli(capsys, "scan", "--n", "2000", "--seed", "3", "--workers", "2")
        assert out1 == out2

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_key_domain_exits_1(self, capsys, seed):
        assert main(["scan", "--n", "10", "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert "seed must lie in [0, 2**64)" in err
        assert main(["optimize", "--family", "ghz3", "--seed", seed]) == 1

    def test_largest_seed_accepted(self, capsys):
        code, out = run_cli(capsys, "scan", "--n", "10", "--seed", str(2 ** 64 - 1))
        assert code == 0
        assert out != run_cli(capsys, "scan", "--n", "10", "--seed", "0")[1]

    def test_haar_alias_rejected_values(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["scan", "--n", "10", "--sampler", "gaussian"])
        assert err.value.code == 1


class TestOptimize:

    def test_ghz_gap(self, capsys):
        code, out = run_cli(capsys, "optimize", "--family", "ghz3")
        data = json.loads(out)
        assert code == 0
        assert data["optimized_value"] == pytest.approx(4 * math.sqrt(2) / 3, abs=1e-6)
        assert data["gap"] <= 1e-6
        assert data["converged"] is True

    def test_horodecki_value(self, capsys):
        code, out = run_cli(capsys, "optimize", "--family", "horodecki", "--tau", "2")
        data = json.loads(out)
        assert code == 0
        assert data["optimized_value"] == pytest.approx(8 * math.sqrt(2) / 21, abs=1e-6)

    def test_maximally_mixed_value_zero(self, capsys, tmp_path):
        rho = np.eye(9, dtype=complex) / 9
        payload = {"dims": [3, 3],
                   "matrix": [[float(x.real), float(x.imag)] for x in rho.reshape(-1)]}
        path = write_json(tmp_path / "mixed.json", payload)
        code, out = run_cli(capsys, "optimize", "--state-file", path)
        data = json.loads(out)
        assert code == 0
        assert data["optimized_value"] == pytest.approx(0.0, abs=1e-9)

    def test_nonconvergence_exit_4(self, capsys):
        code, out = run_cli(capsys, "optimize", "--family", "ghz3",
                            "--max-iter", "1", "--tol", "1e-300")
        assert code == 4
        assert json.loads(out)["converged"] is False


class TestConcurrence:

    def test_family(self, capsys):
        code, out = run_cli(capsys, "concurrence", "--family", "example1", "--t", "0.25")
        data = json.loads(out)
        assert code == 0
        assert data["concurrence"] == pytest.approx(0.6, abs=1e-10)
        assert data["analytic"] == pytest.approx(0.6, abs=1e-12)

    def test_state_file(self, capsys, tmp_path, rng):
        from conftest import random_pure
        psi = random_pure(rng)
        path = write_json(tmp_path / "pure.json", psi.to_json())
        code, out = run_cli(capsys, "concurrence", "--state-file", path)
        data = json.loads(out)
        assert code == 0
        assert data["analytic"] is None
        from spinchsh import concurrence_pure
        assert data["concurrence"] == pytest.approx(concurrence_pure(psi), abs=1e-11)

    def test_mixed_family_rejected(self, capsys):
        assert main(["concurrence", "--family", "werner", "--phi", "0.5"]) == 1

    def test_density_file_rejected(self, capsys, tmp_path, rng):
        rho = random_mixed(rng)
        path = write_json(tmp_path / "rho.json", rho.to_json())
        assert main(["concurrence", "--state-file", path]) == 1


class TestValidate:

    def test_valid_family(self, capsys):
        code, out = run_cli(capsys, "validate", "--family", "horodecki", "--tau", "3")
        data = json.loads(out)
        assert code == 0
        assert data["state"]["valid"] is True
        assert data["spin_algebra_valid"] is True
        assert data["spin_algebra"]["commutation"] <= 1e-12

    def test_invalid_matrix_exit_2(self, capsys, tmp_path):
        matrix = [[1.0 / 8, 0.0] if i % 10 == 0 else [0.0, 0.0] for i in range(81)]
        path = write_json(tmp_path / "badtrace.json", {"dims": [3, 3], "matrix": matrix})
        code, out = run_cli(capsys, "validate", "--state-file", path)
        data = json.loads(out)
        assert code == 2
        assert data["state"]["valid"] is False


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
