"""Command line interface: values, formats, and exit codes."""

import argparse
import csv
import hashlib
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_mixed
from spinchsh import PureState, Sym, cli, pure_to_density, scan
from spinchsh.cli import main
from spinchsh.states import FAMILIES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# families with numeric flags, and text for those flags beyond ordinary values
_NUMERIC_FAMILIES = sorted(name for name, family in FAMILIES.items()
                           if family.flags and all(flag.type in (float, complex)
                                                   for flag in family.flags))
_EDGE_TEXT = ["nan", "-nan", "inf", "-inf", "1e300", "-1e300", "1e200", "1e200j", "-1e200j",
              "5e-324", "-5e-324", "1e-310j", "0", "1", "-1", "0.5"]
_NUMBER_TEXT = st.one_of(st.sampled_from(_EDGE_TEXT), st.floats().map(repr),
                         st.complex_numbers().map(repr))


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
            "amplitudes_and_matrix": {"dims": [3, 3], "amplitudes": [[1.0, 0.0]] + zero,
                                      "matrix": "garbage"},
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

    @pytest.mark.parametrize("first", [["1", "0"], [True, False]])
    def test_string_and_boolean_pairs_exit_1(self, capsys, tmp_path, first):
        amplitudes = [first] + [[0.0, 0.0]] * 8
        bad = write_json(tmp_path / "bad.json", {"dims": [3, 3], "amplitudes": amplitudes})
        factor = write_json(tmp_path / "factor.json", {"matrix": [first] + [[0.0, 0.0]] * 8})
        for argv in (["gamma", "--state-file", bad], ["validate", "--state-file", bad],
                     ["gamma", "--family", "product", "--state-a", factor]):
            capsys.readouterr()
            assert main(argv) == 1, argv
            assert capsys.readouterr().err.startswith("error: expected a list of"), argv

    @pytest.mark.parametrize("value", ["nan", "1e200"])
    def test_nan_coefficient_exit_1(self, capsys, value):
        code = main(["gamma", "--family", "sym", "--alpha11", value, "--alpha22", "0", "--alpha33", "0"])
        assert code == 1
        assert "coefficients must have unit norm" in capsys.readouterr().err

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

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(name=st.sampled_from(_NUMERIC_FAMILIES), data=st.data())
    def test_family_flag_text_exits_cleanly(self, name, data):
        """Any float or complex text in a family flag ends in exit 0, 1 or 2,
        and a non-zero exit names its error; no exception escapes."""
        argv = ["gamma", "--family", name]
        for flag in FAMILIES[name].flags:
            argv += [flag.name, data.draw(_NUMBER_TEXT, label=flag.name)]
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses text its flag type cannot read
                code = exc.code
        assert code in (0, 1, 2), argv
        if code:
            assert any(line.startswith("error: ") for line in err.getvalue().splitlines()), argv

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

    def test_hist_out_follows_decimals(self, capsys, tmp_path):
        hist = tmp_path / "hist.csv"
        assert main(["--decimals", "3", "scan", "--n", "50", "--hist-bins", "7",
                     "--hist-out", str(hist)]) == 0
        with open(hist, newline="") as fh:
            edges = [v for row in list(csv.reader(fh))[1:] for v in row[:2]]
        assert edges[:3] == ["0.0", "0.165", "0.165"]
        assert all(len(v.partition(".")[2]) <= 3 for v in edges)

    def test_negative_rows_exit_1_before_scanning(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code = main(["scan", "--n", "5", "--rows", "-1", "--rows-out", str(tmp_path / "rows.csv"),
                     "--report-out", str(report)])
        assert code == 1
        assert capsys.readouterr().err == "error: number of rows k = -1 must be >= 0\n"
        assert not report.exists()

    def test_negative_rows_exit_1_without_rows_out(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code = main(["scan", "--n", "5", "--rows", "-1", "--report-out", str(report)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: number of rows k = -1 must be >= 0\n"
        assert captured.out == ""
        assert not report.exists()

    def test_rows_above_kept_rows_exit_1_before_scanning(self, capsys, tmp_path):
        report, rows = tmp_path / "report.json", tmp_path / "rows.csv"
        code = main(["scan", "--n", "100", "--rows", "51", "--rows-out", str(rows),
                     "--report-out", str(report)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: number of rows k = 51 must be <= 50\n"
        assert captured.out == ""
        assert not report.exists() and not rows.exists()

    def test_rows_clamped_to_n(self, capsys, tmp_path):
        rows = tmp_path / "rows.csv"
        assert main(["scan", "--n", "5", "--rows", "40", "--rows-out", str(rows)]) == 0
        with open(rows, newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + 5

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


class TestWrittenFiles:
    """The bytes of the CSV files ``sweep --out``, ``scan --hist-out`` and
    ``scan --rows-out`` write, pinned by SHA-256."""

    SHA256 = {
        "sweep.csv": "833552f7d5fcb061af4b369f8e8ffc2677e1c2f859f4a1dcc75a0605c59de9de",
        "hist.csv": "b533762ef12d2a7aaef7e4be912e6abe65e2a4ec792d04c1fbcbcf46cc1c1da5",
        "rows.csv": "83348bffb5bdde8f003f7dadee659bb04ac0f4a384c6993ece26b57ea1850813",
    }

    def test_file_digests(self, capsys, tmp_path):
        path = {name: str(tmp_path / name) for name in self.SHA256}
        assert main(["sweep", "--example", "2", "--points", "11", "--out", path["sweep.csv"]]) == 0
        assert main(["scan", "--n", "300", "--seed", "4", "--hist-bins", "7",
                     "--hist-out", path["hist.csv"], "--rows-out", path["rows.csv"],
                     "--rows", "20"]) == 0
        assert capsys.readouterr().out == "max_gamma=0.952381709601 violation_count=0\n"
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.SHA256}
        assert digests == self.SHA256


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

    def test_spin_mismatch_exit_1(self, capsys, tmp_path):
        assert main(["concurrence", "--family", "ghz3", "--spin", "7"]) == 1
        err = capsys.readouterr().err
        assert err == "error: --spin 7.0 does not match state dimension 3 (s = 1.0)\n"
        assert main(["concurrence", "--family", "ghz3", "--spin", "1"]) == 0
        capsys.readouterr()
        # unequal local dimensions: no spin to check unless one is given
        qubit_qutrit = PureState(np.array([1, 0, 0, 0, 1, 0]) / math.sqrt(2), (2, 3))
        path = write_json(tmp_path / "23.json", qubit_qutrit.to_json())
        code, out = run_cli(capsys, "concurrence", "--state-file", path)
        assert code == 0
        assert json.loads(out)["concurrence"] == pytest.approx(1.0, abs=1e-12)
        assert main(["concurrence", "--state-file", path, "--spin", "1"]) == 1
        assert capsys.readouterr().err.count("error: ") == 1

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

    @pytest.mark.parametrize("d", [2, 4])
    def test_spin_follows_the_state(self, capsys, monkeypatch, tmp_path, d):
        spins = []
        operators = cli.spin_operators

        def recorded(s):
            spins.append(s)
            return operators(s)

        monkeypatch.setattr(cli, "spin_operators", recorded)
        amplitudes = [[1.0, 0.0]] + [[0.0, 0.0]] * (d * d - 1)
        path = write_json(tmp_path / "pure.json", {"dims": [d, d], "amplitudes": amplitudes})
        code, _ = run_cli(capsys, "validate", "--state-file", path)
        assert code == 0
        assert spins == [(d - 1) / 2]

    @pytest.mark.parametrize("key, entries, message", [
        # what overflows: the trace, rho - rho^dagger, the norm
        ("matrix", {0: 1e308, 10: 1e308}, "matrix is not a density matrix"),
        ("matrix", {0: 1.0, 1: 1.5e308, 9: -1.5e308}, "matrix is not a density matrix"),
        ("amplitudes", {0: 1e200}, "state is not normalized"),
    ])
    def test_overflowing_state_file_exit_2(self, capsys, tmp_path, key, entries, message):
        values = [[entries.get(i, 0.0), 0.0] for i in range(81 if key == "matrix" else 9)]
        path = write_json(tmp_path / "huge.json", {"dims": [3, 3], key: values})
        code = main(["validate", "--state-file", path])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["state"]["valid"] is False
        assert captured.err == ""
        assert main(["gamma", "--state-file", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


class TestWorkDoneOnce:

    @pytest.mark.parametrize("command", ["gamma", "optimize", "concurrence", "validate"])
    def test_family_state_built_once(self, capsys, monkeypatch, command):
        built = []
        state = Sym.state

        def counted(spec):
            built.append(spec)
            return state(spec)

        monkeypatch.setattr(Sym, "state", counted)
        code, _ = run_cli(capsys, command, "--family", "sym",
                          "--alpha11", "0.6", "--alpha22", "0.8", "--alpha33", "0")
        assert code == 0
        assert len(built) == 1

    def test_parser_built_once_per_call(self, capsys, monkeypatch):
        calls = []
        build = cli.build_parser

        def counted():
            calls.append(None)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        run_cli(capsys, "gamma", "--family", "ghz3")
        assert len(calls) == 1

    def test_scan_samples_drawn_once(self, capsys, monkeypatch, tmp_path):
        counts = []
        sample = scan.sample_amplitude_batch

        def counted(dims, sampler, seed, start, count):
            counts.append(count)
            return sample(dims, sampler, seed, start, count)

        monkeypatch.setattr(scan, "sample_amplitude_batch", counted)
        code, _ = run_cli(capsys, "scan", "--n", "300", "--rows", "20",
                          "--rows-out", str(tmp_path / "rows.csv"))
        assert code == 0
        assert counts == [300]


# every state-source flag, unset
NO_SOURCE = dict.fromkeys(["family", "state_file", "spin", "alpha12", "alpha13", "alpha23",
                           "alpha11", "alpha22", "alpha33", "phi", "tau", "t",
                           "state_a", "state_b"])


class TestParser:
    """One parser per process, copied for each call, that parses every
    subcommand as the parser built afresh for each call did."""

    # vars(parse_args(argv)), func by name, as written by the eager parser
    PARSED = [
        (["gamma", "--family", "ghz3"],
         {**NO_SOURCE, "decimals": None, "command": "gamma", "family": "ghz3",
          "format": "json", "func": "_cmd_gamma"}),
        (["--decimals", "4", "sweep", "--example", "1"],
         {"decimals": 4, "command": "sweep", "example": "1", "points": 101, "out": None,
          "func": "_cmd_sweep"}),
        (["scan", "--n", "10", "--decimals", "2"],
         {"decimals": 2, "command": "scan", "n": 10, "sampler": "uniform", "seed": 0,
          "hist_bins": 40, "workers": 1, "report_out": None, "hist_out": None,
          "rows_out": None, "rows": 50, "func": "_cmd_scan"}),
        (["optimize", "--state-file", "s.json", "--seed", "3"],
         {**NO_SOURCE, "decimals": None, "command": "optimize", "state_file": "s.json",
          "restarts": 8, "max_iter": 500, "tol": 1e-12, "seed": 3, "func": "_cmd_optimize"}),
        (["concurrence", "--family", "example1", "--t", "0.25", "--format", "csv"],
         {**NO_SOURCE, "decimals": None, "command": "concurrence", "family": "example1",
          "t": 0.25, "format": "csv", "func": "_cmd_concurrence"}),
        (["validate", "--family", "werner", "--phi", "0.5", "--spin", "1"],
         {**NO_SOURCE, "decimals": None, "command": "validate", "family": "werner",
          "phi": 0.5, "spin": 1.0, "func": "_cmd_validate"}),
    ]

    @staticmethod
    def parsed(argv):
        namespace = vars(cli.build_parser().parse_args(argv))
        namespace["func"] = namespace["func"].__name__
        return namespace

    @pytest.mark.parametrize("argv, expected", PARSED, ids=[argv[0] for argv, _ in PARSED])
    def test_parsed_namespace(self, argv, expected):
        assert self.parsed(argv) == expected

    def test_fresh_parser_per_call(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_second_main_builds_no_parser(self, capsys, monkeypatch):
        run_cli(capsys, "gamma", "--family", "ghz3")
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        code, _ = run_cli(capsys, "sweep", "--example", "werner", "--points", "3")
        assert code == 0
        assert built == []

    def test_attribute_stays_on_its_copy(self):
        # as the benchmark's tracer wraps each call's parse_args
        first = cli.build_parser()
        first.parse_args = None
        second = cli.build_parser()
        assert "parse_args" not in vars(second)
        assert second.parse_args(["gamma", "--family", "ghz3"]).family == "ghz3"

    def test_error_and_help_leave_the_parser_as_built(self, capsys):
        for argv in (["gamma", "--bogus"], ["gamma", "-h"]):
            with pytest.raises(SystemExit):
                main(argv)
        capsys.readouterr()
        assert [self.parsed(argv) for argv, _ in self.PARSED] == [e for _, e in self.PARSED]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
