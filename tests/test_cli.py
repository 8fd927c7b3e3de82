import json
import os
import subprocess
import sys

import numpy as np
import pytest

from uwoc.cli import main
from uwoc.distributions import model_from_dict
from uwoc.presets import condition

ROW1 = "0.2130,0.3291,1.4299,1.1817,17.1984"
STRONG = "0.7210,0.1479,0.0121,7.4189,65.6983"
SALTY165 = "0.4951,0.1368,0.0161,3.2033,82.1030"


def run(args):
    return main(args)


@pytest.fixture()
def sample_file(tmp_path):
    path = tmp_path / "samples.txt"
    assert run(["synth", "--params", ROW1, "--n", "100000", "--seed", "3",
                "--output", str(path)]) == 0
    return path


class TestImport:
    def test_cli_import_leaves_out_integrate_and_optimize(self):
        # only quadrature, Fox H and the EM fit need them; they import them on use
        code = ("import sys, uwoc.cli; "
                "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
        src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["uwoc"].__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              check=True, timeout=120)
        assert done.stdout.strip() == "[]"


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert run(["synth", "--params", ROW1, "--n", "500", "--seed", "9",
                        "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_draws_rejected(self, tmp_path):
        assert run(["synth", "--params", ROW1, "--n", "0",
                    "--output", str(tmp_path / "x.txt")]) == 2

    def test_bad_params_rejected(self, tmp_path):
        assert run(["synth", "--params", "1,2,3", "--n", "10",
                    "--output", str(tmp_path / "x.txt")]) == 2

    def test_header_and_positive(self, sample_file):
        lines = sample_file.read_text().splitlines()
        assert lines[0] == "irradiance"
        assert all(float(x) > 0 for x in lines[1:])


class TestFit:
    def test_round_trip_report(self, tmp_path, sample_file):
        report = tmp_path / "report.json"
        assert run(["fit", "--input", str(sample_file), "--model", "egg",
                    "--eps", "1e-3", "--max-iter", "200", "--restarts", "1",
                    "--seed", "1", "--output", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["model"] == "egg"
        assert set(payload["params"]) == {"omega", "lambda", "a", "b", "c"}
        truth = condition("2.4lpm-0.05C").egg
        assert payload["scintillation_index"] == pytest.approx(
            truth.scintillation_index(), rel=0.05
        )
        assert payload["converged"] is True
        assert payload["gof"]["r2"] > 0.9
        assert len(payload["input_digest"]) == 64
        # report survives a parse/re-serialize cycle byte-for-byte
        again = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert again == report.read_text()
        # and the embedded model parses back into a usable object
        model = model_from_dict(payload)
        assert model.variant == "egg"

    def test_nonpositive_sample_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("irradiance\n1.0\n-0.5\n2.0\n")
        assert run(["fit", "--input", str(bad)]) == 2
        assert ":3:" in capsys.readouterr().err

    def test_eg_schema(self, tmp_path):
        samples = tmp_path / "eg.txt"
        report = tmp_path / "eg.json"
        eg = condition("23.6lpm-0.22C").eg
        rng = np.random.default_rng(0)
        samples.write_text(
            "irradiance\n" + "\n".join(map(str, eg.sample(rng, 20000))) + "\n"
        )
        assert run(["fit", "--input", str(samples), "--model", "eg",
                    "--eps", "1e-3", "--max-iter", "200", "--restarts", "1",
                    "--output", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert set(payload["params"]) == {"omega", "lambda", "alpha", "beta"}

    def test_missing_file(self, tmp_path):
        assert run(["fit", "--input", str(tmp_path / "nope.txt")]) == 2


class TestGof:
    def test_rescore_and_bin_echo(self, tmp_path, sample_file, capsys):
        report = tmp_path / "report.json"
        assert run(["fit", "--input", str(sample_file), "--eps", "1e-3",
                    "--max-iter", "150", "--restarts", "1",
                    "--output", str(report)]) == 0
        assert run(["gof", "--input", str(sample_file), "--report", str(report),
                    "--bins", "50"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bins"] == 50
        assert payload["r2"] > 0.9
        assert payload["mse"] < 1e-3

    def test_schema_mismatch(self, tmp_path, sample_file):
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps({"model": "egg", "params": {"omega": 0.5}}))
        assert run(["gof", "--input", str(sample_file), "--report", str(broken)]) == 2


class TestPerf:
    def test_outage_anchor(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["perf", "outage", "--params", STRONG, "--detection", "imdd",
                    "--snr-db", "40:60:10", "--asymptotic", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "snr_db,value,kind"
        rows = [line.split(",") for line in lines[1:]]
        exact = {float(r[0]): float(r[1]) for r in rows if r[2] == "exact"}
        asym = {float(r[0]): float(r[1]) for r in rows if r[2] == "asymptotic"}
        assert exact[60.0] == pytest.approx(1.0493e-2, rel=0.05)
        assert asym[60.0] == pytest.approx(1.0564e-2, rel=0.01)

    def test_capacity_asymptote_anchor(self, capsys):
        assert run(["perf", "capacity", "--params", ROW1, "--detection", "imdd",
                    "--snr-db", "60:60:10", "--asymptotic"]) == 0
        lines = capsys.readouterr().out.splitlines()
        asym = [line for line in lines if line.endswith("asymptotic")]
        assert float(asym[0].split(",")[1]) == pytest.approx(12.3799, rel=0.002)

    def test_modulation_detection_conflict(self):
        assert run(["perf", "ber", "--params", SALTY165, "--detection", "imdd",
                    "--modulation", "mqam:16", "--snr-db", "0:10:5"]) == 2

    def test_ber_needs_modulation(self):
        assert run(["perf", "ber", "--params", SALTY165, "--detection", "imdd",
                    "--snr-db", "0:10:5"]) == 2

    def test_explognormal_report_rejected(self, tmp_path):
        rep = tmp_path / "ln.json"
        rep.write_text(json.dumps(condition("2.4lpm-0.05C").expln.to_dict()))
        assert run(["perf", "outage", "--report", str(rep), "--detection", "imdd",
                    "--snr-db", "0:10:5"]) == 2

    def test_bad_grid(self):
        assert run(["perf", "outage", "--params", ROW1, "--detection", "imdd",
                    "--snr-db", "10:0:5"]) == 2


class TestSimulate:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["simulate", "outage", "--params", ROW1, "--detection", "imdd",
                        "--snr-db", "10:20:10", "--samples", "50000", "--seed", "4",
                        "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "snr_db,value,kind,se"

    def test_zero_threshold_all_zero(self, capsys):
        assert run(["simulate", "outage", "--params", ROW1, "--detection", "imdd",
                    "--snr-db", "10:30:10", "--samples", "20000",
                    "--gamma-th", "1e-290"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_matches_analytic(self, capsys):
        assert run(["simulate", "capacity", "--params", ROW1, "--detection", "imdd",
                    "--snr-db", "30:30:10", "--samples", "200000", "--seed", "2"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        est, se = float(row[1]), float(row[3])
        assert abs(est - 5.563568) <= 4.0 * se


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
