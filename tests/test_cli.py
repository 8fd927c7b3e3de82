import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from uwoc.cli import _UserError, _parse_grid, main, read_samples
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


def _python(code, *argv, timeout=120):
    """Run ``code`` with ``argv`` in a fresh interpreter that imports this uwoc; its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["uwoc"].__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True, timeout=timeout)
    return done.stdout


def _loaded_modules(code, *argv, timeout=120):
    """The modules a fresh process has loaded after ``code`` ran with ``argv``."""
    code += "\nimport json, sys\nprint(json.dumps(list(sys.modules)))"
    return set(json.loads(_python(code, *argv, timeout=timeout).splitlines()[-1]))


def _loaded_scipy(code, *argv, timeout=120):
    """The ``scipy*`` modules a fresh process has loaded after ``code`` ran with ``argv``."""
    return {m for m in _loaded_modules(code, *argv, timeout=timeout) if m.startswith("scipy")}


# runs the CLI on sys.argv[1:] and requires exit status 0
RUN_CLI = ("import runpy, sys; sys.argv = sys.argv[1:]\n"
           "try:\n    runpy.run_module('uwoc.cli', run_name='__main__')\n"
           "except SystemExit as exc:\n    assert exc.code == 0, exc.code")
INTEGRATE_OPTIMIZE = {"scipy.integrate", "scipy.optimize"}
# the scipy.special package and its array-API layer, none of which uwoc uses
SPECIAL_PACKAGE = {"scipy.special", "scipy.special._support_alternative_backends",
                   "numpy.testing", "numpy.f2py"}


@pytest.fixture()
def small_fit(tmp_path):
    """A 2000-sample file and a one-restart EGG fit report of it."""
    samples, report = tmp_path / "samples.txt", tmp_path / "report.json"
    assert run(["synth", "--params", ROW1, "--n", "2000", "--seed", "5",
                "--output", str(samples)]) == 0
    assert run(["fit", "--input", str(samples), "--eps", "1e-3", "--restarts", "1",
                "--output", str(report)]) == 0
    return samples, report


class TestImport:
    def test_cli_import_leaves_out_integrate_and_optimize(self):
        # only adaptive_quad, the tests' QUADPACK oracle, needs them
        assert not _loaded_scipy("import uwoc.cli") & INTEGRATE_OPTIMIZE

    def test_import_loads_no_scipy(self):
        # scipy.special too loads on first use
        assert _loaded_scipy("import uwoc") == set()
        assert _loaded_scipy("import uwoc.cli") == set()

    def test_cli_import_loads_only_its_own_modules(self):
        # the benchmark's setup_s times exactly this import: no performance
        # code, no quadrature and no scipy until a command runs
        loaded = _loaded_modules("import uwoc.cli")
        assert {m for m in loaded if m.split(".")[0] == "uwoc"} == {
            "uwoc", "uwoc.cli", "uwoc.distributions", "uwoc.errors", "uwoc.special"}
        assert not {m for m in loaded if m.split(".")[0] == "scipy"}

    def test_exports_are_the_one_list_of_public_names(self):
        import importlib

        import uwoc

        for module in uwoc._EXPORTS:
            assert not hasattr(importlib.import_module(f"uwoc.{module}"), "__all__"), module

    def test_synth_loads_no_scipy(self, tmp_path):
        out = tmp_path / "samples.txt"
        assert _loaded_scipy(RUN_CLI, "uwoc", "synth", "--params", ROW1, "--n", "1000",
                             "--seed", "3", "--output", str(out)) == set()
        assert read_samples(str(out)).size == 1000

    def test_ber_and_capacity_leave_out_integrate_and_optimize(self):
        # the lobes run on numpy Gauss-Kronrod panels
        code = ("from uwoc.performance import IMDD, LinkBudget, Modulation, avg_ber, "
                "ergodic_capacity\n"
                "from uwoc.presets import condition\n"
                "link = LinkBudget(condition('salty-16.5lpm').egg, IMDD, 1e3)\n"
                "assert 0.0 < avg_ber(link, Modulation.ook()) < 1.0 < ergodic_capacity(link)")
        assert not _loaded_scipy(code) & INTEGRATE_OPTIMIZE

    def test_foxh_leaves_out_integrate_and_optimize(self):
        # the contour integrals run on the same numpy panels
        code = ("from uwoc.performance import IMDD, LinkBudget, Modulation, avg_ber_foxh, "
                "capacity_foxh\n"
                "from uwoc.presets import condition\n"
                "link = LinkBudget(condition('salty-16.5lpm').egg, IMDD, 1e3)\n"
                "assert 0.0 < avg_ber_foxh(link, Modulation.ook()) < 1.0\n"
                "assert capacity_foxh(link) > 1.0")
        assert not _loaded_scipy(code) & INTEGRATE_OPTIMIZE

    def test_fit_leaves_out_optimize(self, tmp_path, sample_file):
        # the Gamma shape equation is solved by a bracketed Newton iteration
        argv = ["uwoc", "fit", "--input", str(sample_file), "--eps", "1e-3", "--restarts", "1",
                "--output", str(tmp_path / "report.json")]
        assert "scipy.optimize" not in _loaded_scipy(RUN_CLI, *argv, timeout=300)
        assert json.loads((tmp_path / "report.json").read_text())["converged"] is True

    def test_commands_load_only_the_ufuncs_of_scipy_special(self, tmp_path, small_fit):
        samples, report = small_fit
        out = str(tmp_path / "out")
        commands = [
            ["fit", "--input", str(samples), "--eps", "1e-3", "--output", out],
            ["gof", "--input", str(samples), "--report", str(report), "--output", out],
            ["perf", "ber", "--params", SALTY165, "--detection", "imdd", "--modulation", "ook",
             "--snr-db", "0:40:10", "--output", out],
            ["simulate", "ber", "--report", str(report), "--detection", "imdd",
             "--modulation", "ook", "--snr-db", "0:20:10", "--samples", "20000",
             "--output", out],
        ]
        for argv in commands:
            loaded = _loaded_modules(RUN_CLI, "uwoc", *argv, timeout=300)
            assert "scipy.special._ufuncs" in loaded, argv[0]
            assert not loaded & SPECIAL_PACKAGE, (argv[0], loaded & SPECIAL_PACKAGE)
        assert _loaded_scipy(RUN_CLI, "uwoc", "synth", "--params", ROW1, "--n", "100",
                             "--output", out) == set()

    def test_only_the_input_digest_loads_hashlib(self, tmp_path, small_fit):
        # fit and gof take a digest of their input; import and perf load no hashlib
        samples, report = small_fit
        out = tmp_path / "out.json"
        assert "hashlib" not in _loaded_modules("import uwoc.cli")
        assert "hashlib" not in _loaded_modules(
            RUN_CLI, "uwoc", "perf", "ber", "--params", SALTY165, "--detection", "imdd",
            "--modulation", "ook", "--snr-db", "0:40:10", "--output", str(out))
        assert len(out.read_text().splitlines()) == 1 + 5
        digest = hashlib.sha256(samples.read_bytes()).hexdigest()
        assert json.loads(report.read_text())["input_digest"] == digest
        assert run(["gof", "--input", str(samples), "--report", str(report),
                    "--output", str(out)]) == 0
        assert json.loads(out.read_text())["input_digest"] == digest

    def test_each_command_loads_only_its_own_modules(self, tmp_path, small_fit):
        samples, report = small_fit
        out = str(tmp_path / "out")
        curve = ["--report", str(report), "--detection", "imdd", "--modulation", "ook",
                 "--snr-db", "0:20:10", "--output", out]
        not_loaded = [
            (["synth", "--params", ROW1, "--n", "100", "--output", out],
             {"em", "gof", "performance", "montecarlo", "presets"}),
            (["perf", "ber", *curve], {"em", "gof", "montecarlo"}),
            (["gof", "--input", str(samples), "--report", str(report), "--output", out],
             {"em", "performance", "montecarlo"}),
            (["fit", "--input", str(samples), "--eps", "1e-3", "--restarts", "1", "--output", out],
             {"performance", "montecarlo"}),
            (["simulate", "ber", *curve, "--samples", "2000"], {"em", "gof"}),
        ]
        for argv, absent in not_loaded:
            loaded = _loaded_modules(RUN_CLI, "uwoc", *argv, timeout=300)
            assert "uwoc.distributions" in loaded, argv[0]
            assert not loaded & {f"uwoc.{m}" for m in absent}, (argv[0], sorted(loaded))

    def test_package_names_load_on_first_read(self):
        # nothing is cached in the package, so a name replaced in its submodule reads as replaced
        _python("""
import sys
import uwoc
assert [m for m in sys.modules if m.startswith("uwoc.")] == []
missing = [name for name in uwoc.__all__ if not hasattr(uwoc, name)]
assert missing == [], missing
assert not set(uwoc.__all__) & set(vars(uwoc))
import uwoc.em
original = uwoc.em.fit
uwoc.em.fit = wrapped = lambda *args: original(*args)
assert uwoc.fit is wrapped
uwoc.em.fit = original
assert uwoc.fit is original
assert uwoc.performance.IMDD.r == 2 and set(uwoc.__all__) <= set(dir(uwoc))
namespace = {}
exec("from uwoc import *", namespace)
assert all(namespace[name] is getattr(uwoc, name) for name in uwoc.__all__)
""")

    @pytest.mark.parametrize("command", ["perf", "gof"])
    def test_same_bytes_with_scipy_special_loaded_first(self, tmp_path, small_fit, command):
        # the fallback takes the ufuncs from the package that is already loaded
        samples, report = small_fit
        argv = {
            "perf": ["perf", "ber", "--params", SALTY165, "--detection", "imdd",
                     "--modulation", "ook", "--snr-db=-10:80:5"],
            "gof": ["gof", "--input", str(samples), "--report", str(report)],
        }[command]
        fresh, after = tmp_path / "fresh.out", tmp_path / "after.out"
        _python(RUN_CLI, "uwoc", *argv, "--output", str(fresh))
        _python("import scipy.special\n" + RUN_CLI, "uwoc", *argv, "--output", str(after))
        assert fresh.read_bytes() == after.read_bytes() != b""


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert run(["synth", "--params", ROW1, "--n", "500", "--seed", "9",
                        "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_draws_rejected(self, tmp_path, capsys):
        assert run(["synth", "--params", ROW1, "--n", "0",
                    "--output", str(tmp_path / "x.txt")]) == 2
        assert "error: --n must be an integer >= 1, got 0" in capsys.readouterr().err

    def test_negative_seed_names_its_flag(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        assert run(["synth", "--params", ROW1, "--n", "10", "--seed", "-1", "--output", str(out)]) == 2
        assert "error: --seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_params_rejected(self, tmp_path):
        assert run(["synth", "--params", "1,2,3", "--n", "10",
                    "--output", str(tmp_path / "x.txt")]) == 2

    def test_explognormal_report(self, tmp_path):
        # synth draws from any variant, so a report that perf refuses is accepted here
        rep, out = tmp_path / "ln.json", tmp_path / "x.txt"
        rep.write_text(json.dumps(condition("2.4lpm-0.05C").expln.to_dict()))
        assert run(["synth", "--report", str(rep), "--n", "50", "--seed", "1",
                    "--output", str(out)]) == 0
        values = read_samples(str(out))
        assert values.size == 50 and np.all(values > 0.0)

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
        (diag,) = payload["diagnostics"]  # one entry per restart
        assert diag["restart"] == 0 and diag["converged"] is True
        assert diag["iterations"] == payload["iterations"]
        assert diag["loglik"] == payload["loglik"]
        assert diag["extrapolations_accepted"] + diag["extrapolations_rejected"] >= 1
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

    def test_sample_file_errors_name_their_line(self, tmp_path, capsys):
        head = "# measured irradiance\n\nirradiance\n0.5\n"
        bad = tmp_path / "bad.txt"
        bad.write_text(head + "1.2x\n-3.0\n")
        assert run(["fit", "--input", str(bad)]) == 2
        assert ":5: not a number: '1.2x'" in capsys.readouterr().err
        bad.write_text(head + "1.25\n-3.0\n")
        assert run(["fit", "--input", str(bad)]) == 2
        assert ":6: irradiance must be positive, got -3.0" in capsys.readouterr().err
        good = tmp_path / "good.txt"
        good.write_text(head + "1.25\n  2e-3 \n# tail\n")
        values = read_samples(str(good))
        assert values.dtype == float and values.tolist() == [0.5, 1.25, 2e-3]

    @pytest.mark.parametrize("text, line", [("nan", 3), ("inf", 4), ("0", 5)])
    def test_non_finite_or_zero_sample_names_line(self, tmp_path, capsys, text, line):
        bad = tmp_path / "bad.txt"
        values = ["1.0", "2.0", "3.0", "4.0"]
        values.insert(line - 2, text)
        for body in ("irradiance\n", "irradiance\n# comments take the line-by-line parse\n"):
            bad.write_text(body + "\n".join(values) + "\n")
            assert run(["fit", "--input", str(bad)]) == 2
            shift = body.count("\n") - 1
            want = f":{line + shift}: irradiance must be positive, got {text}"
            assert want in capsys.readouterr().err

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_bad_bins_exit_before_the_fit(self, sample_file, capsys, monkeypatch, bins):
        import uwoc.em

        fits = []
        monkeypatch.setattr(uwoc.em, "fit", lambda *args: fits.append(args))
        assert run(["fit", "--input", str(sample_file), "--bins", bins]) == 2
        assert f"error: --bins must be an integer >= 1, got {int(bins)}" in capsys.readouterr().err
        assert fits == []

    def test_bins_auto_is_the_default(self, tmp_path, small_fit):
        samples, report = small_fit
        again = tmp_path / "again.json"
        assert run(["fit", "--input", str(samples), "--eps", "1e-3", "--restarts", "1",
                    "--bins", "auto", "--output", str(again)]) == 0
        assert again.read_bytes() == report.read_bytes()

    @pytest.mark.parametrize("flag, value", [("--seed", "-2"), ("--restarts", "0"), ("--max-iter", "0")])
    def test_bad_count_or_seed_names_its_field(self, sample_file, capsys, flag, value):
        assert run(["fit", "--input", str(sample_file), flag, value]) == 2
        assert f"error: {flag} must be an integer >= " in capsys.readouterr().err

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

    @pytest.mark.parametrize("bins", ["abc", "2.5", ""])
    def test_bad_bins_names_the_flag(self, small_fit, capsys, bins):
        samples, report = small_fit
        assert run(["gof", "--input", str(samples), "--report", str(report), "--bins", bins]) == 2
        assert f"error: --bins must be a bin count or 'auto', got {bins!r}" in capsys.readouterr().err

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

    def test_overflowing_asymptote_prints_inf(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["perf", "ber", "--params", "0.2324,0.3831,393.5944,0.0030,1",
                        "--detection", "imdd", "--modulation", "ook",
                        "--snr-db=-10:20:10", "--asymptotic"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        asym = [float(r[1]) for r in rows if r[2] == "asymptotic"]
        assert len(asym) == 4 and math.inf in asym

    def test_modulation_detection_conflict(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        for command in ("perf", "simulate"):
            assert run([command, "ber", "--params", SALTY165, "--detection", "imdd",
                        "--modulation", "mqam:16", "--snr-db", "0:10:5", "--output", str(out)]) == 2
            assert "16-QAM is defined for heterodyne detection only" in capsys.readouterr().err
            assert not out.exists()

    def test_ber_needs_modulation(self):
        assert run(["perf", "ber", "--params", SALTY165, "--detection", "imdd",
                    "--snr-db", "0:10:5"]) == 2

    def test_explognormal_report_rejected(self, tmp_path, capsys):
        rep, out = tmp_path / "ln.json", tmp_path / "curve.csv"
        rep.write_text(json.dumps(condition("2.4lpm-0.05C").expln.to_dict()))
        for command in ("perf", "simulate"):
            assert run([command, "outage", "--report", str(rep), "--detection", "imdd",
                        "--snr-db", "0:10:5", "--output", str(out)]) == 2
            assert "EGG/EG fading models only" in capsys.readouterr().err
            assert not out.exists()

    def test_bad_grid(self):
        assert run(["perf", "outage", "--params", ROW1, "--detection", "imdd",
                    "--snr-db", "10:0:5"]) == 2

    def test_grid_stops_at_to(self, capsys):
        assert run(["perf", "outage", "--params", ROW1, "--detection", "imdd",
                    "--snr-db", "0:11:4"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [0.0, 4.0, 8.0]
        tenths = _parse_grid("0:10:0.1")
        assert len(tenths) == 101 and tenths[-1] == pytest.approx(10.0, abs=1e-12)
        # the benchmark's grids are as under the old rounded count
        assert _parse_grid("0:60:1") == [float(k) for k in range(61)]
        assert _parse_grid("0:60:10") == [10.0 * k for k in range(7)]
        # the largest grid allowed, and one point more
        assert len(_parse_grid("0:9999:1")) == 10_000
        with pytest.raises(_UserError, match="more than 10000 points"):
            _parse_grid("0:10000:1")

    @pytest.mark.parametrize("grid, message", [
        pytest.param(grid, message, id=grid) for grid, message in [
            ("0:inf:1", "finite"), ("nan:10:1", "finite"), ("0:10:nan", "finite"),
            ("-inf:10:1", "finite"),
            # TO - FROM overflows, and a count that would build 1e12 points
            ("-1e308:1e308:1", "points"), ("0:1e9:1e-3", "points"),
        ]
    ])
    def test_non_finite_grid(self, grid, message, capsys):
        for command in (["perf", "outage"], ["simulate", "outage", "--samples", "100"]):
            assert run([*command, "--params", ROW1, "--detection", "imdd",
                        f"--snr-db={grid}"]) == 2
            assert message in capsys.readouterr().err


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

    @pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--seed", "-1")])
    def test_bad_count_or_seed_names_its_flag(self, capsys, flag, value):
        assert run(["simulate", "outage", "--params", ROW1, "--detection", "imdd",
                    "--snr-db", "10:20:10", flag, value]) == 2
        assert f"error: {flag} must be an integer >= " in capsys.readouterr().err


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
