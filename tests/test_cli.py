import json
import math
import subprocess
import sys

import numpy as np
import pytest

import ldpopt as L
from ldpopt.cli import main


class TestMechCommand:
    def test_rr_json(self, tmp_path, capsys):
        out = tmp_path / "rr.json"
        code = main(["mech", "rr", "--k", "3", "--eps", str(math.log(2)),
                     "--out", str(out)])
        assert code == 0
        rec = L.mechanism_from_json(out.read_text())
        np.testing.assert_allclose(np.diag(rec.mechanism.rows), 0.5, atol=1e-12)
        assert rec.eps_claimed == pytest.approx(math.log(2))

    def test_binary_to_stdout(self, capsys):
        code = main(["mech", "binary", "--eps", "1.0",
                     "--p0", "0.7,0.3", "--p1", "0.3,0.7"])
        assert code == 0
        rec = L.mechanism_from_json(capsys.readouterr().out)
        assert rec.mechanism.k == 2 and rec.mechanism.l == 2

    def test_quaternary(self, capsys):
        code = main(["mech", "quaternary", "--eps", str(math.log(3)),
                     "--delta", "0.2"])
        assert code == 0
        rec = L.mechanism_from_json(capsys.readouterr().out)
        np.testing.assert_allclose(rec.mechanism.rows,
                                   [[0.2, 0, 0.2, 0.6], [0, 0.2, 0.6, 0.2]],
                                   atol=1e-12)
        assert rec.delta_claimed == pytest.approx(0.2)

    def test_reused_parser_restores_defaults(self, capsys):
        from ldpopt.cli import build_parser
        assert build_parser() is build_parser()
        assert main(["mech", "rr", "--k", "3", "--eps", "1.0"]) == 0
        assert L.mechanism_from_json(capsys.readouterr().out).mechanism.k == 3
        assert main(["mech", "rr", "--eps", "1.0"]) == 0
        assert L.mechanism_from_json(capsys.readouterr().out).mechanism.k == 2

    def test_validation_error_exit_code(self, capsys):
        assert main(["mech", "rr", "--k", "1", "--eps", "1.0"]) == 1


class TestOptCommand:
    def test_tv_round_trip_is_staircase(self, tmp_path, capsys):
        out = tmp_path / "opt.json"
        code = main(["opt", "--utility", "tv", "--eps", "1.0",
                     "--p0", "0.5,0.2,0.3", "--p1", "0.1,0.6,0.3",
                     "--out", str(out)])
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        p0 = L.make_distribution([0.5, 0.2, 0.3])
        p1 = L.make_distribution([0.1, 0.6, 0.3])
        assert printed == pytest.approx(L.binary_tv_closed(p0, p1, 1.0), abs=1e-9)
        rec = L.mechanism_from_json(out.read_text())
        assert L.is_staircase(rec.mechanism, 1.0)
        assert L.is_locally_private(rec.mechanism, 1.0)

    def test_mi(self, capsys):
        code = main(["opt", "--utility", "mi", "--eps", "0.5", "--p", "0.2,0.3,0.5"])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value > 0

    def test_nonfinite_eps_is_validation_error(self, capsys):
        code = main(["opt", "--utility", "mi", "--eps", "nan", "--p", "0.2,0.3,0.5"])
        assert code == 1
        assert "eps=nan" in capsys.readouterr().err

    def test_overflowing_eps_is_validation_error(self, capsys):
        code = main(["opt", "--utility", "kl", "--eps", "800",
                     "--p0", "0.5,0.2,0.3", "--p1", "0.1,0.6,0.3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "k=3" in err and "eps=800" in err

    def test_solver_failure_is_validation_error(self, monkeypatch, capsys):
        def breakdown(lp):
            raise L.NumericalBreakdown("simplex iteration limit reached")

        monkeypatch.setattr("ldpopt.cli.solve", breakdown)
        code = main(["opt", "--utility", "kl", "--eps", "30",
                     "--p0", "0.5,0.2,0.3", "--p1", "0.1,0.6,0.3"])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert "utility=kl k=3 eps=30.0" in err


class TestCheckCommand:
    def test_valid_mechanism_passes(self, tmp_path, capsys):
        path = tmp_path / "rr.json"
        Q = L.randomized_response(3, 1.0)
        path.write_text(L.mechanism_to_json(Q, eps_claimed=1.0, delta_claimed=0.0))
        assert main(["check", str(path)]) == 0
        assert "is_locally_private(eps=1): True" in capsys.readouterr().out

    def test_false_claim_fails(self, tmp_path, capsys):
        path = tmp_path / "rr.json"
        Q = L.randomized_response(3, 2.0)
        path.write_text(L.mechanism_to_json(Q, eps_claimed=1.0, delta_claimed=0.0))
        assert main(["check", str(path)]) == 1

    def test_tiny_violation_fails(self, tmp_path, capsys):
        # 5e-13 against an exact 0 breaks every finite ratio bound.
        path = tmp_path / "tiny.json"
        Q = L.Mechanism(np.array([[1 - 5e-13, 5e-13], [1.0, 0.0]]))
        path.write_text(L.mechanism_to_json(Q, eps_claimed=1.0, delta_claimed=0.0))
        assert main(["check", str(path)]) == 1
        assert "is_locally_private(eps=1): False" in capsys.readouterr().out

    def test_malformed_json_has_context(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"k": 2, "l": 2,
                                    "rows": [[0.9, 0.2], [0.5, 0.5]]}))
        assert main(["check", str(path)]) == 1
        assert "row 0" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, capsys):
        assert main(["check", "/nonexistent/mech.json"]) == 2

    def test_bound_reports_printed(self, tmp_path, capsys):
        path = tmp_path / "bin.json"
        p0 = L.make_distribution([0.7, 0.3])
        p1 = L.make_distribution([0.3, 0.7])
        Q = L.binary_ht(p0, p1, 0.5)
        path.write_text(L.mechanism_to_json(Q, eps_claimed=0.5, delta_claimed=0.0))
        assert main(["check", str(path), "--p0", "0.7,0.3", "--p1", "0.3,0.7"]) == 0
        out = capsys.readouterr().out
        assert "pinsker" in out and "duchi" in out

    def test_very_large_eps_reports(self, tmp_path, capsys):
        # (e^eps)^2 exceeds the float range past eps = 354.9.
        path = tmp_path / "rr.json"
        path.write_text(L.mechanism_to_json(L.randomized_response(3, 400.0), 400.0, 0.0))
        assert main(["check", str(path), "--eps", "400", "--p0", "0.5,0.2,0.3",
                     "--p1", "0.1,0.6,0.3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.count("\nbound ") == 5


class TestRegionCommand:
    def test_eps_delta_csv(self, capsys):
        code = main(["region", "--eps", str(math.log(3)), "--delta", "0"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p_md,p_fa"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert (0.25, 0.25) in rows

    def test_mechanism_region(self, tmp_path, capsys):
        path = tmp_path / "quat.json"
        path.write_text(L.mechanism_to_json(L.quaternary(1.0, 0.1), 1.0, 0.1))
        code = main(["region", "--mech", str(path)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        want = L.region_eps_delta(1.0, 0.1).vertices
        got = [tuple(map(float, line.split(","))) for line in lines[1:]]
        np.testing.assert_allclose(got, want, atol=1e-9)


class TestSweepCommand:
    CFG = dict(seed=7, k=3, num_instances=3, eps_grid=(0.0, 1.0), utility="kl")

    def test_deterministic_csv(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code = main(["sweep", "--seed", "7", "--k", "3",
                         "--num-instances", "3", "--eps-grid", "0.0,1.0",
                         "--utility", "kl", "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_rows_and_ratios(self):
        rows = L.run_sweep(L.SweepConfig(**self.CFG))
        assert all(0.0 <= r.ratio <= 1.0 + 1e-9 for r in rows)
        eps0 = [r for r in rows if r.eps == 0.0]
        assert all(abs(r.utility_value) < 1e-12 for r in eps0)
        header = L.sweep_csv(rows).splitlines()[0]
        assert header == "instance_id,eps,mechanism,utility_value,opt_value,ratio"

    def test_mixed_is_max_of_binary_and_rr(self):
        rows = L.run_sweep(L.SweepConfig(**self.CFG))
        index = {(r.instance_id, r.eps, r.mechanism): r.utility_value for r in rows}
        for (inst, eps, mech), v in index.items():
            if mech == "mixed":
                assert v == pytest.approx(max(index[(inst, eps, "binary")],
                                              index[(inst, eps, "rr")]))

    def test_ratio_limits_per_instance(self):
        cfg = L.SweepConfig(seed=3, k=3, num_instances=5,
                            eps_grid=(0.01, 10.0), utility="kl",
                            mechanisms=("binary", "rr", "optimal"))
        rows = L.run_sweep(cfg)
        for r in rows:
            if r.mechanism == "binary" and r.eps == 0.01:
                assert r.ratio >= 1.0 - 1e-6
            if r.mechanism == "rr" and r.eps == 10.0:
                assert r.ratio >= 1.0 - 1e-6

    def test_config_file(self, tmp_path, capsys):
        cfg = dict(self.CFG)
        cfg["eps_grid"] = list(cfg["eps_grid"])
        cfg["out_path"] = str(tmp_path / "c.csv")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "c.csv").exists()
        assert "min mixed-strategy ratio" in capsys.readouterr().out

    def test_invalid_config(self, capsys):
        assert main(["sweep", "--k", "3", "--eps-grid", "",
                     "--utility", "kl"]) == 1

    def test_k_cap(self, capsys):
        assert main(["sweep", "--k", "13", "--eps-grid", "1.0",
                     "--utility", "kl"]) == 1

    def test_bad_grid_token_is_named(self, capsys):
        assert main(["sweep", "--k", "6", "--eps-grid", "0.5,,1",
                     "--utility", "kl"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --eps-grid: '' is not a number in '0.5,,1'\n"

    @pytest.mark.parametrize("field, value, message", [
        ("k", 2.5, "k must be an integer, got 2.5"),
        ("num_instances", 1.5, "num_instances must be an integer, got 1.5"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", True, "seed must be an integer, got True"),
        ("eps_grid", 1.0, "eps_grid must be a nonempty list of numbers, got 1.0"),
        ("eps_grid", ["a"], "eps_grid: 'a' is not a number"),
    ])
    def test_bad_config_field_is_named(self, tmp_path, capsys, field, value, message):
        cfg = dict(self.CFG, eps_grid=list(self.CFG["eps_grid"]))
        cfg[field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("k", [1, 13])
    def test_k_outside_range_is_named(self, capsys, k):
        assert main(["sweep", "--k", str(k), "--eps-grid", "1",
                     "--utility", "kl"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: sweeps need k in [2, 12], got k={k}\n"

    # Python-level calls per sweep-k6 operation (one instance, the
    # benchmark's eps grids, all five mechanisms) over run_sweep, sweep_csv
    # and sweep_summary, counted by sys.setprofile after a warm-up pass:
    # 2,102 before the fixed per-call costs were cut, 1,570 after (numpy 2.4,
    # Python 3.11). numpy's own Python wrappers are counted, so the budget
    # holds only for the versions it was measured with.
    CALLS_PER_OP = 1570
    CALL_BUDGET = 1.10 * CALLS_PER_OP

    @pytest.mark.skipif(np.__version__.split(".")[:2] != ["2", "4"]
                        or sys.version_info[:2] != (3, 11),
                        reason="call counts were measured on numpy 2.4, Python 3.11")
    def test_call_budget(self):
        grid = (0.1, 0.5, 1.0, 2.0, 4.0, 6.0, 10.0)
        grids = {"kl": grid, "tv": grid, "chi2": grid, "mi": grid[1:]}
        cfgs = [L.SweepConfig(seed=seed, k=6, num_instances=1, eps_grid=g, utility=u)
                for seed in range(5) for u, g in grids.items()]

        def run_all():
            for cfg in cfgs:
                rows = L.run_sweep(cfg)
                L.sweep_csv(rows)
                L.sweep_summary(rows)

        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        run_all()
        sys.setprofile(count)
        try:
            run_all()
        finally:
            sys.setprofile(None)
        assert calls / len(cfgs) <= self.CALL_BUDGET


class TestExponentCommand:
    def test_identical_priors_zero_exponent(self, capsys):
        code = main(["exponent", "--p0", "0.5,0.5", "--p1", "0.5,0.5",
                     "--eps", "1.0", "--n", "1000", "--trials", "50",
                     "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        # Every log-likelihood ratio is 0, so the estimate is exactly 0, and
        # printed without a sign.
        assert out.splitlines()[0] == "exponent_estimate=0"

    def test_eps0_mechanism_zero_exponent(self):
        P0 = L.make_distribution([0.8, 0.2])
        P1 = L.make_distribution([0.2, 0.8])
        Q = L.randomized_response(2, 0.0)
        r = L.run_exponent_sim(P0, P1, Q, n=1000, trials=50, alpha_star=0.05, seed=2)
        assert abs(r.exponent) < 1e-9
        assert r.kl_rate == pytest.approx(0.0, abs=1e-12)


class TestBadPrivacyLevel:
    """A privacy level outside eps in [0, 709.78], delta in [0, 1] exits 1
    with one stderr line that names eps, and nothing on stdout."""

    def _one_line_naming_eps(self, capsys, bad):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"eps={bad}" in captured.err
        assert "math range error" not in captured.err

    def test_mech_rr_overflowing_eps(self, capsys):
        assert main(["mech", "rr", "--k", "3", "--eps", "800"]) == 1
        self._one_line_naming_eps(capsys, "800.0")

    def test_mech_geometric_infinite_eps(self, capsys):
        assert main(["mech", "geometric", "--k", "3", "--eps", "inf"]) == 1
        self._one_line_naming_eps(capsys, "inf")

    def test_region_nan_eps(self, capsys):
        assert main(["region", "--eps", "nan"]) == 1
        self._one_line_naming_eps(capsys, "nan")

    def test_check_overflowing_eps(self, tmp_path, capsys):
        path = tmp_path / "rr.json"
        path.write_text(L.mechanism_to_json(L.randomized_response(3, 1.0), 1.0, 0.0))
        assert main(["check", str(path), "--eps", "800"]) == 1
        self._one_line_naming_eps(capsys, "800.0")


class TestMissingPrior:
    @pytest.mark.parametrize("argv, flag", [
        (["mech", "binary", "--eps", "1"], "--p0"),
        (["mech", "binary-mi", "--eps", "1"], "--p"),
        (["opt", "--utility", "kl", "--eps", "1", "--p", "0.5,0.5"], "--p0"),
        (["opt", "--utility", "mi", "--eps", "1"], "--p"),
    ])
    def test_one_error_line_naming_the_flag(self, capsys, argv, flag):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err


class TestConsoleEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run([sys.executable, "-m", "ldpopt.cli", "mech", "rr",
                               "--k", "2", "--eps", "0.5"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        rec = L.mechanism_from_json(proc.stdout)
        assert rec.mechanism.k == 2

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "ldpopt", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "usage: ldpopt" in proc.stdout
