import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

import ldpopt as L
from ldpopt.cli import _instance_priors, main
from ldpopt.core import MAX_EPS


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

    def test_allocation_failure_is_one_line(self, monkeypatch, capsys):
        # What numpy raises for `mech rr --k 1000000`; nothing is allocated.
        def too_large(k, eps):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                              "(1000000, 1000000) and data type float64")

        monkeypatch.setattr("ldpopt.cli.randomized_response", too_large)
        assert main(["mech", "rr", "--k", "1000000", "--eps", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: Unable to allocate 7.28 TiB for an array with "
                                "shape (1000000, 1000000) and data type float64\n")


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

    NAMED_GRID = (0.0, 1e-6, 0.5, 8.0, 30.0)

    @staticmethod
    def _named_rows(k, utility, num_instances):
        """run_sweep's binary and rr values with each instance's spec."""
        cfg = L.SweepConfig(seed=11, k=k, num_instances=num_instances,
                            eps_grid=TestSweepCommand.NAMED_GRID, utility=utility,
                            mechanisms=("binary", "rr"))
        specs = [_instance_priors(cfg, i) for i in range(num_instances)]
        return [(specs[r.instance_id], r) for r in L.run_sweep(cfg)]

    @pytest.mark.parametrize("k", [2, 3, 6, 12])
    @pytest.mark.parametrize("utility", ["kl", "tv", "chi2", "mi"])
    def test_named_values_match_utility(self, k, utility):
        # run_sweep reads binary and rr off the LP costs; utility()
        # scores the built mechanisms. Both agree within 1e-9 relative, up
        # to the priors' own rounding: each prior sums to 1 only within k u
        # (u the unit roundoff), and utility() carries that into the value
        # as up to about k u absolute (at most 0.75 k u in a scan of 1,280
        # values), which is all there is of an O(delta^2) value at eps = 0
        # and 1e-6.
        u = np.finfo(float).eps / 2
        for spec, r in self._named_rows(k, utility, 3):
            if r.mechanism == "rr":
                Q = L.randomized_response(k, r.eps)
            elif utility == "mi":
                Q = L.binary_mi(spec.p, r.eps)
            else:
                Q = L.binary_ht(spec.p0, spec.p1, r.eps)
            assert r.utility_value == pytest.approx(L.utility(spec, Q), rel=1e-9,
                                                    abs=2 * k * u)

    @pytest.mark.parametrize("k", [2, 3, 6, 12])
    @pytest.mark.parametrize("utility", ["kl", "tv", "chi2", "mi"])
    def test_named_values_against_50_digits(self, k, utility):
        # The reference is the exact mechanism's utility at 50 digits, on
        # the priors normalized in mpmath. The value read off the costs is
        # within its own rounding of it: each cost read errs by at most
        # 4 (k + 5) u times the size of the terms it sums (see
        # test_objective_matches_scores_of_the_matrix), times the
        # mechanism's scale (1 + delta) / (k + delta) or
        # (1 + delta) / (2 + delta). That makes it no
        # farther from the reference than utility() on the float mechanism
        # beyond that rounding; utility() is off by the priors' sum error,
        # which reached 15 % of a KL value at eps = 1e-6 (k = 2, sweep seed
        # 42, instance 1).
        mp = pytest.importorskip("mpmath")
        u = np.finfo(float).eps / 2
        for spec, r in self._named_rows(k, utility, 2):
            eps = r.eps
            lp = L.build_lp(spec, eps)
            delta, bits = lp.pattern.delta, lp.pattern.bits
            if utility == "mi":
                m = spec.p.probs @ bits
                size = (m * np.log1p(delta * (1 - m) / (1 + delta * m))
                        + (1 - m) * np.log1p(delta * m) / (1 + delta))
                split = L.mi_partition(spec.p).members
                Q_old = L.binary_mi(spec.p, eps)
            else:
                size = (np.abs(lp.cost)
                        + delta / (1 + delta) * ((spec.p0.probs + spec.p1.probs) @ bits))
                split = L.ht_partition(spec.p0, spec.p1).members
                Q_old = L.binary_ht(spec.p0, spec.p1, eps)
            if r.mechanism == "rr":
                read = 1 << (k - 1 - np.arange(k))
                scale = (1 + delta) / (k + delta)
                Q_old = L.randomized_response(k, eps)
            else:
                j = sum(1 << (k - 1 - x) for x in split)
                read = [j, (2**k - 1) ^ j]
                scale = (1 + delta) / (2 + delta)
            # 1e-45 covers the reference's own rounding at 50 digits, all
            # there is of it at eps = 0, where the exact value is 0.
            rounding = 4 * (k + 5) * u * float(size[read].sum()) * scale + 1e-45
            with mp.workdps(50):
                priors = [spec.p] if utility == "mi" else [spec.p0, spec.p1]
                q = [[mp.mpf(float(x)) for x in p.probs] for p in priors]
                q = [[x / mp.fsum(qi) for x in qi] for qi in q]
                e = mp.exp(mp.mpf(eps))
                cols = ([[e if x == y else 1 for x in range(k)] for y in range(k)]
                        if r.mechanism == "rr" else
                        [[e if (x in split) == first else 1 for x in range(k)]
                         for first in (True, False)])
                ref = 0
                for c in cols:
                    a = mp.fsum(x * y for x, y in zip(q[0], c))
                    if utility == "mi":
                        ref += mp.fsum(x * y * mp.log(y / a) for x, y in zip(q[0], c))
                        continue
                    b = mp.fsum(x * y for x, y in zip(q[1], c))
                    if utility == "kl":
                        ref += a * mp.log(a / b)
                    elif utility == "tv":
                        ref += abs(a - b) / 2
                    else:
                        ref += (a - b) ** 2 / b
                ref = float(ref / (len(cols) - 1 + e))
            new_err = abs(r.utility_value - ref)
            old_err = abs(L.utility(spec, Q_old) - ref)
            assert new_err <= rounding
            assert new_err <= old_err + rounding

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

    def test_out_flag_overrides_config_out_path(self, tmp_path, capsys):
        cfg = dict(self.CFG, eps_grid=list(self.CFG["eps_grid"]),
                   out_path=str(tmp_path / "file.csv"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        flag = tmp_path / "flag.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(flag)]) == 0
        assert flag.read_text().startswith("instance_id,eps,mechanism,")
        assert not (tmp_path / "file.csv").exists()

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
        ("mechanisms", 5, f"mechanisms must be a list of names from "
                          f"{L.cli.SWEEP_MECHANISMS}, got 5"),
        ("mechanisms", "rr", f"mechanisms must be a list of names from "
                             f"{L.cli.SWEEP_MECHANISMS}, got 'rr'"),
        ("mechanisms", ["rr", "lasso"], f"mechanisms must be a list of names from "
                                        f"{L.cli.SWEEP_MECHANISMS}, got ['rr', 'lasso']"),
        ("out_path", 1, "out_path must be a string, got 1"),
        ("out_path", True, "out_path must be a string, got True"),
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

    @pytest.mark.parametrize("text, kind", [("[1, 2]", "list"), ("3", "int"),
                                            ('"k"', "str"), ("null", "NoneType")])
    def test_config_must_be_an_object(self, tmp_path, capsys, text, kind):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config must be a JSON object, got {kind}\n"

    # Python callers can pass values a JSON file cannot. Plain ints and
    # floats in range take a one-pass check; every other value must raise
    # what the field-by-field checks raise, the first bad field first.
    @pytest.mark.parametrize("fields, message", [
        (dict(eps_grid=(1.0, math.nan)), "got eps=nan, delta=0.0"),
        (dict(eps_grid=(math.inf,)), "got eps=inf, delta=0.0"),
        (dict(eps_grid=(-0.5,)), "got eps=-0.5, delta=0.0"),
        (dict(eps_grid=(np.float64(800.0),)), "got eps=800.0, delta=0.0"),
        (dict(eps_grid=(np.float64("nan"),)), "got eps=nan, delta=0.0"),
        (dict(eps_grid=(1.0, True)), "eps_grid: True is not a number"),
        (dict(eps_grid=(1.0, "2.0")), "eps_grid: '2.0' is not a number"),
        (dict(eps_grid=()), "eps_grid must be a nonempty list of numbers, got ()"),
        (dict(k=np.float64(6.0)), f"k must be an integer, got {np.float64(6.0)!r}"),
        (dict(num_instances=False), "num_instances must be an integer, got False"),
        (dict(seed=-1, eps_grid=(math.nan,)), "seed must be a nonnegative integer"),
        (dict(num_instances=0, k=99), "need at least one instance"),
        (dict(eps_grid=(math.nan,), k=99), "got eps=nan, delta=0.0"),
        (dict(mechanisms=("rr", 1)), "mechanisms must be a list of names from"),
    ])
    def test_python_config_errors(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            L.SweepConfig(**dict(self.CFG, **fields))

    def test_python_config_values_kept(self):
        class Grid(tuple):
            pass

        cfg = L.SweepConfig(seed=np.int64(3), k=np.int64(4), num_instances=2,
                            eps_grid=Grid([np.float64(0.5), 1, 0.0, -0.0, MAX_EPS]),
                            utility="mi", mechanisms=["rr", "optimal"])
        assert (cfg.seed, cfg.k, cfg.num_instances) == (3, 4, 2)
        assert type(cfg.eps_grid) is tuple and cfg.eps_grid == (0.5, 1, 0.0, 0.0, MAX_EPS)
        assert type(cfg.mechanisms) is tuple and cfg.mechanisms == ("rr", "optimal")
        plain = L.SweepConfig(**self.CFG, mechanisms=Grid(L.cli.SWEEP_MECHANISMS))
        assert type(plain.mechanisms) is tuple

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
    # 2,102 before the fixed per-call costs were cut, 1,570 after; 1,462
    # before binary and rr were read off the LP objective, 1,229 after;
    # 1,240 before solve's prior-free start and the geometric baseline were
    # cached per (k, eps), 1,078 after (numpy 2.4, Python 3.11). numpy's own
    # Python wrappers are counted, so the budget holds only for the versions
    # it was measured with.
    CALLS_PER_OP = 1078
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
