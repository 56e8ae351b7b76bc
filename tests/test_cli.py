import argparse
import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

import ldpopt as L
from ldpopt.cli import FDIV_KINDS, _instance_priors, main
from ldpopt.core import MAX_EPS, _pattern_bits

# Call counts and float output pinned on these versions: numpy's Python
# wrappers and its floating-point kernels change between releases.
pinned_versions = pytest.mark.skipif(
    np.__version__.split(".")[:2] != ["2", "4"] or sys.version_info[:2] != (3, 11),
    reason="pinned on numpy 2.4, Python 3.11")


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

    def test_mi_bound_reports_printed(self, tmp_path, capsys):
        # --p alone runs the mutual-information suite on the mechanism.
        path = tmp_path / "bin_mi.json"
        p = L.make_distribution([0.5, 0.3, 0.2])
        Q = L.binary_mi(p, 0.5)
        path.write_text(L.mechanism_to_json(Q, eps_claimed=0.5, delta_claimed=0.0))
        assert main(["check", str(path), "--p", "0.5,0.3,0.2"]) == 0
        bounds = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("bound ")]
        assert [line.split(":")[0] for line in bounds] == [
            f"bound {r.name}" for r in L.mi_converse_suite(p, Q, 0.5)]
        assert bounds and "mi-vs-entropy" in bounds[0]

    # The full output of check with both hypothesis-testing priors and with
    # the mutual-information prior.
    PRIOR_OUTPUTS = {
        "ht": ("bin.json", L.binary_ht(L.make_distribution([0.7, 0.3]),
                                       L.make_distribution([0.3, 0.7]), 0.5),
               ["--p0", "0.7,0.3", "--p1", "0.3,0.7"], """\
k=2 l=2
effective_epsilon=0.5
is_locally_private(eps=0.5): True
is_approx_private(eps=0.5, delta=0): True
is_staircase(eps=0.5): True
bound pinsker: lhs=0.019195248382 rhs=0.0192570140496 satisfied=True
bound duchi-symmetrized-kl: lhs=0.0385140280993 rhs=0.269337143718 satisfied=True
bound symmetrized-kl-high-privacy: lhs=0.0385140280993 rhs=0.0508428626857 satisfied=True
bound binary-kl-expansion-ratio: lhs=0.242488993246 rhs=0.05 satisfied=False
bound rr-kl-low-privacy-residual: lhs=0.114097278012 rhs=6.6768344997 satisfied=True
"""),
        "mi": ("bin_mi.json", L.binary_mi(L.make_distribution([0.5, 0.3, 0.2]), 0.5),
               ["--p", "0.5,0.3,0.2"], """\
k=3 l=2
effective_epsilon=0.5
is_locally_private(eps=0.5): True
is_approx_private(eps=0.5, delta=0): True
is_staircase(eps=0.5): True
bound mi-vs-entropy: lhs=0.0302998619808 rhs=1.02965301406 satisfied=True
bound mi-high-privacy: lhs=0.0302998619808 rhs=0.03125 satisfied=True
bound mi-low-privacy: lhs=0.0302998619808 rhs=0.423122354352 satisfied=True
bound binary-mi-expansion-ratio: lhs=0.0304044166155 rhs=0.05 satisfied=True
bound rr-mi-low-privacy-residual: lhs=0.395151865773 rhs=9.5977481033 satisfied=True
"""),
    }

    @pytest.mark.parametrize("suite", ["ht", "mi"])
    def test_prior_flags_output(self, tmp_path, capsys, suite):
        name, Q, flags, want = self.PRIOR_OUTPUTS[suite]
        path = tmp_path / name
        path.write_text(L.mechanism_to_json(Q, eps_claimed=0.5, delta_claimed=0.0))
        assert main(["check", str(path), *flags]) == 0
        assert capsys.readouterr() == (want, "")

    @pytest.mark.parametrize("given, missing", [("--p0", "--p1"), ("--p1", "--p0")])
    def test_lone_ht_prior_names_the_other(self, tmp_path, capsys, given, missing):
        # Either flag selects the hypothesis-testing suite, which needs both.
        name, Q, _, want = self.PRIOR_OUTPUTS["ht"]
        path = tmp_path / name
        path.write_text(L.mechanism_to_json(Q, eps_claimed=0.5, delta_claimed=0.0))
        assert main(["check", str(path), given, "0.7,0.3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == want[:want.index("bound ")]
        assert captured.err == f"error: missing {missing}\n"

    @pytest.mark.parametrize("flags", [["--p", ""], ["--p0", "", "--p1", "0.3,0.7"],
                                       ["--p1", ""]])
    def test_empty_prior_is_rejected(self, tmp_path, capsys, flags):
        # An empty prior flag is given, not absent: check parses it and fails
        # as opt does. test_prior_flags_output pins the output of valid ones.
        name, Q, _, want = self.PRIOR_OUTPUTS["ht"]
        path = tmp_path / name
        path.write_text(L.mechanism_to_json(Q, eps_claimed=0.5, delta_claimed=0.0))
        assert main(["check", str(path), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == want[:want.index("bound ")]
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ["--p0", "0.5,0.3,0.2", "--p1", "0.2,0.3,0.5"], ["--p1", "0.2,0.3,0.5"],
        ["--p", "0.5,0.3,0.2"], ["--delta", "5"], ["--delta", "0"]])
    def test_flags_that_need_an_eps(self, tmp_path, capsys, flags):
        # With no --eps and no eps_claimed nothing would read these flags.
        path = tmp_path / "rr.json"
        path.write_text(L.mechanism_to_json(L.randomized_response(3, 1.0), None, 0.0))
        assert main(["check", str(path), *flags]) == 1
        assert capsys.readouterr() == (
            "", f"error: {flags[0]} needs an eps: --eps or the file's eps_claimed\n")
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr() == ("k=3 l=3\neffective_epsilon=1\n", "")

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

    def test_needs_a_mechanism_or_eps(self, capsys):
        assert main(["region"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need either --mech or --eps/--delta\n"


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
            delta, bits = math.expm1(eps), _pattern_bits(k)
            if utility == "mi":
                m = spec.p.probs @ bits
                size = (m * np.log1p(delta * (1 - m) / (1 + delta * m))
                        + (1 - m) * np.log1p(delta * m) / (1 + delta))
                split = np.flatnonzero(L.mi_partition(spec.p)[:, 0]).tolist()
                Q_old = L.binary_mi(spec.p, eps)
            else:
                size = (np.abs(lp.cost)
                        + delta / (1 + delta) * ((spec.p0.probs + spec.p1.probs) @ bits))
                split = np.flatnonzero(L.ht_partition(spec.p0, spec.p1)[:, 0]).tolist()
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

    @pytest.mark.parametrize("argv", [
        ["--k", "3", "--utility", "kl"],
        ["--eps-grid", "1.0", "--utility", "kl"],
        ["--k", "3", "--eps-grid", "1.0"],
    ])
    def test_flags_needed_without_config(self, capsys, argv):
        assert main(["sweep", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --k, --eps-grid and --utility are required "
                                "without --config\n")

    def test_k_cap(self, capsys):
        assert main(["sweep", "--k", "13", "--eps-grid", "1.0",
                     "--utility", "kl"]) == 1

    def test_solver_failure_names_its_instance(self, monkeypatch, capsys):
        # The fourth solve is instance 1 at eps = 1 of the CFG sweep.
        original = L.NumericalBreakdown("pivot row lost")
        calls = 0

        def solve(lp):
            nonlocal calls
            calls += 1
            if calls == 4:
                raise original
            return L.solve(lp)

        monkeypatch.setattr(L.cli, "solve", solve)
        with pytest.raises(L.NumericalBreakdown) as info:
            L.run_sweep(L.SweepConfig(**self.CFG))
        assert str(info.value) == ("utility=kl k=3 eps=1.0 seed=7 instance_id=1: "
                                   "pivot row lost")
        assert info.value.__cause__ is original
        calls = 0
        assert main(["sweep", "--seed", "7", "--k", "3", "--num-instances", "3",
                     "--eps-grid", "0,1", "--utility", "kl"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: utility=kl k=3 eps=1.0 seed=7 instance_id=1: "
                                "pivot row lost\n")

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
        ("mechanisms", [], f"mechanisms must be a list of names from "
                           f"{L.cli.SWEEP_MECHANISMS}, got []"),
        ("out_path", 1, "out_path must be a string, got 1"),
        ("out_path", True, "out_path must be a string, got True"),
        ("utility", "lasso", "unknown utility 'lasso'"),
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

    # Python callers can pass values a JSON file cannot. Each bad value
    # raises its field's error, the first bad field first.
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
        (dict(mechanisms=()), f"mechanisms must be a list of names from "
                              f"{L.cli.SWEEP_MECHANISMS}, got ()"),
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
    # cached per (k, eps), 1,078 after; 1,081 before an instance's eps grid
    # was scored in one pass, the simplex carried its duals and the tie rule,
    # the CSV rows and the summary lines stopped calling a lambda, generator
    # or helper per item, 546 after (numpy 2.4, Python 3.11). numpy's own
    # Python wrappers are counted, so the budget holds only for the versions
    # it was measured with.
    CALLS_PER_OP = 546
    CALL_BUDGET = 1.10 * CALLS_PER_OP

    @pinned_versions
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

    # SHA-256 of the seed-42 sweep CSVs and summaries per utility, over
    # k = 2, 3 and 6 (20 instances, eps from 0 to 30) and k = 12 (2
    # instances, eps 0.5 to 8). A change that claims the same sweep output
    # keeps these bytes.
    SWEEP_DIGESTS = {
        "kl": "10a6f2ef90de8a63c7517e65218afaf4cf6e5061e7a23fbb6b6e741599ee5040",
        "tv": "ae165cfd486814ad2d8f7416abd3fd7a16acb15650d40f8bd2e5a83754f522cc",
        "chi2": "7c7e9694b9744fda5bfec0fb1a72dbdb6945a3eb159458ed31f128469c54c7c8",
        "mi": "5c41b09af853730e6c08f4d91b430c4e8588c5c556014768c877e04ff39a9945",
    }

    @pinned_versions
    def test_sweep_output_digest(self):
        grid = (0.0, 1e-6, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 30.0)
        runs = [(2, 20, grid), (3, 20, grid), (6, 20, grid), (12, 2, (0.5, 2.0, 4.0, 8.0))]
        for utility, want in self.SWEEP_DIGESTS.items():
            digest = hashlib.sha256()
            for k, n, eps_grid in runs:
                rows = L.run_sweep(L.SweepConfig(seed=42, k=k, num_instances=n,
                                                 eps_grid=eps_grid, utility=utility))
                digest.update((L.sweep_csv(rows) + L.sweep_summary(rows)).encode())
            assert digest.hexdigest() == want, utility


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

    def _identity_run(self, tmp_path, capsys, p0, n):
        mech = tmp_path / "eye.json"
        mech.write_text(L.mechanism_to_json(L.Mechanism(np.eye(2))))
        code = main(["exponent", "--p0", p0, "--p1", "1,0", "--mech", str(mech),
                     "--n", str(n), "--seed", "0"])
        assert code == 0
        return capsys.readouterr().out.splitlines()

    def test_output_without_m1_mass_is_never_accepted(self, tmp_path, capsys):
        # Output 1 has M0 mass and no M1 mass, so its LLR is +inf and its
        # importance weight 0; every sample draws it, so beta is 0.
        lines = self._identity_run(tmp_path, capsys, "0.5,0.5", 5000)
        assert lines == ["exponent_estimate=inf", "kl_rate=inf", "beta_estimate=0"]

    def test_undrawn_infinite_ratio_adds_nothing(self, tmp_path, capsys):
        # Samples that never draw output 1 have finite LLRs; w = +inf there
        # must not enter them as 0 * inf.
        lines = self._identity_run(tmp_path, capsys, "0.999,0.001", 1000)
        assert lines == ["exponent_estimate=0.000138933949605", "kl_rate=inf",
                         "beta_estimate=0.870285509262"]

    def test_rr_mechanism(self, capsys):
        # --mechanism rr simulates randomized response on the priors'
        # alphabet, not the binary mechanism.
        argv = ["--p0", "0.6,0.3,0.1", "--p1", "0.2,0.3,0.5", "--eps", "0.7",
                "--n", "300", "--trials", "40", "--seed", "3"]
        assert main(["exponent", *argv, "--mechanism", "rr"]) == 0
        rr_out = capsys.readouterr().out
        P0 = L.make_distribution([0.6, 0.3, 0.1])
        P1 = L.make_distribution([0.2, 0.3, 0.5])
        r = L.run_exponent_sim(P0, P1, L.randomized_response(3, 0.7), n=300, trials=40,
                               alpha_star=0.05, seed=3)
        assert rr_out.splitlines() == [f"exponent_estimate={r.exponent:.12g}",
                                       f"kl_rate={r.kl_rate:.12g}",
                                       f"beta_estimate={r.beta:.12g}"]
        assert main(["exponent", *argv]) == 0
        assert capsys.readouterr().out != rr_out

    def test_eps0_mechanism_zero_exponent(self):
        P0 = L.make_distribution([0.8, 0.2])
        P1 = L.make_distribution([0.2, 0.8])
        Q = L.randomized_response(2, 0.0)
        r = L.run_exponent_sim(P0, P1, Q, n=1000, trials=50, alpha_star=0.05, seed=2)
        assert abs(r.exponent) < 1e-9
        assert r.kl_rate == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n, trials, alpha, message", [
        (99, 50, 0.05, "need n >= 100 samples per trial"),
        (1000, 1, 0.05, "need trials >= 2 and alpha_star in (0, 1)"),
        (1000, 50, 0.0, "need trials >= 2 and alpha_star in (0, 1)"),
        (1000, 50, 1.0, "need trials >= 2 and alpha_star in (0, 1)"),
    ])
    def test_sim_arguments_checked(self, n, trials, alpha, message):
        P0 = L.make_distribution([0.8, 0.2])
        P1 = L.make_distribution([0.2, 0.8])
        with pytest.raises(ValueError, match=re.escape(message)):
            L.run_exponent_sim(P0, P1, L.randomized_response(2, 1.0), n=n, trials=trials,
                               alpha_star=alpha, seed=0)


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


class TestBadPrior:
    """Every error raised while parsing a prior flag starts with that flag:
    exit 1 and one stderr line."""

    @pytest.mark.parametrize("argv, err", [
        (["opt", "--utility", "kl", "--eps", "1", "--p0", "0.5,x", "--p1", "0.5,0.5"],
         "--p0: 'x' is not a number in '0.5,x'"),
        (["opt", "--utility", "kl", "--eps", "1", "--p0", "0.5,0.5", "--p1", "0.5,-0.1"],
         "--p1: negative probability mass"),
        (["opt", "--utility", "mi", "--eps", "1", "--p", ""], "--p: '' is not a number in ''"),
        (["mech", "binary", "--eps", "1", "--p0", "0.5,0.5", "--p1", "1"],
         "--p1: need at least 2 masses"),
        (["mech", "binary-mi", "--eps", "1", "--p", "0,0"], "--p: masses sum to 0.0"),
        # Keeps the id it had under make_distribution's own wording.
        pytest.param(["exponent", "--p0", "0.5,0.5", "--p1", "nan,1"],
                     "--p1: non-finite probability mass", id="argv5---p1: non-finite mass"),
        (["exponent", "--p0", "1e308,1e308", "--p1", "0.5,0.5"], "--p0: masses sum to inf"),
    ])
    def test_error_starts_with_the_flag(self, capsys, argv, err):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")

    @pytest.mark.parametrize("flags, err", [
        (["--p0", "0.5,0.5", "--p1", "0.5;0.5"], "--p1: '0.5;0.5' is not a number in '0.5;0.5'"),
        (["--p0", "2,-1", "--p1", "0.5,0.5"], "--p0: negative probability mass"),
        (["--p", "1"], "--p: need at least 2 masses"),
    ])
    def test_check_names_the_flag(self, tmp_path, capsys, flags, err):
        path = tmp_path / "rr.json"
        path.write_text(L.mechanism_to_json(L.randomized_response(2, 1.0), 1.0, 0.0))
        assert main(["check", str(path), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("k=2 l=2\n")
        assert captured.err == f"error: {err}\n"


class TestNoWarningEscapes:
    """Hostile mechanism files and priors end in a return code and at most
    one error line, run in-process so that pytest's error::RuntimeWarning
    filter turns any numpy warning that reaches the CLI into an escape."""

    FILES = {
        "overflow-row-0": '{"k": 2, "l": 2, "rows": [[1e308, 1e308], [0.5, 0.5]]}',
        "overflow-row-1": '{"k": 2, "l": 2, "rows": [[0.5, 0.5], [1e308, 1e308]]}',
        "nan": '{"k": 2, "l": 2, "rows": [[NaN, 1.0], [0.5, 0.5]]}',
        "huge-int": f'{{"k": 2, "l": 2, "rows": [[1{"0" * 400}, 0], [0.5, 0.5]]}}',
        "subnormal": '{"k": 2, "l": 2, "rows": [[5e-324, 1.0], [1.0, 5e-324]]}',
        "zero-column": '{"k": 2, "l": 3, "rows": [[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]]}',
    }
    PRIORS = ("1e308,1e308", "nan,1", "inf,1", "-1,0.5", "0,0", "5e-324,1")
    HT = ("--p0=0.5,0.5", "--p1=0.3,0.7")
    SIM = ("--n", "50", "--trials", "5")

    def _escapes(self, capsys, runs):
        escapes = []
        for argv in runs:
            capsys.readouterr()
            try:
                code = main(argv)
            except BaseException as exc:  # SystemExit included: argparse is not expected here
                escapes.append((argv, repr(exc)))
                continue
            err = capsys.readouterr().err
            if code not in (0, 1, 2) or (err and not (err.startswith("error: ")
                                                      and err.count("\n") == 1)):
                escapes.append((argv, code, err))
        return escapes

    def test_mechanism_files(self, tmp_path, capsys):
        runs = []
        for name, text in self.FILES.items():
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            f = str(path)
            runs += [["check", f], ["check", f, "--eps", "1"],
                     ["check", f, "--eps", "1", *self.HT],
                     ["check", f, "--eps", "1", "--p=0.4,0.6"],
                     ["region", "--mech", f], ["exponent", "--mech", f, *self.HT, *self.SIM]]
        assert not self._escapes(capsys, runs)

    def test_priors(self, capsys):
        runs = []
        for bad in self.PRIORS:
            pairs = ((f"--p0={bad}", "--p1=0.5,0.5"), ("--p0=0.5,0.5", f"--p1={bad}"))
            for eps in ("1", "709.78"):
                runs += [["opt", "--utility", u, "--eps", eps, *pair]
                         for u in FDIV_KINDS for pair in pairs]
                runs.append(["opt", "--utility", "mi", "--eps", eps, f"--p={bad}"])
            runs += [["mech", "binary", "--eps", "1", *pair] for pair in pairs]
            runs.append(["mech", "binary-mi", "--eps", "1", f"--p={bad}"])
            runs += [["exponent", *pair, *self.SIM] for pair in pairs]
        assert not self._escapes(capsys, runs)


class TestEmptyFlagValue:
    """An optional flag given as "" is given, not absent: a path fails to
    open (exit 2) and a mechanism list fails validation (exit 1), with no
    output written."""

    NO_FILE = "error: [Errno 2] No such file or directory: ''\n"
    SWEEP = ["sweep", "--k", "3", "--num-instances", "1", "--eps-grid", "1",
             "--utility", "kl"]

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.json").write_text(
            L.mechanism_to_json(L.randomized_response(2, 1.0), 1.0, 0.0))
        (tmp_path / "cfg.json").write_text(json.dumps(dict(
            seed=0, k=3, num_instances=1, eps_grid=[1.0], utility="kl",
            out_path="c.csv")))
        return tmp_path

    @pytest.mark.parametrize("argv, code, err", [
        (["opt", "--utility", "mi", "--eps", "1", "--p", "0.5,0.5", "--out", ""], 2, NO_FILE),
        ([*SWEEP, "--out", ""], 2, NO_FILE),
        (["sweep", "--config", "cfg.json", "--out", ""], 2, NO_FILE),
        ([*SWEEP, "--mechanisms", ""], 1,
         "error: mechanisms must be a list of names from ('binary', 'rr', 'geometric', "
         "'optimal', 'mixed'), got ['']\n"),
        (["sweep", "--config", ""], 2, NO_FILE),
        (["region", "--mech", "", "--eps", "1"], 2, NO_FILE),
        (["exponent", "--p0", "0.6,0.4", "--p1", "0.4,0.6", "--mech", ""], 2, NO_FILE),
    ])
    def test_is_not_read_as_absent(self, workdir, capsys, argv, code, err):
        assert main(argv) == code
        assert capsys.readouterr() == ("", err)
        assert sorted(p.name for p in workdir.iterdir()) == ["cfg.json", "m.json"]


class TestOutputInPlace:
    """--out files are overwritten in place, never truncated to zero: an
    existing file keeps its inode and mode, a symlink is followed, and only
    a longer old tail is cut."""

    OPT = ["opt", "--utility", "kl", "--eps", "1", "--p0", "0.5,0.2,0.3",
           "--p1", "0.1,0.6,0.3"]
    SWEEP = ["sweep", "--seed", "7", "--k", "3", "--num-instances", "3",
             "--eps-grid", "0,1", "--utility", "kl"]
    COMMANDS = {
        "opt": OPT,
        "mech": ["mech", "rr", "--k", "3", "--eps", "1"],
        "region": ["region", "--eps", "1", "--delta", "0.05"],
        "sweep": SWEEP,
    }

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("old", [b"", b"old", b"z" * 20_000],
                             ids=["empty", "shorter", "longer"])
    def test_holds_exactly_the_new_bytes(self, workdir, capsys, command, old):
        argv = self.COMMANDS[command]
        assert main([*argv, "--out", "fresh"]) == 0
        (workdir / "over").write_bytes(old)
        assert main([*argv, "--out", "over"]) == 0
        assert (workdir / "over").read_bytes() == (workdir / "fresh").read_bytes()

    def test_dev_null(self, capsys):
        assert main([*self.OPT, "--out", "/dev/null"]) == 0
        assert capsys.readouterr() == ("0.0734811355875\n", "")

    def test_fifo_receives_the_full_text(self, workdir, capsys):
        fifo = workdir / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main([*self.OPT, "--out", str(fifo)]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert main([*self.OPT, "--out", "file"]) == 0
        assert got == [(workdir / "file").read_bytes()]

    def test_symlink_writes_through(self, workdir, capsys):
        (workdir / "target").write_bytes(b"z" * 1000)
        (workdir / "link").symlink_to("target")
        assert main([*self.OPT, "--out", "link"]) == 0
        assert main([*self.OPT, "--out", "file"]) == 0
        assert (workdir / "link").is_symlink()
        assert (workdir / "target").read_bytes() == (workdir / "file").read_bytes()

    def test_existing_file_keeps_its_inode_and_mode(self, workdir, capsys):
        path = workdir / "m.json"
        path.write_bytes(b"z" * 1000)
        path.chmod(0o640)
        before = path.stat()
        assert main([*self.OPT, "--out", "m.json"]) == 0
        after = path.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)

    def test_new_file_mode_follows_the_umask(self, workdir, capsys):
        mask = os.umask(0o027)
        try:
            assert main([*self.OPT, "--out", "m.json"]) == 0
        finally:
            os.umask(mask)
        assert stat.S_IMODE((workdir / "m.json").stat().st_mode) == 0o640

    @pytest.mark.parametrize("command", COMMANDS)
    def test_never_opens_with_o_trunc(self, workdir, monkeypatch, capsys, command):
        # Truncating to zero before the rewrite makes ext4 flush the file, ten
        # times the cost of a short write, and no output shows it.
        opened = []
        real_open = os.open

        def spy(path, flags, *args, **kwargs):
            opened.append((path, flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        for _ in range(2):  # a new file, then an existing one
            assert main([*self.COMMANDS[command], "--out", "out"]) == 0
        assert [path for path, _ in opened if path == "out"]
        assert not [path for path, flags in opened if flags & os.O_TRUNC]

    def test_sweep_opens_before_solving(self, workdir, monkeypatch, capsys):
        def run_sweep(cfg):
            pytest.fail("run_sweep called for an unwritable --out")

        monkeypatch.setattr(L.cli, "run_sweep", run_sweep)
        assert main([*self.SWEEP, "--out", "missing/x.csv"]) == 2
        assert capsys.readouterr() == (
            "", "error: [Errno 2] No such file or directory: 'missing/x.csv'\n")

    def test_failed_sweep_removes_its_file_and_keeps_old_bytes(self, workdir, monkeypatch,
                                                               capsys):
        def run_sweep(cfg):
            raise L.NumericalBreakdown("pivot row lost")

        monkeypatch.setattr(L.cli, "run_sweep", run_sweep)
        (workdir / "old.csv").write_bytes(b"old bytes")
        for name in ("new.csv", "old.csv"):
            assert main([*self.SWEEP, "--out", name]) == 1
            assert capsys.readouterr() == ("", "error: pivot row lost\n")
        assert [p.name for p in workdir.iterdir()] == ["old.csv"]
        assert (workdir / "old.csv").read_bytes() == b"old bytes"


class TestOutputThroughDanglingLink:
    def test_failed_sweep_removes_the_target_and_keeps_the_link(self, tmp_path,
                                                                 monkeypatch, capsys):
        # The link names no file, so the open creates its target; a failed
        # sweep removes that target, not the link.
        def run_sweep(cfg):
            raise L.NumericalBreakdown("pivot row lost")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(L.cli, "run_sweep", run_sweep)
        (tmp_path / "link.csv").symlink_to("target.csv")
        assert main([*TestOutputInPlace.SWEEP, "--out", "link.csv"]) == 1
        assert capsys.readouterr() == ("", "error: pivot row lost\n")
        assert not (tmp_path / "target.csv").exists()
        assert (tmp_path / "link.csv").is_symlink()
        assert [p.name for p in tmp_path.iterdir()] == ["link.csv"]


class TestUnreadPriorFlag:
    """A prior flag the command would not read exits 1 with one stderr line
    naming it, before anything is printed or written."""

    P2, P3 = "0.6,0.4", "0.5,0.3,0.2"

    @pytest.mark.parametrize("argv, err", [
        (["opt", "--utility", "kl", "--eps", "1", "--p0", P2, "--p1", "0.4,0.6",
          "--p", P2], "--p is not read by opt --utility kl, which reads --p0 and --p1"),
        (["opt", "--utility", "mi", "--eps", "1", "--p", P2, "--p0", P2],
         "--p0 is not read by opt --utility mi, which reads --p"),
        (["opt", "--utility", "tv", "--eps", "1", "--p", P2],
         "--p is not read by opt --utility tv, which reads --p0 and --p1"),
        (["mech", "rr", "--k", "3", "--eps", "1", "--p0", P2],
         "--p0 is not read by mech rr, which reads no prior"),
        (["mech", "geometric", "--k", "3", "--eps", "1", "--p", P3],
         "--p is not read by mech geometric, which reads no prior"),
        (["mech", "quaternary", "--eps", "1", "--delta", "0.1", "--p1", P2],
         "--p1 is not read by mech quaternary, which reads no prior"),
        (["mech", "binary", "--eps", "1", "--p0", P2, "--p1", P2, "--p", P2],
         "--p is not read by mech binary, which reads --p0 and --p1"),
        (["mech", "binary-mi", "--eps", "1", "--p", P3, "--p1", P3],
         "--p1 is not read by mech binary-mi, which reads --p"),
        (["check", "m.json", "--eps", "1", "--p0", P3, "--p1", P3, "--p", P3],
         "--p is not read by check's hypothesis-testing suite, which reads --p0 and --p1"),
        (["check", "m.json", "--p1", P3, "--p", P3],
         "--p is not read by check's hypothesis-testing suite, which reads --p0 and --p1"),
    ])
    def test_one_line_naming_it(self, tmp_path, monkeypatch, capsys, argv, err):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.json").write_text(
            L.mechanism_to_json(L.randomized_response(3, 1.0), 1.0, 0.0))
        if argv[0] != "check":
            argv = [*argv, "--out", "out.json"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


class TestOneOutputMechanism:
    """opt at eps = 0 writes a 2 x 1 mechanism, which every command reads:
    its region is the diagonal, and every divergence through it is 0."""

    PRIORS = ["--p0", "0.6,0.4", "--p1", "0.3,0.7"]

    @pytest.fixture
    def path(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert main(["opt", "--utility", "kl", "--eps", "0", *self.PRIORS,
                     "--out", str(path)]) == 0
        capsys.readouterr()
        assert json.loads(path.read_text())["rows"] == [[1.0], [1.0]]
        return str(path)

    def test_region(self, path, capsys):
        assert main(["region", "--mech", path]) == 0
        assert capsys.readouterr() == ("p_md,p_fa\n0,1\n1,0\n", "")

    def test_check_with_priors(self, path, capsys):
        assert main(["check", path, *self.PRIORS]) == 0
        assert capsys.readouterr() == ("""\
k=2 l=1
effective_epsilon=0
is_locally_private(eps=0): True
is_approx_private(eps=0, delta=0): True
is_staircase(eps=0): True
bound pinsker: lhs=0 rhs=0 satisfied=True
bound duchi-symmetrized-kl: lhs=0 rhs=0 satisfied=True
bound symmetrized-kl-high-privacy: lhs=0 rhs=0 satisfied=True
bound rr-kl-low-privacy-residual: lhs=0.133531392625 rhs=10 satisfied=True
""", "")

    def test_exponent(self, path, capsys):
        assert main(["exponent", "--mech", path, *self.PRIORS]) == 0
        assert capsys.readouterr() == (
            "exponent_estimate=0\nkl_rate=0\nbeta_estimate=1\n", "")

    def test_library(self):
        Q = L.Mechanism(np.ones((3, 1)))
        P0 = L.make_distribution([0.5, 0.3, 0.2])
        P1 = L.make_distribution([0.2, 0.3, 0.5])
        assert L.induced_marginal(P0, Q) == L.Distribution(np.ones(1))
        assert L.tradeoff_region(Q, 0, 2).vertices == ((0.0, 1.0), (1.0, 0.0))
        assert L.operational_privacy_check(L.Mechanism(np.ones((2, 1))), 0.0, 0.0)
        assert L.marginal_ratio_bounds(P0, P1, Q, 1.0).lhs == 0.0
        reports = {r.name: r for r in L.converse_suite(P0, P1, Q, 1.0)}
        assert reports["pinsker"].lhs == reports["pinsker"].rhs == 0.0
        assert reports["duchi-symmetrized-kl"].lhs == 0.0
        assert {r.name: r.lhs for r in L.mi_converse_suite(P0, Q, 1.0)}["mi-vs-entropy"] == 0.0
        r = L.run_exponent_sim(P0, P1, Q, n=200, trials=10, alpha_star=0.05, seed=1)
        assert (r.exponent, r.kl_rate, r.beta) == (0.0, 0.0, 1.0)


class TestParser:
    # The --help text of ldpopt and of each subcommand at 80 columns.
    # argparse's layout changes between Python releases.
    HELP = {
        "ldpopt": """\
usage: ldpopt [-h] {mech,opt,check,region,sweep,exponent} ...

Optimal mechanisms for local differential privacy on finite alphabets.

positional arguments:
  {mech,opt,check,region,sweep,exponent}
    mech                construct a named mechanism and emit JSON
    opt                 solve the pattern LP and emit the optimal mechanism
    check               validate a mechanism file and its privacy claims
    region              emit an error-region boundary as CSV
    sweep               run a benchmark sweep over random priors
    exponent            Monte-Carlo Chernoff-Stein exponent estimate

options:
  -h, --help            show this help message and exit
""",
        "mech": """\
usage: ldpopt mech [-h] [--k K] --eps EPS [--delta DELTA] [--p0 P0] [--p1 P1]
                   [--p P] [--out OUT]
                   {binary,binary-mi,rr,geometric,quaternary}

positional arguments:
  {binary,binary-mi,rr,geometric,quaternary}

options:
  -h, --help            show this help message and exit
  --k K
  --eps EPS
  --delta DELTA
  --p0 P0
  --p1 P1
  --p P
  --out OUT
""",
        "opt": """\
usage: ldpopt opt [-h] --utility {kl,tv,chi2,mi} --eps EPS [--p0 P0] [--p1 P1]
                  [--p P] [--out OUT]

options:
  -h, --help            show this help message and exit
  --utility {kl,tv,chi2,mi}
  --eps EPS
  --p0 P0
  --p1 P1
  --p P
  --out OUT
""",
        "check": """\
usage: ldpopt check [-h] [--eps EPS] [--delta DELTA] [--p0 P0] [--p1 P1]
                    [--p P]
                    mechanism

positional arguments:
  mechanism

options:
  -h, --help     show this help message and exit
  --eps EPS
  --delta DELTA
  --p0 P0
  --p1 P1
  --p P
""",
        "region": """\
usage: ldpopt region [-h] [--mech MECH] [--x0 X0] [--x1 X1] [--eps EPS]
                     [--delta DELTA] [--out OUT]

options:
  -h, --help     show this help message and exit
  --mech MECH
  --x0 X0
  --x1 X1
  --eps EPS
  --delta DELTA
  --out OUT
""",
        "sweep": """\
usage: ldpopt sweep [-h] [--config CONFIG] [--seed SEED] [--k K]
                    [--num-instances NUM_INSTANCES] [--eps-grid EPS_GRID]
                    [--utility {kl,tv,chi2,mi}] [--mechanisms MECHANISMS]
                    [--out OUT]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON file with the sweep configuration
  --seed SEED
  --k K
  --num-instances NUM_INSTANCES
  --eps-grid EPS_GRID
  --utility {kl,tv,chi2,mi}
  --mechanisms MECHANISMS
  --out OUT
""",
        "exponent": """\
usage: ldpopt exponent [-h] --p0 P0 --p1 P1 [--eps EPS]
                       [--mechanism {binary,rr}] [--mech MECH] [--n N]
                       [--trials TRIALS] [--alpha ALPHA] [--seed SEED]

options:
  -h, --help            show this help message and exit
  --p0 P0
  --p1 P1
  --eps EPS
  --mechanism {binary,rr}
  --mech MECH
  --n N
  --trials TRIALS
  --alpha ALPHA
  --seed SEED
""",
    }

    @pinned_versions
    @pytest.mark.parametrize("command", list(HELP))
    def test_help_text(self, monkeypatch, capsys, command):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [] if command == "ldpopt" else [command]
        with pytest.raises(SystemExit) as info:
            main([*argv, "--help"])
        assert info.value.code == 0
        assert capsys.readouterr() == (self.HELP[command], "")


    @pytest.mark.parametrize("argv", [["opt", "--utility", "kl"],
                                      ["region", "--eps", "x"]])
    def test_usage_error_exits_2(self, capsys, argv):
        # argparse's usage errors share exit code 2 with I/O errors.
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: ldpopt {argv[0]} ")


class TestOneParse:
    """main parses a command's flags once, with the command's own parser,
    and behaves as the top-level parser's parse_args does."""

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.json").write_text(
            L.mechanism_to_json(L.randomized_response(2, 1.0), 1.0, 0.0))
        return tmp_path

    # One short run of each command.
    COMMANDS = {
        "mech": ["mech", "rr", "--k", "3", "--eps", "1"],
        "opt": ["opt", "--utility", "kl", "--eps", "1", "--p0", "0.7,0.3",
                "--p1", "0.3,0.7"],
        "check": ["check", "m.json", "--p0", "0.7,0.3", "--p1", "0.3,0.7"],
        "region": ["region", "--mech", "m.json"],
        "sweep": ["sweep", "--k", "2", "--num-instances", "1", "--eps-grid", "1",
                  "--utility", "kl"],
        "exponent": ["exponent", "--p0", "0.7,0.3", "--p1", "0.3,0.7", "--n", "100",
                     "--trials", "2"],
    }
    # Commands run as given; each is parsed by the subparser alone.
    CORPUS = [
        *COMMANDS.values(),
        ["mech", "quaternary", "--eps=0.5", "--delta", "0.1", "--out", "q.json"],
        ["opt", "--eps", "2", "--utility", "mi", "--p", "0.2,0.3,0.5"],
        ["check", "--eps", "1", "m.json", "--delta", "0.0"],
        ["region", "--eps", "1", "--delta", "0.1", "--x0", "1", "--x1", "0"],
        ["region", "--ep", "1"],
        ["mech", "rr", "--eps", "1", "--k", "3", "--k", "4"],
    ]
    # Usage errors and help, each exiting through argparse.
    EXITS = [
        ["nope"],                                    # an unknown command
        ["region", "--eps", "1", "--bogus", "x"],    # unrecognized trailing arguments
        ["mech", "rr", "--eps", "1", "--", "x"],
        ["opt", "--utility", "kl"],                  # a missing required flag
        ["opt", "--utility", "kl", "--eps", "x"],    # a bad type= value
        ["opt", "-h"],
        [],
        ["-h"],
        ["--", "opt"],
    ]

    def _parses(self, monkeypatch) -> list:
        calls = []
        real = argparse.ArgumentParser.parse_known_args

        def spy(parser, *args, **kwargs):
            namespace, extras = real(parser, *args, **kwargs)
            calls.append(namespace)
            return namespace, extras

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        return calls

    @pytest.mark.parametrize("command", COMMANDS)
    def test_parses_once(self, workdir, monkeypatch, capsys, command):
        calls = self._parses(monkeypatch)
        assert main(self.COMMANDS[command]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
    def test_same_namespace_as_parse_args(self, workdir, monkeypatch, capsys, argv):
        want = vars(L.cli.build_parser().parse_args(argv))
        calls = self._parses(monkeypatch)
        assert main(argv) == 0
        assert vars(calls[-1]) == want

    @pytest.mark.parametrize("argv", EXITS, ids=" ".join)
    def test_same_exit_as_parse_args(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as want:
            L.cli.build_parser().parse_args(argv)
        want_output = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert got.value.code == want.value.code
        assert capsys.readouterr() == want_output


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
