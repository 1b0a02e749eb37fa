"""End-to-end CLI coverage: byte-stable reports, exit codes, usage errors."""

import dataclasses
import io
import json
import pathlib
import re
import sys
import tempfile
import threading
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from verblunsky import alphamoments, cli, montecarlo, opuc

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# Exact-arithmetic commands whose reports must never drift by a byte.  The
# sampling commands are excluded on purpose: their float results are allowed
# to differ in the last ulp across numpy versions and platforms.
GOLDEN_CASES = {
    "variance_n3": ["variance", "--n", "3"],
    "identity_deg1": ["identity", "--p", "1:1", "--q", "1:1", "--beta", "1", "--max-index", "10000"],
    "count_basic": ["count", "--p", "1:1", "--q", "1:1", "--m", "1:1,2:1"],
    "gaussian_moment_22": ["gaussian-moment", "--p", "2:2", "--q", "2:2"],
    "gaussian_moment_raw": ["gaussian-moment", "--p", "1:1,2:1", "--q", "1:1,2:1", "--raw"],
    "alpha_moment_deg1": ["alpha-moment", "--p", "1:1", "--q", "1:1", "--beta", "2", "--max-index", "50"],
    "nice_identity_n1": ["nice-identity", "--n", "1", "--beta", "1", "--max-index", "100"],
    "jacobian_exact": ["jacobian", "--exact", "--alpha", "1/4+1/4i,1/8"],
}


def _run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenReports:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_bytes_stable(self, capsys, name):
        code, out, _ = _run(capsys, GOLDEN_CASES[name])
        assert code == 0
        assert out == (GOLDEN_DIR / f"{name}.json").read_text()

    def test_parser_reused_across_runs(self, capsys):
        # One table serves the process; a usage error, and the exact
        # Jacobian clearing its namespace's tol, must leave no trace.
        for round_ in range(2):
            for name, argv in sorted(GOLDEN_CASES.items()):
                code, out, _ = _run(capsys, argv)
                assert code == 0
                assert out == (GOLDEN_DIR / f"{name}.json").read_text(), (round_, name)
            if round_ == 0:
                assert _run(capsys, ["variance", "--n", "x"])[0] == 2
                exact = ["jacobian", "--exact", "--alpha", "1/4", "--tol", "0.5"]
                assert _run(capsys, exact)[0] == 0
                _, out, _ = _run(capsys, ["jacobian", "--alpha", "0.3+0.1i,0.2"])
                assert json.loads(out)["params"]["tol"] == 1e-6

    def test_variance_pinned_polynomial(self, capsys):
        _, out, _ = _run(capsys, ["variance", "--n", "3"])
        rep = json.loads(out)
        assert rep["results"]["polynomial"] == {"3": "1/6", "2": "1/2", "1": "1/3"}
        assert rep["status"] == "PASS"

    def test_identity_pinned_tail(self, capsys):
        _, out, _ = _run(
            capsys, ["identity", "--p", "1:1", "--q", "1:1", "--beta", "1", "--max-index", "10000"]
        )
        rep = json.loads(out)
        assert [c["tail"] for c in rep["results"]["checks"]] == ["1/10001"]
        assert rep["status"] == "PASS"

    def test_count_pinned_results(self, capsys):
        _, out, _ = _run(capsys, ["count", "--p", "1:1", "--q", "1:1", "--m", "1:1,2:1"])
        rep = json.loads(out)
        assert rep["results"] == {"tuples": 1, "graphs": 1}
        assert rep["status"] == "PASS"

    def test_gaussian_moment_pinned_off_diagonal(self, capsys):
        out = _run(capsys, ["gaussian-moment", "--p", "1:2", "--q", "2:1"])[1]
        assert json.loads(out)["results"]["moment"] == {"2": "1/1"}

    def test_pushforward_pinned_targets(self, capsys):
        argv = ["pushforward", "--beta", "1", "--modes", "0", "--radius", "0.5", "--samples", "2",
                "--seed", "0", "--max-alpha", "2"]
        rows = json.loads(_run(capsys, argv)[1])["results"]["moments"]
        assert [row["target"] for row in rows] == [1 / 2, 1 / 3]


class TestReportShape:
    def test_schema_and_sections(self, capsys):
        _, out, _ = _run(capsys, ["variance", "--n", "2"])
        rep = json.loads(out)
        assert rep["schema"] == 1
        assert set(rep) == {"schema", "command", "params", "results", "status", "diagnostics"}

    def test_threads_recorded(self, capsys):
        _, out, _ = _run(capsys, ["--threads", "2", "variance", "--n", "2"])
        assert json.loads(out)["params"]["threads"] == 2

    # Reports that no golden file covers: every parsed option is echoed,
    # rationals as "num/den", --exact as mode, and an unset --dump-csv not at all.
    @pytest.mark.parametrize("argv, params", [
        (["szego-check", "--alpha", "0.3,0.2+0.1i", "--order", "200"],
         {"alpha": "0.3,0.2+0.1i", "order": 200, "tol": 1e-8, "threads": 1}),
        (["roundtrip", "--alpha", "0.4,0.1-0.2i,0.25i", "--grid", "4096"],
         {"alpha": "0.4,0.1-0.2i,0.25i", "grid": 4096, "tol": 1e-9, "threads": 1}),
        (["jacobian", "--alpha", "0.3+0.1i,0.2"],
         {"alpha": "0.3+0.1i,0.2", "mode": "finite-difference", "tol": 1e-6, "threads": 1}),
        (["jacobian", "--exact", "--alpha", "1/4+1/4i,1/8", "--tol", "0.5"],
         {"alpha": "1/4+1/4i,1/8", "mode": "exact", "threads": 1}),
        (["--threads", "2", "mc", "--side", "alpha", "--p", "1:1", "--q", "1:1", "--beta", "1/2",
          "--samples", "30", "--seed", "1", "--n-trunc", "8"],
         {"side": "alpha", "p": "1:1", "q": "1:1", "beta": "1/2", "n_trunc": 8, "samples": 30,
          "seed": 1, "threads": 2}),
        (["pushforward", "--beta", "3/2", "--modes", "16", "--radius", "0.9", "--samples", "40",
          "--seed", "2", "--max-alpha", "2"],
         {"beta": "3/2", "modes": 16, "radius": 0.9, "samples": 40, "max_alpha": 2, "seed": 2,
          "threads": 1}),
    ])
    def test_params_pinned(self, capsys, argv, params):
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert json.loads(out)["params"] == params

    def test_mc_params_with_dump_csv(self, capsys, tmp_path):
        path = str(tmp_path / "mc.csv")
        _, out, _ = _run(capsys, ["mc", "--side", "alpha", "--p", "1:1", "--q", "1:1", "--beta",
                                  "1", "--samples", "30", "--seed", "1", "--n-trunc", "8",
                                  "--dump-csv", path])
        assert json.loads(out)["params"] == {
            "side": "alpha", "p": "1:1", "q": "1:1", "beta": "1/1", "n_trunc": 8, "samples": 30,
            "seed": 1, "dump_csv": path, "threads": 1,
        }

    def test_multiple_beta_tail_map(self, capsys):
        _, out, _ = _run(
            capsys,
            ["identity", "--p", "1:1", "--q", "1:1", "--beta", "1,2", "--max-index", "100"],
        )
        rep = json.loads(out)
        checks = rep["results"]["checks"]
        assert [c["beta"] for c in checks] == ["1/1", "2/1"]
        assert all(c["tail"] == c["difference"] for c in checks)
        assert rep["diagnostics"] == {}

    def test_mc_mean_is_complex_pair(self, capsys):
        code, out, _ = _run(
            capsys,
            ["mc", "--side", "alpha", "--p", "1:1", "--q", "1:1", "--beta", "1",
             "--samples", "400", "--seed", "5", "--n-trunc", "20"],
        )
        assert code == 0
        rep = json.loads(out)
        mean = rep["results"]["mean"]
        assert isinstance(mean, list) and len(mean) == 2
        assert rep["diagnostics"]["rng"].startswith("numpy.random PCG64")


class TestSamplingDeterminism:
    MC = ["mc", "--side", "gaussian", "--p", "1:1", "--q", "1:1", "--beta", "1",
          "--samples", "300", "--seed", "9", "--n-trunc", "12"]
    PUSH = ["pushforward", "--beta", "1", "--modes", "16", "--radius", "0.9",
            "--samples", "40", "--seed", "2", "--max-alpha", "2"]

    def test_mc_run_twice_identical(self, capsys):
        _, out1, _ = _run(capsys, self.MC)
        _, out2, _ = _run(capsys, self.MC)
        assert out1 == out2

    def test_pushforward_run_twice_identical(self, capsys):
        code, out1, _ = _run(capsys, self.PUSH)
        _, out2, _ = _run(capsys, self.PUSH)
        assert code == 0
        assert out1 == out2
        rep = json.loads(out1)
        assert rep["status"] == "EXPERIMENTAL"
        assert [row["n"] for row in rep["results"]["moments"]] == [1, 2]
        assert rep["diagnostics"]["grid"] == 1024


def _lift_nice_lhs(monkeypatch):
    """Make nice-identity report lhs one tail above rhs."""
    check = cli.nice_identity_check(1, 1, 100)
    lifted = dataclasses.replace(check, gaussian_value=check.alpha_value - check.tail)
    monkeypatch.setattr(cli, "nice_identity_check", lambda n, b, m: lifted)


FAIL_JACOBIAN = ["jacobian", "--alpha", "0.3,0.2", "--tol", "1e-300"]
NICE_N1 = GOLDEN_CASES["nice_identity_n1"]


class TestExitCodes:
    def test_fail_is_one(self, capsys):
        code, out, _ = _run(capsys, FAIL_JACOBIAN)
        assert code == 1
        assert json.loads(out)["status"] == "FAIL"

    def test_every_comparing_check_can_fail(self, capsys, monkeypatch):
        # Each status that compares two sides says FAIL, exit 1, when one side is
        # patched apart; the float Jacobian's gap is relative: 2, not 2e-9.
        monkeypatch.setattr(cli, "count_tuples", lambda p, q, m: 0)
        monkeypatch.setattr(opuc, "jacobian_determinant_exact", lambda a: (1, Fraction(1, 2)))
        monkeypatch.setattr(opuc, "jacobian_determinant", lambda a: (3e-9, 1e-9))
        monkeypatch.setattr(opuc, "verblunsky_from_moments", lambda c: [0.5, 0.101])
        for argv in (["count", "--p", "1:1", "--q", "1:1", "--m", "1:1,2:1"],
                     ["jacobian", "--exact", "--alpha", "1/2"], ["jacobian", "--alpha", "0.5"],
                     ["szego-check", "--alpha", "0.5", "--order", "1", "--tol", "0"],
                     ["roundtrip", "--alpha", "0.5,0.1", "--grid", "16"]):
            code, out, _ = _run(capsys, argv)
            assert (code, json.loads(out)["status"]) == (1, "FAIL"), argv

    def test_mc_fails_ten_standard_errors_off(self, capsys, monkeypatch):
        argv = ["mc", "--side", "gaussian", "--p", "1:1", "--q", "1:1", "--beta", "1",
                "--samples", "200", "--seed", "1"]
        res = json.loads(_run(capsys, argv)[1])["results"]
        off = res["mean"][0] + 10 * res["stderr"]
        monkeypatch.setattr(montecarlo, "mc_reference", lambda *args: off)
        code, out, _ = _run(capsys, argv)
        assert (code, json.loads(out)["status"]) == (1, "FAIL")

    def test_nice_identity_partial_sum_above_limit_fails(self, capsys, monkeypatch):
        # lhs one tail above rhs: the proved limit, lhs + tail, is not rhs.
        _lift_nice_lhs(monkeypatch)
        code, out, _ = _run(capsys, NICE_N1)
        rep = json.loads(out)
        assert code == 1
        assert rep["status"] == "FAIL"
        assert rep["diagnostics"]["difference"] == rep["diagnostics"]["tail"]

    def test_true_identity_at_small_max_index_passes(self, capsys):
        # S(1) = 0 here, so the last shell is 0: the retired 10x tail rule
        # FAILed this true identity.  Partial sum plus exact tail is rhs.
        argv = ["nice-identity", "--n", "2", "--beta", "1/2", "--max-index", "1"]
        code, out, _ = _run(capsys, argv)
        rep = json.loads(out)
        assert (code, rep["status"]) == (0, "PASS")
        assert rep["results"] == {"lhs": "0/1", "rhs": "3/1"}
        assert rep["diagnostics"] == {"difference": "-3/1", "tail": "3/1"}

    @pytest.mark.parametrize("argv", [
        ["identity", "--p", "1:1,2:1", "--q", "3:1", "--beta", "1/2,2/3", "--max-index", "7"],
        ["nice-identity", "--n", "2", "--beta", "1/2", "--max-index", "7"],
        ["alpha-moment", "--p", "1:2", "--q", "2:1", "--beta", "2/3", "--max-index", "7"],
    ])
    def test_unproved_limit_is_a_fail(self, capsys, monkeypatch, argv):
        # A proof that fails leaves the swept value and no tail: a FAIL
        # report with "tail": null and exit 1, not a traceback.
        proved = json.loads(_run(capsys, argv)[1])
        monkeypatch.setattr(alphamoments, "_prove", lambda *args: None)
        alphamoments._certificate.cache_clear()
        try:
            code, out, err = _run(capsys, argv)
        finally:
            alphamoments._certificate.cache_clear()
        rep = json.loads(out)
        assert (code, rep["status"], err) == (1, "FAIL", "")
        assert '"tail": null' in out
        if argv[0] == "identity":
            checks = rep["results"]["checks"]
            assert checks == [
                {**c, "tail": None, "passed": False} for c in proved["results"]["checks"]]
            assert [c["beta"] for c in checks] == ["1/2", "2/3"]
            assert rep["diagnostics"] == {}
        else:
            assert rep["results"] == proved["results"]
            assert rep["diagnostics"]["tail"] is None

    @settings(max_examples=40)
    @given(argv=st.sampled_from([*GOLDEN_CASES.values(), FAIL_JACOBIAN]), lift=st.booleans())
    def test_exit_one_iff_fail(self, argv, lift):
        # lift turns the golden nice-identity run into the FAIL case above.
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
            if lift:
                _lift_nice_lhs(mp)
            code = cli.run(argv)
        assert (code == 1) == (json.loads(out.getvalue())["status"] == "FAIL")

    def test_count_degree_mismatch_is_zero_pass(self, capsys):
        code, out, _ = _run(capsys, ["count", "--p", "1:1", "--q", "2:1", "--m", "1:1,2:1"])
        rep = json.loads(out)
        assert code == 0
        assert rep["results"] == {"tuples": 0, "graphs": 0}
        assert rep["status"] == "PASS"

    def test_count_all_indices_once_is_zero_pass(self, capsys):
        m = ",".join(f"{i}:1" for i in range(12))
        code, out, _ = _run(capsys, ["count", "--p", "1:5", "--q", "1:5", "--m", m])
        rep = json.loads(out)
        assert code == 0
        assert rep["results"] == {"tuples": 0, "graphs": 0}
        assert rep["status"] == "PASS"

    @pytest.mark.parametrize("pq, m, tuples", [
        ("1:1", "0:1,100:1", 0), ("1:1", "0:1,100000000:1", 0),
        ("1:1", "0:1,1000000000000:1", 0),
        ("1:2", "5:2,6:2", 1), ("1:2", "100000000:2,100000001:2", 1),
        ("1:2", "2:1,3:1,40:1,41:1", 4), ("1:2", "2:1,3:1,1000000000000:1,1000000000001:1", 4),
    ])
    def test_count_at_far_indices(self, capsys, pq, m, tuples):
        # Levels where m is 0 and no slot is open leave every state as it is,
        # so a far index costs no more than a near one.
        code, out, _ = _run(capsys, ["count", "--p", pq, "--q", pq, "--m", m])
        assert code == 0
        assert json.loads(out)["results"] == {"tuples": tuples, "graphs": tuples}

    @pytest.mark.parametrize("argv", [
        ["szego-check", "--alpha", "0.1", "--order", "5", "--tol", "nan"],
        ["jacobian", "--alpha", "0.5", "--tol", "-1"],
        ["roundtrip", "--alpha", "0.5", "--grid", "64", "--tol", "inf"],
        ["--threads", "-3", "mc", "--side", "gaussian", "--p", "1:1", "--q", "1:1",
         "--beta", "1", "--samples", "10", "--seed", "1"],
        ["--threads", "0", "variance", "--n", "3"],
        ["pushforward", "--beta", "1", "--modes", "-2", "--radius", "0.5",
         "--samples", "10", "--seed", "1"],
        ["mc", "--side", "alpha", "--p", "1:1", "--q", "1:1", "--beta", "1e400",
         "--samples", "10", "--seed", "1"],
        ["pushforward", "--beta", "1e400", "--modes", "4", "--radius", "0.5",
         "--samples", "10", "--seed", "1"],
        ["mc", "--side", "gaussian", "--p", "1:1", "--q", "1:1", "--beta", "1e-320",
         "--samples", "10", "--seed", "1"],
        ["mc", "--side", "gaussian", "--p", "1:1", "--q", "1:1", "--beta", "0",
         "--samples", "10", "--seed", "1"],
        ["mc", "--side", "alpha", "--p", "1:1", "--q", "1:1", "--beta", "0",
         "--samples", "10", "--seed", "1"],
        ["mc", "--side", "gaussian", "--p", "1:1", "--q", "1:1", "--beta", "1",
         "--samples", "1", "--seed", "1"],
        ["pushforward", "--beta", "1", "--modes", "4", "--radius", "0.5",
         "--samples", "1", "--seed", "1"],
        ["mc", "--side", "alpha", "--p", "2:2", "--q", "2:2", "--beta", "1",
         "--n-trunc", "20000", "--samples", "2", "--seed", "-1"],
        ["pushforward", "--beta", "1", "--modes", "4", "--radius", "0.5",
         "--samples", "10", "--seed", "-1"],
    ])
    def test_out_of_range_option_exits_two(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1

    @pytest.mark.parametrize("command", [
        ["mc", "--side", "gaussian", "--p", "1:1", "--q", "1:1", "--samples", "2", "--seed", "0"],
        ["mc", "--side", "alpha", "--p", "1:1", "--q", "1:1", "--samples", "2", "--seed", "0"],
        ["pushforward", "--modes", "4", "--radius", "0.5", "--samples", "2", "--seed", "0"],
    ])
    @pytest.mark.parametrize("beta", ["1e400", "1e-400"])
    def test_beta_outside_float_range_is_named(self, capsys, command, beta):
        # The samplers compute in floats: a --beta that overflows a float, or
        # a positive one that rounds to 0.0, is named with the float range.
        code, out, err = _run(capsys, [*command, "--beta", beta])
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --beta: '{beta}' is outside the float range: "
                            "|beta| from 5e-324 to 1.8e308\n")

    def test_mc_reference_overflow_exits_before_drawing(self, capsys, monkeypatch):
        # The exact reference (about 1e400 here) is computed before any draw,
        # so the overflow costs no samples and prints no numpy warnings.
        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before computing the reference")

        monkeypatch.setattr(montecarlo, "_draw", no_draws)
        code, out, err = _run(capsys, [
            "mc", "--side", "gaussian", "--p", "2:2", "--q", "2:2", "--beta", "1e-100",
            "--samples", "100000", "--seed", "1",
        ])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "exact gaussian-side reference" in err and "beta = 1e-100" in err

    def test_sample_count_checked_before_reference(self, capsys, monkeypatch):
        # --samples 1 is rejected while parsing, before the exact reference
        # sweeps its 20000 levels.
        def no_reference(*args, **kwargs):
            raise AssertionError("computed the reference before checking --samples")

        monkeypatch.setattr(montecarlo, "mc_reference", no_reference)
        code, out, err = _run(capsys, [
            "mc", "--side", "alpha", "--p", "2:2", "--q", "2:2", "--beta", "1",
            "--n-trunc", "20000", "--samples", "1", "--seed", "1",
        ])
        assert code == 2
        assert out == ""
        assert "--samples" in err

    @pytest.mark.parametrize("command", [
        ["mc", "--side", "alpha", "--p", "2:2", "--q", "2:2", "--beta", "1",
         "--n-trunc", "20000", "--samples", "2"],
        ["pushforward", "--beta", "1", "--modes", "4", "--radius", "0.5", "--samples", "10"],
    ])
    def test_negative_seed_checked_before_sampling(self, capsys, monkeypatch, command):
        # A negative --seed is rejected while parsing, by a message that names
        # it, before the exact reference or any draw.
        def no_work(*args, **kwargs):
            raise AssertionError("worked before checking --seed")

        monkeypatch.setattr(montecarlo, "mc_reference", no_work)
        monkeypatch.setattr(montecarlo, "pushforward_experiment", no_work)
        code, out, err = _run(capsys, [*command, "--seed", "-1"])
        assert code == 2
        assert out == ""
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"verblunsky {command[0]}: error: argument --seed: need an integer >= 0, got '-1'"
        ]

    def test_count_size_guard_exits_two(self, capsys):
        code, out, err = _run(capsys, ["count", "--p", "1:1", "--q", "1:1", "--m", "0:13"])
        assert code == 2
        assert out == ""
        assert "guarded to |m| <= 12" in err

    def _no_table(self, monkeypatch):
        def no_table(state, n_p):
            raise AssertionError("count walked the transfer table")

        monkeypatch.setattr(alphamoments, "_transitions", no_table)

    def test_count_more_slots_than_indices_is_zero_without_walk(self, capsys, monkeypatch):
        # 26 slots cannot fill 12 indices; the walk would start with 2**26 flips.
        self._no_table(monkeypatch)
        code, out, _ = _run(capsys, ["count", "--p", "1:13", "--q", "1:13", "--m", "0:12"])
        assert code == 0
        rep = json.loads(out)
        assert rep["results"] == {"tuples": 0, "graphs": 0}
        assert rep["status"] == "PASS"

    @pytest.mark.parametrize("pq", ["1:13", "1:1"])
    def test_count_size_guard_before_tuples(self, capsys, monkeypatch, pq):
        self._no_table(monkeypatch)
        code, out, err = _run(capsys, ["count", "--p", pq, "--q", pq, "--m", "0:13"])
        assert code == 2
        assert out == ""
        assert "guarded to |m| <= 12" in err

    def test_experimental_is_zero(self, capsys):
        code, out, _ = _run(capsys, TestSamplingDeterminism.PUSH)
        assert code == 0
        assert json.loads(out)["status"] == "EXPERIMENTAL"

    def test_malformed_multi_index_names_token(self, capsys):
        code, out, err = _run(capsys, ["gaussian-moment", "--p", "2:0", "--q", "1:1"])
        assert code == 2
        assert out == ""
        assert "2:0" in err

    def test_no_command(self, capsys):
        assert _run(capsys, [])[0] == 2

    def test_unknown_command(self, capsys):
        assert _run(capsys, ["laplace"])[0] == 2

    def test_domain_error_reports_and_exits_two(self, capsys):
        code, _, err = _run(
            capsys,
            ["mc", "--side", "alpha", "--p", "1:1", "--q", "1:1", "--beta", "1",
             "--samples", "10", "--seed", "0", "--n-trunc", "2"],
        )
        assert code == 2
        assert err.startswith("error:")

    def test_unwritable_dump_csv_exits_two(self, capsys, tmp_path, monkeypatch):
        # The dump path is opened before sampling, so a bad one fails at once.
        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before opening the dump file")

        monkeypatch.setattr(montecarlo, "_draw", no_draws)
        path = tmp_path / "missing" / "x.csv"
        before = threading.active_count()
        code, out, err = _run(
            capsys,
            ["mc", "--side", "alpha", "--p", "1:1", "--q", "1:1", "--beta", "1",
             "--samples", "10", "--seed", "0", "--n-trunc", "8", "--dump-csv", str(path)],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: [Errno 2] No such file or directory") and str(path) in err
        assert threading.active_count() == before

    def test_alpha_path_is_directory_exits_two(self, capsys, tmp_path):
        code, out, err = _run(capsys, ["jacobian", "--alpha", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(tmp_path) in err

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_empty_alpha_file_exits_two(self, capsys, tmp_path, exact):
        # Every --alpha reader rejects an empty list, the exact one included.
        path = tmp_path / "alpha.json"
        path.write_text("[]")
        code, out, err = _run(capsys, ["jacobian", *exact, "--alpha", str(path)])
        assert code == 2
        assert out == ""
        assert err == "error: empty alpha list\n"

    @pytest.mark.parametrize("alpha", ["2,1/2", "1", "1/4,3/5+4/5i"])
    def test_exact_jacobian_rejects_alpha_outside_disk(self, capsys, alpha):
        code, out, err = _run(capsys, ["jacobian", "--exact", "--alpha", alpha])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "|alpha_n| < 1" in err

    @pytest.mark.parametrize("order", ["-1", "0", "1"])
    def test_szego_check_order_below_length(self, capsys, order):
        code, out, err = _run(capsys, ["szego-check", "--alpha", "0.3,0.2", "--order", order])
        assert code == 2
        assert out == ""
        assert err == f"error: order must be at least the number of coefficients (2), got {order}\n"

    @pytest.mark.parametrize("argv, target", [
        (["szego-check", "--alpha=0.3", "--order", "1000000000000"], "szego_identity_gap"),
        (["roundtrip", "--alpha=0.3", "--grid", "1000000000000"], "measure_density"),
    ])
    @pytest.mark.parametrize("message", ["Unable to allocate 14.6 TiB", ""])
    def test_out_of_memory_exits_two(self, capsys, monkeypatch, argv, target, message):
        # Exit 1 means FAIL, so an input too large for memory is a usage error.
        # The allocation is simulated: the test never asks for the memory.
        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(opuc, target, no_memory)
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message or 'MemoryError'}\n"

    def test_bad_rational(self, capsys):
        code, _, err = _run(
            capsys, ["alpha-moment", "--p", "1:1", "--q", "1:1", "--beta", "x", "--max-index", "5"]
        )
        assert code == 2
        assert "x" in err

    def test_bad_alpha_list(self, capsys):
        code, _, err = _run(capsys, ["szego-check", "--alpha", "0.3+?i", "--order", "10"])
        assert code == 2
        assert "alpha" in err

    @pytest.mark.parametrize("argv, message", [
        (["nice-identity", "--n", "1", "--beta", "0", "--max-index", "5"],
         "beta must be a positive rational"),
        (["nice-identity", "--n", "1", "--beta", "-1", "--max-index", "5"],
         "beta must be a positive rational"),
        (["identity", "--p", "1:1", "--q", "1:1", "--beta", "0", "--max-index", "3"],
         "beta must be a positive rational"),
        (["nice-identity", "--n", "1", "--beta", "1", "--max-index", "-1"],
         "max_index must be >= 0"),
        (["nice-identity", "--n", "0", "--beta", "1", "--max-index", "5"], "need n >= 1"),
        (["variance", "--n", "0"], "variance_pmf needs n >= 1"),
        # Results too long to print, though every input prints.
        (["alpha-moment", "--p", "1:4", "--q", "1:4", "--beta", "1e400", "--max-index", "60"],
         "the exact result has more digits than can be printed"),
        (["nice-identity", "--n", "1", "--beta", "1e4000", "--max-index", "1"],
         "the exact result has more digits than can be printed"),
        # The smallest n whose n! has more than 4300 digits.
        (["variance", "--n", "1559"], "the exact result has more digits than can be printed"),
        # A value with a leading minus is a value, not an option.
        (["nice-identity", "--n", "1", "--beta", "-1/2", "--max-index", "5"],
         "beta must be a positive rational"),
    ])
    def test_exact_sweep_arguments_exit_two(self, capsys, argv, message):
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["jacobian", "--alpha=1/0"],
        ["jacobian", "--exact", "--alpha=1/0"],
        ["szego-check", "--order", "5", "--alpha=1/0i"],
        ["roundtrip", "--grid", "64", "--alpha=0.1+1/0i"],
        ["szego-check", "--order", "5", "--alpha=1e400"],
        ["jacobian", "--alpha=1e400"],
    ])
    def test_unparsable_alpha_value_exits_two(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad alpha list") and err.count("\n") == 1

    DOUBLE_DASH = {
        "--tol": ["szego-check", "--alpha", "0.3", "--order", "10", "--tol=--"],
        "--alpha": ["jacobian", "--alpha=--"],
        "--threads": ["--threads=--", "variance", "--n", "3"],
        "--n": ["variance", "--n=--"],
        "--beta": ["identity", "--p", "1:1", "--q", "1:1", "--beta=--", "--max-index", "3"],
        "--samples": ["mc", "--side", "alpha", "--p", "1:1", "--q", "1:1", "--beta", "1",
                      "--samples=--", "--seed", "0"],
        "--max-alpha": ["pushforward", "--beta", "1", "--modes", "8", "--radius", "0.5",
                        "--samples", "3", "--seed", "0", "--max-alpha=--"],
    }

    @pytest.mark.parametrize("option", sorted(DOUBLE_DASH))
    def test_explicit_double_dash_value_exits_two(self, capsys, option):
        # "--" is never a value: taken as one (an argparse parser stored an
        # empty list), every command crashed or PASSed echoing threads [].
        code, out, err = _run(capsys, self.DOUBLE_DASH[option])
        assert code == 2
        assert out == ""
        assert err.endswith(f"error: argument {option}: expected one argument\n")

    @pytest.mark.parametrize("option", sorted(DOUBLE_DASH))
    def test_double_dash_token_is_no_value(self, capsys, option):
        # "--opt --" as two tokens: "--" starts with "--", so it is no value.
        argv = [part for tok in self.DOUBLE_DASH[option]
                for part in ([option, "--"] if tok == f"{option}=--" else [tok])]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {option}: expected one argument\n")


def _words(text):
    return set(re.split(r"[\s{},\[\]]+", text))


class TestCommandLine:
    """What the table-driven parser keeps of argparse's command line: help,
    unique prefixes, the two-line usage errors and their messages, and
    values with a leading minus, which argparse took for options."""

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", [None, *cli.COMMANDS])
    def test_help_exits_zero_and_names_the_table(self, capsys, command, flag):
        code, out, err = _run(capsys, [flag] if command is None else [command, flag])
        assert (code, err) == (0, "")
        names = [*cli.GLOBAL_OPTIONS, *cli.COMMANDS] if command is None else cli.COMMANDS[command][2]
        assert set(names) <= _words(out)

    def test_main_runs_sys_argv_and_exits_with_its_status(self, capsys, monkeypatch):
        want = _run(capsys, ["variance", "--n", "2"])
        monkeypatch.setattr(sys, "argv", ["verblunsky", "variance", "--n", "2"])
        with pytest.raises(SystemExit) as done:
            cli.main()
        assert (done.value.code, *capsys.readouterr()) == want

    def test_edge_values_parse_as_documented(self, capsys):
        pq = ["--p", "1:1", "--q", "1:1"]
        for argv, code, err in [
            (["alpha-moment", *pq, "--beta", "1/0", "--max-index", "5"], 2,
             "argument --beta: not a rational: '1/0'"),
            (["pushforward", "--beta", "0", "--modes", "0", "--radius", "0.5", "--samples", "2",
              "--seed", "0"], 2, "error: beta must be positive"),
            (["mc", "--side", "", *pq, "--beta", "1", "--samples", "2", "--seed", "0"], 2,
             "argument --side: invalid choice: ''"),
            (["roundtrip", "--alpha", "0", "--grid", "16", "--tol", "0"], 0, ""),
        ]:
            got = _run(capsys, argv)
            assert got[0] == code and err in got[2], argv

    def test_alpha_lists_keep_the_imaginary_sign(self, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text("[[0.25, -0.5]]")
        assert cli._alpha_exact(str(path)) == [(Fraction(1, 4), Fraction(-1, 2))]
        assert cli._alpha_floats("0.25-0.5i").tolist() == [0.25 - 0.5j]

    def test_unique_prefix_gives_the_same_bytes(self, capsys):
        argv = ["alpha-moment", "--p", "1:1", "--q", "1:1", "--beta", "2"]
        full = _run(capsys, [*argv, "--max-index", "10"])
        assert full[0] == 0
        assert _run(capsys, [*argv, "--max", "10"]) == full
        assert _run(capsys, [*argv, "--max=10"]) == full

    def test_ambiguous_prefix_names_every_candidate(self, capsys):
        code, out, err = _run(capsys, ["mc", "--s", "alpha"])
        assert (code, out) == (2, "")
        assert err.splitlines()[1:] == [
            "verblunsky mc: error: ambiguous option: --s could match --side, --samples, --seed"]

    def test_threads_after_the_command_exits_two(self, capsys):
        code, out, err = _run(capsys, ["variance", "--n", "3", "--threads", "2"])
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --threads\n")

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    @pytest.mark.parametrize("alpha", ["-1/4i", "-1/3,1/4", "-0.3+0.1i,0.2"])
    def test_leading_minus_value_as_two_tokens(self, capsys, alpha, exact):
        two_tokens = _run(capsys, ["jacobian", *exact, "--alpha", alpha])
        assert two_tokens[0] == 0
        assert _run(capsys, ["jacobian", *exact, f"--alpha={alpha}"]) == two_tokens

    @pytest.mark.parametrize("argv, error", [
        ([], "verblunsky: error: the following arguments are required: command"),
        (["laplace"], "verblunsky: error: argument command: invalid choice: 'laplace' (choose "
         "from 'gaussian-moment', 'alpha-moment', 'identity', 'nice-identity', 'variance', "
         "'count', 'jacobian', 'szego-check', 'roundtrip', 'mc', 'pushforward')"),
        (["--threads", "0", "variance", "--n", "3"],
         "verblunsky: error: argument --threads: need an integer >= 1, got '0'"),
        (["variance"], "verblunsky variance: error: the following arguments are required: --n"),
        (["variance", "--n", "x"], "verblunsky variance: error: argument --n: invalid int value: 'x'"),
        (["variance", "--n"], "verblunsky variance: error: argument --n: expected one argument"),
        (["variance", "--n", "3", "x"], "verblunsky variance: error: unrecognized arguments: x"),
        (["pushforward", "--beta", "1", "--modes", "4", "--radius", "r", "--samples", "2",
          "--seed", "0"], "verblunsky pushforward: error: argument --radius: invalid float value: 'r'"),
        (["mc", "--side", "exact"], "verblunsky mc: error: argument --side: invalid choice: "
         "'exact' (choose from 'gaussian', 'alpha')"),
        (["gaussian-moment", "--raw=1"],
         "verblunsky gaussian-moment: error: argument --raw: ignored explicit argument '1'"),
    ])
    def test_usage_error_lines(self, capsys, argv, error):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        usage, line = err.splitlines()
        assert usage.startswith(f"usage: {error.partition(': error: ')[0]} [-h] ")
        assert line == error


FINITE = st.floats(allow_nan=False, allow_infinity=False)

# The exit-contract grammar: per command, per option, (valid, edge) tokens.
# Sizes keep every call in milliseconds: degrees at most 5, --max-index at
# most 60, --n at most 8 and |m| at or next to count's guard of 12; count
# skips the levels m leaves empty, so its far indices cost no more than near
# ones.  "{dir}" stands for the run's own directory; every --dump-csv value
# lies in it.
JUNK = st.one_of(
    st.sampled_from(["", "x", "--", "-", "1/0", "1:1", "0x10", "--bogus", "1,2"]),
    st.text(alphabet="abz-_:/., ", max_size=5),
)
THREADS = (["1", "2", "3"], ["0", "-1", "1000000"])
MULTI_INDEX = (["0", "1:1", "2:1", "1:2", "1:1,2:1", "3:1", "2:2", "4:1"],
               ["1:4", "1:5", "0:1", "1:0", "1:1,1:1", "-1:1"])
RATIONAL = (["1", "1/2", "2/3", "3/2", "1/100"],
            ["0", "-1", "-1/2", "1/0", "0.5", "1e20", "1e-20", "1e5000", "nan", "inf"])
BETA = (RATIONAL[0], ["0", "-1", "1e-300", "1e-320", "1e400", "1e300", "nan", "inf"])
MAX_INDEX = (["0", "1", "10", "60"], ["-1", "-60", "1.5", "1e3"])
DEGREE = (["1", "2", "3", "5", "8"], ["0", "-1", "1.5"])
SAMPLES = (["2", "3", "17"], ["0", "1", "-5"])
SEED = (["0", "1", "12345"], ["-1", str(2**64)])
TOL = (["0", "1e-9", "1e-6", "0.5"], ["nan", "-1", "inf", "-inf", "1e400", "", "x"])


def _alpha(coefficient, files):
    """An --alpha value: 1 to 9 inline coefficients, or "@" and the text of
    a JSON file, which the property writes to {dir}/alpha.json."""
    return st.one_of(st.lists(coefficient, min_size=1, max_size=9).map(",".join),
                     st.sampled_from(files).map("@".__add__))


# Edge coefficients sit within 1e-6 of the unit circle, round to |alpha| = 1
# in floats, or are exactly on it.
ALPHA = (
    _alpha(st.sampled_from(["0", "0.3", "-0.2+0.1i", "1/4-1/8i", "0.5i", "-1/3", "0.6-0.3i"]),
           ["[[0.3, 0.1], [0.2, 0.0]]", '[["1/4", 0], [0, "-1/8"]]', "[[0.9999999, 0]]",
            "[[0, 0], [0.5, -0.5], [0.1, 0.1], [-0.3, 0.2]]"]),
    _alpha(st.one_of(st.sampled_from(
        ["0.9999999", "-0.99999999+0i", "0.7071067811865475+0.7071067811865475i",
         "0.99999999999999989", "0.99999999999999995", "0.6+0.8i", "1", "-i", "1e-300",
         "1e400", "nan", "inf", "1/0", "x"]), JUNK),
           ["[]", "[[0.5]]", "{}", "null", "[[1, 0]]", "[[NaN, 0]]", "[[1e400, 0]]",
            "[[true, 0]]", "[[0.5, 0, 0]]", "not json", "[[0.99999999999999995, 0]]"]),
)
GRAMMAR = {
    "gaussian-moment": {"--p": MULTI_INDEX, "--q": MULTI_INDEX},
    "alpha-moment": {"--p": MULTI_INDEX, "--q": MULTI_INDEX, "--beta": RATIONAL,
                     "--max-index": MAX_INDEX},
    "identity": {"--p": MULTI_INDEX, "--q": MULTI_INDEX,
                 "--beta": (["1", "1/2,2", "2/3,1,3/2", "1/100"],
                            ["0", "1,-1", ",", "1,,2", "1/0,1", "1e20,1", "1e5000", "nan"]),
                 "--max-index": MAX_INDEX},
    "nice-identity": {"--n": DEGREE, "--beta": RATIONAL, "--max-index": MAX_INDEX},
    "variance": {"--n": DEGREE},
    "count": {"--p": MULTI_INDEX, "--q": MULTI_INDEX,
              "--m": (["0:1,1:1", "0:2,1:1,2:1", "1:1,2:1", "0:1,4:1", "0:4,1:4", "0:6,1:6",
                       "0:3,1:3,2:3,3:3", "0:2,1:2,2:2,3:2,4:2,5:2", "0:1,1000000000000:1",
                       "2:1,3:1,1000000000000:1,1000000000001:1"],
                      ["0", "0:12", "0:13", "0:7,1:6", "0:6,1:6,2:1", "1:0", "-1:1",
                       "0:1,0:1", "2:1,1:1"])},
    "jacobian": {"--alpha": ALPHA, "--tol": TOL},
    "szego-check": {"--alpha": ALPHA, "--tol": TOL,
                    "--order": (["10", "20", "50"], ["0", "1", "2", "3", "5", "-1", "x"])},
    "roundtrip": {"--alpha": ALPHA, "--tol": TOL,
                  "--grid": (["64", "256", "4096"], ["16", "17", "24", "32", "8", "0", "x"])},
    "mc": {"--side": (["gaussian", "alpha"], ["Alpha", "exact"]), "--p": MULTI_INDEX,
           "--q": MULTI_INDEX, "--beta": BETA, "--samples": SAMPLES, "--seed": SEED,
           "--n-trunc": (["8", "16"], ["0", "3", "4", "-1"]),
           "--dump-csv": (["{dir}/d.csv"], ["{dir}", "{dir}/missing/d.csv"])},
    "pushforward": {"--beta": BETA, "--samples": SAMPLES, "--seed": SEED,
                    "--modes": (["0", "1", "8", "32"], ["-1", "300"]),
                    "--radius": (["0.5", "0.9", "0.99"],
                                 ["0", "1", "-0.1", "1e-300", "nan", "inf"]),
                    "--max-alpha": (["1", "4", "30"], ["0", "-1"])},
}
# Options without a value; each argv carries its command's flag or not.
FLAGS = {"gaussian-moment": "--raw", "jacobian": "--exact"}
# Examples per command, more where there are more options and paths.
EXAMPLES = {"jacobian": 189, "mc": 167, "pushforward": 138, "szego-check": 116, "roundtrip": 100,
            "count": 92, "identity": 66, "gaussian-moment": 49, "alpha-moment": 43,
            "variance": 30, "nice-identity": 25}


def _max_alpha_near_half(draw):
    """pushforward's --modes and --max-alpha: --max-alpha also at and around
    grid // 2 - 1, the largest the quadrature allows, for a valid --modes."""
    (modes, odd_modes), (valid, edge) = (GRAMMAR["pushforward"][opt]
                                         for opt in ("--modes", "--max-alpha"))
    chosen = draw(st.sampled_from(modes))
    half = montecarlo.pushforward_grid(int(chosen)) // 2
    return {"--modes": ([chosen], odd_modes),
            "--max-alpha": ([*valid, str(half - 2), str(half - 1)],
                            [str(half), str(half + 1), *edge])}


def _value_strategies(options):
    """Per option, the strategy of its valid values and that of its edge or junk ones."""
    def tokens(values):
        return values if isinstance(values, st.SearchStrategy) else st.sampled_from(values)

    return {opt: (tokens(valid), st.one_of(tokens(edge), JUNK.map("{dir}/".__add__)
                                           if opt == "--dump-csv" else JUNK))
            for opt, (valid, edge) in options.items()}


def _written_argv(command):
    """The strategy of command's argvs, from GRAMMAR, FLAGS and --threads:
    valid values with up to two edge or junk ones, options in any order, each
    as "--opt=value" or as two tokens, at most one left out, and sometimes a
    junk token inserted."""
    options = {"--threads": THREADS, **GRAMMAR[command]}
    strategies = _value_strategies(options)
    odd_options = st.sets(st.sampled_from(sorted(options)), max_size=2)
    named = [opt for opt in options if opt != "--threads"]
    orders = st.permutations(named)

    @st.composite
    def argvs(draw):
        drawn = strategies
        if command == "pushforward":
            drawn = {**strategies, **_value_strategies(_max_alpha_near_half(draw))}
        odd = draw(odd_options)
        values = {opt: draw(drawn[opt][opt in odd]) for opt in options}
        names = draw(orders)
        dropped = draw(st.sampled_from(named)) if draw(st.booleans()) else None

        def written(opt):
            # Mostly "--opt=value", where a value starting with "-" stays a value.
            return [f"{opt}={values[opt]}"] if draw(st.integers(0, 3)) else [opt, values[opt]]

        argv = [command]
        if command in FLAGS and draw(st.booleans()):
            argv.append(FLAGS[command])
        if draw(st.booleans()):
            argv = [*written("--threads"), *argv]
        for opt in names:
            if opt != dropped:
                argv += written(opt)
        if draw(st.integers(0, 3)) == 0:
            argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
        return argv

    return argvs()


# Argvs every run of the property tries first, each for the input class it names.
PINNED = [argv.split() for argv in [
    # Fields too large for exp: exit 2, "too peaked", with no RuntimeWarning.
    "pushforward --beta 1e-300 --modes 8 --radius 0.9 --samples 3 --seed 0",
    # Samples whose squares overflow: exit 2, not a PASS on an infinite stderr.
    "mc --side gaussian --p 1:1 --q 1:1 --beta 1e-200 --samples 3 --seed 0 --n-trunc 8",
    # The same, with a dump: the rows are written before the error, then removed.
    "mc --side gaussian --p 1:1 --q 1:1 --beta 1e-200 --samples 3 --seed 0 --dump-csv {dir}/d.csv",
    # An explicit "--opt=--" value is no value: exit 2.
    "mc --side=alpha --p=1:1 --q=1:1 --beta=1 --samples=-- --seed=0",
    "--threads=-- pushforward --beta=1 --modes=8 --radius=0.5 --samples=3 --seed=0",
    # Within 1e-6 of the circle: the float Jacobian warns and reports.
    "jacobian --alpha=0.9999999,0.3",
    # Rounds to |alpha| = 1 in floats: exit 2, though the exact lane accepts it.
    "jacobian --alpha=0.99999999999999995",
    "jacobian --exact --alpha=0.99999999999999995",
    # A low order truncates the series: a FAIL report, not an error.
    "szego-check --alpha=0.3,-0.2 --order=5 --tol=1e-6",
    # A coarse grid: too few points for the moments is a usage error.
    "roundtrip --alpha=0.3,0.2,0.1,0.1,0.1,0.1,0.1,0.1 --grid=16",
    # A rational too long to print: exit 2 at parsing, not a traceback
    # while the report echoes it.
    "alpha-moment --p=0 --q=0 --beta=1e5000 --max-index=0",
    # Past count's |m| <= 12 guard: exit 2, with no enumeration.
    "count --p=1:1 --q=1:1 --m=0:7,1:6",
    # Unequal degrees: identity is a usage error, count and the moments report.
    "identity --p=1:4 --q=1:1 --beta=1 --max-index=60",
    "count --p=1:4 --q=1:1 --m=0:1,1:1",
    # A raw decomposition sum past its degree guard of 8: exit 2.
    "gaussian-moment --raw --p=1:1,4:2 --q=3:3",
]]


# Peaked densities: the Levinson inversion fails on some sample, exit 2.
PEAKED_PUSHFORWARD = ["pushforward", "--beta", "1/100", "--modes", "32", "--radius", "0.99",
                      "--samples", "3", "--seed", "0", "--max-alpha", "30"]


# The one warning a command may print besides its report: the float
# Jacobian's, which says why its relative gap cannot be trusted.
JACOBIAN_WARNING = "alpha within 1e-6 of the unit circle"


def _exit_contract(argv):
    """Run argv with warnings as errors, except the float Jacobian's own,
    which is recorded; check exit 0/1 with a report or exit 2 with one error
    line, and return (code, report or stderr, recorded warning messages)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("error")
        warnings.filterwarnings("always", JACOBIAN_WARNING, RuntimeWarning)
        code = cli.run(argv)
    out, err = out.getvalue(), err.getvalue()
    messages = [str(w.message) for w in seen]
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1, err
        return code, err, messages
    assert code in (0, 1), (code, out, err)
    assert err == ""
    report = json.loads(out)
    assert (code == 1) == (report["status"] == "FAIL")
    return code, report, messages


def _placed(tok, directory):
    """tok with "{dir}" made directory, and an "@text" value the path of
    directory/alpha.json, written with text."""
    head, at, text = tok.partition("@")
    if at:
        (directory / "alpha.json").write_text(text)
        tok = f"{head}{directory / 'alpha.json'}"
    return tok.replace("{dir}", str(directory))


class TestExitContract:
    """Every command: exit 0/1 with a report, or exit 2 with one error line;
    the float Jacobian alone may warn, near the circle."""

    def test_grammar_covers_the_parser(self):
        # A new command or option fails here until the grammar fuzzes it.
        assert set(cli.GLOBAL_OPTIONS) == {"--threads"}
        assert {c: set(opts) - {FLAGS.get(c)} for c, (_, _, opts) in cli.COMMANDS.items()} == {
            c: set(opts) for c, opts in GRAMMAR.items()}
        assert {c: opt for c, (_, _, opts) in cli.COMMANDS.items()
                for opt, spec in opts.items() if len(spec) == 3} == FLAGS

    def test_peaked_density_exits_two(self):
        code, err, messages = _exit_contract(PEAKED_PUSHFORWARD)
        assert (code, messages) == (2, [])
        assert "non-positive-definite moments" in err

    @pytest.mark.parametrize("command", sorted(GRAMMAR))
    def test_every_argv_reports_or_exits_two(self, command, tmp_path):
        @settings(max_examples=EXAMPLES[command])
        @given(argv=_written_argv(command))
        def every_argv(argv):
            with tempfile.TemporaryDirectory(dir=tmp_path) as name:
                directory = pathlib.Path(name)
                code, _, messages = _exit_contract([_placed(tok, directory) for tok in argv])
                if code == 2:  # a failed run leaves no dump, partial or whole
                    assert {path.name for path in directory.iterdir()} <= {"alpha.json"}
            if messages:
                assert command == "jacobian" and "--exact" not in argv and code != 2, argv
                assert all(m.startswith(JACOBIAN_WARNING) for m in messages), messages

        for argv in PINNED:
            if command in argv:
                every_argv = example(argv=argv)(every_argv)
        every_argv()


class TestNiceIdentityIsDiagonalIdentity:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_identity_at_delta(self, capsys, k):
        for beta in ("1/2", "1", "2"):
            _, nice, _ = _run(
                capsys, ["nice-identity", "--n", str(k), "--beta", beta, "--max-index", "40"]
            )
            _, ident, _ = _run(
                capsys,
                ["identity", "--p", f"{k}:1", "--q", f"{k}:1", "--beta", beta, "--max-index", "40"],
            )
            nice = json.loads(nice)
            (check,) = json.loads(ident)["results"]["checks"]
            assert nice["results"] == {"lhs": check["alpha"], "rhs": check["gaussian"]}
            assert nice["diagnostics"]["tail"] == check["tail"]
            assert nice["status"] == ("PASS" if check["passed"] else "FAIL")


class TestSplitComplex:
    @settings(max_examples=300)
    @given(re=FINITE, im=FINITE)
    def test_round_trip(self, re, im):
        # Both readings of a part, float() and the alpha parser's Fraction,
        # give back the float that was written.
        for text, want in (
            (f"{re!r}{im:+}i", (re, im)),
            (f"{im!r}i", (0.0, im)),
            (repr(re), (re, 0.0)),
        ):
            parts = cli._split_complex(text)
            assert tuple(float(part) for part in parts) == want, text
            assert tuple(float(Fraction(part)) for part in parts) == want, text

    @pytest.mark.parametrize("text, parts", [
        ("i", ("0", "1")), ("-i", ("0", "-1")), ("0.5+i", ("0.5", "1")), ("-2-j", ("-2", "-1")),
    ])
    def test_bare_imaginary_unit(self, text, parts):
        assert cli._split_complex(text) == parts


class TestNumericCommands:
    def test_szego_check_passes(self, capsys):
        code, out, _ = _run(capsys, ["szego-check", "--alpha", "0.3,0.2+0.1i", "--order", "200"])
        assert code == 0
        assert json.loads(out)["results"]["gap"] <= 1e-8

    def test_roundtrip_passes(self, capsys):
        code, out, _ = _run(
            capsys, ["roundtrip", "--alpha", "0.4,0.1-0.2i,0.25i", "--grid", "4096"]
        )
        assert code == 0
        assert json.loads(out)["results"]["max_error"] <= 1e-9

    def test_jacobian_fd_passes(self, capsys):
        code, out, _ = _run(capsys, ["jacobian", "--alpha", "0.3+0.1i,0.2"])
        assert code == 0
        assert json.loads(out)["diagnostics"]["relative_gap"] <= 1e-6

    def test_alpha_file_input(self, capsys, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps([[0.3, 0.1], [0.2, 0.0]]))
        _, out_file, _ = _run(capsys, ["szego-check", "--alpha", str(path), "--order", "50"])
        _, out_inline, _ = _run(capsys, ["szego-check", "--alpha", "0.3+0.1i,0.2", "--order", "50"])
        assert json.loads(out_file)["results"]["gap"] == json.loads(out_inline)["results"]["gap"]

    def test_mc_dump_csv(self, capsys, tmp_path):
        path = tmp_path / "mc.csv"
        code, out, _ = _run(
            capsys,
            ["mc", "--side", "alpha", "--p", "1:1", "--q", "1:1", "--beta", "1",
             "--samples", "30", "--seed", "1", "--n-trunc", "8", "--dump-csv", str(path)],
        )
        assert code == 0
        assert json.loads(out)["params"]["dump_csv"] == str(path)
        assert len(path.read_text().splitlines()) == 32  # 2 header lines + 30 rows
