"""End-to-end CLI coverage: byte-stable reports, exit codes, usage errors."""

import dataclasses
import io
import json
import pathlib
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verblunsky import cli, montecarlo

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
        assert rep["diagnostics"]["tail"] == "1/10001"
        assert rep["status"] == "PASS"

    def test_count_pinned_results(self, capsys):
        _, out, _ = _run(capsys, ["count", "--p", "1:1", "--q", "1:1", "--m", "1:1,2:1"])
        rep = json.loads(out)
        assert rep["results"] == {"tuples": 1, "graphs": 1}
        assert rep["status"] == "PASS"


class TestReportShape:
    def test_schema_and_sections(self, capsys):
        _, out, _ = _run(capsys, ["variance", "--n", "2"])
        rep = json.loads(out)
        assert rep["schema"] == 1
        assert set(rep) == {"schema", "command", "params", "results", "status", "diagnostics"}

    def test_threads_recorded(self, capsys):
        _, out, _ = _run(capsys, ["--threads", "2", "variance", "--n", "2"])
        assert json.loads(out)["params"]["threads"] == 2

    def test_multiple_beta_tail_map(self, capsys):
        _, out, _ = _run(
            capsys,
            ["identity", "--p", "1:1", "--q", "1:1", "--beta", "1,2", "--max-index", "100"],
        )
        rep = json.loads(out)
        assert set(rep["diagnostics"]["tail"]) == {"1/1", "2/1"}
        assert len(rep["results"]["checks"]) == 2

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
    lifted = dataclasses.replace(check, gaussian_value=check.alpha_value - check.tail_estimate)
    monkeypatch.setattr(cli, "nice_identity_check", lambda n, b, m: lifted)


FAIL_JACOBIAN = ["jacobian", "--alpha", "0.3,0.2", "--tol", "1e-300"]
NICE_N1 = GOLDEN_CASES["nice_identity_n1"]


class TestExitCodes:
    def test_fail_is_one(self, capsys):
        code, out, _ = _run(capsys, FAIL_JACOBIAN)
        assert code == 1
        assert json.loads(out)["status"] == "FAIL"

    def test_nice_identity_partial_sum_above_limit_fails(self, capsys, monkeypatch):
        # lhs one tail above rhs passes |lhs - rhs| <= 10 tail, but a partial
        # sum of positive terms cannot exceed its limit.
        _lift_nice_lhs(monkeypatch)
        code, out, _ = _run(capsys, NICE_N1)
        rep = json.loads(out)
        assert code == 1
        assert rep["status"] == "FAIL"
        assert rep["diagnostics"]["difference"] == rep["diagnostics"]["tail"]

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
    ])
    def test_out_of_range_option_exits_two(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1

    def test_mc_reference_overflow_exits_before_drawing(self, capsys, monkeypatch):
        # The exact reference (about 1e400 here) is computed before any draw,
        # so the overflow costs no samples and prints no numpy warnings.
        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before computing the reference")

        monkeypatch.setattr(montecarlo, "_f_block", no_draws)
        code, out, err = _run(capsys, [
            "mc", "--side", "gaussian", "--p", "2:2", "--q", "2:2", "--beta", "1e-100",
            "--samples", "100000", "--seed", "1",
        ])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_count_size_guard_exits_two(self, capsys):
        code, out, err = _run(capsys, ["count", "--p", "1:1", "--q", "1:1", "--m", "0:13"])
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

        monkeypatch.setattr(montecarlo, "_alpha_block", no_draws)
        path = tmp_path / "missing" / "x.csv"
        code, out, err = _run(
            capsys,
            ["mc", "--side", "alpha", "--p", "1:1", "--q", "1:1", "--beta", "1",
             "--samples", "10", "--seed", "0", "--n-trunc", "8", "--dump-csv", str(path)],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: [Errno 2] No such file or directory") and str(path) in err

    def test_alpha_path_is_directory_exits_two(self, capsys, tmp_path):
        code, out, err = _run(capsys, ["jacobian", "--alpha", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(tmp_path) in err

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


FINITE = st.floats(allow_nan=False, allow_infinity=False)


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
