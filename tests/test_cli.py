"""End-to-end CLI coverage: byte-stable reports, exit codes, usage errors."""

import dataclasses
import io
import json
import pathlib
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
        # One parser serves the process; a usage error, and the exact
        # Jacobian clearing its namespace's tol, must leave no trace.
        assert cli.build_parser() is cli.build_parser()
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

    def test_mc_reference_overflow_exits_before_drawing(self, capsys, monkeypatch):
        # The exact reference (about 1e400 here) is computed before any draw,
        # so the overflow costs no samples and prints no numpy warnings.
        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before computing the reference")

        monkeypatch.setattr(montecarlo, "_f_draw", no_draws)
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
        def no_table(init, n_p):
            raise AssertionError("count walked the transfer table")

        monkeypatch.setattr(alphamoments, "_transfer", no_table)

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

        monkeypatch.setattr(montecarlo, "_alpha_draw", no_draws)
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
        # argparse drops the "--" of "--opt=--" and stores an empty list
        # without calling the option's type; before the check in run, every
        # command took that list (a traceback, or a PASS echoing threads []).
        code, out, err = _run(capsys, self.DOUBLE_DASH[option])
        assert code == 2
        assert out == ""
        assert err.endswith(f"error: argument {option}: expected one argument\n")


FINITE = st.floats(allow_nan=False, allow_infinity=False)

# Tokens for the sampling commands' exit-contract test: per option, valid
# values, then edge values.  Sizes keep every call in milliseconds.  "{dir}"
# stands for the test's own directory; every --dump-csv value lies in it.
JUNK = st.one_of(
    st.sampled_from(["", "x", "--", "-", "1/0", "1:1", "0x10", "--bogus", "1,2"]),
    st.text(alphabet="abz-_:/., ", max_size=5),
)
MULTI_INDEX = (["1:1", "2:1", "1:2", "1:1,2:1", "3:1", "2:2", "4:1"],
               ["1:4", "1:5", "0:1", "1:0", "1:1,1:1", "-1:1"])
SAMPLING_OPTIONS = {
    "--threads": (["1", "2", "3"], ["0", "-1", "1000000"]),
    "--beta": (["1", "1/2", "2/3", "3/2", "1/100"],
               ["0", "-1", "1e-300", "1e-320", "1e400", "1e300", "nan", "inf"]),
    "--samples": (["2", "3", "17"], ["0", "1", "-5"]),
    "--seed": (["0", "1", "12345"], ["-1", str(2**64)]),
}
MC_OPTIONS = {
    "--side": (["gaussian", "alpha"], ["Alpha", "exact"]),
    "--p": MULTI_INDEX,
    "--q": MULTI_INDEX,
    "--n-trunc": (["8", "16"], ["0", "3", "4", "-1"]),
    "--dump-csv": (["{dir}/d.csv"], ["{dir}", "{dir}/missing/d.csv"]),
}
PUSH_OPTIONS = {
    "--modes": (["0", "1", "8", "32"], ["-1", "300"]),
    "--radius": (["0.5", "0.9", "0.99"], ["0", "1", "-0.1", "1e-300", "nan", "inf"]),
}


@st.composite
def _sampling_argv(draw):
    """A pushforward or mc argv: valid values with up to two edge or junk ones,
    options in any order, at most one left out, and sometimes a junk token inserted."""
    command = draw(st.sampled_from(["mc", "pushforward"]))
    options = {**SAMPLING_OPTIONS, **(MC_OPTIONS if command == "mc" else PUSH_OPTIONS)}
    if command == "pushforward":
        # --max-alpha at and around grid // 2 - 1, the largest the quadrature allows.
        modes = int(draw(st.sampled_from(options["--modes"][0])))
        half = montecarlo.pushforward_grid(modes) // 2
        options["--modes"] = ([str(modes)], options["--modes"][1])
        options["--max-alpha"] = (["1", "4", "30", str(half - 2), str(half - 1)],
                                  [str(half), str(half + 1), "0", "-1"])
    odd = draw(st.sets(st.sampled_from(sorted(options)), max_size=2))
    values = {}
    for opt, (valid, edge) in options.items():
        junk = JUNK.map("{dir}/".__add__) if opt == "--dump-csv" else JUNK
        values[opt] = draw(st.one_of(st.sampled_from(edge), junk) if opt in odd
                           else st.sampled_from(valid))
    names = draw(st.permutations([opt for opt in values if opt != "--threads"]))
    dropped = draw(st.sets(st.sampled_from(names), max_size=1)) if draw(st.booleans()) else set()
    argv = [command]
    if draw(st.booleans()):
        argv = ["--threads", values["--threads"], *argv]
    for opt in names:
        if opt not in dropped:
            argv += [opt, values[opt]]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
    return argv


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


class TestSamplingExitContract:
    """pushforward and mc: exit 0/1 with a report, or exit 2 with one error line."""

    @staticmethod
    def _check(argv):
        code, result, messages = _exit_contract(argv)
        assert messages == []
        return code, result

    def test_peaked_density_exits_two(self):
        code, err = self._check(PEAKED_PUSHFORWARD)
        assert code == 2
        assert "non-positive-definite moments" in err

    @settings(max_examples=300)
    @given(argv=_sampling_argv())
    # Fields too large for exp: exit 2, "too peaked", with no RuntimeWarning.
    @example(argv=["pushforward", "--beta", "1e-300", "--modes", "8", "--radius", "0.9",
                   "--samples", "3", "--seed", "0"])
    # Samples whose squares overflow: exit 2, not a PASS on an infinite stderr.
    @example(argv=["mc", "--side", "gaussian", "--p", "1:1", "--q", "1:1", "--beta", "1e-200",
                   "--samples", "3", "--seed", "0", "--n-trunc", "8"])
    # The same, with a dump: the rows are written before the error, then removed.
    @example(argv=["mc", "--side", "gaussian", "--p", "1:1", "--q", "1:1", "--beta", "1e-200",
                   "--samples", "3", "--seed", "0", "--dump-csv", "{dir}/d.csv"])
    def test_every_argv_reports_or_exits_two(self, argv, tmp_path_factory):
        directory = tmp_path_factory.mktemp("dump")
        code, _ = self._check([tok.replace("{dir}", str(directory)) for tok in argv])
        if code == 2:  # a failed run leaves no dump, partial or whole
            assert list(directory.iterdir()) == []


# Tokens for the alpha commands' exit-contract test, as (valid, edge) per
# option.  Coefficients near the unit circle sit within 1e-6 of it, round to
# |alpha| = 1 in floats, or are exactly on it.
ALPHA_VALUES = (["0", "0.3", "-0.2+0.1i", "1/4-1/8i", "0.5i", "-1/3", "0.6-0.3i"],
                ["0.9999999", "-0.99999999+0i", "0.7071067811865475+0.7071067811865475i",
                 "0.99999999999999989", "0.99999999999999995", "0.6+0.8i", "1", "-i",
                 "1e-300", "1e400", "nan", "inf", "1/0", "x"])
ALPHA_FILES = (["[[0.3, 0.1], [0.2, 0.0]]", '[["1/4", 0], [0, "-1/8"]]', "[[0.9999999, 0]]",
                "[[0, 0], [0.5, -0.5], [0.1, 0.1], [-0.3, 0.2]]"],
               ["[]", "[[0.5]]", "{}", "null", "[[1, 0]]", "[[NaN, 0]]", "[[1e400, 0]]",
                "[[true, 0]]", "[[0.5, 0, 0]]", "not json", "[[0.99999999999999995, 0]]"])
ALPHA_OPTIONS = {
    "szego-check": {"--order": (["10", "20", "50"], ["0", "1", "2", "3", "5", "-1", "x"])},
    "roundtrip": {"--grid": (["64", "256", "4096"], ["16", "17", "24", "32", "8", "0", "x"])},
    "jacobian": {},
}
TOL = (["0", "1e-9", "1e-6", "0.5"], ["nan", "-1", "inf", "-inf", "1e400", "", "x"])


@st.composite
def _alpha_argv(draw):
    """A szego-check, roundtrip or jacobian (float or --exact) argv and the
    --alpha file's text, or None for an inline list.  The list holds 1 to 9
    coefficients, sometimes edge ones; options come in any order, one may be
    left out or take an edge or junk value, and sometimes a junk token is inserted."""
    command = draw(st.sampled_from(sorted(ALPHA_OPTIONS)))
    options = dict(ALPHA_OPTIONS[command], **{"--tol": TOL})
    text = None
    if draw(st.booleans()):
        valid, edge = ALPHA_FILES
        text = draw(st.sampled_from(edge) if draw(st.integers(0, 3)) == 0
                    else st.sampled_from(valid))
        alpha = "{dir}/alpha.json"
    else:
        valid, edge = ALPHA_VALUES
        value = st.one_of(st.sampled_from(edge), JUNK) if draw(st.integers(0, 2)) == 0 \
            else st.sampled_from(valid)
        alpha = ",".join(draw(st.lists(value, min_size=1, max_size=9)))
    values = {"--alpha": alpha}
    for opt, (valid, edge) in options.items():
        odd = draw(st.integers(0, 3)) == 0
        values[opt] = draw(st.one_of(st.sampled_from(edge), JUNK) if odd
                           else st.sampled_from(valid))
    names = draw(st.permutations(sorted(values)))
    dropped = draw(st.sets(st.sampled_from(names), max_size=1)) if draw(st.booleans()) else set()
    argv = [command]
    if command == "jacobian" and draw(st.booleans()):
        argv.append("--exact")
    for opt in names:
        if opt not in dropped:
            # Mostly "--opt=value", where a value starting with "-" stays a value.
            argv += [f"{opt}={values[opt]}"] if draw(st.integers(0, 3)) else [opt, values[opt]]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
    return argv, text


class TestAlphaExitContract:
    """szego-check, roundtrip and jacobian: exit 0/1 with a report, or exit 2
    with one error line; the float Jacobian alone may warn, near the circle."""

    @settings(max_examples=400)
    @given(case=_alpha_argv())
    # Within 1e-6 of the circle: the float Jacobian warns and reports.
    @example(case=(["jacobian", "--alpha=0.9999999,0.3"], None))
    # Rounds to |alpha| = 1 in floats: exit 2, though the exact lane accepts it.
    @example(case=(["jacobian", "--alpha=0.99999999999999995"], None))
    @example(case=(["jacobian", "--exact", "--alpha=0.99999999999999995"], None))
    # A low order truncates the series: a FAIL report, not an error.
    @example(case=(["szego-check", "--alpha=0.3,-0.2", "--order=5", "--tol=1e-6"], None))
    # A coarse grid: too few points for the moments is a usage error.
    @example(case=(["roundtrip", "--alpha=0.3,0.2,0.1,0.1,0.1,0.1,0.1,0.1", "--grid=16"], None))
    def test_every_argv_reports_or_exits_two(self, case, tmp_path_factory):
        argv, text = case
        directory = tmp_path_factory.mktemp("alpha")
        if text is not None:
            (directory / "alpha.json").write_text(text)
        code, _, messages = _exit_contract([tok.replace("{dir}", str(directory))
                                            for tok in argv])
        if messages:
            assert argv[0] == "jacobian" and "--exact" not in argv and code != 2, argv
            assert all(m.startswith(JACOBIAN_WARNING) for m in messages), messages


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
