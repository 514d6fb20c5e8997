import argparse
import json
import math
import re
import time

import pytest

from besselbr import cli
from besselbr.cli import argv_from_config, run


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = run(argv + ["--out", str(out)])
    return code, out.read_bytes()


class TestConstantsCommand:
    def test_bessel_example(self, tmp_path, capsys):
        code, raw = run_to_file(
            tmp_path, "c.json", ["constants", "--process", "bessel", "--m", "2", "--n", "100", "--seed", "1"]
        )
        assert code == 0
        report = json.loads(raw)
        values = {row["statistic"]: row["value"] for row in report["results"]}
        assert values["a"] == 2.0
        assert values["b"] == pytest.approx(2.0 * math.log(100.0), abs=1e-12)
        printed = capsys.readouterr().out
        assert "a = 2" in printed and "b = 9.21034" in printed

    def test_schema_and_key_style(self, tmp_path):
        _, raw = run_to_file(
            tmp_path, "c.json", ["constants", "--process", "scalar", "--m", "4", "--n", "50", "--seed", "3"]
        )
        report = json.loads(raw)
        assert report["schema"] == "bessel-br/1"
        assert report["tool_version"]

        def keys(obj):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    yield k
                    yield from keys(v)
            elif isinstance(obj, list):
                for v in obj:
                    yield from keys(v)

        assert all(re.fullmatch(r"[a-z0-9_]+", k) for k in keys(report))

    def test_reals_have_17_significant_digits(self, tmp_path):
        _, raw = run_to_file(
            tmp_path, "c.json", ["constants", "--process", "bessel", "--m", "3", "--n", "1000", "--seed", "1"]
        )
        text = raw.decode()
        # the b constant is irrational; its serialisation must round-trip
        match = re.search(r'"statistic": "b"[^}]*"value": ([0-9.eE+-]+)', text, re.S)
        assert match is not None
        token = match.group(1)
        assert len(token.replace(".", "").replace("-", "").lstrip("0")) >= 16
        report = json.loads(raw)
        assert float(token) == report["results"][1]["value"]


class TestTailCheckCommand:
    def test_laplace_example(self, tmp_path):
        code, raw = run_to_file(
            tmp_path, "t.json", ["tail-check", "--m", "2", "--x", "5", "--seed", "1"]
        )
        assert code == 0
        values = {row["statistic"]: row["value"] for row in json.loads(raw)["results"]}
        assert values["exact_tail"] == pytest.approx(0.5 * math.exp(-5.0), rel=1e-12)
        assert values["ratio"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("tail-check --process scalar --m 2 --x 800", "underflows"),
            ("tail-check --process bessel --m 2 --x 2000", "underflows"),
            ("tail-check --process scalar --m 3 --x 800", "underflows"),
            ("tail-check --process bessel --x -1", "x >= 0"),
            # the window of n = 50 is empty, so max/first has no value
            ("kk-check --ns 50,1000", "0 at the first n = 50"),
        ],
        ids=["scalar-m2", "bessel-m2", "scalar-m3", "negative-x", "kk-empty-first-window"],
    )
    def test_unevaluable_point_is_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "t.json"
        assert run(argv.split() + ["--seed", "1", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestReportContract:
    FAILING = "tail-check --process bessel --m 3 --x 5"  # ratio_error 0.15 > 0.05

    @pytest.mark.parametrize(
        "argv",
        [
            "constants --process bessel --m 2 --n 100",
            "tail-check --process scalar --m 3 --x 30",
            "kk-check --m 2 --ns 1000,10000",
            "marginal-sweep --process bm --ns 100,1000 --replicates 200",
            pytest.param("marginal-sweep --process scalar --m 3 --ns 100,1000 --replicates 200",
                         id="marginal-sweep-sampled"),
            "fdd-check --process br --replicates 200",
            "br-sample --grid-k 2",
            "br-selftest --grid-k 2 --replicates 50",
            pytest.param(FAILING, id="tail-check-failing"),
        ],
        ids=lambda argv: argv.split()[0],
    )
    def test_gated_rows_pass_when_value_is_within_threshold(self, tmp_path, argv):
        # a row that carries a threshold and a verdict passes exactly when its value is at most
        # it, and the report passes, and exits 0, exactly when every row verdict passes
        code, raw = run_to_file(tmp_path, "r.json", argv.split() + ["--seed", "3"])
        report = json.loads(raw)
        gated = [row for row in report["results"]
                 if row["threshold"] is not None and row["passed"] is not None]
        for row in gated:
            assert row["passed"] == (row["value"] <= row["threshold"]), row
        assert gated or argv.startswith(("constants", "br-sample"))
        assert report["passed"] == all(row["passed"] is not False for row in report["results"])
        assert code == (0 if report["passed"] else 1)
        assert argv != self.FAILING or code == 1


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["constants", "--process", "bessel", "--n", "10", "--seed", "1", "--bogus"]) == 2

    def test_missing_seed_is_usage_error(self, capsys):
        assert run(["constants", "--process", "bessel", "--n", "10"]) == 2

    def test_invalid_value_is_usage_error(self, capsys):
        assert run(["constants", "--process", "bessel", "--m", "2", "--n", "1", "--seed", "1"]) == 2

    def test_threshold_failure_is_exit_one(self, tmp_path, capsys):
        code = run(
            [
                "fdd-check", "--process", "bessel", "--m", "2", "--n", "100",
                "--replicates", "200", "--threshold", "1e-9", "--seed", "5",
                "--out", str(tmp_path / "f.json"),
            ]
        )
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            "tail-check --m 2 --x 5 --threshold nan",
            "tail-check --m 2 --x 5 --threshold inf",
            "fdd-check --process bessel --m 2 --n 50 --replicates 20 --threshold inf",
            "kk-check --ns 1000 --bound-factor inf",
            "kk-check --ns 1000 --r inf",
            "kk-check --ns 1000 --p inf",
            "br-selftest --grid-k 2 --replicates 20 --marginal-threshold inf",
            "marginal-sweep --process bm --ns 100 --replicates 10 --threshold nan",
            "tail-check --m 2 --x inf",
            "fdd-check --process br --times 0,inf --replicates 20",
            "br-selftest --grid-k 2 --epsilon nan --replicates 20",
        ],
    )
    def test_nonfinite_real_flag_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "r.json"
        assert run(argv.split() + ["--seed", "1", "--out", str(out)]) == 2
        assert "expected a finite real" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            "marginal-sweep --process bm --ns 100 --replicates 10 --threads 0",
            "br-selftest --grid-k 2 --replicates 20 --threads -5 --marginal-threshold 1"
            " --two-sample-threshold 1",
            "constants --process bm --m 0 --n 100",
        ],
    )
    def test_nonpositive_count_flag_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "r.json"
        assert run(argv.split() + ["--seed", "1", "--out", str(out)]) == 2
        assert "expected a positive integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize(
        "argv",
        [
            "constants --process bessel --m 2 --n 100",
            "tail-check --m 2 --x 5",
            "kk-check --ns 1000",
            "fdd-check --process br --replicates 20",
        ],
    )
    def test_out_of_range_seed_is_usage_error(self, tmp_path, capsys, argv, seed):
        out = tmp_path / "r.json"
        assert run(argv.split() + ["--seed", seed, "--out", str(out)]) == 2
        assert "expected a seed in [0, 2**64 - 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["missing/r.json", ""], ids=["missing-dir", "directory"])
    def test_unwritable_out_is_usage_error_before_sampling(self, monkeypatch, tmp_path, capsys,
                                                           where):
        def no_sampling(args):
            raise AssertionError("the command ran before its --out was checked")

        monkeypatch.setitem(cli._HANDLERS, "marginal-sweep", no_sampling)
        argv = ["marginal-sweep", "--process", "bm", "--seed", "1", "--out", str(tmp_path / where)]
        assert run(argv) == 2
        assert "error: cannot write the report" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_exhausted_point_budget_is_reported_cleanly(self, capsys):
        # br-selftest's truncated sampler can still run out of points; br-sample has no budget
        code = run(["br-selftest", "--grid-k", "1", "--epsilon", "1e-300", "--replicates", "1",
                    "--seed", "1"])
        assert code == 2
        assert "stopping rule" in capsys.readouterr().err

    def test_grid_without_midpoint_exits_before_sampling(self, monkeypatch, capsys):
        def no_sampling(*args, **kwargs):
            raise AssertionError("br-selftest sampled before checking its grid")

        monkeypatch.setattr(cli, "sample_br_batch", no_sampling)
        assert run(["br-selftest", "--grid-k", "0", "--seed", "1"]) == 2
        assert "0.5 is not a grid point" in capsys.readouterr().err


class TestMarginalSweepCommand:
    def test_scalar_sweep_reaches_n_1e8_in_seconds(self, capsys):
        started = time.perf_counter()
        code = run(
            [
                "marginal-sweep", "--process", "scalar", "--m", "3", "--ns", "100,100000000",
                "--replicates", "2000", "--seed", "8",
            ]
        )
        elapsed = time.perf_counter() - started
        rows = json.loads(capsys.readouterr().out)["results"]
        values = {row["statistic"]: row["value"] for row in rows}
        assert code == 0 and values["ks_gumbel_n_100000000"] < values["ks_gumbel_n_100"]
        assert elapsed < 30.0

    @pytest.mark.parametrize("process", ["bessel", "scalar"])
    def test_m2_sweep_is_exact_so_seed_and_replicates_do_not_matter(self, tmp_path, process):
        # the m = 2 rows are exact distances, about 0.27 / n, so the strict-decrease row
        # cannot fail on sampling noise; seeds 0 and 5 failed it when these maxima were sampled
        results = set()
        for seed in ("0", "5"):
            for replicates in ([], ["--replicates", "500"]):
                argv = ["marginal-sweep", "--process", process, "--m", "2", "--seed", seed]
                code, raw = run_to_file(tmp_path, "r.json", argv + replicates)
                assert code == 0
                results.add(raw[raw.index(b'"results"'):])
        assert len(results) == 1
        rows = json.loads(raw)["results"]
        assert rows[3] == {"statistic": "ks_steps_not_decreasing", "value": 0.0,
                           "threshold": 0.0, "passed": True}


    @pytest.mark.parametrize(
        "argv, steps",
        [
            ("--process bm --ns 3,4,5,6", 2),  # exact 0.0512, 0.0487, 0.0549, 0.0587
            ("--process bessel --m 40 --ns 2,3", 1),  # both exactly 1: a tie is no decrease
        ],
        ids=["rises", "ties"],
    )
    def test_steps_not_decreasing_counts_rises_and_ties(self, capsys, argv, steps):
        code = run(["marginal-sweep", *argv.split(), "--threshold", "1", "--seed", "1"])
        rows = {row["statistic"]: row for row in json.loads(capsys.readouterr().out)["results"]}
        assert rows["ks_steps_not_decreasing"]["value"] == steps
        assert rows["ks_final"]["passed"] and code == 1


class TestParser:
    def test_no_parser_is_built_per_call(self, monkeypatch, tmp_path, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        valid = ["constants", "--process", "bessel", "--n", "100", "--seed", "1"]
        assert run(valid + ["--out", str(tmp_path / "r.json")]) == 0
        assert run(["--help"]) == 0
        assert run(valid + ["--bogus"]) == 2
        assert built == []


class TestDeterminism:
    # the shared parser hands every call the same default lists (kk-check's
    # --ns, fdd-check's --times); a usage error between the runs must not
    # leave state behind either
    @pytest.mark.parametrize(
        "argv",
        [
            "marginal-sweep --process bessel --m 3 --ns 100,1000 --replicates 400 --seed 9",
            "kk-check --seed 9",
            "fdd-check --process br --replicates 200 --seed 9",
        ],
        ids=["marginal-sweep", "kk-check-default-ns", "fdd-check-br-default-times"],
    )
    def test_same_seed_twice_is_byte_identical(self, tmp_path, capsys, argv):
        argv = argv.split()
        _, first = run_to_file(tmp_path, "a.json", argv)
        assert run(argv + ["--bogus"]) == 2
        _, second = run_to_file(tmp_path, "b.json", argv)
        assert first == second

    def test_threads_do_not_change_report(self, tmp_path):
        base = [
            "fdd-check", "--process", "scalar", "--m", "2", "--n", "300",
            "--replicates", "300", "--seed", "11",
        ]
        _, one = run_to_file(tmp_path, "t1.json", base + ["--threads", "1"])
        _, four = run_to_file(tmp_path, "t4.json", base + ["--threads", "4"])
        assert one == four


class TestFormats:
    def test_csv_projection(self, tmp_path):
        code, raw = run_to_file(
            tmp_path,
            "r.csv",
            [
                "tail-check", "--m", "2", "--x", "5", "--seed", "1", "--format", "csv",
            ],
        )
        assert code == 0
        lines = raw.decode().strip().splitlines()
        assert lines[0] == "statistic,value,threshold,passed"
        assert lines[1].startswith("exact_tail,")
        assert any(line.startswith("ratio,") and line.endswith(",,") for line in lines)
        assert any(line.startswith("ratio_error,") and line.endswith(",0.050000000000000003,true")
                   for line in lines)

    def test_stdout_when_no_out(self, capsys):
        code = run(["constants", "--process", "bessel", "--m", "2", "--n", "10", "--seed", "1"])
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["schema"] == "bessel-br/1"
        assert "PASS" in captured.err.splitlines()


class TestTimings:
    ARGV = ["br-selftest", "--grid-k", "2", "--replicates", "20", "--seed", "3"]

    def test_selftest_spans_go_to_stderr_and_stay_out_of_the_report(self, tmp_path, capsys):
        _, raw = run_to_file(tmp_path, "plain.json", list(self.ARGV))
        err = capsys.readouterr().err
        for stage in ("base", "loose", "tight"):
            assert re.search(rf"^\[br-selftest\] {stage} [0-9.]+ ms$", err, re.M), stage
        assert "timings_ms" not in json.loads(raw)

    def test_emit_timings_adds_the_spans_next_to_total(self, tmp_path):
        _, plain = run_to_file(tmp_path, "plain.json", list(self.ARGV))
        _, timed = run_to_file(tmp_path, "timed.json", self.ARGV + ["--emit-timings"])
        report = json.loads(timed)
        assert list(report.pop("timings_ms")) == ["base", "loose", "tight", "total"]
        assert report == json.loads(plain)

    @pytest.mark.parametrize(
        "argv",
        [
            "fdd-check --process bessel --m 2 --n 200 --replicates 50 --seed 3",
            "fdd-check --process br --times 0,1 --replicates 50 --seed 3",
        ],
        ids=["prelimit", "limit"],
    )
    def test_fdd_check_spans_reach_stderr_and_only_the_timed_report(self, tmp_path, capsys, argv):
        argv = argv.split()
        _, plain = run_to_file(tmp_path, "plain.json", argv)
        err = capsys.readouterr().err
        for stage in ("sample", "statistic"):
            assert re.search(rf"^\[fdd-check\] {stage} [0-9.]+ ms$", err, re.M), stage
        assert "timings_ms" not in json.loads(plain)
        _, timed = run_to_file(tmp_path, "timed.json", argv + ["--emit-timings"])
        report = json.loads(timed)
        assert list(report.pop("timings_ms")) == ["sample", "statistic", "total"]
        assert report == json.loads(plain)


class TestConfigEcho:
    def test_round_trip_reproduces_results(self, tmp_path):
        argv = [
            "marginal-sweep", "--process", "scalar", "--m", "2", "--ns", "100,1000",
            "--replicates", "300", "--seed", "77",
        ]
        _, raw = run_to_file(tmp_path, "orig.json", argv)
        report = json.loads(raw)
        rebuilt = argv_from_config(report["command"], report["config"])
        rebuilt += ["--out", str(tmp_path / "again.json")]
        assert run(rebuilt) == 0
        again = json.loads((tmp_path / "again.json").read_bytes())
        assert again["results"] == report["results"]

    @pytest.mark.parametrize(
        "argv, absent",
        [
            ("fdd-check --process br --times 0.25,1 --replicates 300", {"epsilon", "m", "n"}),
            ("fdd-check --process bessel --m 2 --n 200 --replicates 100", {"epsilon"}),
        ],
    )
    def test_fdd_check_round_trip(self, tmp_path, argv, absent):
        argv = argv.split() + ["--threshold", "1", "--seed", "78"]
        _, raw = run_to_file(tmp_path, "orig.json", argv)
        report = json.loads(raw)
        assert absent.isdisjoint(report["config"])
        rebuilt = argv_from_config(report["command"], report["config"])
        _, again = run_to_file(tmp_path, "again.json", rebuilt)
        assert again == raw


class TestBRSampleCommand:
    def test_writes_path(self, tmp_path):
        code, raw = run_to_file(
            tmp_path, "p.json", ["br-sample", "--grid-k", "4", "--seed", "21"]
        )
        assert code == 0
        report = json.loads(raw)
        assert len(report["path"]["times"]) == 17
        assert len(report["path"]["values"]) == 17

    def test_same_seed_same_path(self, tmp_path):
        argv = ["br-sample", "--grid-k", "4", "--seed", "22"]
        _, a = run_to_file(tmp_path, "a.json", list(argv))
        _, b = run_to_file(tmp_path, "b.json", list(argv))
        assert a == b
