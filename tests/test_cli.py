"""Tests for the command-line interface."""

import hashlib
import re

import pytest

from repro.cli import build_parser, main, make_workload
from repro.workloads import SmallBankWorkload, TPCCWorkload, YCSBWorkload
from tests.test_public_surface import FLAG_DOCS, command_options, doc_paths

#: Files whose ``repro <command>`` lines must pass only real flags.
COMMAND_DOCS = FLAG_DOCS + (".claude/skills/verify/SKILL.md",)


def command_lines(text: str, options: dict) -> list:
    """``(command, flags)`` per ``repro <command> ...`` line of ``text``.

    Continuation lines are joined first; a command line ends at a
    backtick, a newline or a shell separator.
    """
    pattern = re.compile(rf"\brepro\s+({'|'.join(options)})\b([^`\n;|&]*)")
    return [
        (match.group(1), re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", match.group(2)))
        for match in pattern.finditer(text.replace("\\\n", " "))
    ]


def stale_flags(text: str, options: dict) -> list:
    """``(command, flag)`` per flag a command line passes that its
    command does not accept."""
    return [
        (command, flag)
        for command, flags in command_lines(text, options)
        for flag in flags if flag not in options[command]
    ]


class TestDocumentedCommands:
    def test_documented_commands_name_only_real_flags(self):
        options = command_options(build_parser())
        stale, commands = [], set()
        for path in doc_paths(COMMAND_DOCS):
            text = path.read_text()
            stale += [(path.name, *pair) for pair in stale_flags(text, options)]
            commands.update(command for command, _ in command_lines(text, options))
        assert not stale, f"documented commands pass flags that do not exist: {stale}"
        assert commands == set(options)

    def test_a_stale_flag_is_caught(self):
        options = command_options(build_parser())
        text = "make it:\n\tpython -m repro chaos --system dynamast \\\n\t\t--bucket 100\n"
        assert stale_flags(text, options) == [("chaos", "--bucket")]


class TestMakeWorkload:
    class Args:
        skew = 0.5

    def test_ycsb(self):
        workload = make_workload("ycsb", self.Args)
        assert isinstance(workload, YCSBWorkload)
        assert workload.config.rmw_fraction == 0.5
        assert workload.config.zipf_theta == 0.5

    def test_tpcc(self):
        workload = make_workload("tpcc", self.Args)
        assert isinstance(workload, TPCCWorkload)
        assert workload.config.neworder_remote_fraction == 0.10

    def test_smallbank(self):
        assert isinstance(make_workload("smallbank", self.Args), SmallBankWorkload)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_workload("bogus", self.Args)


class TestCommands:
    def test_bench_command(self, capsys):
        code = main([
            "bench", "dynamast", "--clients", "4", "--duration", "150",
            "--sites", "2",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "dynamast on ycsb" in output
        assert "remaster/ship fraction" in output

    def test_compare_command(self, capsys):
        code = main([
            "compare", "--systems", "dynamast,partition-store",
            "--clients", "4", "--duration", "150", "--sites", "2",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "dynamast" in output
        assert "partition-store" in output

    def test_experiments_command(self, capsys):
        assert main(["experiments"]) == 0
        output = capsys.readouterr().out
        assert "fig4a_ycsb_uniform" in output

    def test_bench_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            main(["bench", "bogus"])

    @pytest.mark.parametrize("command", [
        ["bench", "dynamast"],
        ["compare", "--systems", "dynamast"],
        ["compare", "--systems", "dynamast,single-master", "--jobs", "2"],
        ["trace", "--out", "unwritten"],
        ["explain"],
        ["masters"],
    ])
    @pytest.mark.parametrize("flags,field", [
        (["--duration", "0", "--clients", "0"], "duration_ms"),
        (["--clients", "0"], "num_clients"),
        (["--skew", "-1"], "zipf_theta"),
        (["--cores", "0"], "ClusterConfig.cores_per_site must be >= 1, got 0"),
    ])
    def test_bad_run_parameters_exit_2_without_a_report(
            self, command, flags, field, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(command + ["--duration", "100"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"repro {command[0]}: error:" in captured.err
        assert field in captured.err
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,flag,value,rule", [
        (["compare"], "--jobs", "0", "must be >= 1, got 0"),
        (["chaos"], "--jobs", "0", "must be >= 1, got 0"),
        (["chaos"], "--jobs", "-3", "must be >= 1, got -3"),
        (["perf"], "--jobs", "0", "must be >= 1, got 0"),
    ])
    def test_an_out_of_range_flag_exits_2_naming_it(
            self, command, flag, value, rule, capsys):
        """``chaos --jobs 0`` used to run serially and exit 0; ``perf
        --jobs 0`` printed its plan before failing."""
        with pytest.raises(SystemExit) as exit:
            main(command + [flag, value])
        assert exit.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: {rule}" in captured.err

    def test_compare_rejects_unknown_system(self, capsys):
        assert main(["compare", "--systems", "dynamast,bogus"]) == 2
        assert "repro compare: error: unknown system 'bogus'" in \
            capsys.readouterr().err

    def test_tpcc_via_cli(self, capsys):
        code = main([
            "bench", "multi-master", "--workload", "tpcc",
            "--clients", "6", "--duration", "200", "--sites", "2",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "new_order" in output


class TestExplainCommand:
    EXPLAIN = ["explain", "--clients", "4", "--duration", "200", "--sites", "2"]

    def export(self, tmp_path, name, system="dynamast", seed="7"):
        path = tmp_path / name
        code = main(self.EXPLAIN + [
            "--system", system, "--seed", seed, "--export", str(path),
        ])
        assert code == 0
        return path

    def test_explain_prints_budget_and_waterfalls(self, capsys):
        code = main(self.EXPLAIN + ["--system", "dynamast", "--seed", "7"])
        assert code == 0
        output = capsys.readouterr().out
        assert "latency budget: dynamast" in output
        assert "coverage 1.000000" in output
        assert "worst transactions (waterfalls)" in output
        assert "causal edges" in output

    def test_explain_vs_prints_diff(self, capsys):
        code = main(self.EXPLAIN + [
            "--system", "dynamast", "--vs", "single-master", "--seed", "7",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "budget diff: dynamast" in output
        assert "single-master" in output

    def test_export_then_diff_roundtrip(self, capsys, tmp_path):
        a = self.export(tmp_path, "a.json", system="dynamast")
        b = self.export(tmp_path, "b.json", system="single-master")
        capsys.readouterr()
        code = main(["explain", "--diff", str(a), str(b)])
        assert code == 0
        output = capsys.readouterr().out
        assert "budget diff: dynamast" in output

    def test_diff_mismatched_pair_fails_cleanly(self, capsys, tmp_path):
        a = self.export(tmp_path, "a.json", seed="7")
        b = self.export(tmp_path, "b.json", seed="9")
        capsys.readouterr()
        code = main(["explain", "--diff", str(a), str(b)])
        assert code == 2
        err = capsys.readouterr().err
        assert "repro explain: error:" in err
        assert "seed differs" in err
        assert "Traceback" not in err

    def test_diff_malformed_json_fails_cleanly(self, capsys, tmp_path):
        a = self.export(tmp_path, "a.json")
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        capsys.readouterr()
        code = main(["explain", "--diff", str(a), str(broken)])
        assert code == 2
        err = capsys.readouterr().err
        assert "repro explain: error:" in err
        assert "Traceback" not in err

    def test_diff_wrong_schema_fails_cleanly(self, capsys, tmp_path):
        import json

        a = self.export(tmp_path, "a.json")
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({"schema": "repro-explain/0"}))
        capsys.readouterr()
        code = main(["explain", "--diff", str(a), str(stale)])
        assert code == 2
        assert "schema" in capsys.readouterr().err

    def test_diff_missing_file_fails_cleanly(self, capsys, tmp_path):
        a = self.export(tmp_path, "a.json")
        capsys.readouterr()
        code = main(["explain", "--diff", str(a), str(tmp_path / "gone.json")])
        assert code == 2
        assert "repro explain: error:" in capsys.readouterr().err

    def test_unknown_txn_fails_cleanly(self, capsys):
        code = main(self.EXPLAIN + ["--system", "dynamast", "--txn", "999999999"])
        assert code == 2
        err = capsys.readouterr().err
        assert "was not attributed" in err

    def test_output_and_export_are_pinned(self, capsys, tmp_path):
        """Digests of the report (budget, blame, the causal-edges table,
        waterfalls) and of its ``--export`` JSON, of a 2PC run whose
        table counts all six edge kinds, and of ``repro chaos
        --explain``'s report, taken while the tracer still kept a third
        record kind for the waits it now writes once: how a wait is
        recorded must not move one byte of what is explained."""
        def digest(text):
            return hashlib.sha256(text.encode()).hexdigest()

        path = self.export(tmp_path, "pinned.json")
        assert digest(capsys.readouterr().out) == (
            "72a0b22ba22c4b0e67a61d9b9343662c40d82211936175b37998bf61e496458c")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "e869bd6f1a8f09bfaafd5e524873b8d329009549031a3041acef96b803c8a9ed")
        assert main(["explain", "--system", "multi-master", "--workload", "tpcc",
                     "--clients", "16", "--duration", "300", "--sites", "3",
                     "--cores", "1", "--seed", "5"]) == 0
        assert digest(capsys.readouterr().out) == (
            "cf5a71c7761c7b9234b9da9ffea0c63f08b769aa6ec3a47ba7baac9693b9a7ef")
        assert main(["chaos", "--system", "dynamast", "--scenario", "crash-restart",
                     "--duration", "900", "--clients", "4", "--explain"]) == 0
        assert digest(capsys.readouterr().out) == (
            "699a7d90da3a02b8782e4792fbe39bd9fa9ed2e0ac5d37b3edd14e02669a8c7c")


class TestChaosCommand:
    def test_chaos_command(self, capsys, tmp_path):
        out = tmp_path / "timeline.csv"
        code = main([
            "chaos", "--system", "dynamast", "--scenario", "crash-restart",
            "--duration", "900", "--clients", "4",
            "--out", str(out),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "chaos: dynamast under crash-restart" in output
        assert "crash site1" in output
        assert "restart site1" in output
        assert out.read_text().startswith("start_ms,commits_per_s")

    def test_chaos_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--scenario", "bogus"])

    def test_chaos_gray_scenario_with_adaptive_defenses(self, capsys):
        code = main([
            "chaos", "--system", "dynamast", "--scenario", "fail_slow_master",
            "--duration", "2400", "--clients", "4",
            "--defenses", "adaptive", "--masters",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "chaos: dynamast under fail_slow_master" in output
        assert "defenses=adaptive" in output
        assert "hedges launched" in output
        assert "mastering (decision ledger)" in output

    def test_chaos_gray_scenario_with_explain(self, capsys):
        code = main([
            "chaos", "--system", "dynamast", "--scenario", "degraded_wan_link",
            "--duration", "900", "--clients", "4",
            "--explain",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "chaos: dynamast under degraded_wan_link" in output

    def test_chaos_rejects_unknown_defenses(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--defenses", "hopeful"])

    def test_chaos_explain_attributes_the_dip(self, capsys):
        code = main([
            "chaos", "--system", "dynamast", "--scenario", "crash-restart",
            "--duration", "900", "--clients", "4",
            "--explain",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "availability-dip attribution" in output
        assert "steady" in output and "degraded" in output

    def test_chaos_masters_reports_reconvergence(self, capsys):
        code = main([
            "chaos", "--system", "dynamast", "--scenario", "crash-restart",
            "--duration", "900", "--clients", "4",
            "--masters",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "mastering (decision ledger)" in output
        assert "mastering re-convergence after fault transitions" in output
        assert "crash site" in output and "restart site" in output

    def test_chaos_matrix_masters_columns(self, capsys):
        code = main([
            "chaos", "--systems", "dynamast,single-master",
            "--scenarios", "crash", "--duration", "600",
            "--clients", "2", "--jobs", "2", "--masters",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "chaos matrix" in output
        assert "locality" in output and "converged" in output
        assert "detect ms" in output and "quarant ms" in output

    def test_chaos_slo_serial_prints_the_verdict(self, capsys):
        code = main([
            "chaos", "--system", "dynamast", "--scenario", "crash",
            "--duration", "900", "--clients", "4",
            "--slo",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "SLO objectives" in output
        assert "SLO verdict" in output
        assert "detection latency" in output or "quarantine" in output

    def test_chaos_matrix_slo_columns(self, capsys):
        code = main([
            "chaos", "--systems", "dynamast,single-master",
            "--scenarios", "crash", "--duration", "600",
            "--clients", "2", "--jobs", "2", "--slo",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "chaos matrix" in output
        assert "incidents" in output and "MTTD ms" in output


class TestSloCommand:
    def test_slo_run_reports_and_exports(self, capsys, tmp_path):
        html = tmp_path / "dash.html"
        jsonl = tmp_path / "slo.jsonl"
        csv = tmp_path / "slo.csv"
        prom = tmp_path / "slo.prom"
        code = main([
            "slo", "--scenario", "fail_slow_master", "--duration", "2000",
            "--clients", "8", "--quick",
            "--html", str(html), "--export-jsonl", str(jsonl),
            "--export-csv", str(csv), "--prometheus", str(prom),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "repro slo: dynamast under fail_slow_master" in output
        assert "SLO objectives" in output
        assert "fault correlation" in output
        assert html.read_text().startswith("<!DOCTYPE html>")
        assert jsonl.read_text().startswith('{"')
        assert csv.read_text().startswith("kind,objective")
        assert "repro_slo_incidents_total" in prom.read_text()

    def test_slo_unfaulted_scenario_none(self, capsys):
        code = main([
            "slo", "--scenario", "none", "--duration", "1500",
            "--clients", "4", "--quick",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "SLO verdict" in output

    def test_slo_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["slo", "--scenario", "meteor"])


ARGS_MASTERS = [
    "masters", "--system", "dynamast", "--workload", "ycsb",
    "--skew", "0.9", "--clients", "8", "--duration", "400", "--seed", "7",
]


class TestMastersCommand:
    def test_masters_reports_timeline_and_convergence(self, capsys):
        code = main(ARGS_MASTERS)
        assert code == 0
        output = capsys.readouterr().out
        assert "mastering (decision ledger)" in output
        assert "most remastered partitions" in output
        assert "windowed remaster rate" in output
        assert "convergence:" in output
        assert "remaster decisions" in output

    def test_masters_why_renders_the_waterfall(self, capsys):
        code = main(ARGS_MASTERS + ["--why", "0"])
        assert code == 0
        output = capsys.readouterr().out
        assert "decision #0" in output
        assert "<- chosen" in output
        assert "weights:" in output

    def test_masters_why_out_of_range_fails_cleanly(self, capsys):
        code = main(ARGS_MASTERS + ["--why", "999999"])
        assert code == 2
        assert "was not recorded" in capsys.readouterr().err

    def test_masters_exports(self, capsys, tmp_path):
        from repro.obs.export import load_jsonl

        jsonl = tmp_path / "ledger.jsonl"
        csv_path = tmp_path / "rate.csv"
        prom = tmp_path / "masters.prom"
        code = main(ARGS_MASTERS + [
            "--export-jsonl", str(jsonl), "--export-csv", str(csv_path),
            "--prometheus", str(prom),
        ])
        assert code == 0
        loaded = load_jsonl(str(jsonl))
        assert loaded["header"]["schema"] == "repro-masters/1"
        assert loaded["decisions"]
        assert csv_path.read_text().startswith("start_ms,routed,remastered")
        assert "repro_masters_locality_share" in prom.read_text()
