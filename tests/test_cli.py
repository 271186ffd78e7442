"""Command-line interface and config-file handling."""

import hashlib
import math
from dataclasses import fields

import pytest

from vnesim import cli, metrics
from vnesim import run as run_module
from vnesim.cli import main
from vnesim.config import ConfigError, RunConfig, build_config, parse_config_file
from vnesim.controller import STRATEGIES
from vnesim.run import run_simulation

from conftest import make_net
from reference import topology_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def counting_csv_text(monkeypatch):
    """Record the trace formattings from here on: the rows of each call."""
    calls = []
    csv_text = metrics.csv_text
    monkeypatch.setattr(metrics, "csv_text", lambda rows: calls.append(len(rows)) or csv_text(rows))
    return calls


def summary_row(first, config):
    """A table row as the summary less its trace hash gives it."""
    _, log = run_simulation(config)
    stats = metrics.summary(log)
    del stats["trace_sha256"]
    return ",".join([str(first), *(cli._format(v) for v in stats.values())])


class TestRunConfig:
    def test_defaults_validate(self):
        c = RunConfig()
        assert c.validate() is c
        assert c.strategy == "batched"
        assert (c.batch_size, c.requests, c.seed) == (5, 1500, 0)

    def test_effective_window_couples_to_batch_size(self):
        assert RunConfig(batch_size=7).effective_window() == 35.0
        assert RunConfig(batch_size=7, window=12.0).effective_window() == 12.0

    def test_validation_errors(self):
        with pytest.raises(ConfigError, match="unknown strategy"):
            RunConfig(strategy="psychic").validate()
        with pytest.raises(ConfigError, match="unknown batch mode"):
            RunConfig(mode="sometimes").validate()
        with pytest.raises(ConfigError, match="batch_size"):
            RunConfig(batch_size=0).validate()
        with pytest.raises(ConfigError, match="window"):
            RunConfig(window=-1.0).validate()
        with pytest.raises(ConfigError, match="split_paths"):
            RunConfig(split_paths=0).validate()
        with pytest.raises(ConfigError, match="means"):
            RunConfig(interarrival_mean=0).validate()
        with pytest.raises(ConfigError, match="edge probability"):
            RunConfig(edge_prob=2.0).validate()


class TestConfigFile:
    def test_parse_key_value_lines(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text(
            """
            # smoke config
            strategy = splitting
            requests = 40        # tiny
            window = none
            hop_delay = 2.5
            check_invariants = yes
            """,
            encoding="utf-8",
        )
        assert parse_config_file(p) == {
            "strategy": "splitting",
            "requests": 40,
            "window": None,
            "hop_delay": 2.5,
            "check_invariants": True,
        }

    def test_bad_lines_carry_line_numbers(self, tmp_path):
        p = tmp_path / "bad.conf"
        p.write_text("requests = 10\nwhat is this\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_file(p)
        p.write_text("requests = many\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="line 1: bad value 'many'"):
            parse_config_file(p)
        p.write_text("cheese = brie\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown key 'cheese'"):
            parse_config_file(p)

    def test_precedence_defaults_file_flags(self):
        config = build_config(
            {"seed": 3, "requests": 25},
            {"requests": 60, "window": None},  # None flags are "not given"
        )
        assert (config.seed, config.requests) == (3, 60)
        assert config.window is None
        assert config.batch_size == 5  # untouched default

    def test_unknown_flag_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: haircut"):
            build_config({}, {"haircut": 9})

    # a valid value other than the default for every RunConfig field
    SAMPLES = {
        "substrate": "random:20", "vnodes_min": "4", "vnodes_max": "6",
        "edge_prob": "0.25", "node_demand_min": "2", "node_demand_max": "30",
        "link_demand_min": "2", "link_demand_max": "3", "cap_min": "90",
        "cap_max": "300", "strategy": "splitting", "requests": "7", "seed": "7",
        "batch_size": "3", "window": "12.5", "mode": "time-only",
        "split_paths": "3", "interarrival_mean": "2.5", "lifetime_mean": "60",
        "hop_delay": "0.5", "wait_delay": "0", "horizon": "100", "out": "x.csv",
        "check_invariants": "true",
    }

    def test_every_field_has_a_sample(self):
        assert set(self.SAMPLES) == {f.name for f in fields(RunConfig)}

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_flag_and_file_line_build_equal_configs(self, monkeypatch, tmp_path, name):
        seen = []
        monkeypatch.setattr(cli, "cmd_run", lambda args: seen.append(cli._config_from_args(args)) or 0)
        flag = "--" + name.replace("_", "-")
        value = self.SAMPLES[name]
        assert main(["run", flag] if value == "true" else ["run", flag, value]) == 0
        p = tmp_path / "one.conf"
        p.write_text(f"{name} = {value}\n", encoding="utf-8")
        from_file = build_config(parse_config_file(p))
        assert seen == [from_file]
        assert from_file != RunConfig()


class TestRunCommand:
    def test_smoke_run_writes_trace_and_summary(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, stdout, stderr = run_cli(
            capsys, "run", "--requests", "30", "--seed", "1",
            "--check-invariants", "--out", str(out),
        )
        assert code == 0 and stderr == ""
        lines = stdout.splitlines()
        assert lines[0] == f"trace {out}"
        assert lines[1].startswith("events ")
        stats = dict(l.split(" ", 1) for l in lines[2:])
        assert stats["arrivals"] == "30"
        assert out.read_text(encoding="utf-8").startswith("time,event_kind,")

    def test_printed_hash_is_the_hash_of_the_written_file(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, stdout, _ = run_cli(capsys, "run", "--requests", "40", "--seed", "3", "--out", str(out))
        stats = dict(l.split(" ", 1) for l in stdout.splitlines()[2:])
        assert code == 0
        assert stats["trace_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()

    def test_run_formats_the_trace_once(self, capsys, tmp_path, monkeypatch):
        # each row is formatted exactly once, for the written file and the
        # printed hash together: the rows formatted add up to the file's
        out = tmp_path / "t.csv"
        calls = counting_csv_text(monkeypatch)
        code, _, _ = run_cli(capsys, "run", "--requests", "300", "--seed", "3", "--out", str(out))
        assert code == 0
        assert sum(calls) == len(out.read_text(encoding="utf-8").splitlines()) - 1 > 256
        assert len(calls) > 1 and all(rows == metrics.TRACE_BLOCK for rows in calls[:-1])

    def test_a_failed_run_leaves_the_file_at_out_as_it_was(self, capsys, tmp_path):
        # the ConfigError comes from inside run_simulation, once the trace
        # file is open: each gap fits the tick count, 1,500 of them summed do not
        out = tmp_path / "t.csv"
        out.write_bytes(b"an earlier trace\n")
        code, stdout, stderr = run_cli(capsys, "run", "--interarrival-mean", "1e300",
                                       "--requests", "1500", "--out", str(out))
        assert code == 2 and stdout == ""
        assert stderr.startswith("bad configuration:") and "interarrival_mean" in stderr
        assert out.read_bytes() == b"an earlier trace\n"
        assert list(tmp_path.iterdir()) == [out]  # the partial trace is removed

    def test_out_in_a_missing_directory_exits_2(self, capsys, tmp_path):
        code, stdout, stderr = run_cli(capsys, "run", "--requests", "20",
                                       "--out", str(tmp_path / "absent" / "t.csv"))
        assert code == 2 and stdout == ""
        assert stderr.startswith("error:") and len(stderr.splitlines()) == 1
        assert "Traceback" not in stderr
        assert list(tmp_path.iterdir()) == []

    def test_same_seed_same_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "run", "--requests", "40", "--seed", "7", "--out", str(a))
        run_cli(capsys, "run", "--requests", "40", "--seed", "7", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_equals_flags(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("requests = 35\nseed = 9\n", encoding="utf-8")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "run", "--config", str(conf), "--out", str(a))
        run_cli(capsys, "run", "--requests", "35", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_flags_override_the_config_file(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("requests = 35\nseed = 9\n", encoding="utf-8")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "run", "--config", str(conf), "--seed", "2", "--out", str(a))
        run_cli(capsys, "run", "--requests", "35", "--seed", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_config_file_exits_2(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("strategy = bogus\n", encoding="utf-8")
        code, _, stderr = run_cli(capsys, "run", "--config", str(conf))
        assert code == 2
        assert stderr.startswith("bad configuration:")

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys, "run", "--config", str(tmp_path / "absent.conf")
        )
        assert code == 2
        assert stderr.startswith("error:")


class TestCompareCommand:
    def test_three_rows_same_workload(self, capsys, tmp_path):
        code, stdout, stderr = run_cli(
            capsys, "compare", "--requests", "40", "--seed", "3",
            "--out", str(tmp_path / "ignored.csv"),
        )
        assert code == 0 and stderr == ""
        lines = stdout.splitlines()
        assert lines[0].startswith("strategy,arrivals,")
        assert len(lines) == 4
        rows = [l.split(",") for l in lines[1:]]
        assert [r[0] for r in rows] == ["batched", "per-request", "splitting"]
        assert {r[1] for r in rows} == {"40"}  # identical arrivals everywhere

    def test_rows_are_the_summary_less_its_hash_and_no_trace_is_formatted(self, capsys, monkeypatch):
        calls = counting_csv_text(monkeypatch)
        code, stdout, _ = run_cli(capsys, "compare", "--requests", "40", "--seed", "3")
        assert code == 0 and calls == []
        header = [k for k in metrics.summary(metrics.MetricsLog(None)) if k != "trace_sha256"]
        assert stdout.splitlines() == [",".join(["strategy", *header])] + [
            summary_row(s, RunConfig(strategy=s, requests=40, seed=3)) for s in STRATEGIES]


class TestSweepCommand:
    def test_seed_sweep_starts_at_the_config_file_seed(self, capsys, tmp_path):
        conf = tmp_path / "sweep.conf"
        conf.write_text("seed = 7\n", encoding="utf-8")
        code, stdout, _ = run_cli(
            capsys, "sweep", "--config", str(conf), "--requests", "20", "--runs", "2"
        )
        assert code == 0
        assert [l.split(",")[0] for l in stdout.splitlines()[1:]] == ["7", "8"]

    def test_seed_sweep_rows(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "sweep", "--requests", "20", "--runs", "3", "--seed", "5"
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0].startswith("seed,arrivals,")
        assert [l.split(",")[0] for l in lines[1:]] == ["5", "6", "7"]

    def test_rows_are_the_summary_less_its_hash_and_no_trace_is_formatted(self, capsys, monkeypatch):
        calls = counting_csv_text(monkeypatch)
        code, stdout, _ = run_cli(capsys, "sweep", "--requests", "20", "--runs", "2", "--seed", "5")
        assert code == 0 and calls == []
        assert stdout.splitlines()[1:] == [
            summary_row(seed, RunConfig(requests=20, seed=seed)) for seed in (5, 6)]

    def test_parallel_matches_sequential(self, capsys):
        _, sequential, _ = run_cli(
            capsys, "sweep", "--requests", "20", "--runs", "4"
        )
        _, parallel, _ = run_cli(
            capsys, "sweep", "--requests", "20", "--runs", "4", "--workers", "2"
        )
        assert parallel == sequential

    @pytest.mark.parametrize("flag,value", [("--runs", "-2"), ("--runs", "0"),
                                            ("--workers", "-3"), ("--workers", "0")])
    def test_nonpositive_runs_or_workers_exit_2(self, capsys, flag, value):
        code, stdout, stderr = run_cli(capsys, "sweep", "--requests", "20", flag, value)
        assert code == 2
        assert stdout == ""
        assert f"{flag} must be at least 1" in stderr

    def test_pool_is_no_larger_than_the_job_list(self, capsys, monkeypatch):
        sizes = []

        class FakePool:
            """Records its size and maps in this process."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [fn(job) for job in jobs]

        monkeypatch.setattr(cli, "Pool", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        code, _, _ = run_cli(capsys, "sweep", "--requests", "20", "--runs", "3", "--workers", "8")
        assert code == 0
        code, _, _ = run_cli(capsys, "sweep", "--requests", "20", "--batch-sizes", "2,3", "--workers", "4")
        assert code == 0
        code, _, _ = run_cli(capsys, "sweep", "--requests", "20", "--runs", "1", "--workers", "8")
        assert code == 0
        assert sizes == [3, 2]  # one job runs in this process, no pool
        # nor larger than the CPU count; an unknown count allows one process
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        code, out, _ = run_cli(capsys, "sweep", "--requests", "20", "--runs", "6", "--workers", "5000")
        assert code == 0 and len(out.splitlines()) == 7
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        code, _, _ = run_cli(capsys, "sweep", "--requests", "20", "--runs", "3", "--workers", "8")
        assert code == 0
        assert sizes == [3, 2, 2]  # the last sweep ran in this process

    def test_batch_size_sweep(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "sweep", "--requests", "20", "--batch-sizes", "1,5"
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0].startswith("batch_size,")
        assert [l.split(",")[0] for l in lines[1:]] == ["1", "5"]

    def test_bad_batch_size_list(self, capsys):
        code, _, stderr = run_cli(capsys, "sweep", "--batch-sizes", "1,x")
        assert code == 2
        assert "bad --batch-sizes" in stderr


class TestValidateTopologyCommand:
    def test_valid_file(self, capsys, tmp_path):
        p = tmp_path / "net.topo"
        p.write_text(topology_text(make_net([1, 2, 3], [(1, 2), (2, 3)])), encoding="utf-8")
        code, stdout, _ = run_cli(capsys, "validate-topology", str(p))
        assert code == 0
        assert stdout == "ok: 3 switches, 2 links, connected\n"

    def test_invalid_file(self, capsys, tmp_path):
        p = tmp_path / "net.topo"
        p.write_text("switch 1 100\nlink 1 9 50\n", encoding="utf-8")
        code, _, stderr = run_cli(capsys, "validate-topology", str(p))
        assert code == 2
        assert stderr.startswith("invalid topology:")

    def test_missing_file(self, capsys, tmp_path):
        code, _, stderr = run_cli(capsys, "validate-topology", str(tmp_path / "nope"))
        assert code == 2
        assert stderr.startswith("invalid topology:")


class TestBadInputExitsTwo:
    """Bad input ends with exit code 2 and one message, never a traceback."""

    def run_expecting_2(self, capsys, tmp_path, *argv, requests=5):
        code, _, stderr = run_cli(capsys, *argv, "--requests", str(requests),
                                  "--out", str(tmp_path / "t.csv"))
        assert code == 2
        assert "Traceback" not in stderr and len(stderr.splitlines()) == 1
        return stderr

    def test_random_substrate_size_must_be_an_integer(self, capsys, tmp_path):
        stderr = self.run_expecting_2(capsys, tmp_path, "run", "--substrate", "random:abc")
        assert stderr.startswith("bad configuration:") and "random:abc" in stderr

    @pytest.mark.parametrize("size", ["1", "0"])
    def test_random_substrate_needs_two_switches(self, capsys, tmp_path, size):
        stderr = self.run_expecting_2(capsys, tmp_path, "run", "--substrate", f"random:{size}")
        assert stderr.startswith("bad configuration:") and "n >= 2" in stderr

    @pytest.mark.parametrize("flag, value", [
        ("--window", "nan"), ("--interarrival-mean", "nan"), ("--lifetime-mean", "inf"),
        ("--horizon", "nan"), ("--hop-delay", "nan"), ("--hop-delay", "-1"),
        # finite, but the tick count (of a mean: of its largest draw) overflows
        ("--window", "1e303"), ("--horizon", "1e303"),
        ("--interarrival-mean", "1e303"), ("--lifetime-mean", "1e303"),
        ("--interarrival-mean", "4.9e300"),
    ])
    def test_nonfinite_or_negative_float_flag(self, capsys, tmp_path, flag, value):
        stderr = self.run_expecting_2(capsys, tmp_path, "run", flag, value)
        assert stderr.startswith("bad configuration:") and flag[2:].replace("-", "_") in stderr

    @pytest.mark.parametrize("flag", ["--window", "--horizon"])
    def test_time_that_rounds_to_zero_ticks(self, capsys, tmp_path, flag):
        # positive, but below half a tick: no event could ever play
        stderr = self.run_expecting_2(capsys, tmp_path, "run", flag, "1e-9", requests=20)
        assert stderr.startswith("bad configuration:") and flag[2:] in stderr
        assert "rounds to 0 ticks" in stderr

    def test_batch_size_past_float_range(self, capsys, tmp_path):
        # the default window, 5 * batch_size, is a float
        stderr = self.run_expecting_2(capsys, tmp_path, "run", "--batch-size", "1" + "0" * 400)
        assert stderr.startswith("bad configuration:") and "batch_size" in stderr

    def test_arrivals_that_sum_past_float_range(self, capsys, tmp_path):
        # each gap fits the tick count, 1,500 of them summed do not
        argv = ("run", "--interarrival-mean", "1e300")
        stderr = self.run_expecting_2(capsys, tmp_path, *argv, requests=1500)
        assert stderr.startswith("bad configuration:") and "interarrival_mean" in stderr
        # a horizon stops the clock in range
        code, _, stderr = run_cli(capsys, *argv, "--horizon", "1000", "--requests", "1500",
                                  "--out", str(tmp_path / "h.csv"))
        assert code == 0 and stderr == ""

    @pytest.mark.parametrize("flag", ["--hop-delay", "--wait-delay"])
    def test_latency_delay_past_float_range(self, capsys, tmp_path, flag):
        # finite, but the largest latency proxies, summed for their mean, are not
        stderr = self.run_expecting_2(capsys, tmp_path, "run", flag, "1e308", requests=20)
        assert stderr.startswith("bad configuration:") and flag[2:].replace("-", "_") in stderr

    @pytest.mark.parametrize("flag", ["--hop-delay", "--wait-delay"])
    def test_large_but_safe_latency_delay_still_runs(self, capsys, tmp_path, flag):
        code, out, stderr = run_cli(capsys, "run", flag, "1e300", "--requests", "20",
                                    "--out", str(tmp_path / "t.csv"))
        assert code == 0 and stderr == ""
        latency = next(line for line in out.splitlines() if "mean_latency_proxy" in line)
        assert math.isfinite(float(latency.split()[-1]))

    @staticmethod
    def costly_topology(tmp_path, cost):
        p = tmp_path / "costly.topo"
        p.write_text(f"switch 1 200\nswitch 2 200 {cost}\nswitch 3 200\n"
                     "link 1 2 200\nlink 2 3 200\nlink 1 3 200\n", encoding="utf-8")
        return p

    def test_unit_cost_past_float_range(self, capsys, tmp_path):
        # a valid topology, but one request's mapping cost cannot be averaged
        p = self.costly_topology(tmp_path, 10 ** 330)
        code, _, _ = run_cli(capsys, "validate-topology", str(p))
        assert code == 0
        stderr = self.run_expecting_2(capsys, tmp_path, "run", "--substrate", str(p), requests=30)
        assert stderr.startswith("bad configuration: substrate") and str(p) in stderr

    def test_unit_cost_whose_spec_bound_overflows_but_no_request_does(
            self, capsys, tmp_path, monkeypatch):
        # 10 nodes of 35 units at 6e305 pass float range, so the requests
        # are generated up front and bounded one by one: none of these 30
        # has more than 249 node units. The hash is the one the run had when
        # every run bounded its requests one by one.
        built = []
        generate_workload = run_module.generate_workload
        monkeypatch.setattr(run_module, "generate_workload",
                            lambda *args: built.append(1) or generate_workload(*args))
        p = self.costly_topology(tmp_path, 6 * 10 ** 305)
        code, out, stderr = run_cli(capsys, "run", "--substrate", str(p), "--requests", "30",
                                    "--out", str(tmp_path / "t.csv"))
        assert code == 0 and stderr == ""
        stats = dict(line.split(" ", 1) for line in out.splitlines()[2:])
        assert stats["trace_sha256"] == "06dc980005f0fc295e4d862b542ffe67f83d9fbf412f78eb15d8b0c27e9717a3"
        assert built == [1]

    def test_large_but_safe_unit_cost_still_runs(self, capsys, tmp_path):
        p = self.costly_topology(tmp_path, 10 ** 300)
        code, out, stderr = run_cli(capsys, "run", "--substrate", str(p), "--requests", "30",
                                    "--out", str(tmp_path / "t.csv"))
        assert code == 0 and stderr == ""
        cost = next(line for line in out.splitlines() if "mean_cost_per_accepted" in line)
        assert 1e300 < float(cost.split()[-1]) < math.inf

    def test_nonfinite_float_in_config_file(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("window = nan\n", encoding="utf-8")
        stderr = self.run_expecting_2(capsys, tmp_path, "run", "--config", str(conf))
        assert stderr.startswith("bad configuration:") and "window" in stderr

    def test_config_file_that_is_not_utf8(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_bytes(b"seed = 1\n\xff\n")
        stderr = self.run_expecting_2(capsys, tmp_path, "run", "--config", str(conf))
        assert stderr.startswith("bad configuration:") and "not UTF-8" in stderr

    def test_topology_file_that_is_not_utf8(self, capsys, tmp_path):
        p = tmp_path / "net.topo"
        p.write_bytes(b"switch 1 100\n\xff\n")
        code, _, stderr = run_cli(capsys, "validate-topology", str(p))
        assert code == 2
        assert stderr.startswith("invalid topology:") and "not UTF-8" in stderr
        assert "Traceback" not in stderr and len(stderr.splitlines()) == 1
        stderr = self.run_expecting_2(capsys, tmp_path, "run", "--substrate", str(p))
        assert stderr.startswith("error:") and "not UTF-8" in stderr

    def test_bad_flag_value_names_the_flag(self, capsys, tmp_path):
        stderr = self.run_expecting_2(capsys, tmp_path, "run", "--seed", "seven")
        assert stderr == "bad configuration: --seed: bad value 'seven' for seed\n"

    def test_window_that_rounds_to_zero_ticks(self, capsys, tmp_path):
        stderr = self.run_expecting_2(capsys, tmp_path, "run", "--window", "1e-9")
        assert stderr.startswith("bad configuration:") and "0 ticks" in stderr

    def test_negative_link_cost_fails_validate_topology(self, capsys, tmp_path):
        p = tmp_path / "net.topo"
        p.write_text("switch 1 100\nswitch 2 100\nlink 1 2 50 -5\n", encoding="utf-8")
        code, _, stderr = run_cli(capsys, "validate-topology", str(p))
        assert code == 2
        assert stderr == "invalid topology: line 3: link (1, 2): unit cost must be positive\n"

    def test_zero_switch_cost_fails_validate_topology(self, capsys, tmp_path):
        p = tmp_path / "net.topo"
        p.write_text("switch 1 100 0\nswitch 2 100\nlink 1 2 50\n", encoding="utf-8")
        code, _, stderr = run_cli(capsys, "validate-topology", str(p))
        assert code == 2
        assert stderr == "invalid topology: line 1: switch 1: unit cost must be positive\n"

    def test_nonpositive_cost_topology_fails_run(self, capsys, tmp_path):
        p = tmp_path / "net.topo"
        p.write_text("switch 1 100\nswitch 2 100\nlink 1 2 50 0\n", encoding="utf-8")
        stderr = self.run_expecting_2(capsys, tmp_path, "run", "--substrate", str(p))
        assert stderr.startswith("error: line 3:")

    def test_lone_switch_fails_validate_topology_and_run(self, capsys, tmp_path):
        p = tmp_path / "net.topo"
        p.write_text("switch 1 100\n", encoding="utf-8")
        code, _, stderr = run_cli(capsys, "validate-topology", str(p))
        assert code == 2
        assert stderr == "invalid topology: topology has no links\n"
        stderr = self.run_expecting_2(capsys, tmp_path, "run", "--substrate", str(p))
        assert stderr == "error: topology has no links\n"
