"""Command-line interface and config-file handling."""

import pytest

from vnesim.cli import main
from vnesim.config import ConfigError, RunConfig, build_config, parse_config_file
from vnesim.netmodel import topology_text

from conftest import make_net


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


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


class TestSweepCommand:
    def test_seed_sweep_rows(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "sweep", "--requests", "20", "--runs", "3", "--seed", "5"
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0].startswith("seed,arrivals,")
        assert [l.split(",")[0] for l in lines[1:]] == ["5", "6", "7"]

    def test_parallel_matches_sequential(self, capsys):
        _, sequential, _ = run_cli(
            capsys, "sweep", "--requests", "20", "--runs", "4"
        )
        _, parallel, _ = run_cli(
            capsys, "sweep", "--requests", "20", "--runs", "4", "--workers", "2"
        )
        assert parallel == sequential

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

    def run_expecting_2(self, capsys, tmp_path, *argv):
        code, _, stderr = run_cli(capsys, *argv, "--requests", "5",
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
