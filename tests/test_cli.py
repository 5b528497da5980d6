"""Unit tests for the command-line interface."""

import os

import pytest

from repro.cli import main

SOURCE = """
param m = 256;
array Q[256];
array F[256];
parallel for (j = 0; j < m; j++)
  F[j] = F[j] + Q[j] + Q[m - 1 - j];
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "demo.loop"
    path.write_text(SOURCE)
    return str(path)


class TestSubcommands:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "harpertown" in out and "dunnington" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        assert "galgel" in capsys.readouterr().out

    def test_map(self, program_file, capsys):
        code = main(["map", program_file, "--block-size", "256", "--scale", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "iteration groups" in out and "core" in out

    def test_map_with_schedule(self, program_file, capsys):
        code = main([
            "map", program_file, "--block-size", "256", "--schedule",
            "--machine", "harpertown",
        ])
        assert code == 0
        assert "schedule" in capsys.readouterr().out

    def test_simulate(self, program_file, capsys):
        code = main([
            "simulate", program_file, "--block-size", "256",
            "--scheme", "ta", "--scale", "64",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ta vs base" in out and "speedup" in out

    def test_simulate_base_only(self, program_file, capsys):
        code = main(["simulate", program_file, "--scheme", "base", "--block-size", "256"])
        assert code == 0
        assert "base" in capsys.readouterr().out


class TestTune:
    def test_tune(self, program_file, capsys):
        code = main([
            "tune", program_file, "--candidates", "256,512", "--scale", "64",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best block size" in out

    def test_tune_with_topology_file(self, program_file, tmp_path, capsys):
        topo = tmp_path / "machine.topo"
        topo.write_text("cores=4; mem=80; L1:1K/2/64@2; L2:8K/4/64@8 per 2")
        code = main([
            "tune", program_file, "--topology", str(topo),
            "--candidates", "256", "--scale", "1",
        ])
        assert code == 0
        assert "best block size" in capsys.readouterr().out


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["map", "/nonexistent.loop"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_machine_exits_2_with_menu(self, program_file, capsys):
        assert main(["map", program_file, "--machine", "epyc"]) == 2
        err = capsys.readouterr().err
        assert "unknown machine" in err
        assert "harpertown" in err
        assert "zoo:" in err

    def test_machine_name_case_insensitive(self, program_file, capsys):
        assert main(["map", program_file, "--machine", "HARPERTOWN"]) == 0
        assert "core" in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("flag", "value", "message"),
        [
            ("--alpha", "nan", "alpha must be a finite non-negative number"),
            ("--beta", "-1", "beta must be a finite non-negative number"),
            ("--balance", "2.0", "balance threshold must be in [0, 1)"),
        ],
    )
    def test_bad_knob_values_fail_clearly(self, program_file, capsys, flag, value, message):
        assert main(["map", program_file, flag, value]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_bad_source(self, tmp_path, capsys):
        path = tmp_path / "bad.loop"
        path.write_text("for for for")
        assert main(["map", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


FIXTURES = os.path.join(os.path.dirname(__file__), "topology", "fixtures")
UNICORE_TAR = os.path.join(FIXTURES, "unicore.tar.gz")


class TestTopo:
    def test_list_mixes_builtin_and_zoo(self, capsys):
        assert main(["topo", "list"]) == 0
        out = capsys.readouterr().out
        assert "harpertown" in out
        assert "zoo:biglittle" in out

    def test_show_builtin(self, capsys):
        assert main(["topo", "show", "harpertown"]) == 0
        out = capsys.readouterr().out
        assert "digest" in out and "L2" in out

    def test_show_zoo_json(self, capsys):
        import json

        assert main(["topo", "show", "zoo:unicore", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "unicore"
        assert payload["digest"]

    def test_ingest_fixture_tar(self, capsys):
        assert main(["topo", "ingest", UNICORE_TAR]) == 0
        out = capsys.readouterr().out
        assert "digest" in out and "core" in out

    def test_ingest_writes_json_out(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "machine.json"
        assert main(["topo", "ingest", UNICORE_TAR, "--out", str(out_path)]) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert payload["digest"]

    def test_validate_ok(self, capsys):
        assert main(["topo", "validate", "zoo:unicore"]) == 0
        assert capsys.readouterr().out.startswith("OK:")

    def test_validate_bad_dump(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["topo", "validate", str(tmp_path / "empty")]) == 1
        assert "INVALID:" in capsys.readouterr().err

    def test_diff_identical(self, capsys):
        assert main(["topo", "diff", "zoo:unicore", "zoo:unicore"]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_different(self, capsys):
        assert main(["topo", "diff", "harpertown", "dunnington"]) == 1
        out = capsys.readouterr().out
        assert "---" in out and "+++" in out

    def test_map_with_zoo_machine(self, program_file, capsys):
        assert main(["map", program_file, "--machine", "zoo:harpertown2s"]) == 0
        assert "core" in capsys.readouterr().out

    def test_map_with_sysfs_dump(self, program_file, capsys):
        assert main(
            ["map", program_file, "--machine", f"sysfs:{UNICORE_TAR}"]
        ) == 0
        assert "core" in capsys.readouterr().out
