"""Tests for the hopperdissect CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

#: the BLAS thread-count variables ``main()`` defaults to 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: run the CLI, then dump this process's thread count and BLAS
#: variables (``sys.argv[1]`` is where)
_THREADS_PROBE = """\
import json, os, sys
from repro.cli import main
main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"numpy": "numpy" in sys.modules,
               "threads": len(os.listdir("/proc/self/task")),
               "env": {v: os.environ.get(v) for v in %r}}, fh)
""" % (BLAS_VARS,)


def _usable_cpus() -> int:
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table07_mma" in out
        assert "Fig. 8" in out

    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "H800" in out and "2039 GB/s" in out

    def test_devices_capability_matrix(self, capsys):
        assert main(["devices"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split()
        assert header[:4] == ["Device", "Arch", "CC", "TC"]
        assert {"wgmma", "tma", "dsm", "fp8", "dpx", "sparse",
                "cluster"} <= set(header)
        rows = {l.split()[0]: l.split() for l in lines[1:6]}
        assert {"A100", "RTX4090", "H800", "B200", "V100"} == set(rows)
        # Hopper row carries wgmma; Blackwell dropped it for tcgen05
        assert "yes" in rows["H800"][4:5]  # wgmma column
        assert rows["B200"][4] == "-"
        assert rows["B200"][1:3] == ["Blackwell", "10.0"]
        assert rows["V100"][1:3] == ["Volta", "7.0"]

    def test_run_single(self, capsys):
        assert main(["run", "table06_sass"]) == 0
        out = capsys.readouterr().out
        assert "HGMMA.64x256x16.F16" in out
        assert "[PASS]" in out

    def test_run_without_args_errors(self, capsys):
        assert main(["run"]) == 2
        assert "nothing to run" in capsys.readouterr().err

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["run", "table99_nope"])

    def test_report_to_file(self, tmp_path, capsys):
        # full report is expensive; exercise via a tiny subset by
        # patching run_all
        import repro.cli as cli

        def fake_run_all(**_kw):
            from repro.core import run_experiment
            return {"table03_devices": run_experiment("table03_devices")}

        orig = cli.run_all
        cli.run_all = fake_run_all
        try:
            out_file = tmp_path / "EXP.md"
            assert main(["report", "-o", str(out_file)]) == 0
            text = out_file.read_text()
            assert "Table III" in text
        finally:
            cli.run_all = orig

    def test_parser_structure(self):
        p = build_parser()
        args = p.parse_args(["run", "--all"])
        assert args.all
        assert args.jobs == 1 and not args.no_cache
        assert not args.profile
        assert not hasattr(args, "bench_json")


class TestBlasThreads:
    """``main()`` runs BLAS on one thread per process, so ``--jobs N``
    is N single-threaded processes; an exported count wins.  Checked
    in a fresh interpreter: this process loaded numpy long ago, and
    calling ``main()`` here has already set the variables."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="no /proc/self/task to count threads in")
    @pytest.mark.skipif(_usable_cpus() < 2,
                        reason="one usable CPU: OpenBLAS starts no "
                               "helper thread with or without the cap")
    @pytest.mark.parametrize("exported", [
        {}, {"OPENBLAS_NUM_THREADS": "2"}], ids=["unset", "exported"])
    def test_one_blas_thread_unless_exported(self, tmp_path, exported):
        out = tmp_path / "threads.json"
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env.update(exported,
                   PYTHONPATH=str(Path(repro.__file__).resolve()
                                  .parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", _THREADS_PROBE, str(out),
             "run", "ext_fp8_accuracy", "--no-cache"],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr[-2000:]
        seen = json.loads(out.read_text())
        assert seen["numpy"], "the probe must load numpy to mean anything"
        if not exported:
            assert seen["threads"] == 1, seen
        assert seen["env"] == {**dict.fromkeys(BLAS_VARS, "1"),
                               **exported}


class TestPerfFlags:
    def test_run_uses_cache_across_invocations(self, capsys):
        assert main(["run", "table03_devices"]) == 0
        first = capsys.readouterr().out
        assert main(["run", "table03_devices"]) == 0
        assert capsys.readouterr().out == first

    def test_run_no_cache(self, capsys):
        assert main(["run", "--no-cache", "table03_devices"]) == 0
        assert "Table III" in capsys.readouterr().out

    def test_run_jobs(self, capsys):
        assert main(["run", "-j", "2", "table03_devices",
                     "table06_sass"]) == 0
        out = capsys.readouterr().out
        # requested order, not completion order
        assert "HGMMA" in out and "H800" in out
        assert out.index("H800") < out.index("HGMMA")

    @pytest.mark.parametrize("argv", [["run", "table03_devices"],
                                      ["report", "-o", "EXP.md"]])
    def test_malformed_cache_bound_exits_with_message(
            self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("HOPPERDISSECT_CACHE_MAX_ENTRIES", "abc")
        with pytest.raises(SystemExit, match=(
                r"^hopperdissect: \$HOPPERDISSECT_CACHE_MAX_ENTRIES "
                r"must be an integer, got 'abc'$")):
            main(argv)

    @pytest.mark.parametrize("cache_flag", [[], ["--no-cache"]])
    def test_malformed_memo_bound_exits_with_message(
            self, tmp_path, monkeypatch, cache_flag):
        batch = tmp_path / "q.jsonl"
        batch.write_text("")
        monkeypatch.setenv("HOPPERDISSECT_SERVE_MEMO_MAX_ENTRIES", "1e3")
        with pytest.raises(SystemExit, match=(
                r"^hopperdissect: \$HOPPERDISSECT_SERVE_MEMO_MAX_ENTRIES "
                r"must be an integer, got '1e3'$")):
            main(["serve", "-i", str(batch), *cache_flag])

    def test_profile_without_bench_json_writes_no_file(
            self, tmp_path, monkeypatch, capsys):
        # --profile only prints its table; it leaves no file behind
        monkeypatch.chdir(tmp_path)
        assert main(["run", "table03_devices", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "table03_devices" in out and "wrote" not in out
        assert not (tmp_path / "BENCH_perf.json").exists()

    def test_report_accepts_jobs(self, tmp_path, capsys):
        import repro.cli as cli

        seen = {}

        def fake_run_all(**kw):
            seen.update(kw)
            from repro.core import run_experiment
            return {"table03_devices": run_experiment("table03_devices")}

        orig = cli.run_all
        cli.run_all = fake_run_all
        try:
            out_file = tmp_path / "EXP.md"
            assert main(["report", "-o", str(out_file), "--jobs", "3",
                         "--no-cache"]) == 0
        finally:
            cli.run_all = orig
        assert seen["jobs"] == 3 and seen["cache"] is None


class TestContextFlags:
    def test_single_device_run(self, capsys):
        assert main(["run", "--devices", "A100", "--no-cache",
                     "table04_mem_latency"]) == 0
        out = capsys.readouterr().out
        assert "A100" in out
        assert "RTX4090" not in out
        assert "context: devices=A100" in out

    def test_device_flag_is_an_alias(self, capsys):
        assert main(["run", "--device", "H800", "--no-cache",
                     "table06_sass"]) == 0
        assert "HGMMA" in capsys.readouterr().out

    def test_experiment_name_right_after_devices_flag(self, capsys):
        # --devices must not swallow the positional experiment name
        assert main(["run", "--devices", "A100",
                     "table04_mem_latency", "--no-cache"]) == 0
        assert "context: devices=A100" in capsys.readouterr().out

    def test_devices_comma_separated_and_repeated(self, capsys):
        assert main(["run", "--devices", "A100,H800", "--no-cache",
                     "table04_mem_latency"]) == 0
        assert "context: devices=A100,H800" in capsys.readouterr().out
        assert main(["run", "--device", "H800", "--device", "A100",
                     "--no-cache", "table04_mem_latency"]) == 0
        assert "context: devices=H800,A100" in capsys.readouterr().out

    def test_all_skips_unsupported_with_note(self, capsys,
                                             monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(
            cli, "list_experiments",
            lambda: ["table03_devices", "fig08_dsm_rbc"])
        assert main(["run", "--all", "--devices", "A100",
                     "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "skipping fig08_dsm_rbc" in captured.err
        assert "Table III" in captured.out

    def test_pinned_experiment_fails_clearly_when_named(self):
        with pytest.raises(KeyError, match="pinned"):
            main(["run", "--devices", "A100", "--no-cache",
                  "fig08_dsm_rbc"])

    def test_unknown_device_exits_with_message(self, capsys):
        with pytest.raises(SystemExit, match="bad run context"):
            main(["run", "--devices", "H100", "table03_devices"])

    def test_negative_seed_exits_with_message(self):
        # rejected before any experiment runs (numpy would raise mid-run)
        with pytest.raises(SystemExit, match=(
                r"^hopperdissect: bad run context: "
                r"seed must be non-negative, got -1$")):
            main(["run", "--all", "--no-cache", "--seed", "-1"])

    def test_seed_flag_reaches_builders(self, capsys):
        assert main(["run", "--seed", "123", "--no-cache",
                     "ext_fp8_accuracy"]) == 0
        first = capsys.readouterr().out
        assert main(["run", "--seed", "123", "--no-cache",
                     "ext_fp8_accuracy"]) == 0
        assert capsys.readouterr().out == first
        assert main(["run", "--no-cache", "ext_fp8_accuracy"]) == 0
        assert capsys.readouterr().out != first

    def test_fidelity_flag_is_accepted_and_ignored(self, capsys):
        assert main(["report", "--no-cache"]) == 0
        plain = capsys.readouterr().out
        assert main(["report", "--no-cache", "--fidelity", "full"]) == 0
        assert capsys.readouterr().out == plain


class TestCountersJson:
    """``--counters-json`` writes the hopperdissect.counters/v1 dump."""

    @staticmethod
    def _validator():
        import importlib.util
        from pathlib import Path
        spec = importlib.util.spec_from_file_location(
            "validate_counters",
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "validate_counters.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    def test_run_writes_schema_valid_dump(self, tmp_path, capsys):
        import json
        out = tmp_path / "counters.json"
        assert main(["run", "table07_mma", "--no-cache",
                     "--counters-json", str(out)]) == 0
        assert f"wrote {out}" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["schema"] == "hopperdissect.counters/v1"
        assert payload["context"] == "devices=RTX4090,A100,H800;seed=0"
        assert payload["counters"]["exp.completed"] == 1
        assert payload["counters"]["tc.mma.instructions"] > 0
        # keys arrive sorted (canonical form)
        names = list(payload["counters"])
        assert names == sorted(names)

    def test_dump_passes_the_schema_validator(self, tmp_path):
        out = tmp_path / "counters.json"
        assert main(["run", "table03_devices", "--no-cache",
                     "--counters-json", str(out)]) == 0
        mod = self._validator()
        assert mod.validate(out) >= 1

    def test_validator_rejects_broken_dumps(self, tmp_path):
        import json
        from pathlib import Path
        mod = self._validator()
        bad = tmp_path / "bad.json"

        def canonical(payload):
            bad.write_text(json.dumps(
                payload, sort_keys=True,
                separators=(",", ":")) + "\n")

        canonical({"schema": "hopperdissect.counters/v0",
                   "context": None, "counters": {}})
        with pytest.raises(ValueError, match="schema"):
            mod.validate(Path(bad))
        canonical({"schema": "hopperdissect.counters/v1",
                   "context": None, "counters": {"x": -1}})
        with pytest.raises(ValueError, match="non-monotonic"):
            mod.validate(Path(bad))
        canonical({"schema": "hopperdissect.counters/v1",
                   "context": None, "counters": {"x": 1.5}})
        with pytest.raises(ValueError, match="non-integer"):
            mod.validate(Path(bad))
        bad.write_text(json.dumps(
            {"counters": {}, "context": None,
             "schema": "hopperdissect.counters/v1"}, indent=2))
        with pytest.raises(ValueError, match="canonical"):
            mod.validate(Path(bad))

    def test_context_token_recorded(self, tmp_path):
        import json
        out = tmp_path / "counters.json"
        assert main(["run", "table04_mem_latency", "--no-cache",
                     "--devices", "A100", "--counters-json",
                     str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["context"].startswith("devices=A100")

    def test_stats_subcommand_dump(self, tmp_path, capsys):
        import json
        out = tmp_path / "stats_counters.json"
        assert main(["stats", "table07_mma",
                     "--counters-json", str(out)]) == 0
        assert f"wrote {out}" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["counters"]["tc.mma.instructions"] > 0

    def test_dump_is_deterministic_across_jobs(self, tmp_path):
        # serial and parallel regroupings sum to identical banks
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path, jobs in ((a, "1"), (b, "2")):
            assert main(["run", "table07_mma", "table06_sass",
                         "--no-cache", "-j", jobs,
                         "--counters-json", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFuzzCli:
    @pytest.fixture
    def bad_dsm_device(self):
        from dataclasses import replace

        from repro.arch import get_device, register_device
        from repro.arch.packs import DsmCalibration
        from repro.arch.registry import DEVICES

        h800 = get_device("H800")
        register_device(h800.with_overrides(
            name="H800BAD",
            pack=replace(
                h800.pack,
                dsm=DsmCalibration(
                    link_bytes_per_clk=h800.pack.dsm.link_bytes_per_clk,
                    contention_alpha=-0.04))))
        yield
        DEVICES.pop("H800BAD", None)

    def test_fuzz_smoke_exits_zero(self, capsys):
        assert main(["fuzz", "--seed", "2026", "--budget", "6"]) == 0
        out = capsys.readouterr().out
        assert "6 scenarios" in out
        assert "violations: 0" in out

    def test_fuzz_counters_json(self, tmp_path, capsys):
        import json
        out = tmp_path / "fuzz_counters.json"
        assert main(["fuzz", "--seed", "2026", "--budget", "4",
                     "--counters-json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["counters"]["fuzz.scenarios"] == 4

    def test_fuzz_unknown_device_exits_two(self, capsys):
        assert main(["fuzz", "--device", "H801",
                     "--budget", "2"]) == 2
        assert "H801" in capsys.readouterr().err

    def test_fuzz_injection_repro_replay_cycle(self, bad_dsm_device,
                                               tmp_path, capsys):
        assert main(["fuzz", "--seed", "7", "--budget", "10",
                     "--device", "H800BAD",
                     "--repro-dir", str(tmp_path),
                     "--max-repros", "1"]) == 1
        assert "dsm_contention_monotone" in capsys.readouterr().out
        repros = sorted(tmp_path.glob("repro-*.jsonl"))
        assert len(repros) == 1

        # still reproduces while the bad device is registered
        assert main(["fuzz", "--replay", str(repros[0])]) == 1
        assert "dsm_contention_monotone" in capsys.readouterr().out

    def test_fuzz_replay_healthy_repro_exits_zero(self, tmp_path,
                                                  capsys):
        from repro.fuzz import Scenario, Violation, write_repro
        from repro.serve.schema import parse_query

        scenario = Scenario(
            index=0, seed=0, devices=("H800",),
            queries=tuple(
                parse_query({"kind": "dsm.bandwidth",
                             "device": "H800",
                             "params": {"cluster_size": cs}})
                for cs in (2, 4)))
        path = write_repro(
            tmp_path / "stale.jsonl", scenario,
            Violation(invariant="dsm_contention_monotone",
                      scenario_index=0, seed=0, message="stale"))
        assert main(["fuzz", "--replay", str(path)]) == 0
        assert "no invariant fires any more" in \
            capsys.readouterr().out

    def test_fuzz_replay_bad_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema":"nope"}\n')
        assert main(["fuzz", "--replay", str(bad)]) == 2
        assert "bad repro file" in capsys.readouterr().err

    def test_parser_has_fuzz_flags(self):
        args = build_parser().parse_args(
            ["fuzz", "--seed", "5", "--budget", "30", "-j", "2",
             "--device", "H800,A100", "--no-shrink"])
        assert args.seed == 5 and args.budget == 30
        assert args.jobs == 2 and args.no_shrink
        assert args.devices == ["H800,A100"]
