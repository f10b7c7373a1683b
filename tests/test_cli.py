"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import _parse_dram, build_parser, main
from repro.engine import RunSpec
from repro.engine.session import default_session


def _clear_cache():
    default_session().clear()


def _run_workload(workload, scheme, length):
    return default_session().run(RunSpec(workload, scheme, length))


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--workload", "hpc.linpack"])
        assert args.scheme == "dspatch"
        assert args.length == 16000

    def test_dram_label_parsing(self):
        cfg = _parse_dram("2ch-2400")
        assert cfg.channels == 2 and cfg.speed_grade == 2400

    def test_bad_dram_label(self):
        with pytest.raises(SystemExit):
            _parse_dram("fast")

    def test_bad_speed_grade(self):
        with pytest.raises(SystemExit):
            _parse_dram("1ch-9999")

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve"],
            ["work", "http://127.0.0.1:8787"],
            ["--remote-cache", "http://127.0.0.1:8787", "cache"],
            ["--s3-cache", "http://127.0.0.1:9000/bucket", "cache"],
            ["--tls-ca", "ca.pem", "cache"],
        ],
        ids=["serve", "work", "remote-cache", "s3-cache", "tls-ca"],
    )
    def test_unknown_store_commands_and_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestCommands:
    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "hpc.linpack" in out and "server.tpcc-1" in out

    def test_list_workloads_single_category(self, capsys):
        assert main(["list-workloads", "--category", "HPC"]) == 0
        out = capsys.readouterr().out
        assert "hpc.linpack" in out and "server.tpcc-1" not in out

    def test_list_prefetchers_shows_storage(self, capsys):
        assert main(["list-prefetchers"]) == 0
        out = capsys.readouterr().out
        assert "dspatch" in out and "3.6KB" in out

    def test_run_prints_speedup(self, capsys):
        code = main(
            ["run", "--workload", "ispec06.hmmer", "--scheme", "spp", "--length", "1200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ipc" in out and "coverage" in out

    def test_trace_stats(self, capsys):
        assert main(["trace-stats", "--workload", "hpc.linpack", "--length", "1500"]) == 0
        out = capsys.readouterr().out
        assert "distinct PCs" in out

    def test_figure_unknown_id_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_figure_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        out = capsys.readouterr().out
        assert "3.6" in out

    def test_run_with_dram_label(self, capsys):
        code = main(
            [
                "run",
                "--workload",
                "ispec06.hmmer",
                "--scheme",
                "nextline",
                "--length",
                "1000",
                "--dram",
                "2ch-2400",
            ]
        )
        assert code == 0

    def test_run_json_output(self, capsys):
        import json

        code = main(
            ["run", "--workload", "ispec06.hmmer", "--scheme", "nextline",
             "--length", "800", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "ispec06.hmmer"
        assert payload["ipc"] > 0
        assert "speedup_pct" in payload

    def test_run_trace_out_writes_parseable_trace(self, capsys, tmp_path):
        from repro.observe.events import header_line, parse_trace

        path = tmp_path / "trace.txt"
        base_args = ["run", "--workload", "ispec06.hmmer", "--scheme", "streamer",
                     "--length", "1000"]
        assert main(base_args) == 0
        untraced = capsys.readouterr().out
        assert main(base_args + ["--trace-prefetch", "--trace-cache",
                                 "--trace-out", str(path)]) == 0
        traced = capsys.readouterr().out

        lines = path.read_text().splitlines()
        assert lines[0] == header_line()
        events = parse_trace(lines)
        assert events
        kinds = {e[0] for e in events}
        assert "issue" in kinds and "reset" in kinds
        assert kinds & {"hit", "miss"}

        # Tracing is parity-pinned: the printed metrics are identical;
        # the traced run just adds the trace summary line.
        extra = [l for l in traced.splitlines() if l not in untraced.splitlines()]
        assert len(extra) == 1 and extra[0].startswith("trace")
        assert str(path) in extra[0]

    def test_run_trace_defaults_to_stderr(self, capsys):
        assert main(["run", "--workload", "ispec06.hmmer", "--scheme", "nextline",
                     "--length", "600", "--trace-prefetch"]) == 0
        captured = capsys.readouterr()
        assert "[repro][pf]" in captured.err
        assert "[repro][cache]" not in captured.err  # family not enabled
        assert "stderr" in captured.out

    def test_run_trace_json_reports_event_count(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.txt"
        assert main(["run", "--workload", "ispec06.hmmer", "--scheme", "streamer",
                     "--length", "800", "--json", "--trace-prefetch",
                     "--trace-out", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_out"] == str(path)
        assert payload["trace_events"] > 0
        assert payload["trace_events"] == len(path.read_text().splitlines()) - 1

    def test_sweep_prints_six_rows(self, capsys):
        code = main(
            ["sweep", "--workload", "ispec06.hmmer", "--scheme", "nextline",
             "--length", "600"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for label in ("1ch-1600", "1ch-2133", "1ch-2400", "2ch-1600", "2ch-2133", "2ch-2400"):
            assert label in out

    def test_figure_chart_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_LEN", "1000")
        monkeypatch.setenv("REPRO_WORKLOADS_PER_CATEGORY", "1")
        _clear_cache()
        assert main(["figure", "fig05", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "SMS" in out


class TestEngineFlags:
    @pytest.fixture(autouse=True)
    def _reset_engine(self):
        from repro.engine import reset_config

        reset_config()
        yield
        reset_config()

    def test_global_flags_parse_before_subcommand(self):
        args = build_parser().parse_args(
            ["--jobs", "3", "--cache-dir", "/tmp/x", "--no-cache", "list-prefetchers"]
        )
        assert args.jobs == 3
        assert args.cache_dir == "/tmp/x"
        assert args.no_cache is True

    def test_flags_configure_engine(self, tmp_path):
        from repro.engine import current_config

        assert main(["--jobs", "2", "--cache-dir", str(tmp_path), "cache"]) == 0
        cfg = current_config()
        assert cfg.jobs == 2
        assert cfg.cache_dir == tmp_path

    def test_no_cache_disables_disk(self, capsys):
        from repro.engine import current_config

        assert main(["--no-cache", "cache"]) == 0
        assert current_config().disk_cache is False
        assert "disabled" in capsys.readouterr().out

    def test_cache_info_lists_store(self, capsys, tmp_path):
        _clear_cache()
        _run_workload("ispec06.hmmer", "none", 400)
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "results" in out and "code salt" in out

    def test_cache_clear(self, capsys):
        from repro.engine import active_store
        _clear_cache()
        _run_workload("ispec06.hmmer", "none", 400)
        assert active_store().stats()["results"] == 1
        assert main(["cache", "--clear"]) == 0
        assert active_store().stats()["results"] == 0

    def test_cache_clear_action(self, capsys):
        from repro.engine import active_store
        _clear_cache()
        _run_workload("ispec06.hmmer", "none", 400)
        assert main(["cache", "clear"]) == 0
        assert active_store().stats()["results"] == 0

    def test_cache_gc_respects_bound(self, capsys):
        from repro.engine import active_store
        _clear_cache()
        _run_workload("ispec06.hmmer", "none", 400)
        _run_workload("ispec06.hmmer", "nextline", 400)
        before = active_store().stats()
        assert before["results"] == 2
        assert main(["cache", "gc", "--max-mb", "0"]) == 0
        out = capsys.readouterr().out
        assert "evicted" in out
        after = active_store().stats()
        assert after["results"] == 0

    def test_cache_gc_noop_when_small(self, capsys):
        from repro.engine import active_store
        _clear_cache()
        _run_workload("ispec06.hmmer", "none", 400)
        assert main(["cache", "gc", "--max-mb", "512"]) == 0
        assert active_store().stats()["results"] == 1

    def test_cache_verify_clean_store(self, capsys):
        _clear_cache()
        _run_workload("ispec06.hmmer", "none", 400)
        assert main(["cache", "verify"]) == 0
        out = capsys.readouterr().out
        assert "checked 1 artifacts: 1 ok, 0 corrupt, 0 foreign" in out

    def test_cache_verify_reports_and_repairs_corruption(self, capsys):
        from repro.engine import active_store
        _clear_cache()
        _run_workload("ispec06.hmmer", "none", 400)
        store = active_store()
        victim = next(p for p in (store.root / "results").rglob("*.pkl"))
        victim.write_bytes(b"torn bytes")
        # Reporting pass: nonzero exit, nothing moved.
        assert main(["cache", "verify"]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out and "--repair" in out
        assert victim.exists()
        # Repair pass: quarantined, store verifies clean, exit 0.
        assert main(["cache", "verify", "--repair"]) == 0
        out = capsys.readouterr().out
        assert "1 quarantined to corrupt/" in out
        assert not victim.exists()
        assert (store.root / "corrupt" / victim.name).exists()
        assert main(["cache", "verify"]) == 0

    def test_cache_verify_no_disk_cache(self, capsys):
        assert main(["--no-cache", "cache", "verify"]) == 0
        assert "nothing to verify" in capsys.readouterr().out
