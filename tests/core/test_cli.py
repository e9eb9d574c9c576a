"""CLI tests (python -m repro)."""

import json

import pytest

from repro.cli import main
from repro.fleet import registry_workloads
from repro.programs.registry import get

TROJAN_SOURCE = """
main:
    mov ebx, secret
    mov ecx, 0
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, buf
    mov edx, 64
    call read
    mov edi, eax
    mov ebx, esi
    call close
    mov ebx, drop
    mov ecx, 0x241
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, buf
    mov edx, edi
    call write
    mov eax, 0
    ret
.data
secret: .asciz "/etc/shadow"
drop: .asciz "/tmp/.loot"
buf: .space 64
"""

HELLO_SOURCE = """
main:
    mov ebx, msg
    call print
    mov eax, 0
    ret
.data
msg: .asciz "hi there"
"""


@pytest.fixture
def trojan_file(tmp_path):
    path = tmp_path / "trojan.s"
    path.write_text(TROJAN_SOURCE)
    return str(path)


@pytest.fixture
def hello_file(tmp_path):
    path = tmp_path / "hello.s"
    path.write_text(HELLO_SOURCE)
    return str(path)


class TestRunCommand:
    def test_benign_run(self, hello_file, capsys):
        code = main(["run", hello_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict : BENIGN" in out
        assert "hi there" in out

    def test_detection_with_fail_on(self, trojan_file, capsys):
        code = main([
            "run", trojan_file,
            "--file", "/etc/shadow=root:hash",
            "--fail-on", "high",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "verdict : HIGH" in out
        assert "Secpert advice" in out

    def test_fail_on_not_reached(self, hello_file):
        assert main(["run", hello_file, "--fail-on", "low"]) == 0

    def test_guest_path_override(self, hello_file, capsys):
        main(["run", hello_file, "--path", "/usr/bin/custom"])
        assert "/usr/bin/custom" in capsys.readouterr().out

    def test_events_dump(self, trojan_file, capsys):
        main(["run", trojan_file, "--file", "/etc/shadow=x", "--events"])
        out = capsys.readouterr().out
        assert "Harrier events" in out
        assert "SYS_open" in out

    def test_serve_option_feeds_data(self, tmp_path, capsys):
        source = tmp_path / "dl.s"
        source.write_text("""
main:
    mov ebx, host
    call gethostbyname
    mov ecx, eax
    call socket
    mov ebx, eax
    mov edx, 80
    push ebx
    call connect_addr
    pop ebx
    mov ecx, buf
    mov edx, 32
    call read
    mov edx, eax
    mov ebx, 1
    mov ecx, buf
    call write
    mov eax, 0
    ret
.data
host: .asciz "srv.example"
buf: .space 32
""")
        code = main(["run", str(source), "--serve",
                     "srv.example:80=served-bytes"])
        out = capsys.readouterr().out
        assert code == 0
        assert "served-bytes" in out

    def test_empty_serve_payload_is_a_sink_in_key_and_machine(
            self, tmp_path, capsys):
        """``--serve H:P=`` and ``--peer H:P`` share one cache key, so
        they must build the same machine: a sink either way.  A run
        answered from the cache reads like a fresh one."""
        source = tmp_path / "remote.s"
        source.write_text(get("Remote execve").source)
        store = str(tmp_path / "cache")
        addr = "cmd.attacker.net:5150"

        def exit_line(*flags):
            main(["run", str(source), *flags])
            return next(line for line in capsys.readouterr().out.splitlines()
                        if line.startswith("exit"))

        fresh = exit_line("--peer", addr)
        assert "deadlock" in fresh  # nothing ever sends the commands
        assert exit_line("--serve", addr + "=") == fresh
        exit_line("--serve", addr + "=", "--cache-dir", store)
        assert exit_line("--peer", addr, "--cache-dir", store) == fresh

    def test_peer_without_port_is_rejected(self, hello_file):
        with pytest.raises(SystemExit):
            main(["run", hello_file, "--peer", "evil.example"])

    def test_no_dataflow_flag(self, trojan_file, capsys):
        code = main([
            "run", trojan_file,
            "--file", "/etc/shadow=x",
            "--no-dataflow",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict : BENIGN" in out  # no provenance, no warnings

    def test_bad_file_option(self, hello_file):
        with pytest.raises(SystemExit):
            main(["run", hello_file, "--file", "no-equals-sign"])

    def test_missing_source(self, capsys):
        assert main(["run", "/no/such/file.s"]) == 2

    def test_assembly_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text("main:\n  frobnicate eax\n")
        assert main(["run", str(bad)]) == 2
        assert "assembly error" in capsys.readouterr().err


class TestAuditCommand:
    def test_insecure_binary(self, trojan_file, capsys):
        code = main(["audit", trojan_file])
        out = capsys.readouterr().out
        assert code == 1
        assert "NOT SECURE" in out
        assert "/etc/shadow" in out

    def test_secure_binary(self, hello_file, capsys):
        # `print` writes string content hardcoded in the app... the hello
        # message reaches print -> flagged as resource content; a truly
        # clean program touches no resources.
        clean = hello_file.replace("hello.s", "clean.s")
        import pathlib

        pathlib.Path(clean).write_text(
            "main:\n  mov eax, 0\n  ret\n"
        )
        assert main(["audit", clean]) == 0


class TestInstrumentCommand:
    def test_listing(self, hello_file, capsys):
        assert main(["instrument", hello_file]) == 0
        out = capsys.readouterr().out
        assert "Call Track_DataFlow" in out
        assert "Call Collect_BB_Frequency" in out


class TestTableCommand:
    def test_table4(self, capsys):
        assert main(["table", "4"]) == 0
        out = capsys.readouterr().out
        assert "Infrequent execve" in out
        assert "MISMATCH" not in out

    def test_table5(self, capsys):
        assert main(["table", "5"]) == 0

    def test_ext_table(self, capsys):
        assert main(["table", "ext"]) == 0
        assert "lodeight" in capsys.readouterr().out

    def test_second_run_is_all_disk_hits(self, tmp_path, capsys):
        store = str(tmp_path / "cache")
        assert main(["table", "4", "--cache-dir", store]) == 0
        first = capsys.readouterr().out
        assert main(["table", "4", "--cache-dir", store]) == 0
        second = capsys.readouterr().out
        rows = len(registry_workloads("4"))
        assert f"0 hit(s) (0 from disk), {rows} miss(es), {rows} stored" \
            in first
        assert f"{rows} hit(s) ({rows} from disk), 0 miss(es), 0 stored" \
            in second
        # The verdict rows are the same whether executed or answered.
        assert first.splitlines()[:rows] == second.splitlines()[:rows]


class TestChaosCommand:
    def test_seed_replay_is_deterministic(self, capsys):
        argv = ["chaos", "--table", "8", "--workload", "pma",
                "--seed", "42", "--show-faults"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "pma" in first
        assert "stable" in first

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--table", "8", "--workload", "nope"])

    @pytest.mark.parametrize("flags", [
        ["--stall-rate", "1.5"],
        ["--quantum-jitter", "nan"],
        ["--max-faults", "-1"],
    ])
    def test_fault_value_out_of_range_is_a_usage_error(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--table", "8", "--workload", "pma"] + flags)
        assert exc.value.code == 2
        assert "must be" in capsys.readouterr().err

    def test_pool_metrics_are_merged(self, capsys):
        argv = ["chaos", "--table", "8", "--workload", "pma",
                "--trials", "2", "--metrics"]
        assert main(argv + ["--workers", "2"]) == 0
        pooled = capsys.readouterr().out
        assert main(argv) == 0
        serial = capsys.readouterr().out

        def instructions(out):
            lines = [line for line in out.splitlines()
                     if line.startswith("cpu_instructions_total ")]
            assert len(lines) == 1, out
            return int(lines[0].split()[1])

        # Both trials' work, summed across the two worker processes.
        assert "--- telemetry metrics ---" in pooled
        assert instructions(pooled) == instructions(serial) > 0


class TestProfileCommand:
    def test_breakdown_printed(self, trojan_file, capsys):
        code = main([
            "profile", trojan_file, "--file", "/etc/shadow=root:hash",
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        for config in ("native", "no-dataflow", "no-bbfreq", "full"):
            row = [line for line in lines if line.startswith(config + " ")]
            assert len(row) == 1, config
            assert row[0].count(" ms") == 3 and row[0].endswith("x")
        assert any(
            line.split()[:2] in (["order:", "monotone"],
                                 ["order:", "unresolved"],
                                 ["order:", "inverted"])
            for line in lines
        )
        assert "instructions retired" in out
        assert "secpert rule firings" in out

    def test_full_run_report_matches_repro_run(
        self, trojan_file, tmp_path, capsys, monkeypatch
    ):
        import repro.cli

        reports = []
        real_run = repro.cli.Session.run

        def recording_run(self, *args, **kwargs):
            reports.append(real_run(self, *args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(repro.cli.Session, "run", recording_run)
        setup = [trojan_file, "--file", "/etc/shadow=root:hash"]
        assert main(["profile", *setup]) == 0
        out = tmp_path / "run.json"
        assert main(["run", *setup, "--json", str(out)]) == 0
        # The profile's counter run carries a metrics snapshot; the
        # rest of its report is the one `repro run` writes.
        profiled = json.loads(reports[0].to_json())
        archived = json.loads(out.read_text())
        assert profiled.pop("telemetry")["enabled"]
        assert archived.pop("telemetry") is None
        assert profiled == archived

    def test_benign_program_profiles_too(self, hello_file, capsys):
        assert main(["profile", hello_file]) == 0
        assert "verdict=benign" in capsys.readouterr().out


class TestTickBudget:
    @pytest.mark.parametrize("command", ("run", "profile", "submit"))
    @pytest.mark.parametrize("ticks", ("0", "-5", "lots"))
    def test_budget_below_one_is_a_usage_error(
        self, command, ticks, trojan_file, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, trojan_file, "--max-ticks", ticks])
        assert exc.value.code == 2
        assert "--max-ticks" in capsys.readouterr().err

    def test_budget_reaches_the_run(self, trojan_file, tmp_path):
        out = tmp_path / "run.json"
        assert main([
            "run", trojan_file, "--max-ticks", "5", "--json", str(out),
        ]) == 0
        result = json.loads(out.read_text())["result"]
        assert result["reason"] == "max-ticks"
        assert result["instructions"] <= 5


class TestTraceAndMetricsFlags:
    def test_run_trace_chrome_schema(self, trojan_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = main([
            "run", trojan_file, "--file", "/etc/shadow=x",
            "--trace", str(trace),
        ])
        assert code == 0
        assert str(trace) in capsys.readouterr().out
        data = json.loads(trace.read_text())
        assert data["displayTimeUnit"] == "ms"
        events = data["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert set(event) >= {
                "name", "cat", "ts", "dur", "pid", "tid", "args"
            }
        cats = {e["cat"] for e in complete}
        assert {"run", "process", "syscall", "analysis"} <= cats
        # the trojan's syscalls all have spans
        names = [e["name"] for e in complete if e["cat"] == "syscall"]
        assert names.count("SYS_open") == 2
        assert "SYS_read" in names and "SYS_write" in names

    def test_run_trace_jsonl(self, hello_file, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["run", hello_file, "--trace", str(trace)]) == 0
        spans = [
            json.loads(line)
            for line in trace.read_text().strip().splitlines()
        ]
        assert spans
        assert all("span_id" in s and "category" in s for s in spans)

    def test_run_metrics_dump(self, hello_file, capsys):
        assert main(["run", hello_file, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "telemetry metrics" in out
        assert "cpu_instructions_total" in out
        assert "kernel_syscalls_total{name=SYS_write}" in out

    def test_table_trace_one_track_per_workload(self, tmp_path, capsys):
        trace = tmp_path / "table.json"
        assert main(["table", "4", "--trace", str(trace)]) == 0
        data = json.loads(trace.read_text())
        meta = [
            e for e in data["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        labels = {e["args"]["name"] for e in meta}
        assert "Infrequent execve" in labels
        assert len(meta) > 2  # one track per workload


class TestReportCommand:
    def test_report_writes_markdown_and_json(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(["report", "-o", str(out)])
        assert code == 0
        text = out.read_text()
        assert "# HTH reproduction report" in text
        assert "## Table 8" in text
        assert "| pma |" in text
        assert "| NO |" not in text  # no mismatches
        # the newline handling is real (regression: a no-op replace)
        assert text.count("\n") > 20
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["mismatches"] == 0
        rows = {r["benchmark"]: r for r in data["rows"]}
        assert rows["pma"]["match"] is True
        assert rows["pma"]["expected"] == rows["pma"]["measured"]
