"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import _parse_size, main


SWEEP_GOLDEN = Path(__file__).parent / "golden" / "sweep"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_size():
    assert _parse_size("64") == 64
    assert _parse_size("4K") == 4096
    assert _parse_size("4KB") == 4096
    assert _parse_size("9M") == 9 << 20
    assert _parse_size("10G") == 10 << 30
    assert _parse_size("1.5K") == 1536
    with pytest.raises(Exception):
        _parse_size("abc")


def test_paths_command(capsys):
    code, out, _ = run(capsys, "paths")
    assert code == 0
    assert "SNIC ②" in out and "rnic-1" in out


def test_latency_command(capsys):
    code, out, _ = run(capsys, "latency", "--path", "snic1",
                       "--op", "read", "--payload", "64")
    assert code == 0
    assert "TOTAL" in out
    assert "2.6" in out  # ~2.65 us


def test_throughput_command(capsys):
    code, out, _ = run(capsys, "throughput", "--path", "snic2",
                       "--op", "write", "--payload", "64",
                       "--range", "1.5K")
    assert code == 0
    assert "22.7" in out
    assert "mem:soc" in out


def test_throughput_with_doorbell(capsys):
    code, out, _ = run(capsys, "throughput", "--path", "snic3-s2h",
                       "--op", "read", "--payload", "0",
                       "--requesters", "8", "--doorbell-batch", "16")
    assert code == 0
    assert "78.2" in out  # 29 M reqs/s x the 2.7x DB speedup


@pytest.mark.parametrize("figure", ["fig4", "fig7", "fig8", "fig9",
                                    "fig10", "fig11"])
def test_sweep_commands(capsys, figure):
    """Every figure table is pinned byte for byte (tests/golden/sweep)."""
    code, out, _ = run(capsys, "sweep", figure)
    assert code == 0
    assert out == (SWEEP_GOLDEN / f"{figure}.txt").read_text()


@pytest.mark.parametrize("engine", ["scalar", "auto"])
def test_sweep_engine_flag(capsys, engine):
    """``--engine`` picks a serving engine; sweeps have one solver."""
    with pytest.raises(SystemExit) as exc:
        run(capsys, "sweep", "fig4", "--engine", engine)
    assert exc.value.code == 2
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


def test_sweep_profile_flag(capsys):
    code, out, _ = run(capsys, "sweep", "fig4", "--profile")
    assert code == 0
    assert "sweep stage profile" in out
    assert "grid_build" in out and "solve" in out


def test_compare_command(capsys):
    code, out, _ = run(capsys, "compare")
    assert code == 0
    assert "performance tax" in out
    assert "READ" in out and "WRITE" in out


def test_compare_catalog_device(capsys):
    code, out, _ = run(capsys, "compare", "--nic", "stingray-ps225")
    assert code == 0
    assert "stingray" in out


@pytest.mark.parametrize("figure", ["fig4", "fig7", "fig8", "fig9",
                                    "fig10", "fig11"])
def test_sweep_plot_mode(capsys, figure):
    code, out, _ = run(capsys, "sweep", figure, "--plot")
    assert code == 0
    assert "|" in out and "+" in out  # chart axes


def test_advise_command(capsys):
    code, out, _ = run(capsys, "advise", "--payload", "256",
                       "--read-fraction", "0.9", "--working-set", "8G")
    assert code == 0
    assert "SNIC ②" in out


def test_advise_with_transfer(capsys):
    code, out, _ = run(capsys, "advise", "--payload", "32M",
                       "--working-set", "2G", "--host-soc-transfer")
    assert code == 0
    assert "56 Gbps" in out
    assert "rule-p-minus-n" in out


def test_audit_command(tmp_path, capsys):
    flows = [
        {"path": "snic2", "op": "write", "payload": 64,
         "range_bytes": 1536, "label": "hot writes"},
        {"path": "snic2", "op": "read", "payload": 16 << 20,
         "label": "big reads"},
    ]
    path = tmp_path / "flows.json"
    path.write_text(json.dumps(flows))
    code, out, _ = run(capsys, "audit", str(path))
    assert code == 0
    assert "skew" in out and "hol" in out
    assert "hot writes" in out


def test_audit_clean(tmp_path, capsys):
    path = tmp_path / "flows.json"
    path.write_text(json.dumps([
        {"path": "snic2", "op": "read", "payload": 4096}]))
    code, out, _ = run(capsys, "audit", str(path))
    assert code == 0
    assert "no anomalies" in out


def test_audit_missing_file(capsys):
    code, _out, err = run(capsys, "audit", "/nonexistent/flows.json")
    assert code == 1
    assert "error" in err


def test_audit_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    code, _out, err = run(capsys, "audit", str(path))
    assert code == 1


def test_unknown_path_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["latency", "--path", "bogus"])


def test_trace_gen_and_solve_roundtrip(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code, msg, _ = run(capsys, "trace-gen", str(out), "--count", "200",
                       "--read-fraction", "0.8", "--payload", "256")
    assert code == 0
    assert "200 requests" in msg
    assert out.exists()

    code, table, _ = run(capsys, "trace-solve", str(out))
    assert code == 0
    assert "TOTAL" in table
    assert "read" in table and "write" in table


def test_trace_gen_validation(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code, _out, err = run(capsys, "trace-gen", str(out), "--count", "0")
    assert code == 1
    assert "error" in err


def test_trace_solve_missing_file(capsys):
    code, _out, err = run(capsys, "trace-solve", "/nonexistent.jsonl")
    assert code == 1


def test_trace_command_emits_chrome_json(capsys):
    code, out, _ = run(capsys, "trace", "--path", "3", "--verb", "write",
                       "--size", "4096")
    assert code == 0
    doc = json.loads(out)
    roots = [e for e in doc["traceEvents"]
             if e.get("ph") == "X" and e["name"] == "write:snic-3-h2s"]
    assert len(roots) == 1
    # The root complete-event spans the whole verb, start to CQE.
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert roots[0]["dur"] == max(e["ts"] + e["dur"] for e in spans)


def test_trace_command_numeric_path_shorthand(capsys):
    code, out, _ = run(capsys, "trace", "--path", "1", "--verb", "read")
    assert code == 0
    assert "read:snic-1" in out


def test_trace_command_report_and_tree(capsys):
    code, out, _ = run(capsys, "trace", "--path", "snic2", "--verb",
                       "write", "--size", "1K", "--report", "--tree",
                       "--telemetry")
    assert code == 0
    assert "path snic-2" in out and "TOTAL" in out
    assert "write:snic-2" in out  # tree rendering
    assert "counter deltas" in out and "pcie1" in out


def test_trace_command_writes_file(tmp_path, capsys):
    target = tmp_path / "spans.json"
    code, out, _ = run(capsys, "trace", "--path", "rnic-1", "--verb",
                       "read", "--count", "2", "--out", str(target))
    assert code == 0
    assert "perfetto" in out
    doc = json.loads(target.read_text())
    threads = [e for e in doc["traceEvents"]
               if e.get("ph") == "M" and e["name"] == "thread_name"]
    assert len(threads) == 2


def test_trace_command_rejects_bad_count(capsys):
    code, _out, err = run(capsys, "trace", "--count", "0")
    assert code == 1
    assert "error" in err


def test_serve_command(capsys):
    code, out, _ = run(capsys, "serve", "--duration", "150000",
                       "--decisions")
    assert code == 0
    assert "serve (adaptive" in out
    assert "alpha" in out and "gamma" in out
    assert "steady-state Gbps per path" in out
    assert "rate cap 56 Gbps" in out


def test_serve_command_static_json(capsys):
    import json as _json

    code, out, _ = run(capsys, "serve", "--duration", "100000",
                       "--static", "--json")
    assert code == 0
    payload = _json.loads(out)
    assert payload["adaptive"] is False
    assert {t["name"] for t in payload["tenants"]} == \
        {"alpha", "beta", "delta", "gamma"}
