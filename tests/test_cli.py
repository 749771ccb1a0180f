"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_models_lists_benchmarks(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    assert "bert" in out
    assert "tinynet" in out


def test_evaluate_default_design(capsys):
    assert main(["evaluate", "tinynet"]) == 0
    out = capsys.readouterr().out
    assert "npu-tandem" in out
    assert "latency (ms)" in out


def test_evaluate_named_design_with_per_op(capsys):
    assert main(["evaluate", "tinynet", "--design", "gemmini",
                 "--per-op"]) == 0
    out = capsys.readouterr().out
    assert "gemmini" in out
    assert "operator" in out


def test_compare_lists_every_design(capsys):
    assert main(["compare", "tinynet"]) == 0
    out = capsys.readouterr().out
    for design in ("npu-tandem", "gemm+offchip-cpu", "gemm+dedicated-units",
                   "tpu+vpu", "jetson-xavier-nx-tensorrt"):
        assert design in out


def test_compile_disassemble_and_dump(capsys, tmp_path):
    dump = tmp_path / "model.json"
    assert main(["compile", "tinynet", "--disassemble", "1",
                 "--dump", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "SYNC.SIMD_START_EXEC" in out
    data = json.loads(dump.read_text())
    assert data["model"] == "tinynet"


def test_experiment_command(capsys):
    assert main(["experiment", "fig26"]) == 0
    out = capsys.readouterr().out
    assert "area" in out.lower()


def test_trace_command(capsys):
    assert main(["trace", "tinynet"]) == 0
    out = capsys.readouterr().out
    assert "gemm" in out
    assert "#" in out


def test_parser_rejects_unknown_design():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["evaluate", "bert", "--design", "tpu-v5"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cache_stats_smoke(capsys):
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "entries" in out
    assert "hits" in out


def test_serve_dry_run_smoke(capsys):
    assert main(["serve", "--dry-run", "--model", "bert", "--devices", "4",
                 "--rate", "200", "--batch-policy", "dynamic"]) == 0
    out = capsys.readouterr().out
    assert "no simulation" in out
    assert "dynamic" in out
    assert "4" in out


def test_serve_prints_slo_metrics_table(capsys, tmp_path):
    report_json = tmp_path / "report.json"
    assert main(["serve", "--model", "tinynet", "--devices", "2",
                 "--rate", "500", "--duration", "0.5",
                 "--batch-policy", "dynamic",
                 "--json", str(report_json)]) == 0
    out = capsys.readouterr().out
    assert "p50 latency" in out
    assert "p99 latency" in out
    assert "SLO attainment" in out
    payload = json.loads(report_json.read_text())
    assert payload["devices"] == 2
    assert payload["completed"] > 0


@pytest.mark.parametrize("args,message", [
    (["--rate", "0"], "rate_rps must be finite and positive, got 0.0"),
    (["--diurnal", "--rate", "nan"],
     "peak_rps must be finite and positive, got nan"),
    (["--duration", "inf"],
     "duration_s must be finite and non-negative, got inf"),
    (["--model", ","], "models must name at least one model"),
])
def test_serve_bad_workload_exits_two_with_one_line(capsys, args, message):
    assert main(["serve", *args]) == 2
    assert capsys.readouterr().err == f"repro: {message}\n"


@pytest.mark.parametrize("args", [
    ["--faults", "plan.json"], ["--resilience", "naive"], ["--cells", "1"],
    ["--autoscale"], ["--routing", "round_robin"], ["--devices", "8"],
], ids=lambda args: args[0])
def test_serve_llm_refuses_fleet_flags_in_one_line(capsys, args):
    assert main(["serve", "--llm", "--duration", "0.5", *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"repro serve: {args[0]} does not apply to --llm "
                   f"(LLM batching runs on one device)\n")


def test_chaos_serves_and_resolves_one_model(capsys, monkeypatch):
    from repro.serving import ServiceCosts
    resolved = []
    resolve = ServiceCosts.resolve.__func__

    def recording(cls, models, *args, **kwargs):
        resolved.append(list(models))
        return resolve(cls, models, *args, **kwargs)

    monkeypatch.setattr(ServiceCosts, "resolve", classmethod(recording))
    assert main(["chaos", "--model", "tinynet,bert", "--devices", "2",
                 "--duration", "1", "--scales", "1"]) == 2
    assert capsys.readouterr().err == (
        "repro chaos: --model takes one zoo model, got 'tinynet,bert'\n")
    assert resolved == []
    assert main(["chaos", "--model", "tinynet", "--devices", "2",
                 "--rate", "200", "--duration", "1", "--scales", "1",
                 "--policies", "naive"]) == 0
    assert resolved == [["tinynet"]]
    assert "naive" in capsys.readouterr().out


def test_serve_closed_loop_smoke(capsys):
    assert main(["serve", "--model", "tinynet", "--closed-loop",
                 "--clients", "4", "--duration", "0.01",
                 "--think-ms", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out


def test_serve_rejects_unknown_policy():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--batch-policy", "magic"])


def test_console_script_entry_point_declared_and_callable():
    """pyproject must expose `repro = repro.cli:main` as a script."""
    from pathlib import Path
    pyproject = (Path(__file__).resolve().parent.parent
                 / "pyproject.toml").read_text()
    try:
        import tomllib
        scripts = tomllib.loads(pyproject)["project"]["scripts"]
        assert scripts["repro"] == "repro.cli:main"
    except ModuleNotFoundError:  # Python < 3.11: textual check
        assert "[project.scripts]" in pyproject
        assert 'repro = "repro.cli:main"' in pyproject
    # The referenced callable exists and behaves like a console script:
    # argv-less entry, integer exit status.
    module_path, _, attr = "repro.cli:main".partition(":")
    import importlib
    entry = getattr(importlib.import_module(module_path), attr)
    assert entry(["models"]) == 0


def test_markdown_writer(tmp_path):
    from repro.harness.markdown import write_experiments_body
    path = tmp_path / "body.md"
    write_experiments_body(str(path), ids=["fig26", "table3"])
    text = path.read_text()
    assert "## fig26" in text
    assert "## table3" in text
    with pytest.raises(KeyError):
        write_experiments_body(str(path), ids=["fig99"])


def test_verify_clean_model_exits_zero(capsys):
    assert main(["verify", "tinynet"]) == 0
    out = capsys.readouterr().out
    assert "tinynet" in out
    assert "ok" in out


def test_verify_json_schema(capsys):
    assert main(["verify", "tinynet", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["errors"] == 0
    assert payload["targets"][0]["model"] == "tinynet"
    for block in payload["targets"][0]["reports"]:
        assert {"program", "errors", "warnings", "findings"} <= block.keys()


def test_verify_corrupted_blob_exits_one(capsys, tmp_path):
    blob = tmp_path / "bad.bin"
    blob.write_bytes((0xFFFFFFFF).to_bytes(4, "little") * 3)
    assert main(["verify", str(blob)]) == 1
    out = capsys.readouterr().out
    assert "undecodable-word" in out
    assert "FAIL" in out


def test_verify_compiled_model_dump(capsys, tmp_path):
    dump = tmp_path / "model.json"
    assert main(["compile", "tinynet", "--dump", str(dump)]) == 0
    capsys.readouterr()
    assert main(["verify", str(dump)]) == 0
    assert "ok" in capsys.readouterr().out


def test_verify_missing_file_exits_two(capsys):
    assert main(["verify", "/nonexistent/prog.bin"]) == 2


def test_lint_reports_info_findings(capsys):
    assert main(["lint", "resnet50"]) == 0
    out = capsys.readouterr().out
    assert "resnet50" in out


def test_trace_json_export(capsys, tmp_path):
    out_file = tmp_path / "timeline.json"
    assert main(["trace", "tinynet", "--json", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "gemm" in out and "tandem" in out           # ASCII art still there
    from repro.telemetry.export import validate_trace_file
    payload = validate_trace_file(str(out_file))
    slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert slices and all(e["cat"] == "device" for e in slices)
    assert {e["tid"] for e in slices} <= {0, 1}        # GEMM + Tandem tracks


def test_profile_smoke(capsys, tmp_path):
    out_file = tmp_path / "profile.json"
    assert main(["profile", "tinynet", "--trace-out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "hardware counters" in out
    assert "npu.tandem.busy_cycles" in out
    from repro.telemetry.export import validate_trace_file
    payload = validate_trace_file(str(out_file))
    names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
    assert {"compile", "verify", "simulate"} <= names
    assert any(e.get("cat") == "device" for e in payload["traceEvents"])
    counters = payload["otherData"]["counters"]
    assert counters["npu.tandem.busy_cycles"] > 0
    assert counters["npu.total_cycles"] > 0


def test_serve_trace_out(capsys, tmp_path):
    out_file = tmp_path / "serve.json"
    assert main(["serve", "--model", "tinynet", "--devices", "2",
                 "--rate", "200", "--duration", "0.5",
                 "--trace-out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "per-device utilization" in out
    assert "compile-cache hit rate" in out
    from repro.telemetry.export import validate_trace_file
    payload = validate_trace_file(str(out_file))
    assert any(e.get("cat") == "serving" for e in payload["traceEvents"])
    assert payload["otherData"]["counters"]["serving.requests.offered"] > 0


def test_autotune_smoke(capsys, tmp_path):
    report = tmp_path / "report.json"
    assert main(["autotune", "tinynet", "--budget", "4",
                 "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "pipeline" in out and "best:" in out
    payload = json.loads(report.read_text())
    assert payload["schema"] == "repro-autotune-report-v1"
    assert payload["model"] == "tinynet"
    assert payload["best"]["cycles"] <= payload["baseline_cycles"]
    assert len(payload["candidates"]) <= 4


def test_compile_explain(capsys):
    assert main(["compile", "tinynet", "--explain"]) == 0
    out = capsys.readouterr().out
    assert "pipeline: depth=max/tiles=pow2" in out
    assert "fuse_blocks" in out and "result:" in out


def test_compile_explain_autotuned(capsys):
    assert main(["compile", "tinynet", "--explain", "--autotune"]) == 0
    out = capsys.readouterr().out
    assert "pipeline:" in out


def test_bad_knob_exits_two_with_one_line(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_DEPS", "stirct")
    assert main(["verify", "tinynet"]) == 2
    err = capsys.readouterr().err
    assert err == ("repro: REPRO_DEPS='stirct': "
                   "expected one of off, on, strict\n")


def test_bad_knob_fails_even_where_it_is_never_read(capsys, monkeypatch):
    # ``repro models`` never prices a fleet; the knob is checked at start.
    monkeypatch.setenv("REPRO_AUTOSCALE_PRICE", "x")
    assert main(["models"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("repro: REPRO_AUTOSCALE_PRICE='x': "
                            "expected a number\n")
