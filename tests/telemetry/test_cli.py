"""The ``repro trace`` CLI verb."""

import json

from repro.cli import main


def write_trace(directory, tid="ab" * 16):
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"trace-{tid}.ndjson"
    spans = [
        {"kind": "span", "trace_id": tid, "span_id": "r" * 16,
         "parent_id": None, "name": "runner.run", "start_s": 10.0,
         "duration_s": 4.0, "pid": 1, "attrs": {"jobs": 2}},
        {"kind": "span", "trace_id": tid, "span_id": "w" * 16,
         "parent_id": "r" * 16, "name": "worker.job", "start_s": 10.5,
         "duration_s": 3.0, "pid": 2, "attrs": {}},
    ]
    path.write_text("\n".join(json.dumps(sp) for sp in spans) + "\n")
    return path


class TestTraceVerb:
    def test_renders_latest(self, tmp_path, capsys):
        write_trace(tmp_path)
        assert main(["trace", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "runner.run" in out
        assert "worker.job" in out
        assert "2 spans" in out

    def test_accepts_id_prefix_and_path(self, tmp_path, capsys):
        path = write_trace(tmp_path)
        assert main(["trace", "abab", "--dir", str(tmp_path)]) == 0
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("runner.run") >= 2

    def test_missing_trace_reports_and_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["trace", "--dir", str(empty)]) == 1
        assert "repro trace:" in capsys.readouterr().out

    def test_latest_reads_the_env_dir_the_writer_used(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro import telemetry

        traces = tmp_path / "traces"
        elsewhere = tmp_path / "cwd"
        elsewhere.mkdir()
        monkeypatch.setenv(telemetry.DIR_ENV_VAR, str(traces))
        monkeypatch.chdir(elsewhere)
        telemetry.enable()
        with telemetry.span("runner.run"):
            pass
        telemetry.disable()
        assert [p.parent for p in traces.glob("trace-*.ndjson")] == [traces]
        assert main(["trace", "latest"]) == 0
        assert "runner.run" in capsys.readouterr().out
        assert not (elsewhere / "results").exists()
