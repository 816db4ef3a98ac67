"""Tests for the self-contained HTML dashboard (repro.obs.dashboard)."""

import json
import os

import pytest

from repro.obs.ledger import repo_root
from repro.obs.dashboard import (
    collect_payload,
    hotspot_rows,
    load_telemetry_jsonl,
    parse_folded,
    render_html,
    write_dashboard,
)
from repro.obs.analytics import discover_bench_files

from .test_ledger import make_record

#: Substrings that would make the file depend on anything beyond itself.
#: "http" subsumes every external URL (there is no other scheme in play);
#: the rest catch local-file references and dynamic loading.
FORBIDDEN = (
    "http", "<script src", "<link", "@import", "url(", "fetch(", "import(",
    "xmlhttprequest", "websocket",
)


def committed_payload():
    ledger = os.path.join(repo_root(), "repro_ledger.jsonl")
    return collect_payload(
        ledger_path=ledger,
        bench_paths=discover_bench_files(),
        telemetry_path=os.path.join(
            repo_root(), "artifacts", "telemetry_sweep.jsonl"),
        profile_path=os.path.join(
            repo_root(), "artifacts", "hotspots_sweep.folded"),
    )


class TestFoldedStacks:
    def test_parse_folded_splits_stack_and_value(self):
        stacks = parse_folded("a;b;c 120\nroot 5\n\nnot-a-count x\n")
        assert stacks == [(["a", "b", "c"], 120), (["root"], 5)]

    def test_hotspot_rows_self_vs_total(self):
        stacks = parse_folded("main;inner 100\nmain 40\nmain;inner;leaf 10")
        rows = {r["name"]: r for r in hotspot_rows(stacks)}
        # `inner` is the leaf of one 100us stack and appears in another.
        assert rows["inner"]["self_us"] == 100
        assert rows["inner"]["total_us"] == 110
        assert rows["main"]["total_us"] == 150

    def test_recursion_counted_once_per_stack(self):
        rows = hotspot_rows(parse_folded("f;f;f 30"))
        [row] = rows
        assert row == {"name": "f", "self_us": 30, "total_us": 30}

    def test_top_limits_by_self_time(self):
        stacks = [([f"f{i}"], i) for i in range(20)]
        rows = hotspot_rows(stacks, top=5)
        assert len(rows) == 5
        assert rows[0]["name"] == "f19"


class TestCollectPayload:
    def test_missing_artifacts_degrade_to_explicit_nulls(self, tmp_path):
        payload = collect_payload(
            ledger_path=str(tmp_path / "absent.jsonl"),
            telemetry_path=str(tmp_path / "absent.tele"),
            profile_path=str(tmp_path / "absent.folded"),
        )
        assert payload["telemetry"] is None
        assert payload["hotspots"] is None
        assert payload["bench"] == {"series": [], "layers": []}
        assert payload["meta"]["sources"] == []

    def test_payload_is_json_serializable(self, tmp_path):
        from repro.obs.ledger import Ledger

        ledger = Ledger(str(tmp_path / "l.jsonl"))
        ledger.append(make_record())
        payload = collect_payload(ledger_path=ledger.path)
        clone = json.loads(json.dumps(payload))
        # One record measures all three tracked metrics: 3 samples.
        assert clone["meta"]["points"] == 3
        assert clone["attainment"]["cells"]

    def test_telemetry_jsonl_grouped_by_type(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"type": "meta", "driver": "sweep"}\n'
            '{"type": "task_span", "index": 0}\n'
            '{"type": "task_span", "index": 1}\n'
            '{"type": "summary", "tasks": 2}\n'
        )
        groups = load_telemetry_jsonl(str(path))
        assert len(groups["task_span"]) == 2
        assert groups["meta"][0]["driver"] == "sweep"


class TestRenderedDashboard:
    """Acceptance: one self-contained file, no external references."""

    def test_single_file_with_no_external_references(self, tmp_path):
        payload = committed_payload()
        out = str(tmp_path / "dash.html")
        path = write_dashboard(out, payload)
        assert os.path.exists(path)
        assert os.listdir(str(tmp_path)) == ["dash.html"]  # exactly one file
        html = open(path).read().lower()
        for needle in FORBIDDEN:
            assert needle not in html, f"external reference: {needle!r}"

    def test_renders_all_four_artifact_kinds(self):
        html = render_html(committed_payload())
        # ledger + bench: a committed series key, a harness workload and
        # the trend block
        assert "alg1" in html and '"trend"' in html
        assert '"workload": "sweep-data"' in html
        # telemetry: worker task spans with real pids
        assert '"worker_pid"' in html
        # profile: a known-hot function from the committed folded stacks
        # (the broadcast replay, since the artifacts were regenerated)
        assert "array_rounds.py" in html

    def test_payload_embedded_as_inert_json(self):
        payload = committed_payload()
        html = render_html(payload)
        assert '<script type="application/json" id="repro-data">' in html
        # The embedded blob must parse back to the payload it came from.
        start = html.index('id="repro-data">') + len('id="repro-data">')
        end = html.index("</script>", start)
        blob = html[start:end].replace("<\\/", "</")
        assert json.loads(blob) == json.loads(
            json.dumps(payload, sort_keys=True))

    def test_script_closer_in_data_cannot_break_out(self, tmp_path):
        from repro.obs.ledger import Ledger

        ledger = Ledger(str(tmp_path / "l.jsonl"))
        ledger.append(make_record(label="</script><b>pwn</b>"))
        html = render_html(collect_payload(ledger_path=ledger.path))
        # Exactly the template's own closers; the hostile label stays inert.
        assert html.count("</script>") == 2
        assert "<b>pwn</b>" not in html

    def test_dark_mode_and_tables_present(self):
        html = render_html(committed_payload())
        assert "prefers-color-scheme: dark" in html
        assert 'data-theme="dark"' in html
        # Every chart ships its table-view twin toggle (built client-side
        # by the card scaffolding in the inline script).
        assert '"Chart", chart, table' in html
        assert '"Table", table, chart' in html
        assert "function buildTable" in html

    def test_empty_payload_still_renders(self, tmp_path):
        payload = collect_payload(ledger_path=str(tmp_path / "no.jsonl"))
        out = write_dashboard(str(tmp_path / "empty.html"), payload)
        html = open(out).read().lower()
        for needle in FORBIDDEN:
            assert needle not in html


class TestCommittedArtifactsPresent:
    """The artifacts the CI dashboard step renders must stay committed."""

    @pytest.mark.parametrize("rel", [
        "repro_ledger.jsonl",
        "artifacts/telemetry_sweep.jsonl",
        "artifacts/hotspots_sweep.folded",
    ])
    def test_artifact_exists(self, rel):
        assert os.path.exists(os.path.join(repo_root(), rel)), rel

    def test_at_least_one_bench_report_committed(self):
        assert discover_bench_files()


class TestBenchPanels:
    """End-to-end metrics across PRs and per-layer self times."""

    def test_one_series_per_workload_and_end_to_end_metric(self):
        with open(os.path.join(repo_root(), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        series = committed_payload()["bench"]["series"]
        assert {(s["workload"], s["metric"]) for s in series} == {
            (w["name"], m["name"])
            for w in spec["workloads"] for m in spec["end_to_end"]}
        assert all(s["points"][-1]["pr"] >= 31 for s in series)

    def test_layer_table_from_the_traced_runs(self):
        layers = committed_payload()["bench"]["layers"]
        assert {run["workload"] for run in layers} == {
            "largep-symbolic", "sweep-data", "plan-cold", "chaos-recover"}
        for run in layers:
            names = {row["layer"] for row in run["rows"]}
            assert {"op", "machine.network", "obs"} <= names
            assert sum(row["share"] for row in run["rows"]) == \
                pytest.approx(1.0)

    def test_panels_reuse_the_one_chart_path(self):
        html = render_html(committed_payload())
        assert html.count("function sparkSvg") == 1
        assert "benchPanel();" in html and "layerPanel();" in html
