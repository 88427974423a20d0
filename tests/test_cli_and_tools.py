"""Unit tests for the CLI, explanation, DOT export and serialization."""

import json

import pytest

from repro.cli import load_log, main
from repro.core.mapping import Mapping
from repro.datagen import generate_reallike
from repro.evaluation.explain import explain_mapping, format_explanation
from repro.graph.dependency import dependency_graph
from repro.graph.dot import matching_to_dot, to_dot
from repro.log.csvio import write_csv
from repro.log.eventlog import EventLog
from repro.log.xes import write_xes
from repro.patterns.ast import and_, seq


@pytest.fixture
def log_files(tmp_path):
    log_1 = EventLog(["ABCD", "ACBD", "ABD"] * 5, name="one")
    log_2 = EventLog(["1234", "1324", "124"] * 5, name="two")
    path_1 = tmp_path / "one.xes"
    path_2 = tmp_path / "two.csv"
    write_xes(log_1, path_1)
    write_csv(log_2, path_2)
    return path_1, path_2, log_1, log_2


class TestLoadLog:
    def test_loads_both_formats(self, log_files):
        path_1, path_2, log_1, log_2 = log_files
        assert load_log(str(path_1)) == log_1
        assert load_log(str(path_2)) == log_2

    def test_missing_file(self):
        with pytest.raises(SystemExit):
            load_log("/nonexistent/file.xes")

    def test_unsupported_extension(self, tmp_path):
        path = tmp_path / "log.parquet"
        path.write_text("")
        with pytest.raises(SystemExit):
            load_log(str(path))


class TestCliCommands:
    def test_characterize(self, log_files, capsys):
        path_1, path_2, *_ = log_files
        assert main(["characterize", str(path_1), str(path_2)]) == 0
        output = capsys.readouterr().out
        assert "one" in output and "two" in output
        assert "15" in output  # trace count

    def test_match_prints_mapping(self, log_files, capsys):
        path_1, path_2, *_ = log_files
        code = main(
            [
                "match", str(path_1), str(path_2),
                "--pattern", "SEQ(A, AND(B, C), D)",
                "--method", "pattern-tight",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "A\t1" in output
        assert "D\t4" in output
        assert "score=" in output

    def test_match_saves_json_and_explains(self, log_files, tmp_path, capsys):
        path_1, path_2, *_ = log_files
        out_path = tmp_path / "mapping.json"
        code = main(
            [
                "match", str(path_1), str(path_2),
                "--output", str(out_path), "--explain",
            ]
        )
        assert code == 0
        saved = json.loads(out_path.read_text())
        assert saved["A"] == "1"
        output = capsys.readouterr().out
        assert "pattern normal distance" in output

    def test_discover(self, log_files, capsys):
        path_1, *_ = log_files
        code = main(["discover", str(path_1), "--min-support", "0.3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "SEQ" in output or "AND" in output

    def test_graph(self, log_files, capsys):
        path_1, *_ = log_files
        assert main(["graph", str(path_1)]) == 0
        output = capsys.readouterr().out
        assert output.startswith("digraph")
        assert '"A" -> "B"' in output

    @pytest.mark.parametrize(
        "command, extra, field",
        [
            ("match", ["--node-budget", "-1"], "node_budget"),
            ("match", ["--time-budget", "-1"], "time_budget"),
            ("match", ["--degraded-fallback", "-1"], "degraded_fallback"),
            ("match", ["--method", "heuristic-simple", "--blocking"],
             "blocking"),
            ("stream", ["--node-budget", "-1"], "node_budget"),
            ("stream", ["--check-every", "0"], "check_every"),
        ],
    )
    def test_invalid_recipe_is_a_usage_error(
        self, log_files, capsys, command, extra, field
    ):
        path_1, path_2, *_ = log_files
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(path_1), str(path_2), *extra])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [error] = [
            line for line in captured.err.splitlines() if "error:" in line
        ]
        assert field in error


class TestCliObservability:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_info_subcommand(self, capsys):
        import repro

        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert repro.__version__ in output
        assert "pattern-tight" in output  # methods listed
        assert (  # the probe primitives are listed
            "probe primitives: begin_span, count, end_span, gauge, "
            "observe, span" in output
        )
        assert "--trace" in output  # flag summary

    def test_match_writes_chrome_trace_and_prometheus(
        self, log_files, tmp_path, capsys
    ):
        path_1, path_2, *_ = log_files
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.prom"
        code = main(
            [
                "match", str(path_1), str(path_2),
                "--pattern", "SEQ(A, AND(B, C), D)",
                "--method", "pattern-tight",
                "--trace", str(trace_path),
                "--metrics", str(metrics_path),
            ]
        )
        assert code == 0
        doc = json.loads(trace_path.read_text())
        names = {
            event["name"]
            for event in doc["traceEvents"]
            if event["ph"] == "X"
        }
        assert {"match.run", "astar.search", "astar.expand"} <= names
        prom = metrics_path.read_text()
        assert "# TYPE repro_search_expansions_total counter" in prom
        assert "repro_search_expansions_total" in prom
        # The mapping still prints on stdout, untouched by obs output.
        assert "A\t1" in capsys.readouterr().out

    def test_match_jsonl_trace_and_json_metrics(self, log_files, tmp_path):
        path_1, path_2, *_ = log_files
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "match", str(path_1), str(path_2),
                "--method", "heuristic-simple",
                "--trace", str(trace_path),
                "--metrics", str(metrics_path),
            ]
        )
        assert code == 0
        rows = [
            json.loads(line)
            for line in trace_path.read_text().strip().splitlines()
        ]
        assert any(row["name"] == "heuristic.greedy" for row in rows)
        snapshot = json.loads(metrics_path.read_text())
        assert "counters" in snapshot

    def test_stream_writes_obs_files(self, tmp_path):
        ref = tmp_path / "ref.csv"
        feed = tmp_path / "feed.csv"
        write_csv(EventLog(["ABCD"] * 8 + ["ACBD"] * 4, name="ref"), ref)
        write_csv(EventLog(["wxyz"] * 8 + ["wyxz"] * 4, name="feed"), feed)
        trace_path = tmp_path / "stream.jsonl"
        metrics_path = tmp_path / "stream.prom"
        code = main(
            [
                "stream", str(ref), str(feed),
                "--pattern", "SEQ(A, B, C)",
                "--batch", "4",
                "--trace", str(trace_path),
                "--metrics", str(metrics_path),
            ]
        )
        assert code == 0
        rows = [
            json.loads(line)
            for line in trace_path.read_text().strip().splitlines()
        ]
        assert any(row["name"] == "stream.update" for row in rows)
        assert "repro_stream_commits_total" in metrics_path.read_text()


class TestExplain:
    def test_breakdown_sums_to_score(self):
        task = generate_reallike(num_traces=200, seed=7)
        explanation = explain_mapping(
            task.log_1, task.log_2, task.truth, patterns=task.patterns
        )
        covered = [r for r in explanation.rows if r.covered]
        assert explanation.total_score == pytest.approx(
            sum(r.contribution for r in covered)
        )
        assert len(covered) == len(explanation.rows)  # truth covers all

    def test_uncovered_patterns_marked(self):
        log_1 = EventLog(["ABC"])
        log_2 = EventLog(["123"])
        explanation = explain_mapping(log_1, log_2, {"A": "1"})
        uncovered = [r for r in explanation.rows if not r.covered]
        assert uncovered
        assert all(r.contribution == 0.0 for r in uncovered)

    def test_worst_returns_lowest_contributions(self):
        log_1 = EventLog(["AB", "AB", "BA"])
        log_2 = EventLog(["12", "21", "21"])
        explanation = explain_mapping(log_1, log_2, {"A": "1", "B": "2"})
        worst = explanation.worst(2)
        contributions = [r.contribution for r in explanation.rows if r.covered]
        assert worst[0].contribution == min(contributions)

    def test_format_contains_rows_and_total(self):
        log_1 = EventLog(["AB"])
        log_2 = EventLog(["12"])
        explanation = explain_mapping(log_1, log_2, {"A": "1", "B": "2"})
        text = format_explanation(explanation)
        assert "SEQ(A,B)" in text
        assert "pattern normal distance" in text


class TestDotExport:
    def test_to_dot_structure(self):
        log = EventLog(["AB", "BA"])
        dot = to_dot(dependency_graph(log))
        assert dot.startswith("digraph")
        assert '"A" -> "B"' in dot and '"B" -> "A"' in dot
        assert dot.rstrip().endswith("}")

    def test_min_edge_weight_filters(self):
        log = EventLog(["AB"] * 9 + ["BA"])
        dot = to_dot(dependency_graph(log), min_edge_weight=0.5)
        assert '"A" -> "B"' in dot
        assert '"B" -> "A"' not in dot

    def test_matching_to_dot(self):
        log_1 = EventLog(["AB"])
        log_2 = EventLog(["12"])
        dot = matching_to_dot(
            dependency_graph(log_1),
            dependency_graph(log_2),
            {"A": "1", "B": "2"},
        )
        assert "cluster_1" in dot and "cluster_2" in dot
        assert '"1:A" -> "2:1"' in dot

    def test_quoting_of_odd_names(self):
        log = EventLog([['he said "hi"', "x"]])
        dot = to_dot(dependency_graph(log))
        assert '\\"hi\\"' in dot


class TestMappingSerialization:
    def test_json_round_trip(self):
        mapping = Mapping({"Ship_Goods": "FH", "Payment": "ZF"})
        assert Mapping.from_json(mapping.to_json()) == mapping

    def test_from_json_validates(self):
        with pytest.raises(ValueError):
            Mapping.from_json('["not", "an", "object"]')
        with pytest.raises(ValueError):
            Mapping.from_json('{"a": 3}')
