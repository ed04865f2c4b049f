"""Tests of the benchmark's own code: python3 -m pytest benchmarks -q"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from rodd import analysis, cli, discovery  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_of_nested_spans():
    # A [0, 10] holds B [1, 4], which holds C [2, 3]; D [5, 7] is A's second child.
    t = tracing.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 7, 10]))
    with t.span("cli", "main"):
        with t.span("discovery", "experiment"):
            with t.span("signatures", "derive"):
                pass
        with t.span("discovery", "report"):
            pass
    assert [s.parent for s in t.spans] == [-1, 0, 1, 0]
    assert dict(t.self_times()) == {("cli", "main"): 5, ("discovery", "experiment"): 2,
                                    ("signatures", "derive"): 1, ("discovery", "report"): 2}


def test_layer_self_times_and_remainder_add_up_to_the_pass():
    t = tracing.Tracer(clock=fake_clock([0, 1, 3, 4]))
    with t.span("cli", "main"):
        with t.span("analysis", "or_rate"):
            pass
    out = tracing.layer_metrics(t, pass_s=5.0, csv_bytes=7, absent=[])
    assert out["cli.self_s"] == 2 and out["analysis.or_rate_s"] == 2
    assert out["trace.unattributed_s"] == 1
    spans = sum(out[m] for m in tracing.SPAN_METRICS.values())
    assert spans + out["trace.unattributed_s"] == out["trace.pass_s"]


def traced(argv):
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    try:
        with tracer.span("cli", "main"):
            assert cli.main(argv) == 0
    finally:
        instrumentation.restore()
    return tracing.layer_metrics(tracer, 1.0, 0, instrumentation.absent)


def test_discovery_counters_match_hand_values(tmp_path, capsys):
    out = tmp_path / "d.csv"
    m = traced(["discover", "--n", "300", "--neighbors", "8", "--M", "200", "--mode", "or",
                "--seed", "5", "--out", str(out)])
    n = 317   # nodes the seed-5 Poisson draw places (counted in the CSV below)
    assert len(out.read_text().splitlines()) == n + 2
    assert m["model.nodes"] == n
    assert m["discovery.receivers"] == n
    assert m["discovery.candidates"] == n * n
    assert m["discovery.elim_flops"] == 2 * n * 200 * n
    # two 256-receiver blocks, each reading the whole float32 book once
    assert m["discovery.elim_bytes"] == 4 * (2 * n * 200 + n * 200 + n * n)
    assert m["signatures.derive_calls"] == n
    assert m["signatures.words"] == n * 200
    assert m["signatures.book_bytes"] == n * 200
    assert m["discovery.misses"] == 0
    true_pairs = sum(int(row.split(",")[1]) for row in out.read_text().splitlines()[1:-1])
    assert m["discovery.neighbor_pairs"] == true_pairs
    assert m["discovery.useful_ratio"] == pytest.approx(true_pairs / n**2)
    assert m["discovery.neighbor_query_s"] > 0 and m["discovery.report_s"] > 0


def test_sparsecode_and_analysis_counters_match_hand_values(tmp_path, capsys):
    m = traced(["sparsecode", "--K", "3", "--mu", "4", "--q", "0.2", "--M", "64",
                "--trials", "2", "--seed", "1", "--out", str(tmp_path / "s.csv")])
    assert m["sparsecode.pairs"] == 2 * 3 * 2
    assert m["sparsecode.candidates"] == (3 * 4) * 3 * 2
    assert m["sparsecode.elim_flops"] == 2 * (3 * 4) * 64 * 3 * 2
    assert m["sparsecode.decoded"] + m["sparsecode.ambiguous"] == 12
    assert m["signatures.derive_calls"] == 12 and m["signatures.words"] == 12 * 64

    gains = tmp_path / "g.txt"
    gains.write_text("0 1 2 3\n1 0 2 3\n1 2 0 3\n1 2 3 0\n")
    m = traced(["asym", "--gains-file", str(gains), "--q", "0.2",
                "--out", str(tmp_path / "a.csv")])
    assert m["analysis.asym_subsets"] == 4 * 3 * 2**2   # 4 nodes x 3 listeners x 4 subsets

    m = traced(["fig2", "--K", "3", "--q", "0.5", "--out", str(tmp_path / "f.csv")])
    assert m["analysis.or_rate_calls"] == 1 and m["analysis.sweep_rows"] == 1
    assert m["analysis.objective_evals"] > 1001   # grid plus golden-section refinement


def test_every_wrapped_attribute_is_restored():
    originals = {}
    for target, *_ in tracing.TARGETS:
        owner, attr = tracing._resolve(target)
        originals[target] = vars(owner)[attr]
    instrumentation = tracing.Instrumentation(tracing.Tracer())
    assert discovery.cKDTree is not originals["rodd.discovery:cKDTree"]
    instrumentation.restore()
    for target, original in originals.items():
        owner, attr = tracing._resolve(target)
        assert vars(owner)[attr] is original, target


def test_missing_target_is_reported_absent():
    targets = [("rodd.signatures:no_such_function", "signatures", "derive", None),
               ("rodd.no_such_module:f", "model", "topology", None),
               ("rodd.sparsecode:NoSuchBook.matrix", "signatures", "stack", None)]
    instrumentation = tracing.Instrumentation(tracing.Tracer(), targets)
    instrumentation.restore()
    assert instrumentation.absent == [t[0] for t in targets]


def test_hook_that_cannot_read_its_counters_marks_the_target_absent():
    tracer = tracing.Tracer()
    target = "rodd.analysis:g"
    instrumentation = tracing.Instrumentation(
        tracer, [(target, "analysis", None, lambda t, c: c.result.rows)])
    try:
        assert analysis.g(3.0) == 1.0     # the call itself still succeeds
    finally:
        instrumentation.restore()
    assert tracer.broken == {target}


def test_traced_csv_is_byte_identical(tmp_path, capsys):
    argv = ["sparsecode", "--K", "4", "--mu", "8", "--q", "0.2", "--M", "64",
            "--trials", "3", "--seed", "2", "--out"]
    assert cli.main(argv + [str(tmp_path / "plain.csv")]) == 0
    traced(argv + [str(tmp_path / "traced.csv")])
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()


def test_checks_flag_broken_outputs():
    good = "receiver,true_count,est_count,misses,false_alarms,accuracy\n0,2,2,0,0,1\n" \
           "aggregate,2,2,0,0,1\n"
    assert workloads.check("discover-or", good, "") == []
    missed = good.replace("aggregate,2,2,0,0,1", "aggregate,2,1,1,0,0.5")
    assert len(workloads.check("discover-or", missed, "")) == 2


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.LAYER_METRICS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_summary_reports_tail_only_with_ten_samples_beyond_it():
    assert "p90" not in run.summary([1.0] * 99)
    s = run.summary([float(i) for i in range(100)])
    assert s["median"] == 49.5 and math.isclose(s["p90"], 89.9, rel_tol=0.01)
