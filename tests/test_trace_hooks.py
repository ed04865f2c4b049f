"""The benchmark's tracer still finds every hook it rebinds in rodd.

benchmarks/tracing.py reports a target it cannot resolve, or whose
counters it cannot read, as absent; the benchmark then records that layer
as 0 instead of failing.  This test runs small versions of every workload
command under the tracer so that a renamed or reshaped hook fails here.
"""

import importlib.util
from pathlib import Path

from rodd import cli

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("rodd_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_command_leaves_no_hook_absent(tmp_path):
    gains = tmp_path / "gains.txt"
    gains.write_text("0 10 20\n10 0 30\n20 30 0\n", encoding="utf-8")
    net = ["discover", "--n", "60", "--neighbors", "5", "--M", "64", "--q", "0.1",
           "--seed", "1"]
    commands = [
        net + ["--mode", "or"],
        net + ["--mode", "energy", "--threshold-sweep", "1:2:1"],
        ["sparsecode", "--K", "3", "--mu", "4", "--M", "64", "--trials", "2", "--seed", "1"],
        ["fig2", "--K", "3", "--q", "0.2,0.5", "--check"],
        ["fig3", "--K", "3", "--q", "0.2,0.5", "--check"],
        ["validate", "--suite", "all", "--M", "1000", "--seed", "3"],
        ["asym", "--gains-file", str(gains), "--q", "0.2"],
    ]
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    try:
        codes = [cli.main(argv + ["--out", str(tmp_path / f"{i}.csv")])
                 for i, argv in enumerate(commands)]
    finally:
        instrumentation.restore()
    assert codes == [0] * len(commands)
    assert instrumentation.absent == []
    assert tracer.broken == set()
    layers = {span.layer for span in tracer.spans}
    assert layers == {"model", "signatures", "discovery", "sparsecode", "analysis",
                      "validate"}
    # the neighbor query is measured, not a hook that resolves but never runs
    assert ("discovery", "neighbor_query") in {(s.layer, s.name) for s in tracer.spans}
