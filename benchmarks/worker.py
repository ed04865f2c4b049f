"""One workload process of the benchmark: import rodd, then run passes.

Started by run.py from the root of a checkout.  It prints "ready" once
rodd (with numpy and scipy) is imported, so the parent can time set-up,
then runs closed-loop passes of one workload for --seconds (no pass is
started that would likely end later) and prints its samples as one JSON
line.  With --probe it stops after
"ready".  With --trace 1 the passes alternate between untraced and
traced, so the trace overhead is measured in the same process.

Before the first pass and after every pass it times a fixed calibration
kernel that does not use rodd.  The mean of the two timings around a pass
(`cal_s`) measures the machine's speed while that pass ran; run.py scales
the pass time by it.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
import rodd  # noqa: E402
from rodd import cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# Two passes at least: the second is compared byte for byte with the first,
# and a traced run needs one untraced and one traced pass.
MIN_PASSES = 2

# The calibration kernel mixes the two kinds of work rodd's passes do:
# interpreter-bound loops and BLAS-bound matrix products.  About 0.1 s.
CAL_LOOP = 400_000
CAL_MATRIX = numpy.random.default_rng(0).random((400, 400))
CAL_PRODUCTS = 24


def calibrate():
    """Seconds taken by the fixed calibration kernel."""
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(CAL_LOOP):
        total += i * i % 7
        table[i & 255] = total
    for _ in range(CAL_PRODUCTS):
        CAL_MATRIX @ CAL_MATRIX
    return time.perf_counter() - t0


def run_pass(cmds, workdir, tracer=None):
    """Run every command once.

    Returns (wall_s, {name: seconds}, {name: (rc, csv bytes, stdout)}).
    """
    outputs, seconds = {}, {}
    start = time.perf_counter()
    for cmd in cmds:
        out = workdir / f"{cmd.name}.csv"
        said = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(said):
            if tracer is None:
                rc = cli.main(cmd.argv + ["--out", str(out)])
            else:
                with tracer.span("cli", "main"):
                    rc = cli.main(cmd.argv + ["--out", str(out)])
        seconds[cmd.name] = time.perf_counter() - t0
        outputs[cmd.name] = (rc, out, said.getvalue())
    wall = time.perf_counter() - start
    return wall, seconds, {name: (rc, _take(out), said)
                           for name, (rc, out, said) in outputs.items()}


def _take(path):
    """Read and delete one CSV, so that no pass sees another pass's file."""
    if not path.exists():
        return b""
    data = path.read_bytes()
    path.unlink()
    return data


def check_pass(cmds, outputs, expected, first_digests):
    """Problems with one pass's outputs, and their digests."""
    problems, digests = [], {}
    for cmd in cmds:
        rc, data, said = outputs[cmd.name]
        digests[cmd.name] = hashlib.sha256(data).hexdigest()
        if rc != 0:
            problems.append(f"{cmd.name}: exit code {rc}")
            continue
        if cmd.name in expected and digests[cmd.name] != expected[cmd.name]:
            problems.append(f"{cmd.name}: CSV differs from the parent commit's")
        if first_digests and digests[cmd.name] != first_digests[cmd.name]:
            problems.append(f"{cmd.name}: CSV differs from this run's first pass")
        problems += [f"{cmd.name}: {problem}"
                     for problem in workloads.check(cmd.name, data.decode(), said)]
    return problems, digests


def next_pass_fits(passes, start, seconds):
    """Whether one more pass, as long as the median pass so far, ends within seconds."""
    walls = sorted(p["wall_s"] for p in passes if p["wall_s"] is not None)
    typical = walls[len(walls) // 2] if walls else 0.0
    return time.perf_counter() - start + typical <= seconds


def versions():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "rodd": rodd.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir")
    args = parser.parse_args()
    if not Path(rodd.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"rodd imported from {rodd.__file__}, not from ./src", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.probe:
        return 0

    workdir = Path(args.workdir)
    cmds = workloads.commands(args.workload, args.seed, workdir)
    expected = workloads.expected_digests(args.workload, args.seed, cmds)
    passes, layers, absent, spans = [], [], [], []
    first_digests = None
    start = time.perf_counter()
    cal_before = calibrate()
    while len(passes) < MIN_PASSES or next_pass_fits(passes, start, args.seconds):
        traced = bool(args.trace) and len(passes) % 2 == 1
        gc.collect()
        tracer = tracing.Tracer() if traced else None
        instrumentation = tracing.Instrumentation(tracer) if traced else None
        try:
            wall, seconds, outputs = run_pass(cmds, workdir, tracer)
        except Exception:  # a crashing pass is a failed pass, not a crashed run
            traceback.print_exc()
            passes.append({"traced": traced, "wall_s": None, "ok": False,
                           "problems": ["exception"], "items": 0})
            cal_before = calibrate()
            continue
        finally:
            if instrumentation is not None:
                instrumentation.restore()
        problems, digests = check_pass(cmds, outputs, expected, first_digests)
        first_digests = first_digests or digests
        items = 0 if problems else sum(workloads.items(name, data.decode())
                                       for name, (_, data, _) in outputs.items())
        cal_after = calibrate()
        cal, cal_before = (cal_before + cal_after) / 2, cal_after
        passes.append({"traced": traced, "wall_s": wall, "cal_s": cal, "commands_s": seconds,
                       "ok": not problems, "problems": problems, "digests": digests,
                       "items": items})
        if traced:
            absent = instrumentation.absent + sorted(tracer.broken)
            csv_bytes = sum(len(data) for _, data, _ in outputs.values())
            layers.append(tracing.layer_metrics(tracer, wall, csv_bytes, absent))
            spans = [vars(s) for s in tracer.spans]
    print(json.dumps({
        "commands": [{"argv": ["rodd"] + c.argv + ["--out", f"{c.name}.csv"],
                      "seeded": c.seeded} for c in cmds],
        "passes": passes, "layers": layers, "absent": absent, "spans": spans,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": versions()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
