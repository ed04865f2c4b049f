"""Benchmark of the rodd CLI: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout (rodd is imported from ./src):

    python3 benchmarks/run.py --workload discover --seed 42 --seconds 38 --trace 0
    python3 benchmarks/run.py --workload all          # every workload at its default seed

One closed-loop caller: a single process per workload calls
rodd.cli.main(argv) for each command of a pass, then starts the next pass,
for --seconds (no pass starts that would likely end later).  Set-up is
timed separately, over fresh processes that only import rodd.  BLAS gets
at most nproc threads.  Every pass checks its CSVs (digests at the
recorded seed, invariants at any seed, and equality with the run's first
pass); a failed pass counts in `failed`, and any failure makes the command
exit 1.

Pass times are reported at a reference machine speed: each pass's wall
time is multiplied by CAL_REF_S / cal_s, where cal_s is the time of a fixed
rodd-independent calibration kernel run just before and after that pass
(worker.py).  `wall_ref_s` is the median of these times and
`items_per_ref_s` the median work rate at the same speed.  On a shared
machine the speed of the same code drifts by up to 1.9x over seconds to
minutes, for longer than a run; raw times follow that drift, and the
scaled times cancel most of it.  The raw wall times are printed and saved
beside them.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  The run manifest and the samples go
to benchmarks/results/<workload>-seed<seed>-trace<t>.json, never into a CSV.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
SETUP_PROBES = 4          # import-only processes; the workload process is a fifth sample
DEADLINE_S = 170          # the whole command must finish within 180 s

END_TO_END = [("wall_ref_s", "s"), ("items_per_ref_s", "items/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]
# Raw samples printed beside the end-to-end metrics.
RAW = [("wall_s", "s"), ("cal_s", "s")]
# Calibration kernel time that defines the reference speed: about its
# typical time on a 2-vCPU shared VM (Python 3.11, OpenBLAS with 2 threads).
CAL_REF_S = 0.1


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def start_worker(argv, env):
    """Launch a worker; returns (process, seconds until it printed "ready")."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + argv, stdout=subprocess.PIPE,
                            text=True, env=env)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError("worker did not start; is ./src/rodd present?")
    return proc, ready


def finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def setup_samples(env):
    samples = []
    for _ in range(SETUP_PROBES):
        proc, ready = start_worker(["--probe"], env)
        finish(proc, 30)
        samples.append(ready)
    return samples


def summary(values):
    """Median, quartiles, count, and the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out.update(q1=q1, q3=q3)
    for permille in (999, 990, 900):
        if len(values) * (1000 - permille) >= 10_000:
            out[f"p{permille / 10:g}"] = statistics.quantiles(values, n=1000)[permille - 1]
            break
    return out


def commit():
    head = Path(".git/HEAD")
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = Path(".git") / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (result JSON object, report dict)."""
    env = worker_env()
    load_before = loadavg()
    started = time.perf_counter()
    setup = [] if trace else setup_samples(env)
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RESULTS))
    try:
        proc, ready = start_worker(["--workload", name, "--seed", str(seed), "--seconds",
                                    str(seconds), "--trace", str(trace), "--workdir",
                                    str(workdir)], env)
        setup.append(ready)
        out = finish(proc, DEADLINE_S - (time.perf_counter() - started))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    data = json.loads(out.splitlines()[-1])
    passes = data["passes"]
    good = [p for p in passes if p["ok"]]
    failed = len(passes) - len(good)
    for p in good:
        p["wall_ref_s"] = p["wall_s"] * CAL_REF_S / p["cal_s"]
    untraced = [p["wall_ref_s"] for p in good if not p["traced"]]
    traced = [p["wall_ref_s"] for p in good if p["traced"]]

    stats, metrics = {}, {}
    if not trace and good:
        stats = {"wall_ref_s": summary(untraced),
                 "items_per_ref_s": summary([p["items"] / p["wall_ref_s"] for p in good]),
                 "setup_s": summary(setup),
                 "peak_rss_mb": summary([data["peak_rss_mb"]]),
                 "wall_s": summary([p["wall_s"] for p in good]),
                 "cal_s": summary([p["cal_s"] for p in good])}
        metrics = {key: {"value": stats[key]["median"], "unit": unit}
                   for key, unit in END_TO_END}
    elif trace and traced and untraced:
        layer = {key: statistics.median(pass_[key] for pass_ in data["layers"])
                 for key, _, _ in tracing.LAYER_METRICS if key != "trace.overhead_ratio"}
        overhead = statistics.median(traced) / statistics.median(untraced) - 1
        layer["trace.overhead_ratio"] = overhead
        metrics = {key: {"value": layer[key], "unit": unit}
                   for key, unit, _ in tracing.LAYER_METRICS}
    result = {"correct": failed == 0 and bool(metrics), "attempted": len(passes),
              "failed": failed, "metrics": metrics}
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "manifest": {
            "commit": commit(),
            "seed": seed % workloads.SEED_SPACE,
            "commands": data["commands"],
            "versions": data["versions"],
            "blas_threads": {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                 "MKL_NUM_THREADS")},
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_before": load_before, "loadavg_after": loadavg(),
        },
        "passes": passes, "stats": stats, "error_rate": failed / len(passes),
        "absent": data["absent"], "spans": data["spans"], "result": result,
    }
    (RESULTS / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(report, indent=1))
    return result, report


def print_report(report):
    result = report["result"]
    print(f"{report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"{result['attempted']} passes, {result['failed']} failed")
    for p in report["passes"]:
        for problem in p["problems"]:
            print(f"  FAIL: {problem}")
    for key, unit in END_TO_END + RAW:
        if key in report["stats"]:
            s = report["stats"][key]
            spread = f", q1 {s['q1']:.6g}, q3 {s['q3']:.6g}" if "q1" in s else ""
            tail = next((f", {k} {v:.6g}" for k, v in s.items() if k.startswith("p")),
                        ", no tail percentile (needs 10 samples beyond it)")
            print(f"  {key:<15} {s['median']:.6g} {unit} (median of n={s['n']}{spread}{tail})")
    print(f"  {'error_rate':<15} {report['error_rate']:.6g} ratio "
          f"({result['failed']}/{result['attempted']} passes)")
    if report["trace"] and result["metrics"]:
        for key, value in result["metrics"].items():
            print(f"  {key:<30} {value['value']:.6g} {value['unit']}")
        for target in report["absent"]:
            print(f"  absent: {target}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not Path("src/rodd/__init__.py").is_file():
        print("error: run from the root of a rodd checkout (no ./src/rodd)", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        seed = workloads.WORKLOADS[name].default_seed if args.seed is None else args.seed
        try:
            result, report = run_workload(name, seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_report(report)
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
