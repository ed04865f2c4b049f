"""The benchmark's workloads: rodd CLI command lines, inputs and output checks.

A workload is a list of CLI commands run in order; one pass runs all of
them.  A seeded command takes the benchmark seed as its --seed (reduced
mod 2^32, the widest seed every command accepts) or draws its inputs
from it.
"""

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SEED_SPACE = 1 << 32
DIGESTS_FILE = Path(__file__).with_name("digests.json")

# Sizes are cut from the paper's experiments so that one command takes about
# 2 s: a 38 s run holds six or more passes of `discover`, which runs two
# commands, and fifteen or more of the others.  The network keeps the
# headline's 10,000 nodes, so every receiver still screens all of them.
# OR and energy discovery share one workload so that three workloads with
# 38 s runs fit the benchmark's time budget.
DISCOVER = ["discover", "--n", "10000", "--neighbors", "50", "--M", "2500", "--q", "0.02"]
OR_RECEIVERS = 2500
ENERGY_RECEIVERS = 500
ENERGY_THRESHOLDS = [20.0, 40.0]
SPARSE_TRIALS = 250
FIG2_Q = "0.02:0.98:0.08"     # 13 q values per K
FIG_ROWS = {"fig2": 3 * 13, "fig3": 3 * 49}
ASYM_NODES = 18


@dataclass
class Command:
    name: str        # also the stem of its CSV file
    argv: list       # without --out
    seeded: bool     # False when the output does not depend on the seed


@dataclass
class Workload:
    name: str
    why: str
    default_seed: int


WORKLOADS = {w.name: w for w in [
    Workload("discover",
             "10k-node headline network: OR with 2500 receivers, then energy with 500 "
             "receivers x 2 thresholds (BLAS sums, noise RNG, book re-derived)", 42),
    Workload("sparsecode",
             "10-node x 1024-message code, 250 trials: per-trial elimination, "
             "per-pair loop and the largest CSV", 1),
    Workload("closed-form",
             "fig2/fig3 sweeps, validate and asym at K=18: the only workload "
             "that runs analysis and validate", 3),
]}


def asym_inputs(seed):
    """Gain matrix text and per-node q list for `rodd asym`, drawn from the seed."""
    rng = random.Random(seed)
    rows = []
    for i in range(ASYM_NODES):
        row = [0.0 if i == j else 10.0 ** (rng.uniform(0.0, 30.0) / 10.0)
               for j in range(ASYM_NODES)]
        rows.append(" ".join(repr(x) for x in row))
    qs = [round(rng.uniform(0.05, 0.5), 6) for _ in range(ASYM_NODES)]
    return "\n".join(rows) + "\n", ",".join(repr(q) for q in qs)


def commands(workload, seed, input_dir):
    """The workload's commands at this seed; writes any input file into input_dir."""
    s = str(seed % SEED_SPACE)
    if workload == "discover":
        return [
            Command("discover-or", DISCOVER + [
                "--mode", "or", "--receivers", str(OR_RECEIVERS), "--seed", s], True),
            Command("discover-energy", DISCOVER + [
                "--mode", "energy", "--snr-db", "20", "--receivers", str(ENERGY_RECEIVERS),
                "--threshold-sweep", "20:40:20", "--seed", s], True),
        ]
    if workload == "sparsecode":
        return [Command("sparsecode", [
            "sparsecode", "--K", "10", "--mu", "1024", "--q", "0.09", "--M", "512",
            "--trials", str(SPARSE_TRIALS), "--seed", s], True)]
    if workload == "closed-form":
        gains_text, qs = asym_inputs(seed % SEED_SPACE)
        gains = Path(input_dir) / "gains.txt"
        gains.write_text(gains_text)
        return [
            Command("fig2", ["fig2", "--q", FIG2_Q, "--check"], False),
            Command("fig3", ["fig3", "--gamma-db", "20", "--check"], False),
            # validate keeps its own seed: --check is a 3-standard-error Monte
            # Carlo test that fails by design on about 2% of seeds (11 is one).
            Command("validate", ["validate", "--suite", "all", "--M", "100000",
                                 "--seed", "3", "--check"], False),
            Command("asym", ["asym", "--gains-file", str(gains), "--q", qs], True),
        ]
    raise KeyError(workload)


def _rows(text):
    """CSV data rows, split into fields; the header is skipped."""
    return [line.split(",") for line in text.splitlines()[1:]]


def items(name, csv_text):
    """Work items of one command: receiver evaluations, decoded pairs or emitted rows."""
    rows = len(_rows(csv_text))
    if name == "discover-or":
        return rows - 1                         # minus the aggregate row
    if name == "discover-energy":
        return ENERGY_RECEIVERS * rows          # one row per threshold
    return rows


def _expect(problems, ok, message):
    if not ok:
        problems.append(message)


def check(name, csv_text, said):
    """Invariants of one command's output that hold at every seed; returns problems.

    `said` is what the command printed to standard output.
    """
    problems = []
    rows = _rows(csv_text)
    if name == "discover-or":
        agg = rows[-1]
        _expect(problems, agg[0] == "aggregate" and len(rows) > 1, "no aggregate row")
        _expect(problems, int(agg[3]) == 0, f"{agg[3]} misses in noiseless OR mode")
        _expect(problems, float(agg[5]) >= 0.99, f"mean accuracy {agg[5]} < 0.99")
    elif name == "discover-energy":
        _expect(problems, [float(r[0]) for r in rows] == ENERGY_THRESHOLDS,
                f"threshold column is not {ENERGY_THRESHOLDS}")
        for r in rows:
            _expect(problems, all(0.0 <= float(x) <= 1.0 for x in r[1:]),
                    f"rate outside [0,1] in {r}")
            _expect(problems, float(r[3]) >= 0.99, f"mean accuracy {r[3]} < 0.99")
    elif name == "sparsecode":
        _expect(problems, len(rows) == SPARSE_TRIALS * 10 * 9, f"{len(rows)} pairs")
        bad = [r for r in rows if r[3] == "eliminated_all"
               or (r[3] == "decoded" and r[4] != r[5])]
        _expect(problems, not bad, f"{len(bad)} pairs lost their true message")
        _expect(problems, "no-miss 1.000000" in said, "no-miss rate below 1")
    elif name in ("fig2", "fig3"):
        _expect(problems, len(rows) == FIG_ROWS[name], f"{len(rows)} rows")
    elif name == "validate":
        _expect(problems, len(rows) == 8 and all(r[-1] == "PASS" for r in rows),
                "rows missing or failed")
    elif name == "asym":
        _expect(problems, len(rows) == ASYM_NODES, f"{len(rows)} rows")
        _expect(problems, all(math.isfinite(float(r[2])) and float(r[2]) > 0 for r in rows),
                "bound not finite and positive")
    return problems


def expected_digests(workload, seed, cmds):
    """{command name: sha256} recorded at the parent commit that apply at this seed.

    A seeded command's digest holds only at the recorded seed; an unseeded
    one (fig2, fig3, validate) has the same output at every seed.
    """
    record = json.loads(DIGESTS_FILE.read_text())[workload]
    same_seed = seed % SEED_SPACE == record["seed"]
    return {c.name: record["csv"][c.name] for c in cmds if same_seed or not c.seeded}
