"""Outside-in tracing of rodd's layers for the benchmark's traced passes.

The benchmark never edits rodd.  For a traced pass it rebinds public
functions of rodd's modules (and methods of its classes) to wrappers that
record spans and counters, and puts every original back afterwards.  Each
wrapped name is looked up by its callers at call time, either as a module
attribute (`signatures.reconstruct_book`) or as a module global (`h2`,
`waterfill_lhs`), so rebinding it reaches every internal call.  The
neighbor query is reached by rebinding `rodd.discovery.cKDTree` to a
subclass.  A target that does not exist at the commit under test, or
whose counters cannot be read from its arguments and result there, is
reported as absent instead of failing the run; its metrics then read 0.

Spans nest: a layer's self time is the time inside its spans minus the
time inside spans they enclose.  The self times of all layers plus the
unattributed remainder add up to the traced pass time.
"""

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: int   # index of the enclosing span in Tracer.spans, -1 for a root


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(float)
        self.broken = set()     # targets whose hook could not read its counters
        self._open = []

    @contextmanager
    def span(self, layer, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(layer, name, self.clock(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    def count(self, key, amount=1):
        self.counters[key] += amount

    def at_least(self, key, value):
        self.counters[key] = max(self.counters[key], value)

    def self_times(self):
        """Seconds per (layer, name): each span's duration minus its children's."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        totals = defaultdict(float)
        for s, c in zip(self.spans, covered):
            totals[(s.layer, s.name)] += s.end - s.start - c
        return totals


class _Call:
    """Arguments and result of one wrapped call, read by name on demand."""

    __slots__ = ("params", "args", "kwargs", "result")

    def __init__(self, params, args, kwargs, result):
        self.params, self.args, self.kwargs, self.result = params, args, kwargs, result

    def arg(self, name):
        index, default = self.params[name]
        if index < len(self.args):
            return self.args[index]
        return self.kwargs.get(name, default)


def _param_table(func):
    try:
        params = inspect.signature(func).parameters.values()
    except (TypeError, ValueError):     # no signature: hooks then find no arguments
        return {}
    return {p.name: (i, p.default) for i, p in enumerate(params)}


def _wrap(tracer, target, original, layer, name, hook):
    """Wrapper that opens span (layer, name) unless name is None, then runs hook."""
    params = _param_table(original)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if name is None:
            result = original(*args, **kwargs)
        else:
            with tracer.span(layer, name):
                result = original(*args, **kwargs)
        if hook is not None:
            try:
                hook(tracer, _Call(params, args, kwargs, result))
            except (AttributeError, IndexError, KeyError, TypeError):
                tracer.broken.add(target)
        return result
    return wrapper


def _traced_kdtree(tracer, base, layer, name):
    """Subclass of the neighbor-query tree class whose build and query open spans."""
    class TracedKDTree(base):
        def __init__(self, *args, **kwargs):
            with tracer.span(layer, name):
                super().__init__(*args, **kwargs)

        def query_ball_point(self, *args, **kwargs):
            with tracer.span(layer, name):
                return super().query_ball_point(*args, **kwargs)
    return TracedKDTree


# Hooks: counters read from a wrapped call's arguments and result.  Values
# marked "computed" follow from sizes; nothing inside rodd is measured.

def _topology(t, c):
    t.count("model.nodes", c.result.num_nodes)


def _derive(t, c):
    t.count("signatures.derive_calls")
    t.count("signatures.words", c.arg("num_slots"))


def _stack(t, c):
    t.at_least("signatures.book_bytes", c.result.nbytes)


def _discovery(t, c):
    rep = c.result
    n, m, r = rep.num_nodes, rep.num_slots, len(rep.records)
    blocks = math.ceil(r / c.arg("block"))
    t.count("discovery.receivers", r)
    t.count("discovery.candidates", r * n)
    t.count("discovery.neighbor_pairs", sum(rec[1] for rec in rep.records))
    t.count("discovery.misses", rep.total_misses)
    t.count("discovery.false_alarms", rep.total_false_alarms)
    # computed: one float32 (N x M) @ (M x block) product per receiver block
    t.count("discovery.elim_flops", 2 * n * m * r)
    t.count("discovery.elim_bytes", 4 * (blocks * n * m + r * m + n * r))


def _sparsecode(t, c):
    k, mu, m, trials = (c.arg(p) for p in ("num_nodes", "mu", "num_slots", "trials"))
    s = c.result.summary
    t.count("sparsecode.pairs", s.pairs)
    t.count("sparsecode.decoded", s.pairs - s.ambiguous - s.eliminated_all)
    t.count("sparsecode.ambiguous", s.ambiguous)
    t.count("sparsecode.eliminated_all", s.eliminated_all)
    # computed: every trial screens all K*mu signatures for each of K receivers
    t.count("sparsecode.candidates", k * mu * k * trials)
    t.count("sparsecode.elim_flops", 2 * k * mu * m * k * trials)


def _or_rate(t, c):
    t.count("analysis.or_rate_calls")


def _h2(t, c):
    t.count("analysis.objective_evals")


def _waterfill(t, c):
    t.count("analysis.water_level_iters")


def _asym(t, c):
    k = c.arg("gains").num_nodes
    # computed: K-1 listeners, each summing over 2^(K-2) transmitter subsets
    t.count("analysis.asym_subsets", (k - 1) * 2 ** (k - 2))


def _sweep(t, c):
    t.count("analysis.sweep_rows", len(c.result.rows))


def _validate(t, c):
    rows = c.result.rows
    t.count("validate.mc_slots", sum(r.trials for r in rows))
    t.count("validate.rows_passed", sum(bool(r.passed) for r in rows))


# (target "module:attribute[.attribute]", layer, span name or None, hook)
TARGETS = [
    ("rodd.model:generate_poisson_network", "model", "topology", _topology),
    ("rodd.signatures:reconstruct_book", "signatures", "derive", None),
    ("rodd.sparsecode:build_message_book", "signatures", "derive", None),
    ("rodd.signatures:derive_mask", "signatures", None, _derive),
    ("rodd.signatures:SignatureBook.matrix", "signatures", "stack", _stack),
    ("rodd.sparsecode:MessageBook.matrix", "signatures", "stack", _stack),
    ("rodd.discovery:cKDTree", "discovery", "neighbor_query", None),
    ("rodd.discovery:run_discovery_experiment", "discovery", "experiment", _discovery),
    ("rodd.discovery:ExperimentReport.to_csv", "discovery", "report", None),
    ("rodd.sparsecode:run_sparsecode_experiment", "sparsecode", "experiment", _sparsecode),
    ("rodd.sparsecode:SparseCodeReport.to_csv", "sparsecode", "report", None),
    ("rodd.analysis:or_symmetric_rate", "analysis", "or_rate", _or_rate),
    ("rodd.analysis:h2", "analysis", None, _h2),
    ("rodd.analysis:solve_water_level", "analysis", "water_level", None),
    ("rodd.analysis:waterfill_lhs", "analysis", None, _waterfill),
    ("rodd.analysis:asymmetric_rate_bound", "analysis", "asym_bound", _asym),
    ("rodd.analysis:sweep_or", "analysis", "sweep", _sweep),
    ("rodd.analysis:sweep_gauss", "analysis", "sweep", _sweep),
    ("rodd.validate:validate_suite", "validate", "suite", _validate),
]

# Span (layer, name) -> per-layer metric holding its self time.  The
# benchmark itself opens ("cli", "main") around each rodd.cli.main call.
SPAN_METRICS = {
    ("cli", "main"): "cli.self_s",
    ("model", "topology"): "model.topology_s",
    ("signatures", "derive"): "signatures.derive_s",
    ("signatures", "stack"): "signatures.stack_s",
    ("discovery", "neighbor_query"): "discovery.neighbor_query_s",
    ("discovery", "experiment"): "discovery.experiment_self_s",
    ("discovery", "report"): "discovery.report_s",
    ("sparsecode", "experiment"): "sparsecode.experiment_self_s",
    ("sparsecode", "report"): "sparsecode.report_s",
    ("analysis", "or_rate"): "analysis.or_rate_s",
    ("analysis", "water_level"): "analysis.water_level_s",
    ("analysis", "asym_bound"): "analysis.asym_bound_s",
    ("analysis", "sweep"): "analysis.sweep_self_s",
    ("validate", "suite"): "validate.suite_s",
}

# Every per-layer metric of a traced pass: (name, unit, better).
LAYER_METRICS = [
    ("cli.self_s", "s", "lower"),
    ("cli.csv_bytes", "B", "lower"),
    ("model.topology_s", "s", "lower"),
    ("model.nodes", "count", "higher"),
    ("signatures.derive_s", "s", "lower"),
    ("signatures.derive_calls", "count", "lower"),
    ("signatures.words", "count", "lower"),
    ("signatures.words_per_s", "1/s", "higher"),
    ("signatures.stack_s", "s", "lower"),
    ("signatures.book_bytes", "B", "lower"),
    ("discovery.neighbor_query_s", "s", "lower"),
    ("discovery.neighbor_pairs", "count", "higher"),
    ("discovery.experiment_self_s", "s", "lower"),
    ("discovery.receivers", "count", "higher"),
    ("discovery.candidates", "count", "lower"),
    ("discovery.useful_ratio", "ratio", "higher"),
    ("discovery.elim_flops", "flop", "lower"),
    ("discovery.elim_bytes", "B", "lower"),
    ("discovery.elim_gflops", "GFLOP/s", "higher"),
    ("discovery.false_alarms", "count", "lower"),
    ("discovery.misses", "count", "lower"),
    ("discovery.report_s", "s", "lower"),
    ("sparsecode.experiment_self_s", "s", "lower"),
    ("sparsecode.pairs", "count", "higher"),
    ("sparsecode.candidates", "count", "lower"),
    ("sparsecode.useful_ratio", "ratio", "higher"),
    ("sparsecode.elim_flops", "flop", "lower"),
    ("sparsecode.decoded", "count", "higher"),
    ("sparsecode.ambiguous", "count", "lower"),
    ("sparsecode.eliminated_all", "count", "lower"),
    ("sparsecode.report_s", "s", "lower"),
    ("analysis.or_rate_s", "s", "lower"),
    ("analysis.or_rate_calls", "count", "lower"),
    ("analysis.objective_evals", "count", "lower"),
    ("analysis.water_level_s", "s", "lower"),
    ("analysis.water_level_iters", "count", "lower"),
    ("analysis.asym_bound_s", "s", "lower"),
    ("analysis.asym_subsets", "count", "lower"),
    ("analysis.sweep_self_s", "s", "lower"),
    ("analysis.sweep_rows", "count", "higher"),
    ("validate.suite_s", "s", "lower"),
    ("validate.mc_slots", "count", "higher"),
    ("validate.rows_passed", "count", "higher"),
    ("trace.pass_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.absent", "count", "lower"),
]


def _resolve(target):
    """(owner, attribute) for "module:Class.attr" or "module:attr"; None if missing."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    return (owner, attr) if attr in vars(owner) else None


class Instrumentation:
    """Rebinds every target to a traced wrapper; restore() undoes it."""

    def __init__(self, tracer, targets=TARGETS):
        self.absent = []
        self._saved = []
        try:
            for target, layer, name, hook in targets:
                found = _resolve(target)
                if found is None:
                    self.absent.append(target)
                    continue
                owner, attr = found
                original = vars(owner)[attr]
                if isinstance(original, type):
                    replacement = _traced_kdtree(tracer, original, layer, name)
                else:
                    replacement = _wrap(tracer, target, original, layer, name, hook)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
        except BaseException:
            self.restore()    # leave rodd as it was found
            raise

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_metrics(tracer, pass_s, csv_bytes, absent):
    """Per-layer metrics of one traced pass (all but trace.overhead_ratio)."""
    out = {name: 0.0 for name, _, _ in LAYER_METRICS}
    out.update(tracer.counters)
    attributed = 0.0
    for key, seconds in tracer.self_times().items():
        out[SPAN_METRICS[key]] += seconds
        attributed += seconds
    out["cli.csv_bytes"] = csv_bytes
    out["trace.pass_s"] = pass_s
    out["trace.unattributed_s"] = pass_s - attributed
    out["trace.absent"] = len(absent)
    out["signatures.words_per_s"] = _ratio(out["signatures.words"], out["signatures.derive_s"])
    out["discovery.useful_ratio"] = _ratio(out["discovery.neighbor_pairs"],
                                           out["discovery.candidates"])
    out["discovery.elim_gflops"] = _ratio(out["discovery.elim_flops"],
                                          out["discovery.experiment_self_s"]) / 1e9
    out["sparsecode.useful_ratio"] = _ratio(out["sparsecode.pairs"],
                                            out["sparsecode.candidates"])
    return out


def _ratio(num, den):
    return num / den if den else 0.0
