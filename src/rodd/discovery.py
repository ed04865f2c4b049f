"""Compressed neighbor discovery by signature elimination.

All nodes transmit their on-off signatures simultaneously; each receiver
watches its own off-slots and throws out every candidate whose signature
has an on-bit in a slot that read empty.  The survivors are declared
neighbors.  In the noiseless OR model a true neighbor can never be
eliminated (its on-slots always carry energy), so the only error type is
a false alarm.

A frame-level random-access baseline is included for the cost
comparison: nodes repeat their address with probability q per contention
frame and a frame is received iff exactly one neighbor transmitted.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import model, signatures
from .channels import OrFrameObservation, receive, receive_block

OR_NOISELESS = "or_noiseless"
ENERGY = "energy"

_NOISE_SALT = 0xD15C
# Index rows whose words one survivors() gather holds at a time.
_GATHER_ROWS = 4096


class cKDTree:
    """scipy.spatial.cKDTree, imported when the first tree is built, so a
    command that never queries neighbors never loads scipy.spatial.  The
    benchmark's tracer rebinds this name to a subclass that times
    __init__ and query_ball_point."""

    def __init__(self, data, **kwargs):
        from scipy.spatial import cKDTree
        self._tree = cKDTree(data, **kwargs)

    def query_ball_point(self, x, r, **kwargs):
        return self._tree.query_ball_point(x, r, **kwargs)


class ConvergenceError(RuntimeError):
    """Baseline simulation hit its frame cap before reaching the target."""


def observe_discovery(topology, radius, receiver, book, mode=OR_NOISELESS, *,
                      noise_var=1.0, seed=None):
    """What receiver `receiver` measures while everyone sends signatures.

    Node i's signature is book[book.nias[i]]; the receiver hears its
    neighbor_lists() neighbors at their path gains.  Returns the
    channels.receive() record that run_discovery_experiment sees, with
    energy-mode noise from the same (seed, receiver) stream, read from
    the book: only the receiver's row, its erasures, is unpacked.
    Each call builds a cKDTree over all K nodes (about 2 ms at 10k nodes,
    1.8 ms of it the neighbor query); loop over many receivers with
    run_threshold_sweep, which builds one tree for all of them.
    """
    if len(book) != topology.num_nodes:
        raise ValueError("book must cover every node in the topology")
    if mode not in (OR_NOISELESS, ENERGY):
        raise ValueError(f"unknown discovery mode {mode!r}")
    nbrs = neighbor_lists(topology, radius, [receiver])[0]
    return receive(book.unpacked(receiver), book, nbrs,
                   topology.path_gain(receiver, nbrs) if mode == ENERGY else None,
                   noise_var, _noise_seed(seed, receiver))


def _noise_seed(seed, receiver):
    """The energy-mode noise stream of `receiver`, None without a seed."""
    return None if seed is None else (seed, _NOISE_SALT, int(receiver))


def survivors(book, quiet):
    """The elimination kernel (COMP): (R, B) bool, True iff row r of
    `book` has no on-bit in a quiet slot of row b of the (B, M) bool
    `quiet`.

    Each slot's receivers are packed in the book's own row layout
    (signatures._packed_rows), 64 to a word.  A row's hits are the OR of
    the words at its on-slots, and the row survives for receiver j iff
    bit j of its unpacked hits is 0.  One quiet on-slot clears a
    candidate, so the OR stops early: the head stage ORs the words at
    each row's first signatures._HEAD_SLOTS on-slots (book.head, built
    once per book), and only the rows that still survive for some
    receiver OR the rest, one np.bitwise_or.reduceat over the on-slots of
    at most _GATHER_ROWS rows at a time.  Rows without an on-bit always
    survive.  Integer ORs are exact at any frame length.
    """
    quiet = np.asarray(quiet, dtype=bool)
    if quiet.ndim != 2 or quiet.shape[1] != book.num_slots:
        raise ValueError(f"quiet rows of shape {quiet.shape} do not match "
                         f"{book.num_slots}-slot masks")
    b = quiet.shape[0]
    lit, head = book.head
    alive = np.zeros((len(book.packed), b), dtype=bool)
    alive[np.bincount(lit, minlength=len(alive)) == 0] = True    # rows without an on-bit
    if lit.size == 0 or b == 0:
        return alive
    word, full = (signatures._packed_rows(np.ascontiguousarray(rows.T)).view("<u8")
                  for rows in (quiet, np.ones((b, 1), dtype=bool)))
    hits = np.zeros((lit.size, word.shape[1]), dtype="<u8")
    gathered = np.empty_like(hits)
    for slots in head:
        hits |= word.take(slots, axis=0, out=gathered)
    # a row is closed once every receiver bit is set
    open_ = np.flatnonzero((hits != full).any(axis=1))
    for lo in range(0, open_.size, _GATHER_ROWS):
        rows = open_[lo:lo + _GATHER_ROWS]
        at, lens = book.spans(lit[rows], len(head))
        # reduceat would give a row without a tail the next row's first word
        tail = lens > 0
        hits[rows[tail]] |= np.bitwise_or.reduceat(word.take(book.slots[at], axis=0),
                                                   (np.cumsum(lens) - lens)[tail])
    alive[lit[open_]] = np.unpackbits(hits[open_].view(np.uint8), axis=1, count=b) == 0
    return alive


def _check_threshold(threshold):
    if not 0 <= threshold < math.inf:
        raise ValueError(f"threshold must be nonnegative and finite, got {threshold}")
    return threshold


def observed_quiet(observation, threshold=0.0):
    """The quiet-slot rule, as (B, M) bool rows of a B-receiver channel
    record (one row for a one-receiver record): a listened slot is quiet if
    its bit is 0 or its amplitude**2 < `threshold`."""
    _check_threshold(threshold)
    v = observation.values
    with np.errstate(over="ignore"):  # a square that overflows is inf: never quiet
        empty = v == 0 if isinstance(observation, OrFrameObservation) else v**2 < threshold
    return (~observation.erased & empty).reshape(-1, observation.length)


def eliminate(observation, receiver, book, threshold=0.0, candidates=None):
    """Group-testing elimination against one receiver's observation: the
    set of surviving candidate NIAs, the receiver's neighbor estimate.

    A candidate is discarded iff some off-slot read empty (bit 0, or
    energy below `threshold`) while the candidate's signature was on
    there.  The receiver, a NIA of the book, is never a candidate.  One
    survivors() call screens the book.take() of `candidates`; by default
    (the full-NIA-enumeration premise) it screens the whole book, which
    costs no copy, and drops the receiver's row.
    """
    quiet = one_receiver_quiet(observation, threshold, "eliminate")
    book.row(receiver)      # an unknown receiver is a KeyError, as a candidate is
    if candidates is not None:
        book = book.take([nia for nia in candidates if nia != receiver])
    alive = survivors(book, quiet)[::book.mu, 0]     # each NIA's first row
    return {nia for nia, a in zip(book.nias, alive) if a and nia != receiver}


def one_receiver_quiet(observation, threshold, reader):
    """observed_quiet of a one-receiver record, as one (1, M) row; `reader`
    names the caller in the refusal of a block record."""
    quiet = observed_quiet(observation, threshold)
    if quiet.shape[0] != 1:
        raise ValueError(f"{reader} takes one receiver's record, got a block "
                         f"of {quiet.shape[0]} receivers")
    return quiet


def _accuracy(misses, false_alarms, size):
    """1 - (misses + false_alarms) / size, floored at 0: the one accuracy rule."""
    return max(0.0, 1.0 - (misses + false_alarms) / size)


def discovery_metrics(true_set, estimated):
    """(miss_rate, false_alarm_rate, accuracy) of the NIAs `estimated`, such
    as eliminate() returns, against the true neighbor set.

    Both error rates are normalized by the true neighbor count; the
    accuracy is _accuracy's, as in the experiment records.
    """
    est = set(estimated)
    true_set = set(true_set)
    if not true_set:
        raise ValueError("metrics are undefined for an empty true neighbor set")
    misses, fa, size = len(true_set - est), len(est - true_set), len(true_set)
    return misses / size, fa / size, _accuracy(misses, fa, size)


def random_access_baseline(neighbor_sets, frame_bits, tx_prob, target_accuracy,
                           seed, max_frames=200_000):
    """Symbol-slots random access needs to reach the discovery target.

    neighbor_sets[k] holds the true neighbors of node k, as a set or an
    index array such as neighbor_lists() returns.  Per contention
    frame every node transmits its address (frame_bits symbols) with
    probability tx_prob; receiver k hears node j iff j was the only
    transmitter among k's neighbors.  Runs until every node has heard at
    least target_accuracy of its neighbors, then returns frames *
    frame_bits.
    """
    if not (0.0 <= tx_prob <= 1.0):
        raise ValueError("tx_prob must lie in [0,1]")
    if frame_bits < 1:
        raise ValueError("frame_bits must be >= 1")
    if not 0.0 <= target_accuracy <= 1.0:
        raise ValueError(f"target_accuracy must lie in [0,1], got {target_accuracy}")
    n = len(neighbor_sets)
    nbr_arrays = [np.array(sorted(s), dtype=np.int64) for s in neighbor_sets]
    quota = [math.ceil(target_accuracy * len(s) - 1e-12) for s in neighbor_sets]
    heard = [set() for _ in range(n)]
    pending = {k for k in range(n) if quota[k] > 0}
    rng = np.random.default_rng(seed)
    for frame in range(1, max_frames + 1):
        tx = rng.random(n) < tx_prob
        done = []
        for k in pending:
            nbrs = nbr_arrays[k]
            on = nbrs[tx[nbrs]]
            if on.shape[0] == 1:
                heard[k].add(int(on[0]))
                if len(heard[k]) >= quota[k]:
                    done.append(k)
        pending.difference_update(done)
        if not pending:
            return frame * frame_bits
    raise ConvergenceError(
        f"{len(pending)} of {n} nodes below the {target_accuracy:g} target "
        f"after {max_frames} contention frames (tx_prob={tx_prob:g})"
    )


@dataclass
class ExperimentReport:
    """Per-receiver discovery outcome plus network-level aggregates."""

    records: list = field(default_factory=list)
    # each record: (receiver, true_count, est_count, misses, false_alarms, accuracy)
    num_nodes: int = 0
    num_slots: int = 0
    mode: str = OR_NOISELESS
    threshold: float = 0.0

    @property
    def total_misses(self):
        return sum(r[3] for r in self.records)

    @property
    def total_false_alarms(self):
        return sum(r[4] for r in self.records)

    @property
    def mean_accuracy(self):
        accs = [r[5] for r in self.records if r[5] is not None]
        return float(np.mean(accs)) if accs else float("nan")

    def _mean_rate(self, col):
        """Mean of record column `col` per true neighbor, over the receivers
        with at least one neighbor (as mean_accuracy); nan when there are none."""
        counted = [r for r in self.records if r[1] > 0]
        if not counted:
            return float("nan")
        return sum(r[col] / r[1] for r in counted) / len(counted)

    mean_miss_rate = property(lambda self: self._mean_rate(3))
    mean_false_alarm_rate = property(lambda self: self._mean_rate(4))

    def to_csv(self):
        lines = ["receiver,true_count,est_count,misses,false_alarms,accuracy"]
        for rec in self.records:
            acc = "" if rec[5] is None else f"{rec[5]:.12g}"
            lines.append(f"{rec[0]},{rec[1]},{rec[2]},{rec[3]},{rec[4]},{acc}")
        lines.append(
            f"aggregate,{sum(r[1] for r in self.records)},"
            f"{sum(r[2] for r in self.records)},{self.total_misses},"
            f"{self.total_false_alarms},{self.mean_accuracy:.12g}"
        )
        return "\n".join(lines) + "\n"


def neighbor_lists(topology, radius, receivers=None):
    """Geometric neighbor lists from one radius query at the points of
    `receivers` (default: every node).

    Entry i is the sorted int64 array of the nodes within `radius` of
    receivers[i], the receiver excluded, with minimum-image distances on a
    torus.
    """
    if not 0 <= radius < math.inf:
        raise ValueError(f"radius must be nonnegative and finite, got {radius}")
    receivers = topology.receivers(receivers)
    tree = cKDTree(topology.positions,
                   boxsize=topology.area_side if topology.torus else None)
    raw = tree.query_ball_point(topology.positions[receivers], radius, return_sorted=True)
    return [l[l != k] for k, l in zip(receivers.tolist(),
                                      (np.array(r, dtype=np.int64) for r in raw))]


def poisson_discovery_topology(expected_nodes, mean_neighbors, seed, *,
                               area_side=1000.0, alpha=4.0, snr_db=20.0,
                               torus=True):
    """Poisson network sized so the mean neighbor degree comes out right.

    The neighbor radius follows from the degree target and the node
    density; unit_snr is then set so a link at exactly that radius sits
    at `snr_db` above unit noise, which makes the neighbor threshold the
    linear SNR 10**(snr_db/10).
    """
    for name, value in (("expected_nodes", expected_nodes),
                        ("mean_neighbors", mean_neighbors), ("area_side", area_side)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    try:
        density = expected_nodes / area_side**2
    except (OverflowError, ZeroDivisionError):
        density = math.nan
    if not 0 < density < math.inf:
        raise ValueError(f"expected_nodes {expected_nodes:g} and area_side {area_side:g} "
                         f"give a node density of {density:g}, outside the positive floats")
    radius = math.sqrt(mean_neighbors / (math.pi * density))
    if radius > area_side / 2:
        raise ValueError("neighbor radius exceeds half the area side; "
                         "grow the area or the node count")
    try:
        snr_linear = 10.0 ** (snr_db / 10.0)
        unit_snr = snr_linear * radius**alpha
    except OverflowError:
        unit_snr = math.inf
    if not 0 < unit_snr < math.inf:
        raise ValueError(f"snr_db {snr_db:g} and alpha {alpha:g} give a unit-distance "
                         f"SNR of {unit_snr:g}, outside the positive floats")
    topo = model.generate_poisson_network(
        area_side, density, seed,
        alpha=alpha,
        unit_snr=unit_snr,
        neighbor_threshold=snr_linear,
        torus=torus,
    )
    return topo, radius


def run_threshold_sweep(topology, radius, num_slots, q, thresholds, mode=OR_NOISELESS,
                        *, noise_var=1.0, seed=0, receivers=None, block=64):
    """One discovery round of the whole network, scored at each threshold:
    one ExperimentReport per entry of the sequence `thresholds`, in order.

    The neighbor lists come from one radius query at the `receivers`
    (node indices, default all).  The packed book and its on-slot index
    are made once.  Receivers are taken `block` at a time in serpentine
    order over cells of side 2 * radius; each block is
    recorded by one channels.receive_block() call, which erases their own
    rows, the only rows unpacked, and observed_quiet() gives the record's
    quiet rows at every threshold.  Per threshold, survivors() screens the
    block, whose records are counted from its (N, block) survivors and
    kept in `receivers` order.
    A threshold applies to energy mode only; None is a quarter of the
    boundary-neighbor energy (tuned for 20 dB), which scales with
    noise_var, so a noiseless energy run must set it.
    """
    if mode not in (OR_NOISELESS, ENERGY):
        raise ValueError(f"unknown discovery mode {mode!r}")
    if not len(thresholds):
        raise ValueError("need at least one threshold")
    if isinstance(block, bool) or not isinstance(block, (int, np.integer)) or block < 1:
        raise ValueError(f"block must be an integer >= 1, got {block!r}")
    if mode == OR_NOISELESS and any(t is not None for t in thresholds):
        raise ValueError("a threshold applies to energy mode only")
    if mode == ENERGY and noise_var == 0 and None in thresholds:
        raise ValueError("a noiseless energy run needs an explicit threshold")
    tuned = topology.neighbor_threshold * noise_var / 4.0 if mode == ENERGY else 0.0
    if None in thresholds and tuned == math.inf and noise_var < math.inf:
        raise ValueError(f"noise_var {noise_var:g} times neighbor threshold "
                         f"{topology.neighbor_threshold:g} overflows the tuned threshold")
    thresholds = [tuned if t is None else _check_threshold(t) for t in thresholds]

    n = topology.num_nodes
    receivers = topology.receivers(receivers)
    nbr_lists = neighbor_lists(topology, radius, receivers)
    book = signatures.reconstruct_book(range(n), q, num_slots)
    records = [[None] * len(receivers) for _ in thresholds]
    order = _spatial_order(topology.positions[receivers], 2 * radius)
    for start in range(0, len(receivers), block):
        picks = order[start:start + block]
        chunk = receivers[picks]
        lists = [nbr_lists[i] for i in picks]
        # each receiver's neighbors, flattened, with the column of their receiver
        sizes = np.array([nbrs.size for nbrs in lists], dtype=np.int64)
        column = np.repeat(np.arange(len(chunk)), sizes)
        nbrs = np.concatenate(lists)
        gains = topology.path_gain(chunk[column], nbrs) if mode == ENERGY else None
        record = receive_block(book.unpacked(chunk).view(bool), book, nbrs, sizes, gains,
                               noise_var, [_noise_seed(seed, k) for k in chunk])
        for rows, threshold in zip(records, thresholds):
            alive = survivors(book, observed_quiet(record, threshold))
            found = np.bincount(column[alive[nbrs, column]], minlength=len(chunk))
            est = alive.sum(axis=0) - 1              # own mask always survives
            for i, k, size, est_count, hit in zip(picks.tolist(), chunk.tolist(),
                                                  sizes.tolist(), est.tolist(),
                                                  found.tolist()):
                misses, fa = size - hit, est_count - hit
                acc = _accuracy(misses, fa, size) if size else None
                rows[i] = (k, size, est_count, misses, fa, acc)
    return [ExperimentReport(records=rows, num_nodes=n, num_slots=num_slots, mode=mode,
                             threshold=t) for rows, t in zip(records, thresholds)]


def _spatial_order(points, side):
    """Positions of the (R, 2) `points` in serpentine order over cells of
    `side`: cell columns left to right, rows upward in even columns and
    downward in odd ones, input order within a cell.  Receivers close
    together share neighbors, so a block of them leaves survivors() few
    open rows.  A side of 0 (no receiver has a neighbor) is one cell."""
    col, row = np.floor_divide(points, side if side > 0 else np.inf).T
    return np.lexsort((np.where(col % 2, -row, row), col))


def run_discovery_experiment(topology, radius, num_slots, q, mode=OR_NOISELESS, *,
                             noise_var=1.0, threshold=None, seed=0,
                             receivers=None, block=64):
    """run_threshold_sweep at the one `threshold`: a single ExperimentReport."""
    return run_threshold_sweep(topology, radius, num_slots, q, [threshold], mode,
                               noise_var=noise_var, seed=seed, receivers=receivers,
                               block=block)[0]
