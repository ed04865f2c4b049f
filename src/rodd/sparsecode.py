"""Short broadcast code built on per-message signatures.

Each node holds mu distinct on-off signatures and transmits the one
indexed by its message, so a frame carries log2(mu) bits per node.  The
transmitted signature doubles as the node's duplex mask for the frame.
Receivers already know their neighbor lists (from discovery) and decode
each neighbor independently with the same group-testing elimination:
any candidate signature with an on-bit in a quiet off-slot is out.

Messages are 0-based (0..mu-1).  Signature tags start at
MESSAGE_TAG_BASE so a node's message signatures never collide with its
discovery signature.
"""

from dataclasses import dataclass, field

import numpy as np

from . import discovery, signatures
from .channels import receive_block

DECODED = "decoded"
AMBIGUOUS = "ambiguous"
ELIMINATED_ALL = "eliminated_all"
# decode status of a neighbor, indexed by min(its survivor count, 2)
_STATUS = np.array([ELIMINATED_ALL, DECODED, AMBIGUOUS], dtype=object)

# Trials are batched so that one survivors() call screens about this many receivers.
_RECEIVERS_PER_CALL = 256


# The message book is the one signature book with mu > 1.
MessageBook = signatures.SignatureBook


def build_message_book(nias, mu, q, num_slots):
    """Derive the mu-per-node signature book for the message code."""
    if mu < 2:
        raise ValueError(f"need at least 2 messages per node, got mu={mu}")
    return signatures._derive_book(nias, q, num_slots, signatures.MESSAGE_TAG_BASE, mu)


def encode(book, nia, message):
    """The (M,) mask row node `nia` transmits for `message`; also its duplex mask."""
    return book[(nia, message)]


@dataclass
class NeighborDecode:
    status: str            # DECODED | AMBIGUOUS | ELIMINATED_ALL
    message: int = None    # set only when status == DECODED
    candidates: frozenset = frozenset()


def decode(observation, book, neighbor_list, threshold=0.0):
    """Per-neighbor candidate elimination; returns {nia: NeighborDecode}.

    One survivors() call screens the mu signatures of every listed
    neighbor, cut from book.on_slots (built over every row on first use).
    Each row is screened alone, so the outcome for one neighbor does not
    depend on the rest of the list.  An empty candidate set means the
    channel contradicted every signature of that neighbor (impossible
    without noise) and is reported as ELIMINATED_ALL, not papered over.
    """
    quiet = discovery.one_receiver_quiet(observation, threshold, "decode")
    starts = np.array([book.row(nia) for nia in neighbor_list], dtype=np.int64)
    index = book.on_slots.take((starts[:, None] + np.arange(book.mu)).ravel())
    alive = discovery.survivors(index, quiet).reshape(-1, book.mu)
    count, first = alive.sum(axis=1), alive.argmax(axis=1)
    return {nia: NeighborDecode(status=_STATUS[min(n, 2)],
                                message=int(m) if n == 1 else None,
                                candidates=frozenset(np.flatnonzero(a).tolist()))
            for nia, a, n, m in zip(neighbor_list, alive, count, first)}


@dataclass
class SparseCodeSummary:
    pairs: int = 0
    decoded_correct: int = 0
    ambiguous: int = 0
    eliminated_all: int = 0
    miss_violations: int = 0   # pairs where the true message got eliminated

    @property
    def success_rate(self):
        return self.decoded_correct / self.pairs if self.pairs else float("nan")

    @property
    def no_miss_rate(self):
        return 1.0 - self.miss_violations / self.pairs if self.pairs else float("nan")


@dataclass
class SparseCodeReport:
    records: list = field(default_factory=list)
    # each record: (trial, receiver, neighbor, outcome, true_msg, decoded_msg or None)
    summary: SparseCodeSummary = field(default_factory=SparseCodeSummary)

    def to_csv(self):
        lines = ["trial,receiver,neighbor,outcome,true_msg,decoded_msg"]
        for t, k, j, outcome, true_msg, dec in self.records:
            lines.append(f"{t},{k},{j},{outcome},{true_msg},"
                         f"{'' if dec is None else dec}")
        return "\n".join(lines) + "\n"


def run_sparsecode_experiment(num_nodes, mu, q, num_slots, trials, seed):
    """Fully-connected message-code experiment over the noiseless OR channel.

    One signature book per run (NIAs disjoint across seeds); each trial
    draws fresh uniform messages and decodes every (receiver, neighbor)
    pair.  Each receiver hears every other node, so its busy slots are
    the OR of the other sent masks.  The on_slots index of the packed
    book is built once; per batch of trials, one channels.receive_block()
    call records the K receivers of every trial from that index, erasing
    their sent rows (the only rows unpacked), one
    survivors() call screens all mu*K candidates against them, and every
    pair's outcome follows from its survivor count and first survivor
    through _STATUS, as in decode.
    """
    if num_nodes < 2:
        raise ValueError(f"num_nodes must be >= 2 (a receiver and a neighbor), "
                         f"got {num_nodes}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    nias = signatures._seeded_nias(seed, num_nodes)
    book = build_message_book(nias, mu, q, num_slots)
    index = book.on_slots
    ids = np.arange(num_nodes)
    # the (receiver k, neighbor j) pairs in record order, k != j
    pairs = ~np.eye(num_nodes, dtype=bool)
    ks, js = (a.tolist() for a in np.nonzero(pairs))
    batch = max(1, _RECEIVERS_PER_CALL // num_nodes)

    rng = np.random.default_rng((seed, 0x5C0DE))
    report = SparseCodeReport()
    s = report.summary
    for start in range(0, trials, batch):
        ts = np.arange(start, min(start + batch, trials))
        msgs = np.array([rng.integers(0, mu, size=num_nodes) for _ in ts])
        # receiver k of trial ts[i] erases its sent row and hears the others'
        sent = ids * mu + msgs
        heard = np.broadcast_to(sent[:, None], (len(ts), num_nodes, num_nodes))[:, pairs]
        record = receive_block(book.unpacked(sent.ravel()).view(bool), index, heard.ravel(),
                               np.full(sent.size, num_nodes - 1))
        # alive[j, m, i, k]: message m of node j survives at receiver k in trial ts[i]
        alive = discovery.survivors(index, discovery.observed_quiet(record)).reshape(
            num_nodes, mu, len(ts), num_nodes)
        # per (trial, pair) arrays, pairs in record order
        count = alive.sum(axis=1).transpose(1, 2, 0)[:, pairs]
        first = alive.argmax(axis=1).transpose(1, 2, 0)[:, pairs]
        kept = alive[ids, msgs, np.arange(len(ts))[:, None]].transpose(0, 2, 1)[:, pairs]
        true_msg = msgs[:, js]
        decoded = count == 1
        s.pairs += count.size
        s.miss_violations += int(np.count_nonzero(~kept))
        s.eliminated_all += int(np.count_nonzero(count == 0))
        s.ambiguous += int(np.count_nonzero(count > 1))
        s.decoded_correct += int(np.count_nonzero(decoded & (first == true_msg)))
        report.records.extend(zip(
            np.repeat(ts, len(ks)).tolist(), ks * len(ts), js * len(ts),
            _STATUS[np.minimum(count, 2)].ravel().tolist(), true_msg.ravel().tolist(),
            np.where(decoded, first, None).ravel().tolist()))
    return report
