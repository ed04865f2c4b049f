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
from .channels import receive

DECODED = "decoded"
AMBIGUOUS = "ambiguous"
ELIMINATED_ALL = "eliminated_all"


# The message book is the one signature book with mu > 1.
MessageBook = signatures.SignatureBook


def build_message_book(nias, mu, q, num_slots):
    """Derive the mu-per-node signature book for the message code."""
    if mu < 2:
        raise ValueError(f"need at least 2 messages per node, got mu={mu}")
    return signatures._derive_book(nias, q, num_slots, signatures.MESSAGE_TAG_BASE, mu)


def encode(book, nia, message):
    """The mask node `nia` transmits for `message`; also its duplex mask."""
    if not (0 <= message < book.mu):
        raise ValueError(f"message {message} out of range 0..{book.mu - 1}")
    return book[(nia, message)]


@dataclass
class NeighborDecode:
    status: str            # DECODED | AMBIGUOUS | ELIMINATED_ALL
    message: int = None    # set only when status == DECODED
    candidates: frozenset = frozenset()


def decode(observation, book, neighbor_list, threshold=0.0):
    """Per-neighbor candidate elimination; returns {nia: NeighborDecode}.

    Neighbors are decoded independently, so the outcome for one neighbor
    does not depend on the order or content of the rest of the list.  An
    empty candidate set means the channel contradicted every signature
    of that neighbor (impossible without noise) and is reported as
    ELIMINATED_ALL rather than papered over.
    """
    quiet = discovery.observed_quiet(observation, threshold)
    return {nia: _outcome(discovery.survivors(book.node_matrix(nia), quiet)[:, 0])
            for nia in neighbor_list}


def _outcome(alive):
    """Decode status of one neighbor from its mu-long survivor vector."""
    survivors = frozenset(int(m) for m in np.flatnonzero(alive))
    if len(survivors) == 1:
        return NeighborDecode(status=DECODED, message=next(iter(survivors)),
                              candidates=survivors)
    if survivors:
        return NeighborDecode(status=AMBIGUOUS, candidates=survivors)
    return NeighborDecode(status=ELIMINATED_ALL)


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
    the OR of the other sent masks; elimination screens all mu*K
    candidates against all K receivers in one survivors() call.
    """
    nias = signatures._seeded_nias(seed, num_nodes)
    book = build_message_book(nias, mu, q, num_slots)
    all_masks = book.matrix()                     # (K*mu, M) uint8
    all_masks_f = all_masks.astype(np.float32)
    others = [np.delete(np.arange(num_nodes), k) for k in range(num_nodes)]

    rng = np.random.default_rng((seed, 0x5C0DE))
    report = SparseCodeReport()
    s = report.summary
    for t in range(trials):
        msgs = rng.integers(0, mu, size=num_nodes)
        sent = all_masks[np.arange(num_nodes) * mu + msgs]
        quiet = np.zeros((num_nodes, num_slots), dtype=np.float32)
        for k in range(num_nodes):
            quiet[k] = discovery.observed_quiet(receive(sent[k], sent[others[k]]))[0]
        alive = discovery.survivors(all_masks_f, quiet).reshape(num_nodes, mu, num_nodes)
        for k in range(num_nodes):
            for j in range(num_nodes):
                if j == k:
                    continue
                out, true_msg = _outcome(alive[j, :, k]), int(msgs[j])
                s.pairs += 1
                s.miss_violations += true_msg not in out.candidates
                s.eliminated_all += out.status == ELIMINATED_ALL
                s.ambiguous += out.status == AMBIGUOUS
                s.decoded_correct += out.message == true_msg
                report.records.append((t, k, j, out.status, true_msg, out.message))
    return report
