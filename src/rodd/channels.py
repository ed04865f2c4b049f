"""Slot-level multiaccess channel simulators with receiver-side erasure.

`receive_block` is the one channel: it records a block of receivers at
once from the signature book of what they hear.  `receive` is its block
of one, behind `or_channel`, `gaussian_mac` and `observe_discovery`.
Whatever a node transmits, its own observation in every slot where its
mask is ON is erased.  Erasures are marked explicitly instead of being
folded into a 0 value; the receiver knows its own mask, so the mark is
genuine side information and decoders must be able to tell "erased"
from "silent".
"""

from dataclasses import dataclass

import numpy as np

from .signatures import SignatureBook, _mask_bits

_POWER_TOL = 1e-9


@dataclass
class _FrameObservation:
    """Full-frame records: per-slot values and erasures, shape (M,) for one
    receiver or (B, M) for a block."""

    values: np.ndarray  # meaningful only where not erased
    erased: np.ndarray  # bool, True at the receiver's own on-slots

    @property
    def length(self):
        return self.values.shape[-1]


class OrFrameObservation(_FrameObservation):
    """Per-slot {erased, 0, 1} observation of the inclusive-or channel (uint8)."""


class RealFrameObservation(_FrameObservation):
    """Per-slot {erased, real value} observation of the linear channel (float64)."""


@dataclass
class TransmitFrame:
    """One node's masked symbol vector, under unit average power.

    symbols[m] is only sent when mask[m] = 1; the power constraint
    sum_m s_m * x_m^2 <= M is checked at construction.
    """

    symbols: np.ndarray
    mask: np.ndarray    # the node's (M,) 0/1 row

    def __post_init__(self):
        self.mask = _mask_row(self.mask, "frame")
        self.symbols = np.asarray(self.symbols, dtype=np.float64)
        if self.symbols.shape != self.mask.shape:
            raise ValueError("symbols and mask must have equal length")
        if not np.isfinite(self.symbols).all():
            raise ValueError("symbols must be finite")
        power = float(np.sum(self.mask * self.symbols**2))
        if power > self.mask.size * (1.0 + _POWER_TOL):
            raise ValueError(f"frame power {power:g} exceeds the budget of {self.mask.size}")


def _mask_row(mask, name):
    """`mask` as a uint8 row, refusing by `name` one that is not 1-D or not 0/1."""
    if np.ndim(mask) != 1:
        raise ValueError(f"{name} mask bits must be a 1-D vector, got shape {np.shape(mask)}")
    return _mask_bits(mask)


def receive_block(erased, book, heard, sizes, gains=None, noise_var=0.0, seeds=None,
                  values=None):
    """The one slot-level channel: the records of a block of B receivers.

    The transmitted rows are those of the SignatureBook `book`, whose
    on-bits carry `values` (aligned with book.slots; None means 1).
    Receiver b hears the next sizes[b] rows of `heard` and erases the slots
    of its row of the (B, M) bool `erased`.  Without `gains` it is the
    noiseless OR channel: a slot reads 1 iff a heard row is on there, one
    np.bitwise_or.reduceat over the heard rows' packed 64-bit words.  With
    power `gains`, one nonnegative finite gain per entry of `heard`, a slot
    reads the sum of sqrt(gain) * value over its heard rows, added in the
    order of `heard` (one np.bincount over receiver * M + slot keys, no
    BLAS sum), plus Normal(0, noise_var) noise from default_rng(seeds[b]).
    Erased slots read 0.  The whole block is one gather, so the caller's
    block bounds the working set at the packed words of each heard row, or
    one key per on-bit its receivers hear.
    """
    if not 0 <= noise_var < np.inf:
        raise ValueError(f"noise_var must be nonnegative and finite, got {noise_var}")
    erased = np.array(erased, dtype=bool)
    m = book.num_slots
    if erased.ndim != 2 or erased.shape[1] != m:
        raise ValueError(f"erasures of shape {erased.shape} do not match {m}-slot rows")
    heard, sizes = np.asarray(heard, dtype=np.int64), np.asarray(sizes, dtype=np.int64)
    if sizes.shape != erased.shape[:1] or sizes.sum() != heard.size:
        raise ValueError(f"sizes must split the {heard.size} heard rows among "
                         f"{len(erased)} receivers")
    if gains is None:
        words = book.packed.view("<u8")
        busy = np.zeros((len(erased), words.shape[1]), dtype="<u8")
        # reduceat would give a receiver that hears nothing the next one's rows
        hears = sizes > 0
        busy[hears] = np.bitwise_or.reduceat(words[heard], (np.cumsum(sizes) - sizes)[hears])
        out = np.unpackbits(busy.view(np.uint8), axis=1, count=m)
        out[erased] = 0
        return OrFrameObservation(values=out, erased=erased)
    if not np.all(np.isfinite(gains) & (np.asarray(gains) >= 0)):
        raise ValueError("gains must be nonnegative and finite")
    root = np.sqrt(gains)
    if root.shape != heard.shape:
        raise ValueError(f"need one gain per heard row, got shape {root.shape}")
    if noise_var > 0 and (seeds is None or len(seeds) != len(erased)
                          or any(s is None for s in seeds)):
        raise ValueError("a noisy channel needs a seed per receiver")
    at, lens = book.spans(heard)
    owner = np.repeat(np.arange(len(erased)) * m, sizes)
    keys = np.repeat(owner, lens) + book.slots[at]
    terms = np.repeat(root, lens)
    if values is not None:
        terms = terms * values[at]
    out = np.zeros(erased.shape)
    out.reshape(-1)[:] = np.bincount(keys, terms, out.size)
    if noise_var > 0:
        for row, seed in zip(out, seeds):
            row += np.random.default_rng(seed).normal(0.0, np.sqrt(noise_var), m)
    out[erased] = 0
    return RealFrameObservation(values=out, erased=erased)


def receive(erased, book, heard, gains=None, noise_var=0.0, seed=None, values=None):
    """One receiver's record, with its (M,) bool own on-slots `erased`:
    receive_block of a block of one, which hears every row of `heard`."""
    block = receive_block(np.asarray(erased)[None], book, heard, [np.size(heard)], gains,
                          noise_var, [seed], values)
    return type(block)(values=block.values[0], erased=block.erased[0])


def or_channel(mask, peers):
    """Inclusive-or channel with erasure at the receiver's on-slots.

    `mask` is the receiver's row and peers a sequence of (mask, bits)
    rows; a peer contributes 1 to slot m iff its mask is on there and its
    transmitted bit is 1, and every unerased slot reads the OR over all
    peers.  Bits outside {0, 1} are refused, naming the peer.
    """
    mask = _mask_row(mask, "receiver")
    rows = []
    for p, (peer_mask, bits) in enumerate(peers):
        if not np.isin(bits, (0, 1)).all():
            raise ValueError(f"peer {p} transmits bits outside {{0, 1}}")
        peer_mask, bits = _mask_row(peer_mask, f"peer {p}"), np.asarray(bits, dtype=np.uint8)
        if peer_mask.shape != mask.shape or bits.shape != mask.shape:
            raise ValueError("peer frame length differs from the receiver's")
        rows.append(peer_mask & bits)
    book = SignatureBook(range(len(rows)), np.reshape(rows, (-1, mask.size)))
    return receive(mask, book, range(len(rows)))


def gaussian_mac(receiver, gain, frames, noise_var, seed=None):
    """Real-valued Gaussian multiaccess channel at one receiver.

    frames[j] is node j's TransmitFrame (None = silent node), and gain[j]
    its power gain at the receiver: row k of the gain matrix, as
    model.gain_row gives it.  At every off-slot of the receiver the
    observation is sum_j sqrt(gain[j]) * s_jm * x_jm + w,
    w ~ Normal(0, noise_var).  Interference from outside the receiver's
    neighborhood is part of noise_var: leave those frames None.
    """
    if frames[receiver] is None:
        raise ValueError("the receiver needs a frame: its mask defines the erasures")
    gain = np.asarray(gain, dtype=np.float64)
    if gain.shape != (len(frames),):
        raise ValueError(f"need one gain per frame: got shape {gain.shape} "
                         f"for {len(frames)} frames")
    m = frames[receiver].mask.size
    for j, frame in enumerate(frames):
        if frame is not None and frame.mask.size != m:
            raise ValueError(f"frame of node {j} has length {frame.mask.size}, expected {m}")
    heard = [j for j, frame in enumerate(frames) if j != receiver and frame is not None]
    rows = np.reshape([frames[j].mask * frames[j].symbols for j in heard], (-1, m))
    lit = rows != 0
    return receive(frames[receiver].mask, SignatureBook(heard, lit), range(len(heard)),
                   gain[heard], noise_var, seed, rows[lit])


def dump_observation(obs):
    """One line per slot: `m E` when erased, else `m <value>`."""
    lines = []
    for m in range(obs.length):
        if obs.erased[m]:
            lines.append(f"{m} E")
        else:
            v = obs.values[m]
            lines.append(f"{m} {int(v)}" if isinstance(obs, OrFrameObservation)
                         else f"{m} {float(v)!r}")
    return "\n".join(lines) + "\n"
