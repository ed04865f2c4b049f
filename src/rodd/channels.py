"""Slot-level multiaccess channel simulators with receiver-side erasure.

`receive` is the one channel, behind `or_channel` and `gaussian_mac`.
Whatever a node transmits, its own observation in every slot where its
mask is ON is erased.  Erasures are marked explicitly instead of being
folded into a 0 value; the receiver knows its own mask, so the mark is
genuine side information and decoders must be able to tell "erased"
from "silent".
"""

from dataclasses import dataclass

import numpy as np

_POWER_TOL = 1e-9


@dataclass
class _FrameObservation:
    """A receiver's full-frame record: per-slot values and its erasures."""

    values: np.ndarray  # meaningful only where not erased
    erased: np.ndarray  # bool, True at the receiver's own on-slots

    @property
    def length(self):
        return self.values.shape[0]


class OrFrameObservation(_FrameObservation):
    """Per-slot {erased, 0, 1} observation of the inclusive-or channel (uint8)."""


class RealFrameObservation(_FrameObservation):
    """Per-slot {erased, real value} observation of the linear channel (float64)."""


@dataclass
class TransmitFrame:
    """One node's masked symbol vector, under unit average power.

    symbols[m] is only sent when mask.bits[m] = 1; the power constraint
    sum_m s_m * x_m^2 <= M is checked at construction.
    """

    symbols: np.ndarray
    mask: "DuplexMask"

    def __post_init__(self):
        self.symbols = np.asarray(self.symbols, dtype=np.float64)
        if self.symbols.shape != self.mask.bits.shape:
            raise ValueError("symbols and mask must have equal length")
        m = self.symbols.shape[0]
        power = float(np.sum(self.mask.bits * self.symbols**2))
        if power > m * (1.0 + _POWER_TOL):
            raise ValueError(f"frame power {power:g} exceeds the budget of {m}")

    @property
    def length(self):
        return self.symbols.shape[0]


def receive(own_bits, signals, gains=None, noise_var=0.0, seed=None):
    """The one slot-level channel: a receiver's record of the (J, M) rows
    `signals`, with its own on-slots (`own_bits`) erased and zeroed.

    Without `gains` it is the noiseless OR channel, the OR of the rows.
    With (J,) power `gains` it is sum_j sqrt(gains_j) * signals_j, each slot
    adding its nonzero terms in row order (np.bincount keeps index order; no
    BLAS sum), plus Normal(0, noise_var) noise from default_rng(seed).
    """
    if not 0 <= noise_var < np.inf:
        raise ValueError(f"noise_var must be nonnegative and finite, got {noise_var}")
    erased = np.asarray(own_bits).astype(bool)
    m = erased.shape[0]
    signals = np.asarray(signals)
    if signals.shape[1:] != erased.shape:
        raise ValueError(f"signals of shape {signals.shape} are not rows of {erased.shape}")
    if gains is None:
        values = np.bitwise_or.reduce(signals, axis=0)
    else:
        flat = np.flatnonzero(signals != 0)
        rows, slots = np.divmod(flat, m)
        terms = np.sqrt(gains)[rows] * signals.ravel()[flat]
        values = np.bincount(slots, terms, m).astype(np.float64, copy=False)
        if noise_var > 0:
            if seed is None:
                raise ValueError("a noisy channel needs a seed")
            values += np.random.default_rng(seed).normal(0.0, np.sqrt(noise_var), m)
    values[erased] = 0
    record = OrFrameObservation if gains is None else RealFrameObservation
    return record(values=values, erased=erased)


def or_channel(receiver_mask, peers):
    """Inclusive-or channel with erasure at the receiver's on-slots.

    peers is a sequence of (mask, bits) pairs; a peer contributes 1 to
    slot m iff its mask is on there and its transmitted bit is 1.  The
    output at every non-erased slot is the OR over all peers.
    """
    m = receiver_mask.length
    rows = []
    for peer_mask, bits in peers:
        bits = np.asarray(bits, dtype=np.uint8)
        if peer_mask.length != m or bits.shape[0] != m:
            raise ValueError("peer frame length differs from the receiver's")
        rows.append(peer_mask.bits & bits)
    return receive(receiver_mask.bits, np.array(rows, dtype=np.uint8).reshape(-1, m))


def gaussian_mac(receiver, gains, frames, noise_var, seed=None, *,
                 neighbor_threshold=None):
    """Real-valued Gaussian multiaccess channel at one receiver.

    frames[j] is node j's TransmitFrame (None = silent node).  At every
    off-slot of the receiver the observation is
    sum_j sqrt(gamma[k][j]) * s_jm * x_jm + w,  w ~ Normal(0, noise_var).
    With `neighbor_threshold` set, only transmitters whose gain meets it
    are summed; out-of-neighborhood interference is then part of
    noise_var, which is how callers should model it.
    """
    if frames[receiver] is None:
        raise ValueError("the receiver needs a frame: its mask defines the erasures")
    m = frames[receiver].length
    for j, frame in enumerate(frames):
        if frame is not None and frame.length != m:
            raise ValueError(f"frame of node {j} has length {frame.length}, expected {m}")
    gain = gains.gamma[receiver]
    heard = [j for j, frame in enumerate(frames) if j != receiver and frame is not None
             and (neighbor_threshold is None or gain[j] >= neighbor_threshold)]
    rows = [frames[j].mask.bits * frames[j].symbols for j in heard]
    return receive(frames[receiver].mask.bits, np.reshape(rows, (-1, m)), gain[heard],
                   noise_var, seed)


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
