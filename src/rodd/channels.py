"""Slot-level multiaccess channel simulators with receiver-side erasure.

Both channels share the erasure rule: whatever a node transmits, its own
observation in every slot where its mask is ON is erased.  Erasures are
marked explicitly instead of being folded into a 0 value; the receiver
knows its own mask, so the mark is genuine side information and decoders
must be able to tell "erased" from "silent".
"""

from dataclasses import dataclass

import numpy as np

_POWER_TOL = 1e-9


@dataclass
class OrFrameObservation:
    """Per-slot {erased, 0, 1} observation of the inclusive-or channel."""

    values: np.ndarray  # uint8, meaningful only where not erased
    erased: np.ndarray  # bool, True at the receiver's own on-slots

    @property
    def length(self):
        return self.values.shape[0]


@dataclass
class RealFrameObservation:
    """Per-slot {erased, real value} observation of the linear channel."""

    values: np.ndarray  # float64
    erased: np.ndarray  # bool

    @property
    def length(self):
        return self.values.shape[0]


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


def or_channel(receiver_mask, peers):
    """Inclusive-or channel with erasure at the receiver's on-slots.

    peers is a sequence of (mask, bits) pairs; a peer contributes 1 to
    slot m iff its mask is on there and its transmitted bit is 1.  The
    output at every non-erased slot is the OR over all peers.
    """
    m = receiver_mask.length
    acc = np.zeros(m, dtype=np.uint8)
    for peer_mask, bits in peers:
        bits = np.asarray(bits, dtype=np.uint8)
        if peer_mask.length != m or bits.shape[0] != m:
            raise ValueError("peer frame length differs from the receiver's")
        acc |= peer_mask.bits & bits
    erased = receiver_mask.bits.astype(bool)
    acc[erased] = 0
    return OrFrameObservation(values=acc, erased=erased)


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
    if noise_var < 0:
        raise ValueError("noise_var must be nonnegative")
    if frames[receiver] is None:
        raise ValueError("the receiver needs a frame: its mask defines the erasures")
    m = frames[receiver].length
    total = np.zeros(m, dtype=np.float64)
    for j, frame in enumerate(frames):
        if j == receiver or frame is None:
            continue
        if frame.length != m:
            raise ValueError(f"frame of node {j} has length {frame.length}, expected {m}")
        gain = gains.gamma[receiver, j]
        if neighbor_threshold is not None and gain < neighbor_threshold:
            continue
        total += np.sqrt(gain) * frame.mask.bits * frame.symbols
    if noise_var > 0:
        rng = np.random.default_rng(seed)
        total = total + rng.normal(0.0, np.sqrt(noise_var), size=m)
    erased = frames[receiver].mask.bits.astype(bool)
    total[erased] = 0.0
    return RealFrameObservation(values=total, erased=erased)


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
