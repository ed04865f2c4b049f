"""Deterministic on-off duplex masks derived from node addresses.

Every node owns a binary length-M mask: 1 = transmit in that slot, 0 =
listen.  Masks are never distributed over the air; any party that knows a
node's address (NIA) and the frame parameters (q, M, domain tag) can
re-derive the exact same mask.  Derivation uses the Philox-4x64 counter
PRF keyed by (nia, domain_tag), one 64-bit word per slot, so the bit of
any single slot is computable without generating the prefix.

Bit convention (fixed so independent implementations agree bit for bit):
slot m is ON iff word_m < floor(q * 2**64), where word_m is the m-th raw
64-bit Philox output for that key.
"""

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random import Philox

_WORD_BITS = 64
_MAX_KEY_PART = 1 << 64
_MAX_SEED = 1 << 32

# Conventional domain tags.  Discovery signatures and per-message data
# signatures must never collide, so the message code starts its tags at 1.
DISCOVERY_TAG = 0
MESSAGE_TAG_BASE = 1


def _mask_key(nia, domain_tag):
    """Philox key words [nia, domain_tag]: the 128-bit key (domain_tag << 64) | nia."""
    for name, part in (("nia", nia), ("domain_tag", domain_tag)):
        try:
            ok = 0 <= operator.index(part) < _MAX_KEY_PART
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"{name} must be an unsigned 64-bit integer, got {part!r}")
    return np.array([nia, domain_tag], dtype=np.uint64)


def _seeded_nias(seed, count):
    """NIAs seed * 2**32 + i for i < count: disjoint across 32-bit seeds."""
    if not (0 <= seed < _MAX_SEED):
        raise ValueError(f"seed must fit in 32 bits, got {seed}")
    return [seed * _MAX_SEED + i for i in range(count)]


def _on_threshold(q):
    if not (0.0 < q < 1.0):
        raise ValueError(f"on-probability q must lie strictly inside (0,1), got {q}")
    return int(q * 2.0**_WORD_BITS)


@dataclass(eq=False)
class DuplexMask:
    """Binary on-off mask of one node over a frame of M slots."""

    bits: np.ndarray  # uint8 vector, 1 = on/transmit, 0 = off/listen
    owner: int        # NIA the mask was derived from
    q: float          # design on-probability

    def __post_init__(self):
        self.bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
        if self.bits.ndim != 1:
            raise ValueError("mask bits must be a 1-D vector")
        if np.any(self.bits > 1):
            raise ValueError("mask bits must be 0/1")

    @property
    def length(self):
        return self.bits.shape[0]

    def __eq__(self, other):
        if not isinstance(other, DuplexMask):
            return NotImplemented
        return (self.owner == other.owner and self.q == other.q
                and np.array_equal(self.bits, other.bits))


def derive_mask(nia, q, num_slots, domain_tag=DISCOVERY_TAG):
    """Derive the on-off mask of `nia` for a frame of `num_slots` slots.

    Deterministic: the same (nia, q, num_slots, domain_tag) yields a
    bit-identical mask on every platform and in every process.  The mask
    is the row of a one-NIA book.
    """
    return _derive_book([nia], q, num_slots, domain_tag, mu=1)[nia]


def derive_bit(nia, q, slot, domain_tag=DISCOVERY_TAG):
    """Single mask bit at `slot`, computed in O(1) via the block counter.

    Philox emits 4 words per counter increment, so slot m lives in block
    m // 4 at lane m % 4.
    """
    if slot < 0:
        raise ValueError("slot must be nonnegative")
    thr = _on_threshold(q)
    block, lane = divmod(slot, 4)
    words = Philox(key=_mask_key(nia, domain_tag), counter=block).random_raw(lane + 1)
    return int(words[lane] < np.uint64(thr))


@dataclass
class SignatureBook:
    """Masks of many NIAs as one bit matrix sharing a (q, M) derivation.

    Row i*mu + m of `bits` is message m of nias[i]; discovery books have
    mu = 1, so row i is the mask of nias[i].  book[nia] and
    book[(nia, m)] return a DuplexMask whose bits are a view of that row.
    """

    nias: list
    q: float
    bits: np.ndarray  # (len(nias) * mu, M) uint8, 1 = on/transmit
    mu: int = 1

    def __post_init__(self):
        self.bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
        self._index = {nia: i for i, nia in enumerate(self.nias)}
        if len(self._index) != len(self.nias):
            raise ValueError("duplicate NIA in book")
        if self.bits.ndim != 2 or self.bits.shape[0] != len(self.nias) * self.mu:
            raise ValueError(f"bits must be a matrix of {len(self.nias) * self.mu} rows")
        if self.bits.size and self.bits.max() > 1:
            raise ValueError("mask bits must be 0/1")

    def row(self, nia):
        """Index into `bits` of the first (or only) mask of `nia`."""
        return self._index[nia] * self.mu

    def __getitem__(self, key):
        nia, message = key if isinstance(key, tuple) else (key, 0)
        if not (0 <= message < self.mu):
            raise KeyError(key)
        return DuplexMask(bits=self.bits[self.row(nia) + message], owner=nia, q=self.q)

    def __len__(self):
        return len(self.nias)

    def matrix(self):
        """The stored bit matrix itself (not a copy), shape (N*mu, M) uint8."""
        return self.bits

    def export_text(self):
        """One `nia hex-packed-bits` line per NIA.

        Bits are packed MSB-first: bit of slot 0 is the most significant
        bit of the first hex byte; each mask's final byte is zero-padded
        on the right when M is not a multiple of 8.  With mu > 1 a line
        holds the node's mu packed masks in message order.
        """
        packed = np.packbits(self.bits, axis=1)
        packed = packed.reshape(len(self.nias), self.mu * packed.shape[1])
        return "".join(f"{nia} {row.tobytes().hex()}\n"
                       for nia, row in zip(self.nias, packed))


class OnSlots(NamedTuple):
    """CSR index of the on-bits of an (R, M) 0/1 matrix: the on-slots of
    row r are slots[starts[r]:starts[r + 1]], in ascending order."""

    starts: np.ndarray   # (R + 1,) int64
    slots: np.ndarray    # (number of on-bits,) int64
    num_slots: int       # M


def on_slots(masks):
    """The OnSlots index of the (R, M) 0/1 matrix `masks`."""
    masks = np.asarray(masks, dtype=np.uint8)
    if masks.ndim != 2:
        raise ValueError(f"masks must be a matrix, got shape {masks.shape}")
    # a uint8 book read as bool: no temporary of the book's size
    rows, slots = np.divmod(np.flatnonzero(masks.view(bool)), masks.shape[1])
    starts = np.zeros(masks.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=masks.shape[0]), out=starts[1:])
    return OnSlots(starts, slots, masks.shape[1])


def _derive_book(nias, q, num_slots, tag_base, mu):
    """Book of `mu` masks per NIA; message m of every NIA uses tag tag_base + m.

    The only code that turns keys into mask bits.  One Philox is re-keyed
    per mask: counter 0 and an empty buffer, the state Philox(key=k)
    starts in, so each row is written in place without a new generator.
    """
    thr = np.uint64(_on_threshold(q))
    if num_slots < 1:
        raise ValueError(f"num_slots must be >= 1, got {num_slots}")
    nias = list(nias)
    bits = np.empty((len(nias) * mu, num_slots), dtype=np.uint8)
    gen = Philox(key=0)
    fresh = gen.state
    for i, nia in enumerate(nias):
        for m in range(mu):
            fresh["state"]["key"] = _mask_key(nia, tag_base + m)
            gen.state = fresh
            np.less(gen.random_raw(num_slots), thr, out=bits[i * mu + m].view(bool))
    return SignatureBook(nias=nias, q=q, bits=bits, mu=mu)


def reconstruct_book(nias, q, num_slots, domain_tag=DISCOVERY_TAG):
    """Re-derive the masks of every listed NIA.

    Any party holding the same NIA list and parameters reconstructs a
    byte-equal book.  Duplicate NIAs are rejected: masks would silently
    alias.
    """
    return _derive_book(nias, q, num_slots, domain_tag, mu=1)
