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
from functools import cached_property

import numpy as np
from numpy.random import Philox

_WORD_BITS = 64
_MAX_KEY_PART = 1 << 64
_MAX_SEED = 1 << 32
# Rows derived, and unpacked for the on-slot index, per step.
_CHUNK_ROWS = 512

# Conventional domain tags.  Discovery signatures and per-message data
# signatures must never collide, so the message code starts its tags at 1.
DISCOVERY_TAG = 0
MESSAGE_TAG_BASE = 1


def _key_words(name, parts):
    """The uint64 array of the key words `parts`, refusing by `name` any
    that is not an unsigned 64-bit integer."""
    words = []
    for part in parts:
        try:
            word = operator.index(part)
        except TypeError:
            word = -1
        if not 0 <= word < _MAX_KEY_PART:
            raise ValueError(f"{name} must be an unsigned 64-bit integer, got {part!r}")
        words.append(word)
    return np.array(words, dtype=np.uint64)


def _mask_keys(nias, tags):
    """Philox key words [nia, tag] of every (nia, tag) pair, nia-major: the
    (len(nias) * len(tags), 2) uint64 array of keys (tag << 64) | nia."""
    nia_words, tag_words = _key_words("nia", nias), _key_words("domain_tag", tags)
    keys = np.empty((nia_words.size, tag_words.size, 2), dtype=np.uint64)
    keys[..., 0] = nia_words[:, None]
    keys[..., 1] = tag_words
    return keys.reshape(-1, 2)


def _seeded_nias(seed, count):
    """NIAs seed * 2**32 + i for i < count: disjoint across 32-bit seeds."""
    if not (0 <= seed < _MAX_SEED):
        raise ValueError(f"seed must fit in 32 bits, got {seed}")
    return [seed * _MAX_SEED + i for i in range(count)]


def _mask_bits(bits):
    """`bits` as contiguous uint8, refusing any entry but 0 or 1 before the cast."""
    bits = np.asarray(bits)
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("mask bits must be 0/1")
    return np.ascontiguousarray(bits, dtype=np.uint8)


def _message(message):
    """`message` as an int, refusing a bool or a non-integer by name."""
    if not isinstance(message, bool) and hasattr(type(message), "__index__"):
        return operator.index(message)
    raise ValueError(f"message must be an integer, got {message!r}")


def _on_threshold(q):
    if not (0.0 < q < 1.0):
        raise ValueError(f"on-probability q must lie strictly inside (0,1), got {q}")
    return int(q * 2.0**_WORD_BITS)


def derive_mask(nia, q, num_slots, domain_tag=DISCOVERY_TAG):
    """The on-off mask of `nia` over `num_slots` slots: the (M,) uint8 row of
    a one-NIA book, bit-identical on every platform and in every process."""
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
    key = _mask_keys([nia], [domain_tag])[0]
    words = Philox(key=key, counter=block).random_raw(lane + 1)
    return int(words[lane] < np.uint64(thr))


class SignatureBook:
    """Masks of many NIAs sharing a (q, M) derivation, stored packed.

    Row i*mu + m is message m of nias[i]; discovery books have mu = 1, so
    row i is the mask of nias[i].  `packed` holds row r's M bits 8 to a
    byte, MSB-first (np.packbits order), zero-padded to whole 64-bit
    words so that rows OR word by word, and `counts[r]` its number of
    on-bits.  Build a book by hand from the (N*mu, M) 0/1 matrix `bits`;
    _derive_book passes packed rows instead.
    book[nia] and book[(nia, m)] are an unpacked (M,) copy of that row.
    """

    def __init__(self, nias, bits=None, mu=1, *, packed=None, counts=None, num_slots=None):
        self.nias, self.mu = list(nias), mu
        self._index = {nia: i for i, nia in enumerate(self.nias)}
        if len(self._index) != len(self.nias):
            raise ValueError("duplicate NIA in book")
        if bits is not None:
            bits = _mask_bits(bits)
            if bits.ndim != 2 or bits.shape[0] != len(self.nias) * mu:
                raise ValueError(f"bits must be a matrix of {len(self.nias) * mu} rows")
            packed, counts = _packed_rows(bits), np.count_nonzero(bits, axis=1)
            num_slots = bits.shape[1]
        self.packed, self.counts, self.num_slots = packed, counts, num_slots

    def row(self, nia):
        """Index into the book's rows of the first (or only) mask of `nia`."""
        try:
            return self._index[nia] * self.mu
        except KeyError:
            raise KeyError(f"NIA {nia!r} is not in the book") from None

    def unpacked(self, rows):
        """Rows `rows` (an index, slice or index array) as 0/1 uint8 slots:
        a fresh copy, (M,) for one row and (R, M) for several."""
        return np.unpackbits(self.packed[rows], axis=-1, count=self.num_slots)

    def __getitem__(self, key):
        nia, message = key if isinstance(key, tuple) else (key, 0)
        message = _message(message)
        if not 0 <= message < self.mu:
            raise ValueError(f"message {message} out of range 0..{self.mu - 1}")
        return self.unpacked(self.row(nia) + message)

    def __len__(self):
        return len(self.nias)

    def matrix(self):
        """Every row unpacked, shape (N*mu, M) uint8: a fresh copy that costs
        O(book) time and memory, for small books and tests."""
        return self.unpacked(slice(None))

    @cached_property
    def on_slots(self):
        """The OnSlots index of the book's rows, built on first use and kept.

        The slots array is allocated once at its final size, from
        `counts`, and filled from _CHUNK_ROWS unpacked rows at a time.
        """
        m = self.num_slots
        starts = np.zeros(len(self.counts) + 1, dtype=np.int64)
        np.cumsum(self.counts, out=starts[1:])
        slots = np.empty(starts[-1], dtype=np.int64)
        for lo in range(0, len(self.counts), _CHUNK_ROWS):
            # read as bool: flatnonzero is several times faster than on uint8
            part = self.unpacked(slice(lo, lo + _CHUNK_ROWS)).view(bool)
            out = slots[starts[lo]:starts[lo + len(part)]]
            np.remainder(np.flatnonzero(part), m, out=out)
        return OnSlots(starts, slots, m, self.packed)


class OnSlots:
    """The on-bits of an (R, M) 0/1 matrix, row by row.

    The on-slots of row r are slots[starts[r]:starts[r + 1]], in ascending
    order, and packed[r] is the row in a book's `packed` layout (whole
    64-bit words), for the word-parallel OR channel.  Other modules gather
    rows through spans(), never starts.  head(c) is the elimination
    kernel's head stage, kept for as long as the index.
    """

    def __init__(self, starts, slots, num_slots, packed):
        self.starts = starts        # (R + 1,) int64
        self.slots = slots          # (number of on-bits,) int64
        self.num_slots = num_slots  # M
        self.packed = packed        # (R, 8 * ceil(M / 64)) uint8
        self._head = None

    def head(self, c):
        """(lit, first): the rows with an on-bit, and the (c, len(lit))
        array of their first c on-slots, a shorter row repeating its last.
        Built on first use and kept for the last c asked."""
        if self._head is None or self._head[0] != c:
            lit = np.flatnonzero(np.diff(self.starts))
            first, last = self.starts[lit], self.starts[lit + 1] - 1
            head = np.empty((c, lit.size), dtype=self.slots.dtype)
            for j, row in enumerate(head):      # no (c, rows) temporary
                self.slots.take(np.minimum(first + j, last), out=row)
            self._head = c, lit, head
        return self._head[1:]

    def spans(self, rows, skip=0):
        """(at, lens): where in `slots` the on-slots of `rows` (int64, in any
        order, repeats allowed) past each row's first `skip` lie, concatenated
        row after row, and how many each row gives."""
        first = self.starts[rows] + skip
        lens = np.maximum(self.starts[rows + 1] - first, 0)
        # gathered term t, of row i, sits at first[i] + t - ahead[i]
        ahead = np.cumsum(lens) - lens
        return np.repeat(first - ahead, lens) + np.arange(lens.sum()), lens

    def take(self, rows):
        """The OnSlots index of rows `rows` (an int64 array) of this one."""
        at, lens = self.spans(rows)
        return OnSlots(np.append(0, np.cumsum(lens)), self.slots[at], self.num_slots,
                       self.packed[rows])


def _packed_rows(bits):
    """The (R, M) 0/1 matrix `bits` in a book's `packed` layout."""
    packed = np.zeros((bits.shape[0], 8 * -(-bits.shape[1] // _WORD_BITS)), dtype=np.uint8)
    packed[:, :-(-bits.shape[1] // 8)] = np.packbits(bits, axis=1)
    return packed


def on_slots(masks):
    """The OnSlots index of the (R, M) 0/1 matrix `masks`, as a book of its rows."""
    if np.ndim(masks) != 2:
        raise ValueError(f"masks must be a matrix, got shape {np.shape(masks)}")
    return SignatureBook(range(len(masks)), masks).on_slots


def _derive_book(nias, q, num_slots, tag_base, mu):
    """Book of `mu` masks per NIA; message m of every NIA uses tag tag_base + m.

    The only code that turns keys into mask bits.  One Philox is re-keyed
    per mask: counter 0 and an empty buffer, the state Philox(key=k)
    starts in.  Rows are compared into a reusable (_CHUNK_ROWS, M) bool
    buffer and stored packed with their on-counts, so the dense book is
    never held.
    """
    thr = np.uint64(_on_threshold(q))
    if num_slots < 1:
        raise ValueError(f"num_slots must be >= 1, got {num_slots}")
    nias = list(nias)
    keys = _mask_keys(nias, [tag_base + m for m in range(mu)])
    packed = np.empty((len(keys), 8 * -(-num_slots // _WORD_BITS)), dtype=np.uint8)
    counts = np.empty(len(keys), dtype=np.int64)
    buf = np.empty((min(len(keys), _CHUNK_ROWS), num_slots), dtype=bool)
    gen = Philox(key=0)
    fresh = gen.state
    for lo in range(0, len(keys), _CHUNK_ROWS):
        part = buf[:len(keys) - lo]
        for key, out in zip(keys[lo:], part):
            fresh["state"]["key"] = key
            gen.state = fresh
            np.less(gen.random_raw(num_slots), thr, out=out)
        packed[lo:lo + len(part)] = _packed_rows(part)
        counts[lo:lo + len(part)] = np.count_nonzero(part, axis=1)
    return SignatureBook(nias, mu=mu, packed=packed, counts=counts, num_slots=num_slots)


def reconstruct_book(nias, q, num_slots, domain_tag=DISCOVERY_TAG):
    """Re-derive the masks of every listed NIA.

    Any party holding the same NIA list and parameters reconstructs a
    byte-equal book.  Duplicate NIAs are rejected: masks would silently
    alias.
    """
    return _derive_book(nias, q, num_slots, domain_tag, mu=1)
