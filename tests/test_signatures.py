import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Philox

from rodd import signatures, sparsecode


def test_derive_mask_deterministic():
    a = signatures.derive_mask(42, 0.3, 200, domain_tag=1)
    b = signatures.derive_mask(42, 0.3, 200, domain_tag=1)
    assert np.array_equal(a, b)
    assert a.dtype == np.uint8 and a.shape == (200,)


def test_distinct_inputs_change_the_mask():
    base = signatures.derive_mask(42, 0.3, 500)
    assert not np.array_equal(base, signatures.derive_mask(43, 0.3, 500))
    assert not np.array_equal(base,
                              signatures.derive_mask(42, 0.3, 500, domain_tag=1))


@pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.5])
def test_q_must_be_interior(q):
    with pytest.raises(ValueError):
        signatures.derive_mask(1, q, 10)


def test_bad_slot_count():
    with pytest.raises(ValueError):
        signatures.derive_mask(1, 0.5, 0)


@pytest.mark.parametrize("q, m, mu, match", [
    (1.5, 10, 1, "on-probability"),
    (0.5, 0, 1, "num_slots"),
    (0.5, -3, 1, "num_slots"),
    (2.0, 0, 4, "on-probability"),
    (0.5, 0, 4, "num_slots"),
])
def test_degenerate_books_are_refused(q, m, mu, match):
    # checked before anything is derived, so an empty NIA list is no way round
    with pytest.raises(ValueError, match=match):
        if mu == 1:
            signatures.reconstruct_book([], q, m)
        else:
            sparsecode.build_message_book([], mu, q, m)


@pytest.mark.parametrize("nia, tag, name", [
    (1.5, 0, "nia"),
    (np.float64(2.0), 0, "nia"),
    (-1, 0, "nia"),
    (2**64, 0, "nia"),
    (3, 0.5, "domain_tag"),
    (3, 2**64, "domain_tag"),
])
def test_keys_must_be_unsigned_64_bit_integers(nia, tag, name):
    derivations = (lambda: signatures.derive_mask(nia, 0.3, 8, tag),
                   lambda: signatures.derive_bit(nia, 0.3, 3, tag),
                   lambda: signatures.reconstruct_book([nia], 0.3, 8, tag))
    for derive in derivations:
        with pytest.raises(ValueError, match=f"^{name} must be an unsigned 64-bit"):
            derive()


def test_on_fraction_concentrates():
    # Binomial(M, q): |frac - q| <= 3*sqrt(q(1-q)/M)
    m = 10_000
    q = 0.5
    sigma = math.sqrt(q * (1 - q) / m)
    for nia in (1, 999, 123456789):
        frac = signatures.derive_mask(nia, q, m).mean()
        assert abs(frac - q) <= 3 * sigma


def test_pairwise_overlap_is_independent():
    # overlap of two independent Bernoulli(q) masks ~ Binomial(M, q^2)
    m = 10_000
    q = 0.5
    a = signatures.derive_mask(7, q, m)
    b = signatures.derive_mask(8, q, m)
    overlap = int(np.sum(a & b))
    sigma = math.sqrt(m * q**2 * (1 - q**2))
    assert abs(overlap - q**2 * m) <= 3 * sigma


_KEY_PART = st.integers(0, 2**64 - 1)


@settings(max_examples=30, deadline=None)
@example(nia=321, tag=5, q=0.27, m=97)
@given(nia=_KEY_PART, tag=_KEY_PART, q=st.floats(0.001, 0.999), m=st.integers(1, 120))
def test_single_bit_access_matches_full_derivation(nia, tag, q, m):
    mask = signatures.derive_mask(nia, q, m, domain_tag=tag)
    got = [signatures.derive_bit(nia, q, s, domain_tag=tag) for s in range(m)]
    assert np.array_equal(mask, np.array(got, dtype=np.uint8))


def _convention_mask(nia, tag, q, m):
    """The README convention, written out: Philox-4x64 keyed by
    (domain_tag << 64) | nia, slot m ON iff word_m < floor(q * 2**64)."""
    words = Philox(key=(tag << 64) | nia).random_raw(m)
    return (words < np.uint64(int(q * 2**64))).astype(np.uint8)


@settings(max_examples=30, deadline=None)
@example(nias=[2**64 - 1], tag=2**64 - 1, q=0.5, m=1, mu=1, slot=0)
@example(nias=[0, 2**64 - 1], tag=2**64 - 1, q=0.09, m=300, mu=4, slot=299)
@given(nias=st.lists(_KEY_PART, min_size=1, max_size=4, unique=True), tag=_KEY_PART,
       q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       m=st.integers(1, 300), mu=st.integers(1, 4), slot=st.integers(0, 299))
def test_derivation_matches_the_written_out_convention(nias, tag, q, m, mu, slot):
    tag_base = min(tag, 2**64 - mu)      # every tag_base + message stays a 64-bit word
    book = signatures._derive_book(nias, q, m, tag_base, mu)
    for i, nia in enumerate(nias):
        for msg in range(mu):
            expected = _convention_mask(nia, tag_base + msg, q, m)
            assert np.array_equal(book.matrix()[i * mu + msg], expected)
            mask = signatures.derive_mask(nia, q, m, tag_base + msg)
            assert np.array_equal(mask, expected)
            for s in {0, slot % m, m - 1}:
                assert signatures.derive_bit(nia, q, s, tag_base + msg) == expected[s]


def test_reconstruct_book_is_rederivable():
    book = signatures.reconstruct_book([10, 20, 30], 0.3, 64, domain_tag=2)
    assert len(book) == 3
    for nia in (10, 20, 30):
        assert np.array_equal(book[nia], signatures.derive_mask(nia, 0.3, 64, domain_tag=2))


def test_reconstruction_is_byte_equal_between_parties():
    nias = [9, 4, 77]
    here = signatures.reconstruct_book(nias, 0.25, 128, domain_tag=3)
    there = signatures.reconstruct_book(nias, 0.25, 128, domain_tag=3)
    assert here.packed.tobytes() == there.packed.tobytes()
    assert np.array_equal(here.counts, there.counts)


def test_empty_book():
    book = signatures.reconstruct_book([], 0.5, 32)
    assert len(book) == 0
    assert book.packed.shape == (0, 8)
    assert book.matrix().shape == (0, 32)


def test_duplicate_nia_rejected():
    with pytest.raises(ValueError):
        signatures.reconstruct_book([1, 2, 1], 0.5, 32)


def test_packed_rows_are_msb_first():
    bits = np.array([[1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0]], dtype=np.uint8)
    book = signatures.SignatureBook(nias=[3], bits=bits)
    # slot 0 is the MSB of the first byte; the bits past M are zero
    assert book.packed[0, :2].tobytes().hex() == "81a0"
    assert not book.packed[0, 2:].any()


def test_book_rows_are_copies_of_the_unpacked_rows():
    book = signatures.reconstruct_book([7, 3], 0.3, 40)
    assert np.array_equal(book.matrix(), [book.unpacked(r) for r in range(len(book))])
    assert np.array_equal(book[3], book.matrix()[1])
    assert np.array_equal(book[3], book.unpacked(1))
    before = book.packed.copy()
    mask = book[3]
    mask ^= 1
    assert np.array_equal(book.packed, before)
    assert np.array_equal(book[3], 1 - mask)
    with pytest.raises(ValueError, match=r"^message 1 out of range 0\.\.0$"):
        book[(3, 1)]


@settings(max_examples=40, deadline=None)
@example(n=1, mu=1, m=1, density=1.0, seed=0)
@example(n=3, mu=4, m=7, density=0.0, seed=0)
@example(n=2, mu=3, m=13, density=0.5, seed=0)
@given(n=st.integers(1, 5), mu=st.integers(1, 4), m=st.integers(1, 250),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_packed_book_equals_its_dense_matrix(n, mu, m, density, seed):
    m += m % 8 == 0              # never a multiple of 8: every row ends in a padded byte
    dense = (np.random.default_rng(seed).random((n * mu, m)) < density).astype(np.uint8)
    nias = list(range(50, 50 + n))
    book = signatures.SignatureBook(nias=nias, bits=dense, mu=mu)
    assert np.array_equal(book.matrix(), dense)
    for i, nia in enumerate(nias):
        for msg in range(mu):
            assert np.array_equal(book[(nia, msg)], dense[i * mu + msg])
    assert np.array_equal(book.packed, _index_oracle(dense)[2])
    for index in (book.on_slots, signatures.on_slots(dense)):
        starts, slots, packed = _index_oracle(dense)
        assert np.array_equal(index.starts, starts)
        assert np.array_equal(index.slots, slots)
        assert np.array_equal(index.packed, packed)
        assert index.num_slots == m
    assert book.on_slots is book.on_slots         # built once, then kept
    # a cut of repeated, unordered rows is the index of those rows alone
    for rows in (np.random.default_rng(seed).integers(0, n * mu, 2 * n), np.zeros(0, int)):
        cut = book.on_slots.take(rows)
        starts, slots, packed = _index_oracle(dense[rows])
        assert np.array_equal(cut.starts, starts)
        assert np.array_equal(cut.slots, slots)
        assert np.array_equal(cut.packed, packed)
        assert cut.num_slots == m


def _index_oracle(dense):
    """(starts, slots, packed) of the on-slot index of the 0/1 rows `dense`:
    CSR offsets and each row's np.flatnonzero, written out row by row, and
    the rows' np.packbits zero-padded to whole 64-bit words."""
    rows = [np.flatnonzero(row) for row in dense]
    starts = np.cumsum([0] + [len(row) for row in rows])
    packed = np.zeros((len(dense), 8 * -(-dense.shape[1] // 64)), dtype=np.uint8)
    packed[:, :-(-dense.shape[1] // 8)] = np.packbits(dense, axis=1)
    return starts, np.concatenate([np.zeros(0, np.int64)] + rows), packed


@settings(max_examples=60, deadline=None)
@example(m=9, density=0.5, rows=[], skip=0, seed=0)
@example(m=9, density=0.0, rows=[2, 0, 2], skip=0, seed=0)
@example(m=70, density=1.0, rows=[5, 1, 1, 3], skip=71, seed=0)
@given(m=st.integers(1, 70), density=st.floats(0.0, 1.0),
       rows=st.lists(st.integers(0, 5), max_size=12), skip=st.integers(0, 75),
       seed=st.integers(0, 2**32 - 1))
def test_spans_gather_the_on_slots_of_each_row_past_skip(m, density, rows, skip, seed):
    # repeated and unordered rows, rows without an on-bit, skips past the longest row
    dense = (np.random.default_rng(seed).random((6, m)) < density).astype(np.uint8)
    index = signatures.on_slots(dense)
    at, lens = index.spans(np.array(rows, dtype=np.int64), skip)
    expected = [np.flatnonzero(dense[r])[skip:] for r in rows]
    assert lens.tolist() == [len(e) for e in expected]
    assert index.slots[at].tolist() == [slot for e in expected for slot in e.tolist()]


def test_derived_book_across_chunks_matches_the_convention():
    # more rows than one derivation chunk, at a frame that pads its last byte
    q, m, mu, tag_base = 0.3, 13, 2, 7
    nias = list(range(1000, 1000 + signatures._CHUNK_ROWS // mu + 3))
    book = signatures._derive_book(nias, q, m, tag_base, mu)
    dense = np.array([_convention_mask(nia, tag_base + msg, q, m)
                      for nia in nias for msg in range(mu)])
    assert len(dense) > signatures._CHUNK_ROWS
    assert np.array_equal(book.matrix(), dense)
    assert np.array_equal(book.counts, dense.sum(axis=1))
    starts, slots, _ = _index_oracle(dense)
    assert np.array_equal(book.on_slots.starts, starts)
    assert np.array_equal(book.on_slots.slots, slots)


@pytest.mark.parametrize("bits", [
    np.zeros((1, 4), dtype=np.uint8),        # one row for two NIAs
    np.full((2, 4), 2, dtype=np.uint8),      # not 0/1
    np.zeros(4, dtype=np.uint8),             # not a matrix
])
def test_book_rejects_malformed_bits(bits):
    with pytest.raises(ValueError):
        signatures.SignatureBook(nias=[1, 2], bits=bits)


@settings(max_examples=30, deadline=None)
@example(nia=11, tag=signatures.DISCOVERY_TAG, q=0.3, m=100, extra=300)
@given(nia=_KEY_PART, tag=_KEY_PART, q=st.floats(0.001, 0.999), m=st.integers(1, 200),
       extra=st.integers(0, 300))
def test_masks_are_prefix_stable(nia, tag, q, m, extra):
    # same key: a longer frame extends the mask without changing the prefix
    short = signatures.derive_mask(nia, q, m, tag)
    long = signatures.derive_mask(nia, q, m + extra, tag)
    assert np.array_equal(long[:m], short)


def test_book_statistics_match_design_q():
    q, m, n = 0.1, 2_000, 50
    book = signatures.reconstruct_book(range(n), q, m)
    frac = book.matrix().mean()
    sigma = math.sqrt(q * (1 - q) / (m * n))
    assert abs(frac - q) <= 4 * sigma


def test_discovery_experiment_scale_book():
    book = signatures.reconstruct_book(range(10_000), 0.02, 2_500)
    assert book.matrix().shape == (10_000, 2_500)
