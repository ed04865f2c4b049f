import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rodd import channels, signatures


def _rows_book(masks):
    """The book of the 0/1 rows `masks`, NIA r for row r."""
    return signatures.SignatureBook(range(len(masks)), masks)


def _mask(bits):
    return np.array(bits, dtype=np.uint8)


def test_or_channel_worked_example():
    receiver = _mask([1, 0, 1, 0])
    peer = _mask([0, 1, 1, 0])
    obs = channels.or_channel(receiver, [(peer, [0, 1, 1, 0])])
    assert list(obs.erased) == [True, False, True, False]
    assert obs.values[1] == 1 and obs.values[3] == 0


def test_or_channel_no_peers_reads_silence():
    obs = channels.or_channel(_mask([0, 1, 0]), [])
    assert list(obs.values) == [0, 0, 0]
    assert list(obs.erased) == [False, True, False]


def test_or_channel_four_node_snapshot():
    # 4 nodes over 50 slots: node 1's view is the element-wise OR of the
    # other three masked streams, blanked at its own on-slots.
    m = 50
    masks = [signatures.derive_mask(nia, 0.4, m) for nia in range(1, 5)]
    rng = np.random.default_rng(0)
    bits = [rng.integers(0, 2, m).astype(np.uint8) for _ in range(4)]
    obs = channels.or_channel(masks[0], list(zip(masks[1:], bits[1:])))
    for slot in range(m):
        if masks[0][slot]:
            assert obs.erased[slot]
        else:
            expect = 0
            for j in (1, 2, 3):
                expect |= masks[j][slot] & bits[j][slot]
            assert obs.values[slot] == expect


def test_or_channel_length_mismatch():
    with pytest.raises(ValueError):
        channels.or_channel(_mask([1, 0]), [(_mask([1, 0, 1]), [1, 1, 1])])


@pytest.mark.parametrize("bad", [2, 0.7, 3.0, -1])
def test_or_channel_refuses_non_binary_bits(bad):
    # 2 and 0.7 used to read as 0, 3.0 as 1, and -1 raised a bare OverflowError
    peers = [(_mask([1, 0, 1]), [1, 0, 1]), (_mask([1, 1, 0]), [0, bad, 0])]
    with pytest.raises(ValueError, match="^peer 1 transmits bits outside"):
        channels.or_channel(_mask([0, 0, 0]), peers)


def test_or_channel_accepts_bool_and_float_bits():
    receiver, peer = _mask([0, 0, 1, 0]), _mask([1, 1, 1, 0])
    ints = channels.or_channel(receiver, [(peer, [1, 0, 1, 1])])
    for bits in ([True, False, True, True], [1.0, 0.0, 1.0, 1.0]):
        obs = channels.or_channel(receiver, [(peer, bits)])
        assert obs.values.tobytes() == ints.values.tobytes()


def test_or_output_monotone_in_peers():
    receiver = signatures.derive_mask(0, 0.3, 200)
    peers = [(signatures.derive_mask(j, 0.3, 200), np.ones(200, dtype=np.uint8))
             for j in range(1, 5)]
    prev = channels.or_channel(receiver, peers[:1])
    for count in (2, 3, 4):
        cur = channels.or_channel(receiver, peers[:count])
        keep = ~cur.erased
        assert np.all(cur.values[keep] >= prev.values[keep])
        prev = cur


def _unit_gains(k):
    """Receiver 0's row of a unit gain matrix."""
    g = np.ones(k)
    g[0] = 0.0
    return g


def test_gaussian_single_peer_no_noise():
    m = 8
    rmask = _mask([1, 0, 0, 1, 0, 0, 0, 0])
    pmask = _mask([0, 1, 1, 0, 1, 0, 1, 0])
    sym = np.array([0.0, 1.0, -1.5, 0.0, 0.5, 0.0, 2.0, 0.0])
    frames = [channels.TransmitFrame(symbols=np.zeros(m), mask=rmask),
              channels.TransmitFrame(symbols=sym, mask=pmask)]
    obs = channels.gaussian_mac(0, _unit_gains(2), frames, noise_var=0.0)
    off = ~obs.erased
    assert np.allclose(obs.values[off], (pmask * sym)[off])
    assert np.array_equal(obs.erased, rmask.astype(bool))


def test_gaussian_superposition_is_linear():
    m = 6
    rmask = _mask([0] * m)
    f0 = channels.TransmitFrame(symbols=np.zeros(m), mask=rmask)
    p1 = channels.TransmitFrame(symbols=np.full(m, 1.0), mask=_mask([1] * m))
    p2 = channels.TransmitFrame(symbols=np.full(m, -0.5), mask=_mask([1] * m))
    both = channels.gaussian_mac(0, [0.0, 4.0, 9.0], [f0, p1, p2], noise_var=0.0)
    # sqrt(4)*1 + sqrt(9)*(-0.5) = 0.5 in every slot
    assert np.allclose(both.values, 0.5)


def test_gaussian_noise_variance():
    m = 100_000
    rmask = np.zeros(m, dtype=np.uint8)
    f0 = channels.TransmitFrame(symbols=np.zeros(m), mask=rmask)
    obs = channels.gaussian_mac(0, _unit_gains(2), [f0, None], noise_var=2.0, seed=5)
    # sample variance of N(0, 2): std error ~ var * sqrt(2/m)
    assert abs(obs.values.var() - 2.0) <= 3 * 2.0 * np.sqrt(2.0 / m)


def test_gaussian_deterministic_given_seed():
    m = 64
    rmask = signatures.derive_mask(0, 0.5, m)
    f0 = channels.TransmitFrame(symbols=np.zeros(m), mask=rmask)
    a = channels.gaussian_mac(0, _unit_gains(2), [f0, None], noise_var=1.0, seed=3)
    b = channels.gaussian_mac(0, _unit_gains(2), [f0, None], noise_var=1.0, seed=3)
    assert np.array_equal(a.values, b.values)


def test_gaussian_neighbor_filter():
    m = 4
    rmask = _mask([0] * m)
    f0 = channels.TransmitFrame(symbols=np.zeros(m), mask=rmask)
    peer = channels.TransmitFrame(symbols=np.ones(m), mask=_mask([1] * m))
    gain = [0.0, 0.25]
    heard = channels.gaussian_mac(0, gain, [f0, peer], noise_var=0.0)
    # a non-neighbor is a None frame: its interference belongs in noise_var
    filtered = channels.gaussian_mac(0, gain, [f0, None], noise_var=0.0)
    assert np.allclose(heard.values, 0.5)
    assert np.allclose(filtered.values, 0.0)


def test_erased_slots_are_exactly_the_on_slots():
    m = 500
    rmask = signatures.derive_mask(9, 0.35, m)
    obs = channels.or_channel(rmask, [])
    assert np.array_equal(np.flatnonzero(obs.erased), np.flatnonzero(rmask == 1))


def test_power_constraint_enforced():
    mask = _mask([1, 1, 1, 1])
    channels.TransmitFrame(symbols=np.ones(4), mask=mask)  # power = M, allowed
    with pytest.raises(ValueError):
        channels.TransmitFrame(symbols=np.full(4, 1.1), mask=mask)


def test_transmit_frame_refuses_symbols_that_are_not_finite():
    # NaN passes the power check (nan > M is False) and an off-slot inf
    # becomes 0 * inf = NaN: either would put NaN into the channel
    mask = _mask([1, 0, 1])
    for bad in ([float("nan"), 0.0, 0.0], [0.0, float("inf"), 0.0],
                [0.0, float("nan"), 0.0], [0.0, 0.0, -float("inf")]):
        with pytest.raises(ValueError, match="symbols"):
            channels.TransmitFrame(symbols=np.array(bad), mask=mask)


def test_masked_slots_do_not_count_against_power():
    # only on-slots spend power
    frame = channels.TransmitFrame(symbols=np.array([100.0, 1.0]),
                                   mask=_mask([0, 1]))
    assert frame.mask.size == 2


def test_dump_format():
    obs = channels.or_channel(_mask([1, 0]), [(_mask([0, 1]), [0, 1])])
    assert channels.dump_observation(obs) == "0 E\n1 1\n"


def test_noisy_channel_needs_a_seed():
    # unseeded noise would differ between two identical calls
    m = 16
    f0 = channels.TransmitFrame(symbols=np.zeros(m), mask=signatures.derive_mask(0, 0.5, m))
    with pytest.raises(ValueError, match="seed"):
        channels.gaussian_mac(0, _unit_gains(2), [f0, None], noise_var=1.0)
    with pytest.raises(ValueError, match="seed"):
        channels.receive(np.zeros(m), _rows_book(np.ones((1, m))), [0], np.ones(1),
                         noise_var=1.0)


def test_receive_refuses_a_noise_variance_that_is_not_finite():
    # NaN would skip the noise draw, infinity would swamp every slot
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="noise_var"):
            channels.receive(np.zeros(4), _rows_book(np.ones((1, 4))), [0],
                             np.ones(1), bad, seed=1)


def test_receive_refuses_rows_of_another_length():
    # a (J, 1) block would otherwise broadcast over the frame
    with pytest.raises(ValueError, match="shape"):
        channels.receive(np.zeros(3), _rows_book(np.ones((2, 1))), [0, 1], np.ones(2))
    with pytest.raises(ValueError, match="shape"):
        channels.receive(np.zeros(3), _rows_book(np.ones(3, dtype=np.uint8)), [0])


@st.composite
def _linear_frames(draw):
    rows, m = draw(st.integers(0, 14)), draw(st.integers(1, 12))
    signals = draw(arrays(np.float64, (rows, m), elements=st.floats(-1e12, 1e12)))
    gains = draw(arrays(np.float64, rows, elements=st.floats(0.0, 1e6)))
    own = draw(arrays(np.uint8, m, elements=st.integers(0, 1)))
    return own, signals, gains


@settings(max_examples=80, deadline=None)
@given(frame=_linear_frames())
# one slot, 12 rows: numpy's pairwise sum gathers the small terms before
# adding them to the large one, a left fold absorbs each in turn
@example(frame=(np.zeros(1, np.uint8), np.array([[1.0]] + [[1e-16]] * 11), np.ones(12)))
def test_receive_sums_rows_as_a_left_fold(frame):
    own, signals, gains = frame
    lit = signals != 0
    obs = channels.receive(own, _rows_book(lit), range(len(signals)), gains,
                           values=signals[lit])
    expect = [0.0] * own.shape[0]
    for g, row in zip(gains.tolist(), signals.tolist()):
        for m, x in enumerate(row):
            expect[m] += math.sqrt(g) * x
    expect = [0.0 if on else v for on, v in zip(own, expect)]
    assert isinstance(obs, channels.RealFrameObservation)
    assert np.array_equal(obs.erased, own.astype(bool))
    assert obs.values.tobytes() == np.array(expect).tobytes()


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(0, 10), m=st.integers(1, 30), receivers=st.integers(0, 150),
       energy=st.booleans(), noise_var=st.sampled_from([0.0, 0.5]),
       blank=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_receive_block_equals_stacked_receive_records(rows, m, receivers, energy,
                                                      noise_var, blank, seed):
    # blocks of any size, rows with no on-bit, receivers that hear nothing
    # and repeated rows: the block's rows are the one-receiver records
    # byte for byte
    rng = np.random.default_rng(seed)
    masks = (rng.random((rows, m)) < 0.3).astype(np.uint8)
    masks[rng.random(rows) < blank] = 0
    erased = rng.random((receivers, m)) < 0.3
    heard = [rng.integers(0, rows, rng.integers(0, 6)) if rows else
             np.zeros(0, np.int64) for _ in range(receivers)]
    gains = [10.0 ** rng.uniform(-8, 8, len(h)) for h in heard] if energy else None
    seeds = [(seed, b) for b in range(receivers)]
    index = _rows_book(masks)
    block = channels.receive_block(
        erased, index, np.concatenate(heard + [np.zeros(0, int)]),
        [len(h) for h in heard], None if gains is None else np.concatenate(gains + [[]]),
        noise_var, seeds)
    kind = channels.RealFrameObservation if energy else channels.OrFrameObservation
    assert type(block) is kind
    assert block.values.shape == block.erased.shape == (receivers, m)
    for b, h in enumerate(heard):
        # each receiver's rows indexed on their own, apart from the shared index
        one = channels.receive(erased[b], _rows_book(masks[h]), range(len(h)),
                               None if gains is None else gains[b], noise_var, seeds[b])
        assert type(one) is kind
        assert block.values[b].tobytes() == one.values.tobytes()
        assert np.array_equal(block.erased[b], one.erased)


@settings(max_examples=60, deadline=None)
@example(rows=1, m=1, receivers=1, density=1.0, seed=0)
@example(rows=3, m=65, receivers=4, density=0.5, seed=1)
@given(rows=st.integers(1, 12), m=st.integers(1, 200), receivers=st.integers(1, 20),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_word_or_channel_and_padded_book_equal_the_dense_rules(rows, m, receivers,
                                                                density, seed):
    # M never a multiple of 8 (or of 64): each row ends in padded bits and
    # padded words; receivers that hear nothing, repeated heard rows, and a
    # block that hears nothing at all
    m += m % 8 == 0
    rng = np.random.default_rng(seed)
    masks = (rng.random((rows, m)) < density).astype(np.uint8)
    book = signatures.SignatureBook(nias=range(7, 7 + rows), bits=masks)
    assert book.packed.shape == (rows, 8 * -(-m // 64))
    assert np.array_equal(book.unpacked(slice(None)), masks)
    assert np.array_equal(book.packed[:, :-(-m // 8)], np.packbits(masks, axis=1))
    assert not book.packed[:, -(-m // 8):].any()
    erased = rng.random((receivers, m)) < 0.3
    heard = [rng.integers(0, rows, rng.integers(0, 6)) for _ in range(receivers)]
    heard[0] = np.repeat(heard[0], 2)
    for lists in (heard, [np.zeros(0, np.int64)] * receivers):
        block = channels.receive_block(erased, book, np.concatenate(lists),
                                       [len(h) for h in lists])
        assert type(block) is channels.OrFrameObservation
        assert np.array_equal(block.erased, erased)
        for b, h in enumerate(lists):
            dense = (masks[h].any(axis=0) & ~erased[b]).astype(np.uint8)
            assert block.values[b].tobytes() == dense.tobytes()
            one = channels.receive(erased[b], book, h)
            assert one.values.tobytes() == dense.tobytes()


def test_receive_block_refuses_inconsistent_blocks():
    index = _rows_book(np.eye(3, dtype=np.uint8))
    erased = np.zeros((2, 3), dtype=bool)
    with pytest.raises(ValueError, match="sizes"):
        channels.receive_block(erased, index, [0, 1, 2], [1, 1])
    with pytest.raises(ValueError, match="gain"):
        channels.receive_block(erased, index, [0, 1], [1, 1], np.ones(3))
    with pytest.raises(ValueError, match="erasures"):
        channels.receive_block(np.zeros((2, 4), dtype=bool), index, [0, 1], [1, 1])
    with pytest.raises(ValueError, match="seed"):
        channels.receive_block(erased, index, [0, 1], [1, 1], np.ones(2), 1.0, [1, None])
    with pytest.raises(ValueError, match="seed"):
        channels.receive_block(erased, index, [0, 1], [1, 1], np.ones(2), 1.0, [1])
    # sqrt would turn these gains into a NaN or inf row with only a warning
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gains"):
            channels.receive_block(erased, index, [0, 1], [1, 1], [1.0, bad])
