import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rodd import channels, discovery, signatures, sparsecode


def _or_observation(receiver_mask, transmitted_masks):
    peers = [(m, np.ones(m.size, dtype=np.uint8)) for m in transmitted_masks]
    return channels.or_channel(receiver_mask, peers)


def test_encode_returns_the_message_mask():
    book = sparsecode.build_message_book([5, 6], mu=4, q=0.3, num_slots=50)
    mask = sparsecode.encode(book, 5, 2)
    assert np.array_equal(mask, book[(5, 2)])
    assert np.array_equal(mask, sparsecode.encode(book, 5, 2))


def test_encode_message_range():
    book = sparsecode.build_message_book([1], mu=2, q=0.3, num_slots=20)
    with pytest.raises(ValueError):
        sparsecode.encode(book, 1, 2)
    with pytest.raises(ValueError):
        sparsecode.encode(book, 1, -1)
    # 1.5 died with a bare IndexError and True was read as message 1
    for bad in (1.5, True, np.float64(1.0), "1"):
        with pytest.raises(ValueError, match="^message must be an integer"):
            sparsecode.encode(book, 1, bad)
        with pytest.raises(ValueError, match="^message must be an integer"):
            book[(1, bad)]
    assert np.array_equal(sparsecode.encode(book, 1, np.int64(1)), book[(1, 1)])


def test_binary_messages_have_distinct_masks():
    book = sparsecode.build_message_book([9], mu=2, q=0.3, num_slots=200)
    assert not np.array_equal(book[(9, 0)], book[(9, 1)])


def test_message_tags_do_not_collide_with_discovery():
    nia, q, m = 13, 0.3, 300
    discovery_mask = signatures.derive_mask(nia, q, m, signatures.DISCOVERY_TAG)
    book = sparsecode.build_message_book([nia], mu=4, q=q, num_slots=m)
    for msg in range(4):
        assert not np.array_equal(book[(nia, msg)], discovery_mask)


@pytest.mark.parametrize("num_nodes, trials, name", [
    (0, 2, "num_nodes"), (1, 2, "num_nodes"), (4, 0, "trials"), (4, -2, "trials"),
])
def test_experiment_refuses_runs_without_pairs(num_nodes, trials, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        sparsecode.run_sparsecode_experiment(num_nodes, 4, 0.2, 64, trials, seed=1)


def test_decode_constructed_pair():
    bits = [
        [1, 0, 0, 0],   # (1, 0)
        [0, 0, 0, 1],   # (1, 1)
        [0, 1, 0, 0],   # (2, 0): sent
        [0, 0, 1, 0],   # (2, 1): on-bit at quiet slot 2 -> eliminated
    ]
    book = sparsecode.MessageBook(nias=[1, 2], mu=2, bits=np.array(bits, dtype=np.uint8))
    receiver_mask = book[(1, 0)]
    obs = _or_observation(receiver_mask, [book[(2, 0)]])
    out = sparsecode.decode(obs, book, [2])
    assert out[2].status == sparsecode.DECODED
    assert out[2].message == 0


def _constructed_book(neighbor_rows):
    # node 1 sends (1, 0), on only at slot 0; node 2's two messages follow
    bits = [[1, 0, 0, 0], [0, 0, 0, 1]] + neighbor_rows
    return sparsecode.MessageBook(nias=[1, 2], mu=2, bits=np.array(bits, dtype=np.uint8))


def test_decode_constructed_ambiguous_pair():
    # (2, 1) is on only where the receiver transmits, so nothing rules it out
    book = _constructed_book([[0, 1, 0, 0], [1, 0, 0, 0]])
    obs = _or_observation(book[(1, 0)], [book[(2, 0)]])
    out = sparsecode.decode(obs, book, [2])
    assert out[2].status == sparsecode.AMBIGUOUS
    assert out[2].message is None
    assert out[2].candidates == {0, 1}


def test_decode_constructed_contradiction():
    # a frame quiet wherever the receiver listened rules out both of node
    # 2's signatures; only noise could produce it
    book = _constructed_book([[0, 1, 0, 0], [0, 0, 1, 0]])
    obs = _or_observation(book[(1, 0)], [])
    out = sparsecode.decode(obs, book, [2])
    assert out[2] == sparsecode.NeighborDecode(status=sparsecode.ELIMINATED_ALL)


def test_decode_of_no_neighbors_is_empty():
    book = _constructed_book([[0, 1, 0, 0], [1, 0, 0, 0]])
    obs = _or_observation(book[(1, 0)], [book[(2, 0)]])
    assert sparsecode.decode(obs, book, []) == {}


def test_decode_refuses_a_block_record():
    book = _constructed_book([[0, 1, 0, 0], [0, 0, 1, 0]])
    block = channels.receive_block(book.unpacked([0, 1]).view(bool), book,
                                   [2, 3], [1, 1])
    with pytest.raises(ValueError, match="decode takes one receiver's record, "
                                         "got a block of 2 receivers"):
        sparsecode.decode(block, book, [2])


def test_decode_repeated_neighbor_gives_the_same_entry():
    book = _constructed_book([[0, 1, 0, 0], [0, 0, 1, 0]])
    obs = _or_observation(book[(1, 0)], [book[(2, 0)]])
    assert sparsecode.decode(obs, book, [2, 1, 2]) == sparsecode.decode(obs, book, [1, 2])


@settings(max_examples=60, deadline=None)
@given(nodes=st.integers(1, 6), mu=st.integers(1, 9), m=st.integers(1, 40),
       real=st.booleans(), threshold=st.floats(0.0, 2.0),
       picks=st.lists(st.integers(0, 5), max_size=8), seed=st.integers(0, 2**32 - 1))
def test_decode_equals_one_survivors_call_per_neighbor(nodes, mu, m, real, threshold,
                                                       picks, seed):
    rng = np.random.default_rng(seed)
    nias = [int(x) for x in rng.choice(1000, nodes, replace=False)]
    bits = (rng.random((nodes * mu, m)) < rng.uniform(0, 0.6)).astype(np.uint8)
    book = sparsecode.MessageBook(nias=nias, mu=mu, bits=bits)
    erased = rng.random(m) < 0.3
    if real:
        obs = channels.RealFrameObservation(values=rng.normal(0, 1, m), erased=erased)
    else:
        obs = channels.OrFrameObservation(values=rng.integers(0, 2, m, dtype=np.uint8),
                                          erased=erased)
    neighbor_list = [nias[p % nodes] for p in picks]
    quiet = discovery.observed_quiet(obs, threshold)
    expect = {}
    for nia in neighbor_list:
        row = book.row(nia)
        cut = signatures.SignatureBook(range(mu), book.matrix()[row:row + mu])
        alive = discovery.survivors(cut, quiet)
        kept = frozenset(np.flatnonzero(alive[:, 0]).tolist())
        status = {0: sparsecode.ELIMINATED_ALL, 1: sparsecode.DECODED}.get(
            len(kept), sparsecode.AMBIGUOUS)
        message = min(kept) if status == sparsecode.DECODED else None
        expect[nia] = sparsecode.NeighborDecode(status, message, kept)
    assert sparsecode.decode(obs, book, neighbor_list, threshold) == expect


@settings(max_examples=80, deadline=None)
@given(nodes=st.integers(1, 6), mu=st.integers(1, 9), trials=st.integers(1, 5),
       density=st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
@example(nodes=3, mu=4, trials=2, density=0.0, seed=0)   # no pair has a survivor
@example(nodes=1, mu=5, trials=1, density=0.2, seed=1)   # one column: P = 1
@example(nodes=4, mu=2, trials=3, density=0.5, seed=2)   # two messages per node
# the batch driver's ragged last batch: 70 trials of 4 receivers, 64 to a batch
@example(nodes=4, mu=8, trials=70 % 64, density=0.1, seed=3)
def test_tally_equals_the_dense_sum_and_argmax(nodes, mu, trials, density, seed):
    # survivors() layout: row j * mu + m, column trial * K + receiver
    p = trials * nodes
    alive = np.random.default_rng(seed).random((nodes * mu, p)) < density
    count, first = sparsecode._tally(alive, mu)
    dense = alive.reshape(nodes, mu, p)
    assert count.shape == first.shape == (p, nodes)
    assert np.array_equal(count, dense.sum(axis=1).T)
    one = count == 1
    assert np.array_equal(first[one], dense.argmax(axis=1).T[one])


def _decode_trial(seed, num_nodes=5, mu=8, q=0.12, m=250):
    rng = np.random.default_rng(seed)
    book = sparsecode.build_message_book(range(num_nodes), mu, q, m)
    msgs = rng.integers(0, mu, size=num_nodes)
    sent = {j: sparsecode.encode(book, j, int(msgs[j])) for j in range(num_nodes)}
    outcomes = {}
    for k in range(num_nodes):
        nbrs = [j for j in range(num_nodes) if j != k]
        obs = _or_observation(sent[k], [sent[j] for j in nbrs])
        outcomes[k] = sparsecode.decode(obs, book, nbrs)
    return msgs, outcomes


@pytest.mark.parametrize("seed", range(5))
def test_noiseless_decode_never_eliminates_the_truth(seed):
    msgs, outcomes = _decode_trial(seed)
    for k, per_neighbor in outcomes.items():
        for j, out in per_neighbor.items():
            assert out.status != sparsecode.ELIMINATED_ALL
            if out.status == sparsecode.DECODED:
                assert out.message == msgs[j]
            else:
                assert msgs[j] in out.candidates


def test_decoding_is_order_independent():
    rng = np.random.default_rng(7)
    book = sparsecode.build_message_book(range(4), 4, 0.2, 120)
    msgs = rng.integers(0, 4, size=4)
    sent = {j: sparsecode.encode(book, j, int(msgs[j])) for j in range(4)}
    obs = _or_observation(sent[0], [sent[1], sent[2], sent[3]])
    fwd = sparsecode.decode(obs, book, [1, 2, 3])
    rev = sparsecode.decode(obs, book, [3, 2, 1])
    assert fwd == rev


def test_longer_frames_only_help():
    # prefix-stable masks: the survivor set at 2M is contained in the one at M
    for seed in range(4):
        rng = np.random.default_rng(seed)
        short = sparsecode.build_message_book(range(4), 8, 0.15, 100)
        long = sparsecode.build_message_book(range(4), 8, 0.15, 300)
        msgs = rng.integers(0, 8, size=4)
        for book_a, book_b in ((short, long),):
            sent_a = {j: sparsecode.encode(book_a, j, int(msgs[j])) for j in range(4)}
            sent_b = {j: sparsecode.encode(book_b, j, int(msgs[j])) for j in range(4)}
            obs_a = _or_observation(sent_a[0], [sent_a[j] for j in (1, 2, 3)])
            obs_b = _or_observation(sent_b[0], [sent_b[j] for j in (1, 2, 3)])
            out_a = sparsecode.decode(obs_a, book_a, [1, 2, 3])
            out_b = sparsecode.decode(obs_b, book_b, [1, 2, 3])
            for j in (1, 2, 3):
                assert out_b[j].candidates <= out_a[j].candidates


def test_experiment_matches_op_level_decode():
    # 70 trials of 4 receivers span a full batch of survivors() and a ragged
    # one; at M = 40 about 1 pair in 8 is ambiguous
    for m in (150, 40):
        _assert_experiment_matches_decode(m)


def _assert_experiment_matches_decode(m):
    num_nodes, mu, q, seed, trials = 4, 8, 0.15, 6, 70
    rep = sparsecode.run_sparsecode_experiment(num_nodes, mu, q, m, trials=trials,
                                               seed=seed)
    records = {r[:3]: r for r in rep.records}
    assert len(records) == len(rep.records) == trials * num_nodes * (num_nodes - 1)
    # replay with the op-level path: same NIAs, same message stream
    nias = [seed * (1 << 32) + i for i in range(num_nodes)]
    book = sparsecode.build_message_book(nias, mu, q, m)
    rng = np.random.default_rng((seed, 0x5C0DE))
    for trial in range(trials):
        msgs = rng.integers(0, mu, size=num_nodes)
        sent = {i: sparsecode.encode(book, nias[i], int(msgs[i]))
                for i in range(num_nodes)}
        for k in range(num_nodes):
            nbr_idx = [i for i in range(num_nodes) if i != k]
            obs = _or_observation(sent[k], [sent[i] for i in nbr_idx])
            out = sparsecode.decode(obs, book, [nias[i] for i in nbr_idx])
            for i in nbr_idx:
                rec = records[trial, k, i]
                assert rec[4] == msgs[i]
                assert rec[3] == out[nias[i]].status
                assert rec[5] == out[nias[i]].message       # None unless decoded


def test_experiment_summary_and_csv():
    rep = sparsecode.run_sparsecode_experiment(4, 8, 0.12, 200, trials=10, seed=2)
    s = rep.summary
    assert s.pairs == 10 * 4 * 3
    assert s.miss_violations == 0
    assert s.decoded_correct + s.ambiguous + s.eliminated_all == s.pairs
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "trial,receiver,neighbor,outcome,true_msg,decoded_msg"
    assert len(lines) == s.pairs + 1


def test_ten_bit_messages_at_small_scale():
    # acceptance operating point, shrunk: all pairs decode at q=0.09, M=512
    rep = sparsecode.run_sparsecode_experiment(10, 1024, 0.09, 512, trials=2, seed=1)
    assert rep.summary.no_miss_rate == 1.0
    assert rep.summary.success_rate >= 0.99


def test_experiment_seed_must_fit_32_bits():
    with pytest.raises(ValueError, match="32 bits"):
        sparsecode.run_sparsecode_experiment(3, 4, 0.2, 64, trials=1, seed=2**32)
    with pytest.raises(ValueError, match="32 bits"):
        sparsecode.run_sparsecode_experiment(3, 4, 0.2, 64, trials=1, seed=-1)
