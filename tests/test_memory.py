"""Memory guards: the experiment drivers and the op-level readers of a
book never hold a dense (N*mu, M) book.

tracemalloc sees numpy's array allocations, so a traced peak below the
size of the dense uint8 book shows that no such matrix was allocated.
"""

import functools
import tracemalloc

import numpy as np

from rodd import channels, discovery, model, signatures, sparsecode


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_discovery_run_stays_below_the_dense_book():
    topo, radius = discovery.poisson_discovery_topology(4000, 50, 5)
    m = 2500
    dense = topo.num_nodes * m                  # 10 MB at about 4,000 nodes
    peak = _traced_peak(lambda: discovery.run_discovery_experiment(
        topo, radius, m, 0.02, receivers=np.arange(4), seed=5))
    assert peak < dense, f"traced peak {peak} B, dense book {dense} B"


def test_neighbor_query_at_every_receiver_stays_below_the_dense_book():
    # the cell grid gathers candidates for a bounded block of receivers at
    # a time; all of them at once would hold about 100 per receiver
    topo, radius = discovery.poisson_discovery_topology(10000, 50, 5)
    dense = topo.num_nodes * 2500               # 25 MB at about 10,000 nodes
    peak = _traced_peak(lambda: discovery.neighbor_lists(topo, radius))
    assert peak < dense, f"traced peak {peak} B, dense book {dense} B"


def test_sparsecode_run_stays_below_the_dense_book():
    k, mu, m = 10, 1024, 2048
    dense = k * mu * m                          # 21 MB
    peak = _traced_peak(lambda: sparsecode.run_sparsecode_experiment(
        k, mu, 0.02, m, trials=2, seed=5))
    assert peak < dense, f"traced peak {peak} B, dense book {dense} B"


def _record(own, rows):
    """The OR record of the dense 0/1 `rows` at a receiver that sends `own`,
    indexed apart from any book."""
    return channels.receive(own, signatures.SignatureBook(range(len(rows)), rows),
                            range(len(rows)))


def test_eliminate_stays_below_the_dense_book():
    # the whole book is screened through its own index, built in the call
    topo, radius = discovery.poisson_discovery_topology(4000, 50, 5)
    m = 2500
    book = signatures.reconstruct_book(range(topo.num_nodes), 0.02, m)
    nbrs = discovery.neighbor_lists(topo, radius, [0])[0]
    obs = _record(book.unpacked(0), book.unpacked(nbrs))
    dense = topo.num_nodes * m                  # 10 MB at about 4,000 nodes
    peak = _traced_peak(lambda: discovery.eliminate(obs, 0, book))
    assert peak < dense, f"traced peak {peak} B, dense book {dense} B"


def test_eliminate_default_candidates_copy_nothing_of_the_index():
    # the default list (every NIA but the receiver's) is screened over the
    # book's own index; a cut of it would copy about 4.3 MB of on-slots
    # and packed words per call on this 10,000-node book, and peak at 12 MB
    topo, radius = discovery.poisson_discovery_topology(10000, 50, 5)
    book = signatures.reconstruct_book(range(topo.num_nodes), 0.02, 2500)
    nbrs = discovery.neighbor_lists(topo, radius, [0])[0]
    obs = _record(book.unpacked(0), book.unpacked(nbrs))
    discovery.eliminate(obs, 0, book)
    peak = _traced_peak(lambda: discovery.eliminate(obs, 0, book))
    assert peak < 2 * 2**20, f"traced peak {peak} B for a warm default call"


def test_decode_stays_below_the_dense_book():
    k, mu, m = 10, 1024, 2048
    book = sparsecode.build_message_book(range(k), mu, 0.02, m)
    sent = np.arange(k) * mu + 7
    obs = _record(book.unpacked(sent[0]), book.unpacked(sent[1:]))
    dense = k * mu * m                          # 21 MB
    peak = _traced_peak(lambda: sparsecode.decode(obs, book, list(range(1, k))))
    assert peak < dense, f"traced peak {peak} B, dense book {dense} B"


def test_decode_of_a_short_list_scales_with_the_list():
    # once the book's index is built, decoding one neighbor screens only
    # its mu rows, not the whole book: less than one byte per book row
    k, mu, m = 1000, 64, 256
    book = sparsecode.build_message_book(range(k), mu, 0.02, m)
    obs = _record(book.unpacked(7), book.unpacked([mu + 3]))
    sparsecode.decode(obs, book, [1])
    peak = _traced_peak(lambda: sparsecode.decode(obs, book, [1]))
    assert peak < k * mu, f"traced peak {peak} B for {k * mu} book rows"


def test_op_level_readers_build_the_book_index_once(monkeypatch):
    # observe_discovery, eliminate and decode read the book's on-slot
    # index, built on the first call and kept, and never index dense rows
    # themselves
    calls = {}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return f(*args, **kwargs)
        return wrapper
    for name in ("starts", "slots"):
        built = functools.cached_property(counted(f"book.{name}",
                                                  getattr(signatures.SignatureBook, name).func))
        built.__set_name__(signatures.SignatureBook, name)
        monkeypatch.setattr(signatures.SignatureBook, name, built)
    init = signatures.SignatureBook.__init__

    def init_from_bits(book, nias, bits=None, *args, **kwargs):
        if bits is not None:
            calls["SignatureBook(bits)"] = calls.get("SignatureBook(bits)", 0) + 1
        init(book, nias, bits, *args, **kwargs)
    monkeypatch.setattr(signatures.SignatureBook, "__init__", init_from_bits)

    k = 6
    topo = model.Topology(positions=np.arange(k)[:, None] * [1.0, 0.0], alpha=4.0,
                          unit_snr=10.0 * k**4, neighbor_threshold=10.0, area_side=2.0 * k)
    book = signatures.reconstruct_book(range(k), 0.2, 120)
    for mode in (discovery.OR_NOISELESS, discovery.ENERGY):
        for receiver in range(k):
            obs = discovery.observe_discovery(topo, float(k), receiver, book, mode, seed=3)
            discovery.eliminate(obs, receiver, book, threshold=5.0)
    assert calls == {"book.starts": 1, "book.slots": 1}

    calls.clear()
    messages = sparsecode.build_message_book(range(k), 4, 0.2, 120)
    sent = np.arange(k) * 4 + np.arange(k) % 4
    for receiver in range(k):
        obs = channels.receive(messages.unpacked(sent[receiver]), messages,
                               np.delete(sent, receiver))
        sparsecode.decode(obs, messages, [j for j in range(k) if j != receiver])
    assert calls == {"book.starts": 1, "book.slots": 1}


def test_book_index_takes_two_bytes_per_on_slot():
    # every slot of an M = 2,500 frame is below 2**16
    book = signatures.reconstruct_book(range(300), 0.02, 2500)
    assert book.slots.itemsize == 2
    assert book.head[1].dtype == book.slots.dtype


def test_energy_block_holds_three_words_per_heard_on_bit():
    # one 64-receiver energy block holds its (B, M) float64 record and about
    # three 8-byte words per on-bit its receivers hear (gather positions,
    # keys, terms); a dense (B, M) temporary beside the record breaks this
    topo, radius = discovery.poisson_discovery_topology(4000, 50, 5)
    book = signatures.reconstruct_book(range(topo.num_nodes), 0.02, 2500)
    chunk = np.arange(64)
    lists = discovery.neighbor_lists(topo, radius, chunk)
    sizes, nbrs = list(map(len, lists)), np.concatenate(lists)
    gains = topo.path_gain(np.repeat(chunk, sizes), nbrs)
    erased = book.unpacked(chunk).view(bool)
    on_bits = int(np.diff(book.starts)[nbrs].sum())
    book.slots                                  # the index is built untraced
    for noise_var in (0.0, 1.0):
        peak = _traced_peak(lambda: channels.receive_block(
            erased, book, nbrs, sizes, gains, noise_var, [(5, k) for k in chunk]))
        bound = 3 * 8 * on_bits + 8 * erased.size
        assert peak <= bound, f"traced peak {peak} B for {on_bits} heard on-bits"


def test_kernel_head_does_not_outlive_its_index():
    # survivors() keeps its head (the first _HEAD_SLOTS on-slots of every
    # row) on the book's index, so once a run and its book are gone none of
    # it may stay held.  One head here is 16 * 4,061 * 2 B = 130 KB; what a
    # run leaves behind without one (interpreter free lists, numpy's
    # allocation caches) is a few KB and does not grow by a head per run.
    topo, radius = discovery.poisson_discovery_topology(4000, 50, 5)
    head = signatures._HEAD_SLOTS * topo.num_nodes * 2
    held = []
    tracemalloc.start()
    try:
        for _ in range(2):                  # each run derives a fresh book
            discovery.run_discovery_experiment(topo, radius, 2500, 0.02,
                                               receivers=np.arange(4), seed=5)
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert held[0] < head // 2, f"{held[0]} B held after one run, a head is {head} B"
    assert held[1] - held[0] < head // 16, f"held {held} B after each run"
