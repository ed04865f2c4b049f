"""Memory guards: the experiment drivers never hold a dense (N*mu, M) book.

tracemalloc sees numpy's array allocations, so a traced peak below the
size of the dense uint8 book shows that no such matrix was allocated.
"""

import tracemalloc

import numpy as np

from rodd import discovery, sparsecode


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


def test_sparsecode_run_stays_below_the_dense_book():
    k, mu, m = 10, 1024, 2048
    dense = k * mu * m                          # 21 MB
    peak = _traced_peak(lambda: sparsecode.run_sparsecode_experiment(
        k, mu, 0.02, m, trials=2, seed=5))
    assert peak < dense, f"traced peak {peak} B, dense book {dense} B"


def test_kernel_head_does_not_outlive_its_index():
    # survivors() keeps its head (the first _HEAD_SLOTS on-slots of every
    # row) on the book's index, so once a run and its book are gone none of
    # it may stay held.  One head here is 16 * 4,061 * 8 B = 520 KB; what a
    # run leaves behind without one (interpreter free lists, numpy's
    # allocation caches) is a few KB and does not grow by a head per run.
    topo, radius = discovery.poisson_discovery_topology(4000, 50, 5)
    head = discovery._HEAD_SLOTS * topo.num_nodes * 8
    held = []
    tracemalloc.start()
    try:
        for _ in range(2):                  # each run derives a fresh book
            discovery.run_discovery_experiment(topo, radius, 2500, 0.02,
                                               receivers=np.arange(4), seed=5)
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert held[0] < head // 8, f"{held[0]} B held after one run, a head is {head} B"
    assert held[1] - held[0] < head // 64, f"held {held} B after each run"
