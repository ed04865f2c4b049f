"""Experiments against their closed forms and against themselves:
statistical oracles and metamorphic relations.

The other experiment tests compare one code path with another that shares
the channel model; the oracles compare a measured rate with its analytic
value, so a shared modelling error shows up as a bias of several standard
errors.  The metamorphic relations rerun a discovery experiment on a
transformed input whose records are known without a reference model.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodd import discovery, signatures, sparsecode


def sparse_code_ambiguity(K, mu, q, M):
    """P(a pair is ambiguous) in the fully connected sparse code.

    A slot is quiet for a receiver when it and its K-1 peers are all off,
    with probability s = (1-q)^K.  Given n quiet slots, each of the mu-1
    wrong messages of a neighbor survives when its mask is off on all of
    them, (1-q)^n, independently.  The sum is over the binomial n, not at
    its mean: by Jensen that would read 0.482 instead of 0.453 below.
    """
    s = (1.0 - q) ** K
    return sum(math.comb(M, n) * s**n * (1.0 - s) ** (M - n)
               * (1.0 - (1.0 - (1.0 - q) ** n) ** (mu - 1)) for n in range(M + 1))


def test_sparse_code_ambiguity_matches_its_closed_form():
    K, mu, q, M, trials, seeds = 10, 64, 0.09, 128, 50, 40
    exact = sparse_code_ambiguity(K, mu, q, M)
    assert round(exact, 4) == 0.4531
    rates = []
    for seed in range(seeds):
        s = sparsecode.run_sparsecode_experiment(K, mu, q, M, trials, seed).summary
        rates.append(s.ambiguous / s.pairs)
    mean = float(np.mean(rates))
    stderr = float(np.std(rates, ddof=1)) / math.sqrt(seeds)
    assert stderr <= 0.1 * exact / 4       # a 10% bias would sit 4 standard errors out
    assert abs(mean - exact) <= 4 * stderr, (mean, stderr, exact)


def expected_false_alarms(num_nodes, degrees, q, M):
    """E[false alarms] of noiseless OR discovery, summed over receivers.

    A non-neighbor of a receiver with d neighbors is eliminated at a slot
    where it is on while the receiver and its d neighbors are off, with
    probability q(1-q)^(d+1), independently over the M slots.
    """
    d = np.asarray(degrees, dtype=np.float64)
    return float(np.sum((num_nodes - 1 - d) * (1.0 - q * (1.0 - q) ** (d + 1)) ** M))


def test_discovery_false_alarms_match_their_closed_form(monkeypatch):
    # discover's book depends on the node indices alone, so every seed would
    # reuse one book and its bias; each seed here derives a fresh book from
    # disjoint NIAs instead
    q, M, seeds = 0.08, 80, 40
    derive = signatures.reconstruct_book
    ratios = []
    for seed in range(seeds):
        monkeypatch.setattr(signatures, "reconstruct_book", lambda nias, *args, seed=seed:
                            derive(signatures._seeded_nias(seed, len(nias)), *args))
        topo, radius = discovery.poisson_discovery_topology(400, 8, seed, area_side=200.0)
        rep = discovery.run_discovery_experiment(topo, radius, M, q, seed=seed)
        expected = expected_false_alarms(topo.num_nodes, [r[1] for r in rep.records], q, M)
        ratios.append(rep.total_false_alarms / expected)
    mean = float(np.mean(ratios))
    stderr = float(np.std(ratios, ddof=1)) / math.sqrt(seeds)
    assert stderr <= 0.1 / 4               # a 10% bias would sit 4 standard errors out
    assert abs(mean - 1.0) <= 4 * stderr, (mean, stderr)


def _small_network(seed):
    # at 6 dB energy mode misses and false-alarms on its noise, unlike OR mode
    return discovery.poisson_discovery_topology(100, 6.0, seed, area_side=100.0, snr_db=6.0)


def _records(topo, radius, mode, seed, receivers=None):
    return discovery.run_discovery_experiment(topo, radius, 120, 0.1, mode, seed=seed,
                                              receivers=receivers).records


MODES = [discovery.OR_NOISELESS, discovery.ENERGY]


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_subset_of_receivers_reads_the_records_of_the_full_run(seed, mode):
    topo, radius = _small_network(seed)
    k = min(40, topo.num_nodes)
    assert _records(topo, radius, mode, seed, np.arange(k)) == \
        _records(topo, radius, mode, seed)[:k]


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shift_seed=st.integers(0, 2**32 - 1))
def test_a_translated_torus_reads_the_same_records(seed, shift_seed, mode):
    topo, radius = _small_network(seed)
    shift = np.random.default_rng(shift_seed).uniform(0.0, topo.area_side, 2)
    moved = dataclasses.replace(topo, positions=(topo.positions + shift) % topo.area_side)
    assert _records(moved, radius, mode, seed) == _records(topo, radius, mode, seed)
