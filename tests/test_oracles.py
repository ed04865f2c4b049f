"""Experiments against their closed forms: statistical oracles.

The other experiment tests compare one code path with another that shares
the channel model; these compare a measured rate with its analytic value,
so a shared modelling error shows up as a bias of several standard errors.
"""

import math

import numpy as np

from rodd import sparsecode


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
