import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from rodd import analysis, validate


def test_weight_distribution_two_nodes():
    hist = validate.mc_weight_distribution(2, 0.5, 100_000, seed=1)
    for weight, expect in enumerate((0.25, 0.5, 0.25)):
        sigma = math.sqrt(expect * (1 - expect) / 100_000)
        assert abs(hist[weight] - expect) <= 3 * sigma


def test_weight_distribution_concentrates_at_k_for_large_q():
    hist = validate.mc_weight_distribution(5, 0.999, 10_000, seed=2)
    assert hist[5] > 0.99


def test_weight_distribution_total_variation():
    K, q, m = 20, 0.3, 100_000
    hist = validate.mc_weight_distribution(K, q, m, seed=3)
    pmf = binom.pmf(np.arange(K + 1), K, q)
    assert 0.5 * np.abs(hist - pmf).sum() < 0.01


def test_mc_inputs_validated():
    with pytest.raises(ValueError):
        validate.mc_or_rate(5, 0.3, 0.5, 100, seed=1)  # too few slots
    with pytest.raises(ValueError):
        validate.mc_or_rate(1, 0.3, 0.5, 10_000, seed=1)
    with pytest.raises(ValueError):
        validate.mc_or_rate(5, 0.3, 1.5, 10_000, seed=1)


@pytest.mark.parametrize("K", [3, 5, 20])
def test_mc_or_rate_tracks_closed_form(K):
    q = 0.3
    p = analysis.or_symmetric_rate(K, q).p_star
    est = validate.mc_or_rate(K, q, p, 100_000, seed=3)
    assert abs(est.mean - analysis.or_rate_at_p(K, q, p)) <= 3 * est.std_error


def test_mc_or_rate_zero_at_p_zero():
    est = validate.mc_or_rate(5, 0.3, 0.0, 10_000, seed=4)
    assert est.mean == 0.0 and est.std_error == 0.0


def test_std_error_scales_with_slot_count():
    a = validate.mc_or_rate(5, 0.3, 0.6, 20_000, seed=5)
    b = validate.mc_or_rate(5, 0.3, 0.6, 40_000, seed=5)
    ratio = a.std_error / b.std_error
    assert math.sqrt(2) * 0.92 <= ratio <= math.sqrt(2) * 1.08


@pytest.mark.parametrize("K", [3, 5, 20])
def test_mc_gauss_rate_tracks_closed_form(K):
    q, gamma = 0.2, 100.0
    est = validate.mc_gauss_rate(K, q, gamma, 100_000, seed=3)
    assert abs(est.mean - analysis.gauss_symmetric_rate(K, q, gamma).rate) \
        <= 3 * est.std_error


def test_mc_gauss_zero_snr():
    est = validate.mc_gauss_rate(5, 0.3, 0.0, 10_000, seed=6)
    assert est.mean == 0.0


def test_mc_gauss_two_node_hand_point():
    est = validate.mc_gauss_rate(2, 0.5, 1.0, 100_000, seed=7)
    assert abs(est.mean - 0.19812031259014452) <= 3 * est.std_error


def mc_rate_per_slot_code(masks, functional):
    # the slot average as it stood when the functional ran on every slot
    K, m = masks.shape
    n = masks[1:].sum(axis=0).astype(np.float64)
    samples = np.where(masks[0] == 0, functional(n), 0.0) / (K - 1)
    return samples.mean(), samples.std(ddof=1) / math.sqrt(m)


@settings(max_examples=60, deadline=None)
@given(K=st.integers(2, 20), m=st.integers(1, 300), share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), p=st.floats(0.0, 1.0),
       gamma=st.floats(0.0, 1e4), q=st.floats(0.01, 1.0))
@example(K=2, m=1, share=0.5, seed=0, p=0.5, gamma=1.0, q=0.5)
@example(K=20, m=300, share=1.0, seed=1, p=0.0, gamma=0.0, q=1.0)
@example(K=5, m=300, share=0.0, seed=2, p=1.0, gamma=1e4, q=0.01)
def test_mc_rate_evaluates_per_count_to_the_bits_of_the_per_slot_code(K, m, share, seed,
                                                                       p, gamma, q):
    masks = (np.random.default_rng(seed).random((K, m)) < share).astype(np.uint8)
    for functional in (lambda n: analysis.h2(p**n), lambda n: analysis.g(n * gamma / q)):
        with warnings.catch_warnings():   # one slot has no sample std: nan on both sides
            warnings.simplefilter("ignore", RuntimeWarning)
            est = validate._mc_rate(masks, functional)
            expected = mc_rate_per_slot_code(masks, functional)
        assert np.array([est.mean, est.std_error]).tobytes() == np.array(expected).tobytes()
        assert est.trials == m


def test_mc_estimates_converge_across_seeds():
    # |mean - oracle| <= 3 stderr should hold for ~99% of seeds
    K, q, p, m = 5, 0.3, 0.6, 4_000
    oracle = analysis.or_rate_at_p(K, q, p)
    misses = 0
    for seed in range(100):
        est = validate.mc_or_rate(K, q, p, m, seed=seed)
        misses += abs(est.mean - oracle) > 3 * est.std_error
    assert misses <= 3


def test_erased_fraction_tracks_q():
    q, m = 0.3, 100_000
    frac = validate.erased_fraction(5, q, m, seed=8)
    assert abs(frac - q) <= 3 * math.sqrt(q * (1 - q) / m)


def test_suite_report_format_and_pass():
    rep = validate.validate_suite(seed=3, num_slots=50_000)
    assert rep.all_passed
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "quantity,analytic,mc_mean,mc_stderr,trials,pass"
    assert len(lines) == 9
    assert all(line.endswith(",PASS") for line in lines[1:])
    only_or = validate.validate_suite(seed=3, num_slots=10_000, suite="or")
    assert all(r.quantity.startswith(("or_", "erased_fraction_or"))
               for r in only_or.rows)


def test_suite_rows_match_the_op_level_estimators():
    # the suite derives one book per family at max(Ks) and slices it; the
    # first K rows are the K-mask book, so every row is bit-identical
    m, seed = 5_000, 3
    rows = {r.quantity: r for r in validate.validate_suite(seed, m).rows}
    for K in (3, 5, 20):
        p = analysis.or_symmetric_rate(K, 0.3).p_star
        for name, est in ((f"or_rate_K{K}", validate.mc_or_rate(K, 0.3, p, m, seed)),
                          (f"gauss_rate_K{K}",
                           validate.mc_gauss_rate(K, 0.2, 100.0, m, seed))):
            assert (rows[name].mc_mean, rows[name].mc_stderr) == (est.mean, est.std_error)
    assert rows["erased_fraction_or"].mc_mean == validate.erased_fraction(20, 0.3, m, seed)
    assert rows["erased_fraction_gauss"].mc_mean == validate.erased_fraction(5, 0.2, m, seed)


def test_mc_seed_must_fit_32_bits():
    with pytest.raises(ValueError, match="32 bits"):
        validate.mc_or_rate(5, 0.3, 0.5, 10_000, seed=2**32)
