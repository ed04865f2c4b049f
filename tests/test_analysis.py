import math
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from rodd import analysis
from rodd.model import LinkGains


# ---------------------------------------------------------------- oracles

def h2_direct(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def or_rate_direct(K, q, p):
    # plain comb/power evaluation, no log-space tricks
    total = 0.0
    for n in range(1, K):
        total += math.comb(K - 1, n) * q**n * (1 - q) ** (K - n) * h2_direct(p**n)
    return total / (K - 1)


def gauss_rate_direct(K, q, gamma):
    total = 0.0
    for m in range(1, K):
        total += (math.comb(K - 1, m) * q**m * (1 - q) ** (K - m)
                  * 0.5 * math.log2(1 + m * gamma / q))
    return total / (K - 1)


def asym_bound_direct(gamma, q, k):
    # literal subset enumeration via itertools
    K = len(q)
    best = math.inf
    for i in range(K):
        if i == k:
            continue
        others = [j for j in range(K) if j != i]
        rest = [j for j in others if j != k]
        total = 0.0
        for size in range(len(rest) + 1):
            for extra in combinations(rest, size):
                a = set(extra) | {k}
                h = sum(gamma[i][j] / q[j] for j in a)
                prob = 1.0
                for j in others:
                    prob *= q[j] if j in a else 1 - q[j]
                total += gamma[i][k] / (q[k] * h) * 0.5 * math.log2(1 + h) * prob
        best = min(best, (1 - q[i]) * total)
    return best


# The closed-form code as it stood when each objective call took one p and
# the asymmetric bound grew its subset arrays with np.concatenate.  The
# array code must reproduce these floats exactly, not approximately.

def h2_scalar_grid_code(p):
    out = np.zeros_like(p)
    inner = (p > 0) & (p < 1)
    pi = p[inner]
    out[inner] = -pi * np.log2(pi) - (1 - pi) * np.log2(1 - pi)
    return out


def or_objective_scalar_code(K, q):
    n = np.arange(K)
    log_binom = gammaln(K) - gammaln(n + 1) - gammaln(K - 1 - n + 1)
    w = np.exp(log_binom + n * math.log(q) + (K - n) * math.log1p(-q))
    n = np.arange(1, K)

    def objective(p):
        return float(np.sum(w[1:] * h2_scalar_grid_code(p**n)))

    return objective


def golden_section_scalar_code(f, lo, hi, tol):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x), b - a


def or_symmetric_rate_scalar_code(K, q):
    f = or_objective_scalar_code(K, q)
    xs = np.linspace(0.0, 1.0, 1001)
    vals = np.array([f(x) for x in xs])
    i = int(np.argmax(vals))
    p_star, best, width = golden_section_scalar_code(
        f, xs[max(i - 1, 0)], xs[min(i + 1, 1000)], 1e-9)
    return best / (K - 1), p_star, width


def asym_bound_concatenate_code(gamma, q, k):
    K = len(q)
    best = math.inf
    for i in range(K):
        if i == k:
            continue
        rest = [j for j in range(K) if j != i and j != k]
        h = np.array([gamma[i, k] / q[k]])
        prob = np.array([q[k]])
        for j in rest:
            h = np.concatenate([h, h + gamma[i, j] / q[j]])
            prob = np.concatenate([prob * (1.0 - q[j]), prob * q[j]])
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(h > 0, gamma[i, k] / (q[k] * h) * (0.5 * np.log2(1.0 + h))
                             * prob, 0.0)
        best = min(best, (1.0 - q[i]) * float(np.sum(terms)))
    return best


# The per-node asymmetric bound and the scalar water-level bisection as they
# stood before both became views over batch kernels (the threaded listener
# pass and the lockstep bisection).  Those kernels must give these bits.

def asym_bound_doubling_code(gains, q, k):
    q = np.asarray(q, dtype=np.float64)
    K = gains.num_nodes
    best = math.inf
    h = np.empty(2 ** (K - 2))
    prob = np.empty(2 ** (K - 2))
    for i in range(K):
        if i == k:
            continue
        rest = [j for j in range(K) if j != i and j != k]
        h[0] = gains.gamma[i, k] / q[k]
        prob[0] = q[k]
        s = 1
        for j in rest:
            np.add(h[:s], gains.gamma[i, j] / q[j], out=h[s:2 * s])
            np.multiply(prob[:s], q[j], out=prob[s:2 * s])
            prob[:s] *= 1.0 - q[j]
            s *= 2
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(h > 0, gains.gamma[i, k] / (q[k] * h) * analysis.g(h) * prob,
                             0.0)
        rate_i = (1.0 - q[i]) * float(np.sum(terms))
        best = min(best, rate_i)
    return best


def solve_water_level_bisection_code(K, q, gamma):
    w_full = analysis._binomial_weights(K, np.arange(1, K), K, q)

    def lhs(v):
        return float(np.sum(w_full * analysis._power_levels(K, v)) / K)
    lo, hi = 1.0, 2.0
    for _ in range(200):
        if lhs(hi) >= gamma:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise analysis.WaterLevelBracketError(
            f"no bracket for K={K} q={q} gamma={gamma}: lhs({hi:g}) = "
            f"{lhs(hi):g} still below gamma"
        )
    target = analysis.WATER_RESIDUAL_REL * gamma
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = lhs(mid)
        if abs(val - gamma) <= target:
            return mid
        if val < gamma:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def hexes(values):
    return [float(v).hex() for v in values]


# ------------------------------------------------------------- entropy, g

def test_h2_milestones():
    assert analysis.h2(0.5) == pytest.approx(1.0, abs=1e-15)
    assert analysis.h2(0.0) == 0.0
    assert analysis.h2(1.0) == 0.0
    # frozen from h2_direct(0.25)
    assert analysis.h2(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)
    assert analysis.h2(0.25) == pytest.approx(h2_direct(0.25), abs=1e-15)


def test_h2_rejects_outside_unit_interval():
    with pytest.raises(ValueError):
        analysis.h2(-0.01)
    with pytest.raises(ValueError):
        analysis.h2(1.01)


@pytest.mark.parametrize("p", [math.nan, np.array([0.5, math.nan])])
def test_h2_refuses_nan(p):
    with pytest.raises(ValueError, match="h2"):
        analysis.h2(p)


@pytest.mark.parametrize("x", [math.nan, np.array([1.0, math.nan])])
def test_g_refuses_nan(x):
    with pytest.raises(ValueError, match="g argument"):
        analysis.g(x)


def test_g_milestones():
    assert analysis.g(0.0) == 0.0
    assert analysis.g(1.0) == pytest.approx(0.5)
    assert analysis.g(3.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        analysis.g(-1.0)


# ------------------------------------------------------------- OR channel

def test_or_rate_k2_is_q_times_one_minus_q():
    for q in (0.1, 0.3, 0.5, 0.9):
        res = analysis.or_symmetric_rate(2, q)
        assert res.rate == pytest.approx(q * (1 - q), abs=1e-9)
    assert analysis.or_symmetric_rate(2, 0.5).p_star == pytest.approx(0.5, abs=1e-6)
    assert analysis.or_symmetric_rate(2, 0.5).rate == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize("K,q", [(3, 0.2), (5, 0.5), (7, 0.13), (20, 0.05)])
def test_or_rate_at_p_matches_direct_sum(K, q):
    for p in (0.1, 0.5, 0.9, 0.99):
        assert analysis.or_rate_at_p(K, q, p) == pytest.approx(
            or_rate_direct(K, q, p), rel=1e-12)


def test_or_rate_at_p_boundaries_are_zero():
    assert analysis.or_rate_at_p(5, 0.3, 0.0) == 0.0
    assert analysis.or_rate_at_p(5, 0.3, 1.0) == 0.0
    assert analysis.or_rate_at_p(2, 0.5, 0.5) == pytest.approx(0.25, abs=1e-12)


def test_or_capacity_closed_form():
    assert analysis.or_symmetric_capacity(2, 0.5).rate == pytest.approx(0.25, abs=1e-12)
    assert analysis.or_symmetric_capacity(7, 1e-9).rate == pytest.approx(0.0, abs=1e-8)
    # sum capacity approaches 1 - q for many nodes
    assert 500 * analysis.or_symmetric_capacity(500, 0.1).rate == pytest.approx(
        0.9, rel=0.01)


def test_or_asymptotic_sum_rate():
    q = 0.1
    sums = []
    for K in (50, 100, 200, 400):
        p = 2.0 ** (-1.0 / ((K - 1) * q))
        sums.append(K * analysis.or_rate_at_p(K, q, p))
    assert all(a <= b + 1e-12 for a, b in zip(sums, sums[1:]))
    assert sums[-1] == pytest.approx(0.9, rel=0.05)


def test_rate_maximum_beats_fixed_p():
    for K, q in ((3, 0.3), (10, 0.1)):
        best = analysis.or_symmetric_rate(K, q).rate
        for p in np.linspace(0.01, 0.99, 23):
            assert best >= analysis.or_rate_at_p(K, q, p) - 1e-12


def test_or_validation_errors():
    with pytest.raises(ValueError):
        analysis.or_symmetric_rate(1, 0.5)
    with pytest.raises(ValueError):
        analysis.or_symmetric_rate(3, 0.0)


@pytest.mark.parametrize("K", [2.5, 3.0, True, np.bool_(True), "3", None])
def test_node_count_must_be_an_integer(K):
    for call in (analysis.or_symmetric_rate, analysis.or_symmetric_capacity,
                 lambda K, q: analysis.or_rate_at_p(K, q, 0.5),
                 lambda K, q: analysis.gauss_symmetric_rate(K, q, 10.0),
                 lambda K, q: analysis.gauss_symmetric_capacity(K, q, 10.0)):
        with pytest.raises(ValueError, match="K must be an integer"):
            call(K, 0.3)


def test_numpy_integer_node_counts_are_accepted():
    for K in (np.int64(5), np.int32(5), np.uint8(5)):
        assert analysis.or_symmetric_rate(K, 0.3) == analysis.or_symmetric_rate(5, 0.3)
        assert analysis.gauss_symmetric_capacity(K, 0.3, 10.0) == \
            analysis.gauss_symmetric_capacity(5, 0.3, 10.0)


def test_log_factorial_table_is_gammaln_bit_for_bit():
    top = 10**6
    assert np.array_equal(analysis._log_factorials(top), gammaln(np.arange(top + 1) + 1.0))


def test_log_factorial_table_keeps_its_bits_as_it_grows():
    analysis._log_factorials.cache_clear()
    for top in (0, 3, 11, 12, 13, 998, 999, 1000, 5000, 20):
        table = analysis._log_factorials(top)
        assert len(table) == top + 1 and not table.flags.writeable
        assert np.array_equal(table, gammaln(np.arange(top + 1) + 1.0))


def test_lgam_branch_above_1e8_is_gammaln_bit_for_bit():
    # the table never reaches 10^8 here (it would take 800 MB), so the
    # Stirling-only branch is checked at single points around its edge
    x = np.array([1e8 - 1, 1e8, 1e8 + 1, 1e8 + 12345, 3e9, 123456789012.0, 2.0**53])
    assert np.array_equal(analysis._lgam_at_integers(x), gammaln(x))


open_q = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
# q at the edges of (0, 1) too, where the nonzero-weight window of n moves
edge_q = st.one_of(open_q, st.sampled_from([1e-300, 1e-9, 0.01, 0.99, 1 - 1e-9]))


@settings(max_examples=25, deadline=None)
@given(K=st.integers(2, 2000), q=open_q, others=st.lists(edge_q, max_size=3))
@example(K=2, q=0.5, others=[])
@example(K=300, q=1e-300, others=[0.5])
@example(K=300, q=0.01, others=[1 - 1e-9, 1e-300])
@example(K=2000, q=0.5, others=[0.01])
def test_array_objective_equals_the_scalar_code_at_every_grid_point(K, q, others):
    # the grid stage alone and as one row of a batch whose other rows have
    # other nonzero-weight windows
    xs = np.linspace(0.0, 1.0, 1001)
    scalar = or_objective_scalar_code(K, q)
    expected = [scalar(x) for x in xs]
    assert analysis._or_grid(K, [q])[0].tolist() == expected
    assert analysis._or_grid(K, [*others, q, 0.5])[len(others)].tolist() == expected
    objective = analysis._or_objective(K, q)
    assert [objective(x) for x in xs[::50]] == expected[::50]
    assert analysis.or_rate_at_p(K, q, 0.3) == scalar(0.3) / (K - 1)


@settings(max_examples=12, deadline=None)
@given(K=st.integers(2, 2000), qs=st.lists(edge_q, min_size=1, max_size=3))
@example(K=2000, qs=[1e-300, 0.5, 1 - 1e-9])
@example(K=2000, qs=[0.01, 0.99])
@example(K=3, qs=[1e-9, 0.02])
def test_sweep_or_rates_equal_the_one_q_scalar_code(K, qs):
    # one grid stage serves every q of a K, bit for bit
    rates = [row.rodd_sum_rate for row in analysis.sweep_or([K], qs).rows]
    assert rates == [K * or_symmetric_rate_scalar_code(K, q)[0] for q in qs]


@settings(max_examples=25, deadline=None)
@given(K=st.integers(2, 300), q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(K=2, q=0.5)
@example(K=3, q=0.02)
def test_or_rate_equals_the_per_point_grid_maximizer(K, q):
    res = analysis.or_symmetric_rate(K, q)
    assert (res.rate, res.p_star, res.residual) == or_symmetric_rate_scalar_code(K, q)


def test_or_rate_grid_memory_is_bounded_at_large_k():
    tracemalloc.start()
    try:
        res = analysis.or_symmetric_rate(20000, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # frozen from or_symmetric_rate_scalar_code(20000, 0.3)
    assert res.rate == 3.500033465761407e-05
    assert peak <= 16 * 2**20


# ------------------------------------------------------------------ ALOHA

def test_aloha_throughput_values():
    K = 3
    assert analysis.or_aloha_throughput(K, 1 / K) == pytest.approx(4 / 9, abs=1e-12)
    for K in (2, 10, 100):
        assert analysis.or_aloha_throughput(K, 1 / K) == pytest.approx(
            (1 - 1 / K) ** (K - 1), abs=1e-12)
    assert analysis.or_aloha_throughput(1000, 1e-3) == pytest.approx(
        1 / math.e, abs=1e-3)


def test_aloha_maximizer_near_one_over_k():
    grid = np.arange(1, 10_000) * 1e-4
    for K in (5, 20, 100):
        t = analysis.or_aloha_throughput(K, grid)
        best = grid[np.argmax(t)]
        assert abs(best - 1 / K) <= 1e-4 + 1e-12


@pytest.mark.parametrize("K", [2.5, 3.0, True, "3", None])
def test_aloha_node_count_must_be_an_integer(K):
    for call in (lambda K: analysis.or_aloha_throughput(K, 0.3),
                 lambda K: analysis.gauss_aloha_throughput(K, 0.3, 10.0)):
        with pytest.raises(ValueError, match="K must be an integer"):
            call(K)


def test_aloha_allows_one_node_and_refuses_none():
    # a lone node always gets through when it transmits
    assert analysis.or_aloha_throughput(1, 0.3) == 0.3
    assert analysis.or_aloha_throughput(np.int64(1), [0.2, 0.3]).tolist() == [0.2, 0.3]
    with pytest.raises(ValueError, match="at least 1 node"):
        analysis.or_aloha_throughput(0, 0.3)


def test_gauss_aloha():
    assert analysis.gauss_aloha_throughput(2, 0.5, 200.0) == pytest.approx(
        0.5 * analysis.g(400.0), rel=1e-12)
    assert analysis.gauss_aloha_throughput(5, 0.2, 1e-15) < 1e-10


# ------------------------------------------------------------ Gaussian MAC

def test_gauss_rate_hand_point():
    res = analysis.gauss_symmetric_rate(2, 0.5, 1.0)
    # 0.25 * g(2) = 0.125 * log2(3)
    assert res.rate == pytest.approx(0.19812031259014452, abs=1e-12)


@pytest.mark.parametrize("K,q,gamma", [(3, 0.2, 1.0), (5, 0.5, 10.0), (20, 0.1, 100.0)])
def test_gauss_rate_matches_direct_sum(K, q, gamma):
    assert analysis.gauss_symmetric_rate(K, q, gamma).rate == pytest.approx(
        gauss_rate_direct(K, q, gamma), rel=1e-12)


def test_gauss_rate_high_snr_slope():
    # every active-slot term grows as 0.5*log2(gamma); the per-node rate
    # therefore climbs with slope 0.5 * P(receiver listens, somebody
    # transmits) / (K-1), computed here from plain binomial sums
    K, q = 5, 0.2
    active = sum(math.comb(K - 1, m) * q**m * (1 - q) ** (K - m)
                 for m in range(1, K))
    expected = 0.5 * active / (K - 1)
    r1 = analysis.gauss_symmetric_rate(K, q, 1e6).rate
    r2 = analysis.gauss_symmetric_rate(K, q, 1e12).rate
    slope = (r2 - r1) / (math.log2(1e12) - math.log2(1e6))
    assert slope == pytest.approx(expected, rel=1e-6)


def test_water_level_hand_point():
    v = analysis.solve_water_level(2, 0.5, 1.0)
    assert v == pytest.approx(5.0, abs=1e-6)
    assert abs(analysis.waterfill_lhs(2, 0.5, v) - 1.0) <= 1e-9


def test_water_level_zero_power_limit():
    assert analysis.solve_water_level(4, 0.3, 1e-12) == pytest.approx(1.0, abs=1e-4)


def test_water_levels_nonincreasing_in_weight():
    v = analysis.solve_water_level(8, 0.3, 5.0)
    levels = analysis._power_levels(8, v)
    assert all(a >= b - 1e-12 for a, b in zip(levels, levels[1:]))


def test_waterfill_lhs_monotone():
    for v in (1.5, 3.0, 10.0):
        assert analysis.waterfill_lhs(6, 0.4, v + 1e-3) >= analysis.waterfill_lhs(
            6, 0.4, v)


@pytest.mark.parametrize("K,q,v,message", [
    (5, 0.3, math.nan, "water level v must be finite"),
    (5, 0.3, math.inf, "water level v must be finite"),
    (2.5, 0.3, 3.0, "K must be an integer"),
    (True, 0.3, 3.0, "K must be an integer"),
    (1, 0.3, 3.0, "at least 2 node"),
    (5, 1.0, 3.0, "q must lie strictly inside"),
])
def test_waterfill_lhs_refuses_what_the_solver_refuses(K, q, v, message):
    with pytest.raises(ValueError, match=message):
        analysis.waterfill_lhs(K, q, v)


def test_gauss_capacity_hand_point():
    res = analysis.gauss_symmetric_capacity(2, 0.5, 1.0)
    # 0.25 * g(4) = 0.125 * log2(5)
    assert res.rate == pytest.approx(0.2902410118609203, abs=1e-12)
    assert res.v_star == pytest.approx(5.0, abs=1e-6)
    assert res.residual <= 1e-9
    assert res.rate > analysis.gauss_symmetric_rate(2, 0.5, 1.0).rate


def test_gauss_capacity_dominates_rate_over_q_sweep():
    for q in np.linspace(0.02, 0.98, 25):
        c = analysis.gauss_symmetric_capacity(20, q, 100.0).rate
        r = analysis.gauss_symmetric_rate(20, q, 100.0).rate
        assert c >= r - 1e-9


_q_grids = st.lists(st.floats(1e-6, 1.0, exclude_max=True), max_size=60)


@settings(max_examples=60, deadline=None)
@given(K=st.integers(2, 120), qs=_q_grids,
       gamma=st.sampled_from([1e-12, 1e-3, 1.0, 10.0, 1e6, 1e12, 1e200]))
@example(K=2, qs=[0.5], gamma=1.0)
@example(K=20, qs=[0.02 * i for i in range(1, 50)], gamma=1e12)
@example(K=3, qs=[], gamma=1.0)
@example(K=2, qs=[0.5, 0.3], gamma=1e200)
def test_water_levels_are_the_bits_of_the_scalar_bisection(K, qs, gamma):
    # large gamma grows the bracket far beyond its first [1, 2]; past 200
    # doublings the first q without a bracket is named, as its solve names it
    expected = []
    for q in qs:
        try:
            expected.append(solve_water_level_bisection_code(K, q, gamma).hex())
        except analysis.WaterLevelBracketError as exc:
            with pytest.raises(analysis.WaterLevelBracketError) as got:
                analysis._water_levels(K, qs, gamma)
            assert str(got.value) == str(exc)
            with pytest.raises(analysis.WaterLevelBracketError, match=str(q)):
                analysis.solve_water_level(K, q, gamma)
            return
    assert hexes(analysis._water_levels(K, qs, gamma)) == expected
    assert hexes(analysis.solve_water_level(K, q, gamma) for q in qs) == expected


def test_water_levels_run_in_blocks_of_weights(monkeypatch):
    # a block of at most _BLOCK_ELEMENTS weights bounds the lockstep arrays;
    # each q still gets the bits of its own solve
    qs = [0.013 * i for i in range(1, 70)]
    expected = hexes(solve_water_level_bisection_code(9, q, 50.0) for q in qs)
    for block in (8, 40, 2**15):
        monkeypatch.setattr(analysis, "_BLOCK_ELEMENTS", block)
        assert hexes(analysis._water_levels(9, qs, 50.0)) == expected


def test_water_level_bracket_failure_names_the_first_q():
    # q = 1e-300 leaves the left side near 1e-240 at the last bracket, 2^201
    qs = [0.3, 1e-300, 2e-300]
    with pytest.raises(analysis.WaterLevelBracketError) as got:
        analysis._water_levels(5, qs, 1.0)
    with pytest.raises(analysis.WaterLevelBracketError) as want:
        solve_water_level_bisection_code(5, 1e-300, 1.0)
    assert str(got.value) == str(want.value)
    assert "q=1e-300 " in str(got.value)


def test_gauss_sweep_capacity_is_the_capacity_at_each_point():
    qs = [0.02 * i for i in range(1, 50)]
    table = analysis.sweep_gauss([3, 20], qs, 100.0)
    assert [r.rodd_sum_capacity for r in table.rows] == [
        K * analysis.gauss_symmetric_capacity(K, q, 100.0).rate for K in (3, 20) for q in qs]


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_gamma_must_be_finite(gamma):
    calls = (lambda: analysis.gauss_symmetric_rate(5, 0.3, gamma),
             lambda: analysis.gauss_symmetric_capacity(5, 0.3, gamma),
             lambda: analysis.gauss_aloha_throughput(5, 0.3, gamma),
             lambda: analysis.solve_water_level(5, 0.3, gamma))
    for call in calls:
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            call()


# ------------------------------------------------------- asymmetric bound

def test_asym_bound_collapses_to_symmetric():
    for K in (2, 3, 5):
        for q in (0.2, 0.5):
            for gamma in (1.0, 100.0):
                gains = LinkGains(gamma=gamma * (np.ones((K, K)) - np.eye(K)))
                bound = analysis.asymmetric_rate_bound(gains, np.full(K, q), 0)
                assert bound == pytest.approx(
                    analysis.gauss_symmetric_rate(K, q, gamma).rate, abs=1e-9)


def test_asym_bound_matches_itertools_oracle():
    rng = np.random.default_rng(3)
    K = 4
    gamma = rng.uniform(0.5, 20.0, size=(K, K))
    np.fill_diagonal(gamma, 0.0)
    q = rng.uniform(0.1, 0.6, size=K)
    for k in range(K):
        assert analysis.asymmetric_rate_bound(LinkGains(gamma=gamma), q, k) == \
            pytest.approx(asym_bound_direct(gamma.tolist(), q.tolist(), k), rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(K=st.integers(2, 9), seed=st.integers(0, 2**32 - 1),
       zero_share=st.sampled_from([0.0, 0.3, 1.0]))
@example(K=2, seed=0, zero_share=0.0)
@example(K=2, seed=1, zero_share=1.0)
def test_asym_bound_equals_the_concatenate_code(K, seed, zero_share):
    rng = np.random.default_rng(seed)
    gamma = 10.0 ** rng.uniform(-2.0, 4.0, size=(K, K))
    gamma[rng.random((K, K)) < zero_share] = 0.0
    np.fill_diagonal(gamma, 0.0)
    q = rng.uniform(0.01, 0.99, size=K)
    gains = LinkGains(gamma=gamma)
    for k in range(K):
        assert analysis.asymmetric_rate_bound(gains, q, k) == \
            asym_bound_concatenate_code(gamma, q, k)


def _asym_instance(K, seed, zero_rows, zero_cols, scale):
    rng = np.random.default_rng(seed)
    gamma = 10.0 ** rng.uniform(-2.0, 4.0, size=(K, K)) * scale
    gamma[list(zero_rows)] = 0.0
    gamma[:, list(zero_cols)] = 0.0
    np.fill_diagonal(gamma, 0.0)
    return LinkGains(gamma=gamma), rng.uniform(0.01, 0.99, size=K)


@settings(max_examples=60, deadline=None)
@given(K=st.integers(2, 10), seed=st.integers(0, 2**32 - 1),
       zero_rows=st.sets(st.integers(0, 9), max_size=3),
       zero_cols=st.sets(st.integers(0, 9), max_size=3),
       scale=st.sampled_from([1.0, 1e-300, 1e300, 1e304]))
@example(K=2, seed=0, zero_rows=set(), zero_cols=set(), scale=1.0)
@example(K=5, seed=1, zero_rows={0, 1, 2, 3, 4}, zero_cols=set(), scale=1.0)
@example(K=6, seed=2, zero_rows={1}, zero_cols={0}, scale=1e304)
def test_asym_bounds_are_the_bits_of_the_doubling_code(K, seed, zero_rows, zero_cols,
                                                       scale):
    # zero rows make every rate of a listener 0, zero columns silence a
    # transmitter; at scale 1e304 subset sums overflow and rates turn NaN
    gains, q = _asym_instance(K, seed, {r for r in zero_rows if r < K},
                              {c for c in zero_cols if c < K}, scale)
    with np.errstate(over="ignore"):
        expected = hexes(asym_bound_doubling_code(gains, q, k) for k in range(K))
        for workers in (1, 3):
            with mock.patch.object(analysis, "_WORKERS", workers):
                assert hexes(analysis.asymmetric_rate_bounds(gains, q, range(K))) == expected
        assert hexes(analysis.asymmetric_rate_bound(gains, q, k) for k in range(K)) == expected
        assert hexes(analysis.asymmetric_rate_bounds(gains, q, [K - 1, 0, K - 1])) == \
            [expected[-1], expected[0], expected[-1]]


def test_asym_bounds_skip_nan_listeners_as_the_doubling_code_does():
    # listener 0 hears every node at gain 1e308: its subset sums overflow,
    # its rates are NaN, and the min keeps the other listeners' rates
    K = 4
    gamma = 10.0 * (np.ones((K, K)) - np.eye(K))
    gamma[0, 1:] = 1e308
    gains, q = LinkGains(gamma=gamma), np.full(K, 0.3)
    with np.errstate(over="ignore"):
        assert math.isnan(analysis._listener_rates(gains.gamma, q, 0, [1])[0])
        bounds = analysis.asymmetric_rate_bounds(gains, q, range(K))
        assert hexes(bounds) == hexes(asym_bound_doubling_code(gains, q, k) for k in range(K))
    assert all(math.isfinite(b) for b in bounds)
    # the listener threads run under the caller's errstate
    for call in (asym_bound_doubling_code, analysis.asymmetric_rate_bound):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            call(gains, q, 1)


def test_asym_bound_threads_share_a_buffer_budget(monkeypatch):
    # each thread holds two 2^(K-2) float64 arrays; the budget caps the pool
    pools = []
    real = analysis.ThreadPoolExecutor
    monkeypatch.setattr(analysis, "ThreadPoolExecutor",
                        lambda workers: pools.append(workers) or real(workers))
    monkeypatch.setattr(analysis, "_WORKERS", 3)
    gains, q = _asym_instance(6, 4, set(), set(), 1.0)
    expected = hexes(asym_bound_doubling_code(gains, q, k) for k in range(6))
    for budget, workers in ((2**20, 3), (2 * 16 * 16, 2), (100, 1)):
        monkeypatch.setattr(analysis, "_SUBSET_BUFFER_BYTES", budget)
        assert hexes(analysis.asymmetric_rate_bounds(gains, q, range(6))) == expected
        assert pools.pop() == workers


def test_asym_bounds_refuse_a_node_out_of_range():
    gains, q = _asym_instance(3, 0, set(), set(), 1.0)
    with pytest.raises(ValueError, match="node index 3 out of range"):
        analysis.asymmetric_rate_bounds(gains, q, [0, 3])


def test_asym_bound_vanishes_when_a_listener_never_listens():
    K = 3
    gains = LinkGains(gamma=10.0 * (np.ones((K, K)) - np.eye(K)))
    q = np.array([0.3, 1 - 1e-9, 0.3])
    assert analysis.asymmetric_rate_bound(gains, q, 0) < 1e-7


def test_asym_bound_needs_a_listener():
    gains = LinkGains(gamma=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="K=1"):
        analysis.asymmetric_rate_bound(gains, np.array([0.3]), 0)


def test_asym_bound_node_cap():
    K = 26
    gains = LinkGains(gamma=np.ones((K, K)) - np.eye(K))
    with pytest.raises(ValueError):
        analysis.asymmetric_rate_bound(gains, np.full(K, 0.3), 0)


# ------------------------------------------------------------------ sweeps

def test_sweep_or_dominance_and_shape():
    qs = [0.02 * i for i in range(1, 50)]
    table = analysis.sweep_or([3, 5, 20], qs)
    assert len(table.rows) == 147
    for row in table.rows:
        assert row.rodd_sum_rate >= row.aloha - 1e-12
        assert row.rodd_sum_capacity >= row.rodd_sum_rate - 1e-12


def test_sweep_gauss_dominance():
    qs = [0.05 * i for i in range(1, 20)]
    table = analysis.sweep_gauss([3, 5, 20], qs, 100.0)
    for row in table.rows:
        assert row.rodd_sum_rate >= row.aloha - 1e-9
        assert row.rodd_sum_capacity >= row.rodd_sum_rate - 1e-9


def test_sweeps_refuse_the_first_bad_q_after_k():
    # a q grid is checked in order, after K, before any rate is computed
    with pytest.raises(ValueError, match=r"\(0,1\), got 1\.5$"):
        analysis.sweep_or([3], [0.2, 1.5, -1.0])
    with pytest.raises(ValueError, match=r"\(0,1\), got 0\.0$"):
        analysis.sweep_gauss([3], [0.2, 0.0], 10.0)
    with pytest.raises(ValueError, match="got K=1"):
        analysis.sweep_or([1], [2.0])


@settings(max_examples=15, deadline=None)
@given(K=st.integers(2, 40), q=st.floats(0.01, 0.99), gamma_db=st.floats(-20.0, 40.0))
def test_rate_within_capacity_and_above_aloha_on_random_points(K, q, gamma_db):
    # the CLI --check rule and tolerance, on both channels
    rows = (analysis.sweep_or([K], [q]).rows
            + analysis.sweep_gauss([K], [q], 10.0 ** (gamma_db / 10.0)).rows)
    for row in rows:
        assert row.rodd_sum_capacity >= row.rodd_sum_rate - 1e-9
        assert row.rodd_sum_rate >= row.aloha - 1e-9


def test_sweep_csv_format():
    csv = analysis.sweep_or([2], [0.5]).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "K,q,gamma,rodd_sum_rate,rodd_sum_capacity,aloha"
    assert lines[1].startswith("2,0.5,,")
    csv_g = analysis.sweep_gauss([2], [0.5], 100.0).to_csv()
    assert csv_g.strip().split("\n")[1].startswith("2,0.5,100,")


def test_large_k_stays_finite():
    res = analysis.or_symmetric_rate(500, 0.3)
    assert math.isfinite(res.rate) and res.rate > 0
    assert math.isfinite(analysis.gauss_symmetric_rate(500, 0.3, 100.0).rate)
    assert math.isfinite(analysis.gauss_symmetric_capacity(500, 0.3, 100.0).rate)
