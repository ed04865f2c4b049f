"""Closed-form throughput and capacity of on-off duplex signaling.

All rates are in bits per slot, logarithms base 2 throughout.  Symmetric
network of K mutual neighbors, masks i.i.d. Bernoulli(q):

* OR-channel, signature-independent codes (rate):
    R = max_p 1/(K-1) * sum_{n=1..K-1} C(K-1,n) q^n (1-q)^(K-n) H2(p^n)
  where p is the probability a transmitting node sends a 0 (silence)
  and H2 is the binary entropy function.
* OR-channel, signature-dependent codes (capacity):
    C = [(1-q) - (1-q)^K] / (K-1)
* Gaussian channel, rate:
    R = 1/(K-1) * sum_m C(K-1,m) q^m (1-q)^(K-m) g(m*gamma/q)
  with g(x) = 0.5*log2(1+x); per-slot SNR is gamma/q because a node
  spends its unit power budget over ~qM on-slots.
* Gaussian channel, capacity: same sum with g(w_m), where the per-weight
  power levels w_m = max((K-m)/(K-1)*v - 1, 0) share a single water
  level v fixed by the average-power constraint
    1/K * sum_m C(K,m) q^m (1-q)^(K-m) w_m = gamma.

The ALOHA baselines live here too, under the frame-level collision
model: a broadcast succeeds iff it is the only transmission in the
contention period.

Binomial-weighted sums are evaluated from log-space terms so that K in
the hundreds stays finite and accurate.
"""

import contextvars
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

GOLDEN_TOL = 1e-9
WATER_RESIDUAL_REL = 1e-9
SUBSET_ENUM_MAX_NODES = 25
# Largest (points x terms) block a batch evaluates at once: memory stays
# bounded at large K, and each 256 KiB temporary stays in cache.
_BLOCK_ELEMENTS = 2**15
# Threads of the asymmetric bound: one per CPU this process may use.  Each
# holds two 2^(K-2) float64 subset arrays; together they stay within
# _SUBSET_BUFFER_BYTES (one thread always runs), so large K uses fewer.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_SUBSET_BUFFER_BYTES = 2**25
# Subset terms formed per pass over the subset arrays: the scratch of a
# pass stays at 512 KiB per array at any K.
_TERM_CHUNK = 2**16

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID = np.linspace(0.0, 1.0, 1001)


class WaterLevelBracketError(RuntimeError):
    """Bisection bracket for the water level failed to expand."""


@dataclass
class RateResult:
    """A rate in bits/slot plus optimizer metadata.

    p_star is set only for the signature-independent OR rate, v_star
    only for the Gaussian capacity; residual reports the final optimizer
    or solver tolerance.
    """

    rate: float
    p_star: float = None
    v_star: float = None
    residual: float = None


@dataclass
class SweepRow:
    K: int
    q: float
    gamma: float          # None for OR-channel rows
    rodd_sum_rate: float
    rodd_sum_capacity: float
    aloha: float


@dataclass
class SweepTable:
    rows: list

    CSV_HEADER = "K,q,gamma,rodd_sum_rate,rodd_sum_capacity,aloha"

    def to_csv(self):
        lines = [self.CSV_HEADER]
        for r in self.rows:
            gamma = "" if r.gamma is None else f"{r.gamma:.12g}"
            lines.append(
                f"{r.K},{r.q:.12g},{gamma},{r.rodd_sum_rate:.12g},"
                f"{r.rodd_sum_capacity:.12g},{r.aloha:.12g}"
            )
        return "\n".join(lines) + "\n"


def h2(p):
    """Binary entropy in bits, with 0*log0 = 0.  Accepts scalars or arrays."""
    p = np.asarray(p, dtype=np.float64)
    if not np.all((p >= 0) & (p <= 1)):
        raise ValueError("h2 argument must lie in [0, 1]")
    out = np.zeros_like(p)
    inner = (p > 0) & (p < 1)
    pi = p[inner]
    out[inner] = -pi * np.log2(pi) - (1 - pi) * np.log2(1 - pi)
    return float(out) if out.ndim == 0 else out


def g(x):
    """Gaussian-channel rate function 0.5*log2(1+x), x = SNR (linear)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x >= 0):
        raise ValueError("g argument must be nonnegative")
    out = 0.5 * np.log2(1.0 + x)
    return float(out) if out.ndim == 0 else out


def _check_kq(K, *qs, least=2):
    """Refuse a K that is not an integer >= least, then the first q outside
    (0,1); return K as a Python int, so numpy integers cannot wrap later."""
    if isinstance(K, bool) or not isinstance(K, (int, np.integer)):
        raise ValueError(f"K must be an integer node count, got {K!r}")
    if K < least:
        raise ValueError(f"need at least {least} node(s), got K={K}")
    for q in qs:
        if not (0.0 < q < 1.0):
            raise ValueError(f"q must lie strictly inside (0,1), got {q}")
    return int(K)


def _check_gamma(gamma):
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")


# cephes lgam's Stirling corrections in 1/x^2 (np.polyval order) below
# x = 1000 and from there on, and log(sqrt(2 pi))
_LGAM_SMALL = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
               7.93650340457716943945e-4, -2.77777777730099687205e-3,
               8.33333333333331927722e-2)
_LGAM_LARGE = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
               0.0833333333333333333333)
_LS2PI = 0.91893853320467274178


def _lgam_at_integers(x):
    """scipy.special.gammaln at the integer-valued floats x >= 1, bit for bit.

    Follows the integer branches of cephes lgam (Moshier), the code behind
    gammaln: log of the exact factorial below 13, from there the Stirling
    series (x - 0.5) log x - x + log sqrt(2 pi) with a 5-term correction
    below 1000, a 3-term one from 1000 and none above 1e8.  Each log is
    math.log, the C library's log that cephes calls: numpy's SIMD np.log,
    like math.lgamma, differs from it in the last bit at some integers, and
    CSV bytes would move.
    """
    out = (x - 0.5) * np.array([math.log(v) for v in x.tolist()]) - x + _LS2PI
    p = 1.0 / (x * x)
    tail = np.where(x < 1000.0, np.polyval(_LGAM_SMALL, p), np.polyval(_LGAM_LARGE, p)) / x
    out = np.where(x > 1e8, out, out + tail)
    small = x < 13.0
    out[small] = [math.log(math.factorial(int(v) - 1)) for v in x[small]]
    return out


@functools.lru_cache
def _log_factorials(top):
    """log(i!) for i = 0..top, which is gammaln(i + 1) bit for bit: one
    read-only table per top, kept for the next call with that top."""
    table = _lgam_at_integers(np.arange(top + 1) + 1.0)
    table.flags.writeable = False
    return table


def _binomial_weights(top, n, K, q):
    """C(top, n) q^n (1-q)^(K-n) over the array n, via log-space terms."""
    lf = _log_factorials(top)
    log_binom = lf[top] - lf[n] - lf[top - n]
    log_w = log_binom + n * math.log(q) + (K - n) * math.log1p(-q)
    return np.exp(log_w)


def _pattern_weights(K, q):
    """w[n] = C(K-1,n) q^n (1-q)^(K-n) for n = 0..K-1.

    This is the probability that a given receiver listens while exactly n
    of its K-1 peers transmit.
    """
    return _binomial_weights(K - 1, np.arange(K), K, q)


def _or_objective(K, q):
    """p -> sum_{n=1..K-1} w[n] H2(p^n) at a scalar p."""
    w = _pattern_weights(K, q)[1:]
    n = np.arange(1, K)
    return lambda p: float(np.sum(w * h2(p**n)))


def or_rate_at_p(K, q, p):
    """Un-maximized OR-channel symmetric rate at silence probability p."""
    K = _check_kq(K, q)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0,1], got {p}")
    return _or_objective(K, q)(p) / (K - 1)


def or_symmetric_rate(K, q):
    """Symmetric rate of the OR-channel (signature-independent codes)."""
    return _or_rates(K, [q])[0]


def _or_rates(K, qs):
    """or_symmetric_rate at each q of qs: the maximum on _GRID locates the
    mode, then a refinement confined to its neighbours, which a spurious
    local mode elsewhere cannot capture, finds it."""
    K = _check_kq(K, *qs)
    return [_or_refine(K, q, int(np.argmax(row))) for q, row in zip(qs, _or_grid(K, qs))]


def _or_grid(K, qs):
    """The OR objective at each point of _GRID, one row per q of qs.

    h2(p^n) does not depend on q: each block of at most _BLOCK_ELEMENTS
    terms evaluates it once, at the n where some q's weight is nonzero.
    Each q sums its whole row of K-1 terms, 0.0 where h2 was skipped: the
    array the scalar objective sums, so each grid value is the same float.
    """
    w = np.array([_pattern_weights(K, q)[1:] for q in qs]).reshape(len(qs), K - 1)
    live = np.flatnonzero(w.any(axis=0))
    rows = max(1, _BLOCK_ELEMENTS // (K - 1))
    h = np.zeros((rows, K - 1))
    out = np.empty((len(qs), len(_GRID)))
    for s in range(0, len(_GRID), rows):
        p = _GRID[s:s + rows, None]
        h[:len(p), live] = h2(p ** (live + 1))
        for j in range(len(qs)):
            out[j, s:s + len(p)] = np.sum(w[j] * h[:len(p)], axis=1)
    return out


def _or_refine(K, q, i):
    """Golden-section search for the OR objective's maximum between the
    grid points either side of _GRID[i]; the rate there."""
    f = _or_objective(K, q)
    a, b = _GRID[max(i - 1, 0)], _GRID[min(i + 1, len(_GRID) - 1)]
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > GOLDEN_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return RateResult(rate=f(x) / (K - 1), p_star=x, residual=b - a)


def or_symmetric_capacity(K, q):
    """Symmetric capacity of the OR-channel (signature-dependent codes)."""
    K = _check_kq(K, q)
    c = ((1.0 - q) - (1.0 - q) ** K) / (K - 1)
    return RateResult(rate=c)


def or_aloha_throughput(K, q):
    """Sum throughput of slotted ALOHA broadcast over the 1-bit alphabet.

    K*q*(1-q)^(K-1): a node's frame goes through iff nobody else
    transmits in the contention period.  Vectorized over q.
    """
    K = _check_kq(K, least=1)
    q = np.asarray(q, dtype=np.float64)
    if not np.all((q >= 0) & (q <= 1)):     # written so that NaN fails it
        raise ValueError("q must lie in [0,1]")
    out = K * q * (1.0 - q) ** (K - 1)
    return float(out) if out.ndim == 0 else out


def gauss_aloha_throughput(K, q, gamma):
    """ALOHA sum throughput over the Gaussian channel: winner gets g(gamma/q)."""
    _check_gamma(gamma)
    if np.any(np.asarray(q) <= 0):
        raise ValueError(f"q must be positive: the winner's SNR gamma/q needs it, got {q}")
    return or_aloha_throughput(K, q) * g(gamma / q)


def gauss_symmetric_rate(K, q, gamma):
    """Symmetric rate of the Gaussian channel (signature-independent codes)."""
    K = _check_kq(K, q)
    _check_gamma(gamma)
    return RateResult(rate=_mean_rate(K, q, np.arange(1, K) * gamma / q))


def _mean_rate(K, q, snr):
    """1/(K-1) * sum_{m=1..K-1} w[m] g(snr[m-1]): the rate g at the per-weight
    SNR, averaged over the on-patterns a listener hears."""
    return float(np.sum(_pattern_weights(K, q)[1:] * g(snr)) / (K - 1))


def _power_levels(K, v):
    m = np.arange(1, K)
    return np.maximum((K - m) / (K - 1) * v - 1.0, 0.0)


def waterfill_lhs(K, q, v):
    """Average allocated power at water level v (left side of the constraint)."""
    K = _check_kq(K, q)
    if not math.isfinite(v):
        raise ValueError(f"water level v must be finite, got {v}")
    w_full = _binomial_weights(K, np.arange(1, K), K, q)
    return float(np.sum(w_full * _power_levels(K, v)) / K)


def solve_water_level(K, q, gamma):
    """Water level v >= 0 meeting the average-power constraint.

    The left side is 0 for v <= 1 and continuous, strictly increasing
    beyond, so a bracketed bisection from v = 1 with geometric upper
    growth always converges.  Residual tolerance is relative to gamma.
    """
    return float(_water_levels(K, [q], gamma)[0])


def _water_levels(K, qs, gamma):
    """solve_water_level at each q of qs, the bisections run in lockstep
    over blocks of at most _BLOCK_ELEMENTS weights.  Each q keeps its own
    bracket growth, early exit and 200-step fallback, so its level is the
    float that a solve of that q alone gives."""
    K = _check_kq(K, *qs)
    _check_gamma(gamma)
    rows = max(1, _BLOCK_ELEMENTS // (K - 1))
    return np.concatenate([np.empty(0)] + [_bisect_levels(K, qs[s:s + rows], gamma)
                                           for s in range(0, len(qs), rows)])


def _bisect_levels(K, qs, gamma):
    # one row of weights per q, each from the scalar log-space formula
    w = np.array([_binomial_weights(K, np.arange(1, K), K, q) for q in qs])

    def lhs(at, v):
        return np.sum(w[at] * _power_levels(K, v[:, None]), axis=1) / K

    lo, hi = np.ones(len(qs)), np.full(len(qs), 2.0)
    at = np.arange(len(qs))           # the rows still growing their bracket
    for _ in range(200):
        at = at[~(lhs(at, hi[at]) >= gamma)]
        if not at.size:
            break
        lo[at] = hi[at]
        hi[at] *= 2.0
    else:
        r = at[0]
        raise WaterLevelBracketError(
            f"no bracket for K={K} q={qs[r]} gamma={gamma}: lhs({hi[r]:g}) = "
            f"{lhs(at[:1], hi[at[:1]])[0]:g} still below gamma"
        )
    target = WATER_RESIDUAL_REL * gamma
    levels = np.empty(len(qs))
    at = np.arange(len(qs))           # the rows still bisecting
    for _ in range(200):
        mid = 0.5 * (lo[at] + hi[at])
        val = lhs(at, mid)
        done = np.abs(val - gamma) <= target
        levels[at[done]] = mid[done]
        at, mid, val = at[~done], mid[~done], val[~done]
        below = val < gamma
        lo[at[below]] = mid[below]
        hi[at[~below]] = mid[~below]
        if not at.size:
            break
    levels[at] = 0.5 * (lo[at] + hi[at])
    return levels


def gauss_symmetric_capacity(K, q, gamma):
    """Symmetric capacity of the Gaussian channel (signature-dependent codes).

    Codebook power adapts to the per-slot pattern weight; the weight-m
    level w_m comes from the shared water level.
    """
    K = _check_kq(K, q)
    v = solve_water_level(K, q, gamma)
    return RateResult(rate=_mean_rate(K, q, _power_levels(K, v)), v_star=v,
                      residual=abs(waterfill_lhs(K, q, v) - gamma))


def asymmetric_rate_bound(gains, q, k):
    """The asymmetric_rate_bounds of node k alone: a one-node view."""
    return asymmetric_rate_bounds(gains, q, [k])[0]


def asymmetric_rate_bounds(gains, q, nodes):
    """Achievable rate of each node of `nodes` under per-node
    on-probabilities q, as a list.

    gains.gamma[i][j] is the SNR of node j's signal at receiver i.  For
    every listener i != k the rate of node k is a sum over all
    transmitter subsets A containing k (drawn from everyone but i),
    weighted by the probability of that on-pattern; k's bound is the
    minimum over listeners.  K is capped at SUBSET_ENUM_MAX_NODES.

    The listeners run on a pool of threads; each forms its rates for
    every node in one set of subset arrays.  A node's bound is the
    Python min over listeners in index order, so NaN rates and ties
    resolve as in a loop over listeners.
    """
    q = np.asarray(q, dtype=np.float64)
    K = gains.num_nodes
    if K < 2:
        raise ValueError(f"the bound needs a listener besides node k: K={K} < 2")
    if q.shape != (K,):
        raise ValueError(f"need one q per node, got shape {q.shape} for K={K}")
    if np.any((q <= 0) | (q >= 1)):
        raise ValueError("all q must lie strictly inside (0,1)")
    if K > SUBSET_ENUM_MAX_NODES:
        raise ValueError(
            f"subset enumeration is exponential; K={K} exceeds the cap of "
            f"{SUBSET_ENUM_MAX_NODES}"
        )
    nodes = list(nodes)
    for k in nodes:
        if not (0 <= k < K):
            raise ValueError(f"node index {k} out of range")

    workers = max(1, min(_WORKERS, _SUBSET_BUFFER_BYTES // (16 * 2 ** (K - 2))))
    with ThreadPoolExecutor(workers) as pool:
        # each listener runs in a copy of the caller's context (its errstate)
        rates = [f.result() for f in [
            pool.submit(contextvars.copy_context().run, _listener_rates,
                        gains.gamma, q, i, nodes) for i in range(K)]]
    bounds = []
    for n, k in enumerate(nodes):
        best = math.inf
        for i in range(K):
            if i != k:
                best = min(best, rates[i][n])
        bounds.append(best)
    return bounds


def _listener_rates(gamma, q, i, nodes):
    """Listener i's rate of each node k of `nodes` (None for k == i).

    The subsets A of everyone but i with k in A start from {k} and double
    over the remaining members, the new half being the old one with j
    added: h[A] = sum_{j in A} gamma[i][j] / q[j] and prob[A] the
    on-pattern probability.  prob then becomes the terms
    gamma[i][k] / (q[k] h) * 0.5 log2(1 + h) * prob, 0 where h == 0, in
    chunks, and its sum gives the rate.
    """
    K = len(q)
    h, prob = np.empty(2 ** (K - 2)), np.empty(2 ** (K - 2))
    chunk = min(h.size, _TERM_CHUNK)
    t, u, zero = np.empty(chunk), np.empty(chunk), np.empty(chunk, dtype=bool)
    rates = []
    for k in nodes:
        if k == i:
            rates.append(None)
            continue
        h[0] = gamma[i, k] / q[k]
        prob[0] = q[k]
        s = 1
        for j in range(K):
            if j != i and j != k:
                np.add(h[:s], gamma[i, j] / q[j], out=h[s:2 * s])
                np.multiply(prob[:s], q[j], out=prob[s:2 * s])
                prob[:s] *= 1.0 - q[j]
                s *= 2
        with np.errstate(invalid="ignore", divide="ignore"):
            for lo in range(0, h.size, chunk):
                hc, pc = h[lo:lo + chunk], prob[lo:lo + chunk]
                np.equal(hc, 0.0, out=zero)
                np.multiply(q[k], hc, out=t)
                np.divide(gamma[i, k], t, out=t)
                np.add(1.0, hc, out=u)
                np.log2(u, out=u)
                np.multiply(0.5, u, out=u)
                np.multiply(t, u, out=t)
                np.multiply(t, pc, out=pc)
                np.copyto(pc, 0.0, where=zero)
        rates.append((1.0 - q[i]) * float(np.sum(prob)))
    return rates


def sweep_or(Ks, q_grid):
    """K times the symmetric rate and capacity, and the ALOHA throughput,
    over a (K, q) grid; each K's rates share one grid stage."""
    return SweepTable(rows=[
        SweepRow(K=K, q=q, gamma=None, rodd_sum_rate=K * r.rate,
                 rodd_sum_capacity=K * or_symmetric_capacity(K, q).rate,
                 aloha=or_aloha_throughput(K, q))
        for K in Ks for q, r in zip(q_grid, _or_rates(K, q_grid))])


def sweep_gauss(Ks, q_grid, gamma):
    """Gaussian-channel counterpart of sweep_or at a common SNR; each K's
    water levels are solved over the whole q grid in one call."""
    return SweepTable(rows=[
        SweepRow(K=K, q=q, gamma=gamma,
                 rodd_sum_rate=K * gauss_symmetric_rate(K, q, gamma).rate,
                 rodd_sum_capacity=K * _mean_rate(K, q, _power_levels(K, v)),
                 aloha=gauss_aloha_throughput(K, q, gamma))
        for K in Ks for q, v in zip(q_grid, _water_levels(K, q_grid, gamma))])
