"""Monte Carlo cross-checks of the closed-form rate expressions.

The per-slot information functional is what the closed forms average
over mask randomness, so the strongest desk-scale check is: derive real
masks, look at what receiver 0 sees slot by slot, and average the
functional over the frame.  End-to-end codebooks are out of scope; the
capacity expressions are checked elsewhere through dominance and
closed-form identities.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis, signatures

MC_TAG_BASE = 1 << 20  # domain tags reserved for validation books
# validate_suite's node counts, OR/Gaussian on-probabilities and linear link SNR
SUITE_KS, SUITE_Q_OR, SUITE_Q_GAUSS, SUITE_GAMMA = (3, 5, 20), 0.3, 0.2, 100.0


@dataclass
class McEstimate:
    mean: float
    std_error: float   # sample std / sqrt(trials)
    trials: int


def _mc_book_matrix(K, q, num_slots, seed):
    """Bit matrix of K freshly derived masks; disjoint NIAs per seed.

    Row j is the mask of NIA seed * 2**32 + j, so the first K rows of a
    larger book are this book.
    """
    nias = signatures._seeded_nias(seed, K)
    return signatures.reconstruct_book(nias, q, num_slots, MC_TAG_BASE).matrix()


def _check_mc_args(K, q, num_slots):
    analysis._check_kq(K, q)
    if num_slots < 1000:
        raise ValueError("Monte Carlo runs need at least 10^3 slots")


def mc_weight_distribution(K, q, num_slots, seed):
    """Empirical distribution of the per-slot on-pattern weight 0..K."""
    _check_mc_args(K, q, num_slots)
    masks = _mc_book_matrix(K, q, num_slots, seed)
    weights = masks.sum(axis=0)
    return np.bincount(weights, minlength=K + 1) / num_slots


def _mc_rate(masks, functional):
    """Slot average of a per-slot rate functional seen by receiver 0.

    Row 0 of the (K, M) `masks` is the receiver.  Each of its off-slots
    contributes functional(n)/(K-1), where n is the realized count of
    transmitting peers; on-slots contribute 0.  The functional is evaluated
    once per count, on the array 0..K-1, and each slot looks its count up.
    """
    K, m = masks.shape
    per_count = functional(np.arange(K, dtype=np.float64)) / (K - 1)
    samples = np.where(masks[0] == 0, per_count[masks[1:].sum(axis=0)], 0.0)
    return McEstimate(mean=float(samples.mean()),
                      std_error=float(samples.std(ddof=1) / math.sqrt(m)),
                      trials=m)


def mc_or_rate(K, q, p, num_slots, seed):
    """Slot-average of the OR-channel rate functional h2(p^n) at silence
    prob p; the mean estimates the un-maximized symmetric rate at p.
    """
    _check_mc_args(K, q, num_slots)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0,1], got {p}")
    return _mc_rate(_mc_book_matrix(K, q, num_slots, seed), lambda n: analysis.h2(p**n))


def mc_gauss_rate(K, q, gamma, num_slots, seed):
    """Gaussian counterpart: off-slots of receiver 0 contribute g(n*gamma/q)."""
    _check_mc_args(K, q, num_slots)
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    return _mc_rate(_mc_book_matrix(K, q, num_slots, seed),
                    lambda n: analysis.g(n * gamma / q))


def erased_fraction(K, q, num_slots, seed):
    """Fraction of receiver 0's slots erased by its own transmissions."""
    _check_mc_args(K, q, num_slots)
    masks = _mc_book_matrix(K, q, num_slots, seed)
    return float(masks[0].mean())


@dataclass
class ValidationRow:
    quantity: str
    analytic: float
    mc_mean: float
    mc_stderr: float
    trials: int

    @property
    def passed(self):
        return abs(self.mc_mean - self.analytic) <= 3.0 * self.mc_stderr


@dataclass
class ValidationReport:
    rows: list = field(default_factory=list)

    @property
    def all_passed(self):
        return all(r.passed for r in self.rows)

    def to_csv(self):
        lines = ["quantity,analytic,mc_mean,mc_stderr,trials,pass"]
        for r in self.rows:
            lines.append(
                f"{r.quantity},{r.analytic:.12g},{r.mc_mean:.12g},"
                f"{r.mc_stderr:.12g},{r.trials},{'PASS' if r.passed else 'FAIL'}"
            )
        return "\n".join(lines) + "\n"


def validate_suite(seed, num_slots=100_000, *, suite="all"):
    """MC-vs-analytic rows for the OR and Gaussian rate functionals.

    The OR checks run at each K's own optimal silence probability; both
    families also verify that the erased-slot fraction matches q within
    binomial noise.
    """
    if suite not in ("all", "or", "gauss"):
        raise ValueError(f"unknown suite {suite!r}")

    def or_family(K):
        r = analysis.or_symmetric_rate(K, SUITE_Q_OR)
        return r.rate, lambda n: analysis.h2(r.p_star**n)

    def gauss_family(K):
        return (analysis.gauss_symmetric_rate(K, SUITE_Q_GAUSS, SUITE_GAMMA).rate,
                lambda n: analysis.g(n * SUITE_GAMMA / SUITE_Q_GAUSS))

    report = ValidationReport()
    for name, q, family in (("or", SUITE_Q_OR, or_family),
                            ("gauss", SUITE_Q_GAUSS, gauss_family)):
        if suite not in ("all", name):
            continue
        _check_mc_args(min(SUITE_KS), q, num_slots)
        book = _mc_book_matrix(max(SUITE_KS), q, num_slots, seed)
        for K in SUITE_KS:
            analytic, functional = family(K)
            est = _mc_rate(book[:K], functional)
            report.rows.append(ValidationRow(
                quantity=f"{name}_rate_K{K}", analytic=analytic,
                mc_mean=est.mean, mc_stderr=est.std_error, trials=est.trials))
        report.rows.append(ValidationRow(
            quantity=f"erased_fraction_{name}", analytic=q, mc_mean=float(book[0].mean()),
            mc_stderr=math.sqrt(q * (1 - q) / num_slots), trials=num_slots))
    return report
