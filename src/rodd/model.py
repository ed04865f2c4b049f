"""Network geometry and link gains.

Nodes live on a 2-D square.  The SNR of the link from node j to receiver
k is gamma[k][j] = unit_snr * d_kj**(-alpha), power-law path loss with
one SNR at unit distance.  The neighbor relation is a radius, the one
query of discovery.neighbor_lists; the topology's neighbor_threshold is
the gain at that radius, which scales the tuned energy threshold.
"""

from dataclasses import dataclass

import numpy as np


class EmptyNetworkError(ValueError):
    """Poisson draw produced zero nodes."""


class CoincidentNodesError(ValueError):
    """Two nodes at distance zero: the power-law path loss is singular."""


@dataclass
class Topology:
    positions: np.ndarray          # (K, 2) coordinates in meters
    alpha: float                   # path-loss exponent, >= 2
    unit_snr: float                # gamma at unit distance, linear
    neighbor_threshold: float      # gain at the neighbor radius; scales the energy threshold
    area_side: float               # side of the square the nodes live on
    torus: bool = False            # wrap distances at the edges; positions in [0, area_side)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("positions must have shape (K, 2)")
        self.unit_snr = float(self.unit_snr)
        # written so that NaN fails each check
        if not self.alpha >= 2:
            raise ValueError(f"path-loss exponent must be >= 2, got {self.alpha}")
        if not self.unit_snr > 0:
            raise ValueError("unit_snr must be positive")
        if not self.neighbor_threshold > 0:
            raise ValueError("neighbor_threshold must be positive")
        if not 0 < self.area_side < np.inf:
            raise ValueError(f"area_side must be positive and finite, got {self.area_side}")
        low, high = (0, self.area_side) if self.torus else (-np.inf, np.inf)
        bad = ~(np.isfinite(self.positions) & (self.positions >= low) & (self.positions < high))
        if bad.any():
            raise ValueError(f"position of node {bad.any(axis=1).argmax()} must be finite"
                             + (" and in [0, area_side) on a torus" if self.torus else ""))

    @property
    def num_nodes(self):
        return self.positions.shape[0]

    def receivers(self, which=None):
        """The node indices `which` (default every node) as a 1-D int64
        array; a bool, a float, a nested list or an index outside [0, K)
        is refused."""
        n = self.num_nodes
        which = np.arange(n) if which is None else np.asarray(which)
        if which.ndim != 1 or which.size and not (which.dtype.kind in "iu" and 0 <= which.min()
                                                  and which.max() < n):
            raise ValueError(f"receivers must be a list of node indices in [0, {n})")
        return which.astype(np.int64)

    def _distance(self, a, b):
        """Distance between broadcast point arrays, minimum-image when torus is on."""
        diff = np.abs(a - b)
        if self.torus:
            diff = np.minimum(diff, self.area_side - diff)
        return np.sqrt(np.sum(diff**2, axis=-1))

    def path_gain(self, at, of):
        """Power gain unit_snr * d**(-alpha) of nodes `of` at nodes `at`,
        broadcast index arrays; inf where a pair coincides or it overflows."""
        with np.errstate(divide="ignore", over="ignore"):
            return self.unit_snr * self._distance(self.positions[at],
                                                  self.positions[of]) ** (-self.alpha)


@dataclass
class LinkGains:
    """The per-pair SNR matrix of an asym gains file; gamma[k][j] is the
    gain from j at receiver k.

    Diagonal entries are meaningless and left at zero; no consumer reads them.
    """

    gamma: np.ndarray  # (K, K), finite and nonnegative off the diagonal

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        if self.gamma.ndim != 2 or self.gamma.shape[0] != self.gamma.shape[1]:
            raise ValueError("gamma must be a square matrix")
        off_diag = self.gamma[~np.eye(self.gamma.shape[0], dtype=bool)]
        if not np.all(np.isfinite(off_diag)):
            raise ValueError("link gains must be finite")
        if np.any(off_diag < 0):
            raise ValueError("link gains must be nonnegative")

    @property
    def num_nodes(self):
        return self.gamma.shape[0]


def generate_poisson_network(area_side, density, seed, *, alpha=4.0, unit_snr=1.0,
                             neighbor_threshold=1.0, torus=False):
    """Draw a Poisson network over a square of the given side.

    The node count is Poisson(density * area_side**2) and positions are
    i.i.d. uniform over the square.  Pure function of the seed.
    """
    if not area_side > 0:
        raise ValueError("area_side must be positive")
    if not density >= 0:
        raise ValueError("density must be nonnegative")
    rng = np.random.default_rng(seed)
    count = rng.poisson(density * area_side**2)
    if count == 0:
        raise EmptyNetworkError(
            f"Poisson draw produced zero nodes (mean {density * area_side**2:g})"
        )
    positions = rng.uniform(0.0, area_side, size=(count, 2))
    return Topology(
        positions=positions,
        alpha=alpha,
        unit_snr=unit_snr,
        neighbor_threshold=neighbor_threshold,
        area_side=area_side,
        torus=torus,
    )


def gain_row(topology, k):
    """The gain of every node at receiver k, 0 at k itself, in O(K log K)
    time.  Coincident nodes are refused rather than clamped, as is an inf
    gain: either would corrupt the SNR statistics."""
    k = topology.receivers([k])[0]
    _refuse_coincident(topology)
    gamma = topology.path_gain(k, np.arange(topology.num_nodes))
    gamma[k] = 0.0
    if not np.all(np.isfinite(gamma)):
        raise ValueError("link gains must be finite")
    return gamma


def _refuse_coincident(topology):
    """Refuse fewer than 2 nodes, or two at distance zero, naming the first pair
    in row order.  Positions are finite, and in [0, L) on a torus, so such a pair
    has equal coordinates and is adjacent in the (x, y, index) order."""
    if topology.num_nodes < 2:
        raise ValueError("link gains need at least 2 nodes")
    x, y = topology.positions.T
    order = np.lexsort((np.arange(len(x)), y, x))
    tie = np.flatnonzero((x[order[1:]] == x[order[:-1]]) & (y[order[1:]] == y[order[:-1]]))
    if tie.size:
        i = tie[np.argmin(order[tie])]
        raise CoincidentNodesError(f"nodes {order[i]} and {order[i + 1]} are at distance zero")
