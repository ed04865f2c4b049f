"""Network geometry, link gains and the neighbor relation.

Nodes live on a 2-D square.  The SNR of the link from node j to receiver
k is gamma[k][j] = unit_snr * d_kj**(-alpha), power-law path loss with
one SNR at unit distance; node j is a neighbor of k when that gain meets
the topology's threshold.
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
    neighbor_threshold: float      # linear SNR threshold for the neighbor relation
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
    """Dense per-pair SNR matrix; gamma[k][j] is the gain from j at receiver k.

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


def link_gains(topology):
    """Per-pair link SNR matrix for the topology.

    Coincident nodes are rejected rather than clamped: a silent clamp
    would corrupt the SNR statistics.
    """
    _refuse_coincident(topology)
    nodes = np.arange(topology.num_nodes)
    gamma = topology.path_gain(nodes[:, None], nodes)
    np.fill_diagonal(gamma, 0.0)
    return LinkGains(gamma=gamma)


def gain_row(topology, k):
    """Row k of link_gains(topology), the gains at receiver k, in O(K log K)
    time without the K x K matrix; coincident nodes and inf gains are refused
    as link_gains refuses them."""
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


def neighbors(gains, k, threshold):
    """Nodes whose gain at receiver k meets the threshold; never contains k."""
    if not (0 <= k < gains.num_nodes):
        raise ValueError(f"node index {k} out of range")
    hits = np.flatnonzero(gains.gamma[k] >= threshold)
    return {int(j) for j in hits if j != k}
