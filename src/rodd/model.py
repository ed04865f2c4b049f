"""Network geometry, link gains and the neighbor relation.

Nodes live on a 2-D square.  The SNR of the link from node j to receiver
k is gamma[k][j] = unit_snr_j * d_kj**(-alpha) * |h_kj|**2; node j is a
neighbor of k when that gain meets the topology's threshold.  The
relation need not be reciprocal once fading is on.
"""

from dataclasses import dataclass

import numpy as np

FADING_MODELS = ("none", "rayleigh")


class EmptyNetworkError(ValueError):
    """Poisson draw produced zero nodes."""


class CoincidentNodesError(ValueError):
    """Two nodes at distance zero: the power-law path loss is singular."""


@dataclass
class Topology:
    positions: np.ndarray          # (K, 2) coordinates in meters
    alpha: float                   # path-loss exponent, >= 2
    unit_snr: np.ndarray           # per-node gamma at unit distance, linear
    fading_model: str              # 'none' (h = 1) or 'rayleigh' (E|h|^2 = 1)
    neighbor_threshold: float      # linear SNR threshold for the neighbor relation
    area_side: float               # side of the square the nodes live on
    torus: bool = False            # wrap distances at the edges; positions in [0, area_side)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("positions must have shape (K, 2)")
        self.unit_snr = np.broadcast_to(
            np.asarray(self.unit_snr, dtype=np.float64), (self.num_nodes,)
        ).copy()
        # written so that NaN fails each check
        if not self.alpha >= 2:
            raise ValueError(f"path-loss exponent must be >= 2, got {self.alpha}")
        if not np.all(self.unit_snr > 0):
            raise ValueError("unit_snr must be positive")
        if not self.neighbor_threshold > 0:
            raise ValueError("neighbor_threshold must be positive")
        if self.fading_model not in FADING_MODELS:
            raise ValueError(f"unknown fading model {self.fading_model!r}")
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
        """Unfaded power gain unit_snr[of] * d**(-alpha) of nodes `of` at
        nodes `at`, broadcast index arrays; inf where a pair coincides or it overflows."""
        with np.errstate(divide="ignore", over="ignore"):
            return self.unit_snr[of] * self._distance(self.positions[at],
                                                      self.positions[of]) ** (-self.alpha)

    def to_text(self):
        """Line-oriented dump: a key=value header, then `index x y unit_snr` lines."""
        fields = [
            f"count={self.num_nodes}",
            f"alpha={float(self.alpha)!r}",
            f"fading={self.fading_model}",
            f"threshold={float(self.neighbor_threshold)!r}",
            f"area_side={float(self.area_side)!r}",
            f"torus={int(self.torus)}",
        ]
        lines = [" ".join(fields)]
        for i, ((x, y), snr) in enumerate(zip(self.positions, self.unit_snr)):
            lines.append(f"{i} {float(x)!r} {float(y)!r} {float(snr)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """Parse to_text() output, or the older dump whose header holds one
        unit_snr for all nodes.  Node indices must be 0..count-1, once each.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = dict(tok.split("=", 1) for tok in lines[0].split())
        count = int(header["count"])
        rows = [ln.split() for ln in lines[1:]]
        index = [int(row[0]) for row in rows]
        if sorted(index) != list(range(count)):
            raise ValueError(f"node lines must carry the indices 0..{count - 1} "
                             f"once each, got {len(rows)} lines")
        width = 2 if "unit_snr" in header else 3
        # ragged or short node lines fail the reshape with a ValueError
        values = np.array([[float(tok) for tok in row[1:]] for row in rows])
        values = values.reshape(count, width)[np.argsort(index)]
        return cls(
            positions=values[:, :2],
            alpha=float(header["alpha"]),
            unit_snr=values[:, 2] if width == 3 else float(header["unit_snr"]),
            fading_model=header["fading"],
            neighbor_threshold=float(header["threshold"]),
            area_side=float(header["area_side"]),
            torus=bool(int(header.get("torus", "0"))),
        )


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
                             fading_model="none", neighbor_threshold=1.0, torus=False):
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
        fading_model=fading_model,
        neighbor_threshold=neighbor_threshold,
        area_side=area_side,
        torus=torus,
    )


def link_gains(topology, seed=None):
    """Per-pair link SNR matrix for the topology.

    Under Rayleigh fading each ordered pair (k, j) gets an independent
    |h|^2 ~ Exponential(1) draw, so gamma[k][j] and gamma[j][k] differ.
    Coincident nodes are rejected rather than clamped: a silent clamp
    would corrupt the SNR statistics.
    """
    _refuse_coincident(topology)
    nodes = np.arange(topology.num_nodes)
    gamma = topology.path_gain(nodes[:, None], nodes)
    if topology.fading_model == "rayleigh":
        rng = np.random.default_rng(seed)
        gamma = gamma * rng.exponential(1.0, size=gamma.shape)
    np.fill_diagonal(gamma, 0.0)
    return LinkGains(gamma=gamma)


def gain_row(topology, k):
    """Row k of link_gains(topology), the gains at receiver k, in O(K log K)
    time without the K x K matrix; coincident nodes and inf gains are refused
    as link_gains refuses them.  Unfaded only: a faded row needs every draw before it."""
    if topology.fading_model != "none":
        raise ValueError(f"gain_row needs an unfaded topology, got {topology.fading_model!r}")
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
