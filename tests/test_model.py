import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodd import model


def _two_node_topology(d, alpha=4.0, unit_snr=100.0, fading="none"):
    return model.Topology(
        positions=np.array([[0.0, 0.0], [d, 0.0]]),
        alpha=alpha, unit_snr=unit_snr, fading_model=fading,
        neighbor_threshold=1.0, area_side=10.0 + d,
    )


def test_poisson_count_and_determinism():
    a = model.generate_poisson_network(10.0, 2.0, seed=7)
    b = model.generate_poisson_network(10.0, 2.0, seed=7)
    assert a.num_nodes == b.num_nodes
    assert np.array_equal(a.positions, b.positions)
    assert np.all((a.positions >= 0) & (a.positions <= 10.0))


def test_different_seed_different_network():
    a = model.generate_poisson_network(10.0, 2.0, seed=1)
    b = model.generate_poisson_network(10.0, 2.0, seed=2)
    assert not np.array_equal(a.positions, b.positions)


def test_zero_density_is_an_empty_network():
    with pytest.raises(model.EmptyNetworkError):
        model.generate_poisson_network(1.0, 0.0, seed=3)


def test_bad_area_rejected():
    with pytest.raises(ValueError):
        model.generate_poisson_network(0.0, 1.0, seed=3)
    with pytest.raises(ValueError, match="area_side"):
        model.generate_poisson_network(float("nan"), 1.0, seed=3)
    with pytest.raises(ValueError, match="density"):
        model.generate_poisson_network(1.0, float("nan"), seed=3)


def test_unit_distance_gain_is_unit_snr():
    gains = model.link_gains(_two_node_topology(1.0))
    assert gains.gamma[0, 1] == pytest.approx(100.0)
    assert gains.gamma[1, 0] == pytest.approx(100.0)


def test_power_law_gain():
    # gamma * d**-alpha = 100 / 2**4
    gains = model.link_gains(_two_node_topology(2.0, alpha=4.0, unit_snr=100.0))
    assert gains.gamma[0, 1] == pytest.approx(6.25)


def test_rayleigh_is_seeded_and_non_reciprocal():
    topo = _two_node_topology(1.0, fading="rayleigh")
    a = model.link_gains(topo, seed=11)
    b = model.link_gains(topo, seed=11)
    c = model.link_gains(topo, seed=12)
    assert np.array_equal(a.gamma, b.gamma)
    assert not np.array_equal(a.gamma, c.gamma)
    assert a.gamma[0, 1] != a.gamma[1, 0]


def test_rayleigh_mean_matches_path_loss():
    # E|h|^2 = 1, so the fading-averaged gain is unit_snr * d**-alpha
    topo = model.Topology(
        positions=np.array([[0.0, 0.0], [2.0, 0.0]]), alpha=4.0, unit_snr=100.0,
        fading_model="rayleigh", neighbor_threshold=1.0, area_side=10.0)
    draws = np.array([model.link_gains(topo, seed=s).gamma[0, 1]
                      for s in range(4000)])
    # Exponential(mean 6.25): std error = 6.25 / sqrt(4000)
    assert abs(draws.mean() - 6.25) <= 3 * 6.25 / np.sqrt(4000)


def test_coincident_nodes_rejected():
    topo = model.Topology(
        positions=np.zeros((2, 2)), alpha=4.0, unit_snr=1.0,
        fading_model="none", neighbor_threshold=1.0, area_side=1.0)
    with pytest.raises(model.CoincidentNodesError):
        model.link_gains(topo)


@pytest.mark.parametrize("torus", [False, True])
def test_gain_row_is_the_row_of_link_gains(torus):
    topo = model.generate_poisson_network(30.0, 0.5, seed=4, torus=torus)
    gains = model.link_gains(topo)
    for k in (0, 7, topo.num_nodes - 1):
        assert model.gain_row(topo, k).tobytes() == gains.gamma[k].tobytes()


@pytest.mark.parametrize("scale", [1, 5, 2**18])
def test_gain_row_refuses_any_coincident_pair_as_link_gains_does(scale):
    # the same layout at coordinates scaled from units up to 2^18
    positions = np.arange(12.0).reshape(6, 2) * scale
    positions[4] = positions[2]
    topo = model.Topology(positions=positions, alpha=4.0, unit_snr=1.0,
                          fading_model="none", neighbor_threshold=1.0,
                          area_side=20.0 * scale)
    with pytest.raises(model.CoincidentNodesError) as want:
        model.link_gains(topo)
    with pytest.raises(model.CoincidentNodesError) as got:
        model.gain_row(topo, 0)
    assert str(got.value) == str(want.value) == "nodes 2 and 4 are at distance zero"


def test_gain_row_refuses_an_overflowing_gain_as_link_gains_does():
    # at d = 1e-100, d**(-4) overflows: the gain is inf, not a coincidence
    topo = model.Topology(positions=[[0.0, 0.0], [1e-100, 0.0], [2.0, 0.0]], alpha=4.0,
                          unit_snr=1.0, fading_model="none", neighbor_threshold=1.0,
                          area_side=4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (model.link_gains, lambda t: model.gain_row(t, 0),
                      lambda t: model.gain_row(t, 1)):
            with pytest.raises(ValueError, match="link gains must be finite"):
                build(topo)
        assert model.gain_row(topo, 2).tolist() == [2.0**-4, 2.0**-4, 0.0]


def _dense_first_coincident_pair(topo):
    """The message of the first zero-distance pair in row order, from all K^2
    distances, or None."""
    pos = topo.positions
    zero = topo._distance(pos[:, None], pos[None]) == 0
    np.fill_diagonal(zero, False)
    hits = np.argwhere(zero)
    return f"nodes {hits[0][0]} and {hits[0][1]} are at distance zero" if len(hits) else None


@st.composite
def _lattice_topologies(draw):
    """2-40 nodes on a coarse lattice of [0, side), with -0.0, the float just
    below side and planted duplicate groups, on a torus or a plain square."""
    side = draw(st.sampled_from([1.0, 10.0, 1000.0]))
    cells = draw(st.sampled_from([2, 8, 256]))
    values = [side * i / cells for i in range(cells)] + [-0.0, np.nextafter(side, 0.0)]
    n = len(values)
    k = draw(st.integers(2, min(40, n * n)))
    points = draw(st.lists(st.integers(0, n * n - 1), min_size=k, max_size=k,
                           unique=draw(st.booleans())))
    positions = np.array([(values[p // n], values[p % n]) for p in points])
    if draw(st.booleans()):
        for group in draw(st.lists(st.lists(st.integers(0, k - 1), min_size=2, max_size=4),
                                   min_size=1, max_size=2)):
            positions[group] = positions[group[0]]
    return model.Topology(positions=positions, alpha=4.0, unit_snr=1.0, fading_model="none",
                          neighbor_threshold=1.0, area_side=side, torus=draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(_lattice_topologies())
def test_coincidence_check_agrees_with_the_dense_distance_scan(topo):
    want = _dense_first_coincident_pair(topo)
    if want is None:
        assert model.gain_row(topo, 0)[0] == 0.0
    else:
        with pytest.raises(model.CoincidentNodesError) as got:
            model.gain_row(topo, 0)
        assert str(got.value) == want


@pytest.mark.parametrize("positions, torus, node", [
    ([[0.0, 0.0], [np.nan, 1.0]], False, 1),
    ([[np.inf, 0.0], [1.0, 1.0]], False, 0),
    ([[0.0, 0.0], [1.0, -np.inf]], True, 1),
    ([[25.0, 0.0], [1.0, 1.0]], True, 0),    # the minimum image would put it at 5
    ([[1.0, 1.0], [1.0, 10.0]], True, 1),    # the far edge belongs to the near one
    ([[1.0, 1.0], [-1e-300, 2.0]], True, 1),
])
def test_positions_no_distance_can_use_are_refused(positions, torus, node):
    with pytest.raises(ValueError, match=rf"position of node {node} must be finite"
                                         + (r" and in \[0, area_side\)" if torus else "$")):
        model.Topology(positions=positions, alpha=4.0, unit_snr=1.0, fading_model="none",
                       neighbor_threshold=1.0, area_side=10.0, torus=torus)


def test_plain_square_positions_may_lie_off_the_square():
    topo = model.Topology(positions=[[-5.0, 0.0], [25.0, 0.0]], alpha=4.0, unit_snr=1.0,
                          fading_model="none", neighbor_threshold=1.0, area_side=10.0)
    assert model.gain_row(topo, 0)[1] == pytest.approx(30.0 ** -4.0)


@pytest.mark.parametrize("side", [0.0, -1.0, np.inf, np.nan])
def test_area_side_must_be_positive_and_finite(side):
    with pytest.raises(ValueError, match="area_side must be positive and finite"):
        model.Topology(positions=[[0.0, 0.0], [1.0, 0.0]], alpha=4.0, unit_snr=1.0,
                       fading_model="none", neighbor_threshold=1.0, area_side=side)


@pytest.mark.parametrize("node_line, message", [
    ("1 nan 1.0 1.0", "position of node 1 must be finite"),
    ("1 12.0 1.0 1.0", "position of node 1 must be finite and in"),
])
def test_text_refuses_positions_no_distance_can_use(node_line, message):
    text = ("count=2 alpha=4.0 fading=none threshold=1.0 area_side=10.0 torus=1\n"
            f"0 1.0 1.0 1.0\n{node_line}\n")
    with pytest.raises(ValueError, match=message):
        model.Topology.from_text(text)


def test_gain_row_needs_an_unfaded_topology():
    with pytest.raises(ValueError, match="unfaded topology, got 'rayleigh'"):
        model.gain_row(_two_node_topology(1.0, fading="rayleigh"), 0)


def test_path_loss_monotone_in_distance():
    gains = [model.link_gains(_two_node_topology(d)).gamma[0, 1]
             for d in (0.5, 1.0, 2.0, 5.0)]
    assert all(a > b for a, b in zip(gains, gains[1:]))


def test_neighbors_is_threshold_superlevel_set():
    g = model.LinkGains(gamma=np.array([
        [0.0, 5.0, 0.5, 2.0],
        [5.0, 0.0, 9.0, 0.1],
        [0.5, 9.0, 0.0, 3.0],
        [2.0, 0.1, 3.0, 0.0],
    ]))
    assert model.neighbors(g, 0, 2.0) == {1, 3}
    assert model.neighbors(g, 0, 100.0) == set()
    assert model.neighbors(g, 0, 0.0) == {1, 2, 3}


def test_neighbor_relation_may_be_non_reciprocal():
    g = model.LinkGains(gamma=np.array([[0.0, 3.0], [0.5, 0.0]]))
    assert 1 in model.neighbors(g, 0, 1.0)
    assert 0 not in model.neighbors(g, 1, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_link_gains_must_be_finite_off_the_diagonal(bad):
    with pytest.raises(ValueError, match="finite"):
        model.LinkGains(gamma=np.array([[0.0, bad], [1.0, 0.0]]))
    # the diagonal is never read, so it is not checked
    assert model.LinkGains(gamma=np.array([[bad, 1.0], [1.0, 0.0]])).num_nodes == 2


def test_neighbors_never_contain_owner():
    g = model.LinkGains(gamma=np.ones((4, 4)))
    for k in range(4):
        assert k not in model.neighbors(g, k, 0.0)


def test_torus_wraps_distances():
    topo = model.Topology(
        positions=np.array([[0.1, 0.0], [9.9, 0.0]]), alpha=4.0, unit_snr=1.0,
        fading_model="none", neighbor_threshold=1.0, area_side=10.0, torus=True)
    assert topo.path_gain(0, 1) == pytest.approx(0.2 ** -4.0)
    topo.torus = False
    assert topo.path_gain(0, 1) == pytest.approx(9.8 ** -4.0)


def test_text_round_trip():
    topo = model.generate_poisson_network(5.0, 1.0, seed=4, alpha=3.0,
                                          unit_snr=50.0, neighbor_threshold=2.0)
    back = model.Topology.from_text(topo.to_text())
    assert back.num_nodes == topo.num_nodes
    assert np.array_equal(back.positions, topo.positions)
    assert back.alpha == topo.alpha
    assert back.neighbor_threshold == topo.neighbor_threshold
    assert back.fading_model == topo.fading_model


def test_text_round_trip_keeps_per_node_unit_snr():
    topo = model.Topology(
        positions=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        alpha=4.0, unit_snr=np.array([1.0, 5.0, 9.0]),
        fading_model="none", neighbor_threshold=1.0, area_side=5.0, torus=True)
    back = model.Topology.from_text(topo.to_text())
    assert np.array_equal(back.unit_snr, [1.0, 5.0, 9.0])
    assert back.torus


def test_text_reads_scalar_unit_snr_header():
    text = ("count=2 alpha=4.0 unit_snr=7.5 fading=none threshold=1.0 "
            "area_side=5.0 torus=0\n1 3.0 4.0\n0 1.0 2.0\n")
    topo = model.Topology.from_text(text)
    assert np.array_equal(topo.positions, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(topo.unit_snr, [7.5, 7.5])


@pytest.mark.parametrize("nodes", [
    "0 1.0 2.0\n",                          # count=3, one node line
    "0 1.0 2.0\n1 1.0 2.0\n1 3.0 4.0\n",  # duplicate index
    "0 1.0 2.0\n1 1.0 2.0\n3 3.0 4.0\n",  # index past count
    "0 1.0 2.0\n1 1.0 2.0\n2 3.0\n",      # value missing
])
def test_text_rejects_malformed_node_lines(nodes):
    header = ("count=3 alpha=4.0 unit_snr=1.0 fading=none threshold=1.0 "
              "area_side=5.0 torus=0\n")
    with pytest.raises(ValueError):
        model.Topology.from_text(header + nodes)


def test_per_node_unit_snr_override():
    topo = model.Topology(
        positions=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        alpha=4.0, unit_snr=np.array([10.0, 20.0, 40.0]),
        fading_model="none", neighbor_threshold=1.0, area_side=5.0)
    gains = model.link_gains(topo)
    # the transmitter's own power sets the gain; distance 1 everywhere here
    assert gains.gamma[0, 1] == pytest.approx(20.0)
    assert gains.gamma[0, 2] == pytest.approx(40.0)
    assert gains.gamma[1, 0] == pytest.approx(10.0)


@pytest.mark.parametrize("name, message", [("alpha", "path-loss exponent"),
                                           ("unit_snr", "unit_snr"),
                                           ("neighbor_threshold", "neighbor_threshold")])
def test_nan_parameters_rejected(name, message):
    args = dict(positions=[[0.0, 0.0], [1.0, 0.0]], alpha=4.0, unit_snr=1.0,
                fading_model="none", neighbor_threshold=1.0, area_side=10.0)
    args[name] = float("nan")
    with pytest.raises(ValueError, match=message):
        model.Topology(**args)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        _two_node_topology(1.0, alpha=1.0)
    with pytest.raises(ValueError):
        _two_node_topology(1.0, unit_snr=0.0)
    with pytest.raises(ValueError):
        _two_node_topology(1.0, fading="rician")
