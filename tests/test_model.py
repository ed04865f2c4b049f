import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodd import discovery, model


def _two_node_topology(d, alpha=4.0, unit_snr=100.0):
    return model.Topology(
        positions=np.array([[0.0, 0.0], [d, 0.0]]),
        alpha=alpha, unit_snr=unit_snr, neighbor_threshold=1.0, area_side=10.0 + d,
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
    topo = _two_node_topology(1.0)
    assert model.gain_row(topo, 0)[1] == pytest.approx(100.0)
    assert model.gain_row(topo, 1)[0] == pytest.approx(100.0)


def test_power_law_gain():
    # gamma * d**-alpha = 100 / 2**4
    row = model.gain_row(_two_node_topology(2.0, alpha=4.0, unit_snr=100.0), 0)
    assert row[1] == pytest.approx(6.25)


def test_coincident_nodes_rejected():
    topo = model.Topology(
        positions=np.zeros((2, 2)), alpha=4.0, unit_snr=1.0,
        neighbor_threshold=1.0, area_side=1.0)
    with pytest.raises(model.CoincidentNodesError):
        model.gain_row(topo, 0)


@pytest.mark.parametrize("scale", [1, 5, 2**18])
def test_gain_row_refuses_any_coincident_pair(scale):
    # the same layout at coordinates scaled from units up to 2^18
    positions = np.arange(12.0).reshape(6, 2) * scale
    positions[4] = positions[2]
    topo = model.Topology(positions=positions, alpha=4.0, unit_snr=1.0,
                          neighbor_threshold=1.0, area_side=20.0 * scale)
    for k in (0, 2, 5):
        with pytest.raises(model.CoincidentNodesError) as got:
            model.gain_row(topo, k)
        assert str(got.value) == "nodes 2 and 4 are at distance zero"


def test_gain_row_refuses_an_overflowing_gain():
    # at d = 1e-100, d**(-4) overflows: the gain is inf, not a coincidence
    topo = model.Topology(positions=[[0.0, 0.0], [1e-100, 0.0], [2.0, 0.0]], alpha=4.0,
                          unit_snr=1.0, neighbor_threshold=1.0, area_side=4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (0, 1):
            with pytest.raises(ValueError, match="link gains must be finite"):
                model.gain_row(topo, k)
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
    return model.Topology(positions=positions, alpha=4.0, unit_snr=1.0, neighbor_threshold=1.0,
                          area_side=side, torus=draw(st.booleans()))


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
    ([[1.0, 1.0], [np.nan, 1.0]], True, 1),
])
def test_positions_no_distance_can_use_are_refused(positions, torus, node):
    with pytest.raises(ValueError, match=rf"position of node {node} must be finite"
                                         + (r" and in \[0, area_side\)" if torus else "$")):
        model.Topology(positions=positions, alpha=4.0, unit_snr=1.0, neighbor_threshold=1.0,
                       area_side=10.0, torus=torus)


def test_plain_square_positions_may_lie_off_the_square():
    topo = model.Topology(positions=[[-5.0, 0.0], [25.0, 0.0]], alpha=4.0, unit_snr=1.0,
                          neighbor_threshold=1.0, area_side=10.0)
    assert model.gain_row(topo, 0)[1] == pytest.approx(30.0 ** -4.0)


@pytest.mark.parametrize("side", [0.0, -1.0, np.inf, np.nan])
def test_area_side_must_be_positive_and_finite(side):
    with pytest.raises(ValueError, match="area_side must be positive and finite"):
        model.Topology(positions=[[0.0, 0.0], [1.0, 0.0]], alpha=4.0, unit_snr=1.0,
                       neighbor_threshold=1.0, area_side=side)


def test_path_loss_monotone_in_distance():
    gains = [model.gain_row(_two_node_topology(d), 0)[1] for d in (0.5, 1.0, 2.0, 5.0)]
    assert all(a > b for a, b in zip(gains, gains[1:]))


def test_neighbors_is_threshold_superlevel_set():
    # node 3 sits at the radius 2, where the gain is the threshold 2**-4
    topo = model.Topology(positions=[[0.0, 0.0], [1.0, 0.0], [0.0, 3.0], [-2.0, 0.0]],
                          alpha=4.0, unit_snr=1.0, neighbor_threshold=2.0**-4, area_side=10.0)
    row = model.gain_row(topo, 0)
    assert {j for j in range(1, 4) if row[j] >= topo.neighbor_threshold} == {1, 3}
    assert set(discovery.neighbor_lists(topo, 2.0, [0])[0].tolist()) == {1, 3}
    assert set(discovery.neighbor_lists(topo, 0.5, [0])[0].tolist()) == set()
    assert set(discovery.neighbor_lists(topo, 5.0, [0])[0].tolist()) == {1, 2, 3}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_link_gains_must_be_finite_off_the_diagonal(bad):
    with pytest.raises(ValueError, match="finite"):
        model.LinkGains(gamma=np.array([[0.0, bad], [1.0, 0.0]]))
    # the diagonal is never read, so it is not checked
    assert model.LinkGains(gamma=np.array([[bad, 1.0], [1.0, 0.0]])).num_nodes == 2


def test_neighbors_never_contain_owner():
    topo = model.Topology(positions=np.arange(8.0).reshape(4, 2), alpha=4.0, unit_snr=1.0,
                          neighbor_threshold=1.0, area_side=10.0)
    for k in range(4):
        assert k not in discovery.neighbor_lists(topo, 100.0, [k])[0]


def test_torus_wraps_distances():
    topo = model.Topology(
        positions=np.array([[0.1, 0.0], [9.9, 0.0]]), alpha=4.0, unit_snr=1.0,
        neighbor_threshold=1.0, area_side=10.0, torus=True)
    assert topo.path_gain(0, 1) == pytest.approx(0.2 ** -4.0)
    topo.torus = False
    assert topo.path_gain(0, 1) == pytest.approx(9.8 ** -4.0)


@pytest.mark.parametrize("name, message", [("alpha", "path-loss exponent"),
                                           ("unit_snr", "unit_snr"),
                                           ("neighbor_threshold", "neighbor_threshold")])
def test_nan_parameters_rejected(name, message):
    args = dict(positions=[[0.0, 0.0], [1.0, 0.0]], alpha=4.0, unit_snr=1.0,
                neighbor_threshold=1.0, area_side=10.0)
    args[name] = float("nan")
    with pytest.raises(ValueError, match=message):
        model.Topology(**args)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        _two_node_topology(1.0, alpha=1.0)
    with pytest.raises(ValueError):
        _two_node_topology(1.0, unit_snr=0.0)
