import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rodd import channels, discovery, model, signatures, sparsecode


def _rows_book(masks):
    """The book of the 0/1 rows `masks`, NIA r for row r."""
    return signatures.SignatureBook(range(len(masks)), masks)


def _clique(k):
    """k nodes one apart on a line, and a radius that takes in all of them."""
    topo = model.Topology(positions=np.arange(k)[:, None] * [1.0, 0.0], alpha=4.0,
                          unit_snr=10.0 * k**4, neighbor_threshold=10.0, area_side=2.0 * k)
    return topo, float(k)


def _book(n, q=0.2, m=120):
    return signatures.reconstruct_book(range(n), q, m)


def test_observation_with_no_neighbors_is_silent():
    topo, _ = _clique(3)
    book = _book(3)
    obs = discovery.observe_discovery(topo, 0.5, 0, book)
    assert np.all(obs.values == 0)
    assert np.array_equal(np.flatnonzero(~obs.erased), np.flatnonzero(book[0] == 0))


def test_single_neighbor_observation_is_its_signature():
    # node 1 at unit distance, at gain 5; node 2 out of the radius
    topo = model.Topology(positions=[[0.0, 0.0], [1.0, 0.0], [0.0, 5.0]], alpha=4.0,
                          unit_snr=5.0, neighbor_threshold=5.0 / 16, area_side=10.0)
    book = _book(3)
    obs = discovery.observe_discovery(topo, 2.0, 0, book)
    assert np.array_equal(obs.values[~obs.erased], book[1][~obs.erased])
    # energy mode records the linear channel's amplitude; observed_quiet squares it
    amp = discovery.observe_discovery(topo, 2.0, 0, book, discovery.ENERGY, noise_var=0.0)
    assert isinstance(amp, channels.RealFrameObservation)
    assert np.array_equal(amp.erased, obs.erased)
    assert np.array_equal(amp.values,
                          np.where(obs.erased, 0.0, math.sqrt(5.0) * book[1]))


def test_energy_mode_is_seeded():
    topo, radius = _clique(4)
    book = _book(4)
    a = discovery.observe_discovery(topo, radius, 0, book, discovery.ENERGY,
                                    noise_var=1.0, seed=5)
    b = discovery.observe_discovery(topo, radius, 0, book, discovery.ENERGY,
                                    noise_var=1.0, seed=5)
    assert np.array_equal(a.values, b.values)


def test_constructed_elimination():
    # true neighbor 2; candidates 3 and 4 each have an on-bit at a quiet
    # off-slot of the receiver, so both must be eliminated
    masks = {
        1: [1, 0, 0, 0, 0, 0],   # receiver: off-slots 1..5
        2: [0, 1, 0, 0, 1, 0],   # the neighbor
        3: [0, 0, 1, 0, 0, 0],   # on at quiet slot 2
        4: [0, 0, 0, 1, 0, 0],   # on at quiet slot 3
    }
    book = signatures.SignatureBook(nias=list(masks),
                                    bits=np.array(list(masks.values()), dtype=np.uint8))
    obs = channels.OrFrameObservation(values=np.array(masks[2], dtype=np.uint8),
                                      erased=np.array(masks[1], dtype=bool))
    candidates = set(masks) - {1}
    estimate = discovery.eliminate(obs, 1, book)
    assert estimate == {2}
    assert len(candidates) - len(estimate) == 2


def _reference_survivors(masks, quiet):
    out = np.empty((masks.shape[0], quiet.shape[0]), dtype=bool)
    for b, row in enumerate(quiet):
        out[:, b] = ~masks[:, row].any(axis=1)
    return out


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(0, 12), receivers=st.integers(0, 130), m=st.integers(1, 60),
       density=st.floats(0.0, 1.0), blank=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_survivors_matches_reference(rows, receivers, m, density, blank, seed):
    # receivers span several 64-bit words, the last one ragged; a `blank`
    # share of the rows have no on-bit and must survive everywhere
    rng = np.random.default_rng(seed)
    masks = (rng.random((rows, m)) < density).astype(np.uint8)
    masks[rng.random(rows) < blank] = 0
    quiet = rng.random((receivers, m)) < density
    got = discovery.survivors(_rows_book(masks), quiet)
    assert got.dtype == bool
    assert np.array_equal(got, _reference_survivors(masks, quiet))


def test_survivors_across_gather_chunks():
    # more rows than one gather holds; blank rows at the chunk edges
    rows, m = 2 * discovery._GATHER_ROWS + 3, 16
    rng = np.random.default_rng(11)
    masks = (rng.random((rows, m)) < 0.2).astype(np.uint8)
    masks[[0, discovery._GATHER_ROWS - 1, discovery._GATHER_ROWS, rows - 1]] = 0
    quiet = rng.random((70, m)) < 0.3
    got = discovery.survivors(_rows_book(masks), quiet)
    assert np.array_equal(got, _reference_survivors(masks, quiet))


def test_survivors_is_exact_past_2_to_the_24_slots():
    m = 2**24 + 1
    masks = np.zeros((2, m), dtype=np.uint8)
    masks[0, [3, m - 1]] = 1
    masks[1, [5, m - 2]] = 1
    quiet = np.zeros((1, m), dtype=bool)
    quiet[0, m - 1] = True
    got = discovery.survivors(_rows_book(masks), quiet)
    assert np.array_equal(got, _reference_survivors(masks, quiet))
    assert got.tolist() == [[False], [True]]


@settings(max_examples=60, deadline=None)
@example(rows=3, receivers=1, m=5, density=0.0, blank=0.0, loud=0.5, gather=1, seed=0)
@example(rows=30, receivers=130, m=40, density=0.9, blank=0.3, loud=0.05, gather=2,
         seed=1)
@given(rows=st.integers(0, 30), receivers=st.integers(1, 130), m=st.integers(1, 40),
       density=st.floats(0.0, 1.0), blank=st.floats(0.0, 1.0), loud=st.floats(0.0, 1.0),
       gather=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_two_stage_survivors_matches_reference_at_every_head_length(
        rows, receivers, m, density, blank, loud, gather, seed):
    # head lengths from 0 (tail only) to past the longest row (head only),
    # so rows shorter than the head and blank rows occur; ragged receiver
    # groups in any order; tails split over gathers of a few rows; a fresh
    # book per head length, since a book keeps the head it first built
    rng = np.random.default_rng(seed)
    masks = (rng.random((rows, m)) < density).astype(np.uint8)
    masks[rng.random(rows) < blank] = 0
    quiet = rng.random((receivers, m)) < loud
    expected = _reference_survivors(masks, quiet)
    order = rng.permutation(receivers)
    with mock.patch.object(discovery, "_GATHER_ROWS", gather):
        for c in range(int(masks.sum(axis=1).max(initial=0)) + 2):
            with mock.patch.object(signatures, "_HEAD_SLOTS", c):
                index = _rows_book(masks)
                assert np.array_equal(discovery.survivors(index, quiet), expected)
                assert np.array_equal(discovery.survivors(index, quiet[order]),
                                      expected[:, order])


def _random_instance(seed, n=12, q=0.15, m=150, p_neighbor=0.3):
    """(topology, radius, book): n nodes uniform on the unit square, every
    gain at least 5, and a radius p_neighbor * sqrt(2) that takes in no
    other node at 0 and all of them at 1."""
    rng = np.random.default_rng(seed)
    topo = model.Topology(positions=rng.random((n, 2)), alpha=2.0, unit_snr=10.0,
                          neighbor_threshold=5.0, area_side=1.0)
    return topo, p_neighbor * math.sqrt(2.0), signatures.reconstruct_book(range(n), q, m)


def _neighbors(topo, radius, k):
    return set(discovery.neighbor_lists(topo, radius, [k])[0].tolist())


@pytest.mark.parametrize("seed", range(6))
def test_noiseless_mode_never_misses(seed):
    topo, radius, book = _random_instance(seed)
    for k in range(topo.num_nodes):
        true = _neighbors(topo, radius, k)
        obs = discovery.observe_discovery(topo, radius, k, book)
        assert true <= discovery.eliminate(obs, k, book)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), q=st.floats(0.02, 0.6),
       m=st.integers(1, 150), p_neighbor=st.floats(0.0, 1.0))
def test_noiseless_elimination_never_misses_on_random_books(seed, n, q, m, p_neighbor):
    topo, radius, book = _random_instance(seed, n, q, m, p_neighbor)
    for k in range(n):
        true = _neighbors(topo, radius, k)
        obs = discovery.observe_discovery(topo, radius, k, book)
        assert true <= discovery.eliminate(obs, k, book)


def test_more_slots_never_add_false_alarms():
    # masks are prefix-stable, so a longer frame only eliminates more
    topo, radius, _ = _random_instance(3)
    n = topo.num_nodes
    prev_fa = None
    for m in (40, 80, 160, 320):
        book = signatures.reconstruct_book(range(n), 0.15, m)
        fa = 0
        for k in range(n):
            true = _neighbors(topo, radius, k)
            obs = discovery.observe_discovery(topo, radius, k, book)
            est = discovery.eliminate(obs, k, book)
            fa += len(est - true)
        if prev_fa is not None:
            assert fa <= prev_fa
        prev_fa = fa


def test_energy_mode_converges_to_noiseless():
    topo, radius, book = _random_instance(1)
    for k in range(topo.num_nodes):
        obs_or = discovery.observe_discovery(topo, radius, k, book)
        ref = discovery.eliminate(obs_or, k, book)
        obs_e = discovery.observe_discovery(topo, radius, k, book, discovery.ENERGY,
                                            noise_var=1e-20, seed=9)
        got = discovery.eliminate(obs_e, k, book, threshold=1e-6)
        assert got == ref


def _heard(frames, topo, radius, k):
    """The frames receiver k hears: its own and its neighbors', the rest None."""
    nbrs = _neighbors(topo, radius, k)
    return [f if j == k or j in nbrs else None for j, f in enumerate(frames)]


def test_eliminate_reads_either_channel_record():
    # one frame through both channels: noiseless gaussian_mac with unit
    # symbols carries energy exactly where or_channel with all-one bits reads 1
    topo, radius, book = _random_instance(7)
    n, m = topo.num_nodes, book.matrix().shape[1]
    frames = [channels.TransmitFrame(symbols=np.ones(m), mask=book[j]) for j in range(n)]
    for k in range(n):
        peers = [(book[j], np.ones(m, dtype=np.uint8))
                 for j in sorted(_neighbors(topo, radius, k))]
        or_obs = channels.or_channel(book[k], peers)
        real_obs = channels.gaussian_mac(k, model.gain_row(topo, k),
                                         _heard(frames, topo, radius, k), 0.0)
        got = discovery.eliminate(real_obs, k, book, threshold=1e-6)
        assert got == discovery.eliminate(or_obs, k, book)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), q=st.floats(0.02, 0.6),
       m=st.integers(1, 150), noise_var=st.sampled_from([0.0, 0.5, 10.0]))
def test_energy_observation_is_gaussian_mac_with_unit_symbols(seed, n, q, m, noise_var):
    # the op-level record equals the Gaussian channel's, noise stream included;
    # unequal gains make the summation order visible in the last bits
    topo, radius, book = _random_instance(seed, n, q, m)
    frames = [channels.TransmitFrame(symbols=np.ones(m), mask=book[j]) for j in range(n)]
    for k in range(n):
        got = discovery.observe_discovery(topo, radius, k, book, discovery.ENERGY,
                                          noise_var=noise_var, seed=seed)
        ref = channels.gaussian_mac(k, model.gain_row(topo, k), _heard(frames, topo, radius, k),
                                    noise_var, seed=(seed, discovery._NOISE_SALT, k))
        assert isinstance(got, channels.RealFrameObservation)
        assert got.values.tobytes() == ref.values.tobytes()
        assert np.array_equal(got.erased, ref.erased)


def test_quiet_rule_refuses_a_negative_or_nan_threshold():
    # one check in observed_quiet guards eliminate, decode and the experiment
    topo, radius, book = _random_instance(2, n=6, m=80)
    obs = discovery.observe_discovery(topo, radius, 0, book, discovery.ENERGY,
                                      noise_var=0.5, seed=4)
    topo, radius = discovery.poisson_discovery_topology(
        200, 6.0, seed=1, area_side=300.0, torus=True)
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="threshold"):
            discovery.observed_quiet(obs, bad)
        with pytest.raises(ValueError, match="threshold"):
            discovery.eliminate(obs, 0, book, threshold=bad)
        with pytest.raises(ValueError, match="threshold"):
            sparsecode.decode(obs, book, [1], threshold=bad)
        with pytest.raises(ValueError, match="threshold"):
            discovery.run_discovery_experiment(topo, radius, 300, 0.1, discovery.ENERGY,
                                               threshold=bad, seed=1, receivers=[0])


def test_threshold_is_an_energy_mode_setting():
    # the OR quiet rule never reads a threshold, so setting one is an error
    topo, radius = discovery.poisson_discovery_topology(
        200, 6.0, seed=1, area_side=300.0, torus=True)
    with pytest.raises(ValueError, match="energy mode"):
        discovery.run_discovery_experiment(topo, radius, 300, 0.1, discovery.OR_NOISELESS,
                                           threshold=5.0, seed=1, receivers=[0])


@pytest.mark.parametrize("name", ["expected_nodes", "mean_neighbors", "area_side"])
@pytest.mark.parametrize("bad", [0.0, -5.0, float("nan"), float("inf")])
def test_topology_sizes_must_be_positive(name, bad):
    args = dict(expected_nodes=200, mean_neighbors=6.0, area_side=300.0, seed=1)
    args[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        discovery.poisson_discovery_topology(**args)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_topology_snr_must_be_finite(bad):
    with pytest.raises(ValueError, match="snr_db must be finite"):
        discovery.poisson_discovery_topology(200, 6.0, seed=1, area_side=300.0,
                                             snr_db=bad)


@pytest.mark.parametrize("args, message", [
    (dict(snr_db=4000.0), "unit-distance SNR of inf"),
    (dict(snr_db=-4000.0), "unit-distance SNR of 0"),
    (dict(alpha=1e308), "unit-distance SNR of inf"),
    (dict(alpha=float("nan")), "alpha nan"),
    (dict(area_side=1e200), "node density"),
    (dict(area_side=1e-300), "node density"),
    (dict(area_side=1e-160), "node density of inf"),
])
def test_topology_refuses_parameters_that_leave_the_floats(args, message):
    # these raised OverflowError or ZeroDivisionError, built a NaN-alpha
    # network, or were refused as a unit_snr that names neither flag
    with pytest.raises(ValueError, match=message):
        discovery.poisson_discovery_topology(200, 6.0, seed=1, **args)


def test_threshold_sweep_trades_misses_for_false_alarms():
    topo, radius, book = _random_instance(2, n=10, m=200)
    k = 0
    true = _neighbors(topo, radius, k)
    obs = discovery.observe_discovery(topo, radius, k, book, discovery.ENERGY,
                                      noise_var=0.5, seed=4)
    misses, fas = [], []
    for thr in (1e-4, 0.5, 2.0, 10.0, 100.0):
        est = discovery.eliminate(obs, k, book, threshold=thr)
        miss, fa, _ = discovery.discovery_metrics(true, est)
        misses.append(miss)
        fas.append(fa)
    assert all(a <= b + 1e-12 for a, b in zip(misses, misses[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(fas, fas[1:]))


def test_metrics_values():
    assert discovery.discovery_metrics(set(range(50)), set(range(50))) == (0.0, 0.0, 1.0)
    miss, fa, acc = discovery.discovery_metrics(set(range(50)), set(range(51)))
    assert (miss, fa) == (0.0, 0.02) and acc == pytest.approx(0.98)
    assert discovery.discovery_metrics(set(range(50)), set()) == (1.0, 0.0, 0.0)


def test_metrics_accuracy_is_the_experiment_rule():
    # 1 - (misses + false_alarms) / size, as the experiment records compute
    # it; 1 - miss/size - fa/size differs in the last bit here
    _, _, acc = discovery.discovery_metrics({0, 1, 2}, {0, 1, 5})
    assert acc == 1.0 - (1 + 1) / 3 == 0.33333333333333337


def test_metrics_empty_true_set_undefined():
    with pytest.raises(ValueError):
        discovery.discovery_metrics(set(), set())


def test_accuracy_floor_at_zero():
    _, _, acc = discovery.discovery_metrics({0, 1}, set(range(100)))
    assert acc == 0.0


def test_baseline_single_neighbor_heard_immediately():
    sets = [{1}, {0}]
    assert discovery.random_access_baseline(sets, 32, 1.0, 1.0, seed=0) == 32


def test_baseline_never_transmitting_never_converges():
    with pytest.raises(discovery.ConvergenceError):
        discovery.random_access_baseline([{1}, {0}], 32, 0.0, 1.0, seed=0,
                                         max_frames=50)


def test_baseline_refuses_a_target_outside_the_unit_interval():
    # a target above 1 can never be met, one below 0 is met by any frame and
    # NaN has no quota; each is refused before the first frame is drawn
    for bad in (-0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match="target_accuracy"):
            discovery.random_access_baseline([{1}, {0}], 8, 0.5, bad, seed=0)


def test_baseline_counts_only_collision_free_frames():
    # 3 mutual neighbors at q=1: always 2 transmitters per receiver -> stuck
    sets = [{1, 2}, {0, 2}, {0, 1}]
    with pytest.raises(discovery.ConvergenceError):
        discovery.random_access_baseline(sets, 8, 1.0, 1.0, seed=0, max_frames=50)


def test_topology_hits_the_degree_target():
    topo, radius = discovery.poisson_discovery_topology(
        2000, 12.0, seed=9, area_side=500.0, torus=True)
    sets = discovery.neighbor_lists(topo, radius)
    mean_degree = np.mean([len(s) for s in sets])
    assert abs(mean_degree - 12.0) <= 1.0
    # boundary link sits at the configured SNR
    snr = topo.unit_snr * radius ** (-topo.alpha)
    assert snr == pytest.approx(topo.neighbor_threshold)


def test_candidate_restriction():
    topo, radius, book = _random_instance(4)
    obs = discovery.observe_discovery(topo, radius, 0, book)
    full = discovery.eliminate(obs, 0, book)
    narrowed = discovery.eliminate(obs, 0, book, candidates=[1, 2, 3])
    assert narrowed == full & {1, 2, 3}


def test_eliminate_refuses_a_receiver_outside_the_book():
    # an unknown NIA would screen the receiver's own row, which always survives
    topo, radius, book = _random_instance(4)
    obs = discovery.observe_discovery(topo, radius, 0, book)
    for candidates in (None, [1, 2]):
        with pytest.raises(KeyError):
            discovery.eliminate(obs, 99, book, candidates=candidates)


@pytest.mark.parametrize("candidates", [None, [2, 3]])
def test_eliminate_refuses_a_block_record(candidates):
    # a two-receiver record must not be read as receiver 0's alone
    book = signatures.reconstruct_book(range(20), 0.2, 120)
    block = channels.receive_block(book.unpacked([0, 1]).view(bool), book,
                                   [2, 3, 4, 5], [2, 2])
    with pytest.raises(ValueError, match="eliminate takes one receiver's record, "
                                         "got a block of 2 receivers"):
        discovery.eliminate(block, 0, book, candidates=candidates)


def test_eliminate_reads_a_block_of_one_as_its_receiver():
    book = signatures.reconstruct_book(range(20), 0.2, 120)
    one = channels.receive_block(book.unpacked([0]).view(bool), book, [2, 3], [2])
    got = discovery.eliminate(one, 0, book)
    own = channels.receive(book.unpacked(0), book, [2, 3])
    assert got == discovery.eliminate(own, 0, book)
    assert {2, 3} <= got


def test_default_candidates_screen_the_whole_book_in_place(monkeypatch):
    # no cut of the index for the default list; an explicit one is cut
    topo, radius, book = _random_instance(11)
    obs = discovery.observe_discovery(topo, radius, 0, book)
    full = discovery.eliminate(obs, 0, book)
    cuts = []
    take = signatures.SignatureBook.take
    monkeypatch.setattr(signatures.SignatureBook, "take",
                        lambda book, nias: cuts.append(len(nias)) or take(book, nias))
    assert discovery.eliminate(obs, 0, book) == full
    assert cuts == []
    listed = discovery.eliminate(obs, 0, book, candidates=list(book.nias))
    assert listed == full
    assert cuts == [len(book.nias) - 1]


def test_compressed_discovery_beats_random_access():
    # desk scale, matched >= 99% accuracy: random access needs at least
    # twice the symbol-slots of the one-frame signature exchange
    topo, radius = discovery.poisson_discovery_topology(
        60, 6.0, seed=3, area_side=100.0, torus=True)
    m = 400
    rep = discovery.run_discovery_experiment(topo, radius, m, 0.12,
                                             discovery.OR_NOISELESS, seed=3)
    assert rep.mean_accuracy >= 0.99
    sets = discovery.neighbor_lists(topo, radius)
    slots = discovery.random_access_baseline(sets, frame_bits=32, tx_prob=1 / 7,
                                             target_accuracy=0.99, seed=3)
    assert slots >= 2 * m


def _sixty_nodes():
    return discovery.poisson_discovery_topology(60, 6.0, seed=5, area_side=100.0,
                                                snr_db=20.0, torus=True)


def _assert_experiment_matches_op_level_path(mode, noise_var):
    # the vectorized driver must agree receiver by receiver with the
    # observe/eliminate operations, whose true neighbors are the nodes
    # whose gain meets the threshold; in energy mode both read the same
    # noise, so every count matches
    topo, radius = _sixty_nodes()
    rep = discovery.run_discovery_experiment(topo, radius, 300, 0.1, mode,
                                             noise_var=noise_var, seed=5)
    # the receiver blocks only group the work: ragged blocks give the same records
    assert discovery.run_discovery_experiment(topo, radius, 300, 0.1, mode,
                                              noise_var=noise_var, seed=5,
                                              block=7).records == rep.records
    book = signatures.reconstruct_book(range(topo.num_nodes), 0.1, 300)
    tau = topo.neighbor_threshold
    assert len(rep.records) == topo.num_nodes
    for rec in rep.records:
        k, true_count, est_count, misses, fa, acc = rec
        true = set(np.flatnonzero(model.gain_row(topo, k) >= tau).tolist())
        obs = discovery.observe_discovery(topo, radius, k, book, mode, noise_var=noise_var,
                                          seed=5)
        est = discovery.eliminate(obs, k, book, threshold=rep.threshold)
        assert len(true) == true_count
        assert len(est) == est_count
        assert len(true - est) == misses
        assert len(est - true) == fa
        assert acc == (discovery.discovery_metrics(true, est)[2] if true else None)


def test_experiment_matches_op_level_path():
    _assert_experiment_matches_op_level_path(discovery.OR_NOISELESS, 1.0)


def test_experiment_matches_op_level_path_energy():
    _assert_experiment_matches_op_level_path(discovery.ENERGY, 10.0)


@pytest.mark.parametrize("mode,thresholds,run", [
    (discovery.OR_NOISELESS, [None], {}),
    (discovery.OR_NOISELESS, [None], dict(block=7, receivers=[5, 0, 17, 3])),
    (discovery.ENERGY, [None], dict(noise_var=10.0)),
    (discovery.ENERGY, [1.0, None, 25.0, 400.0, 25.0], dict(noise_var=10.0)),
    (discovery.ENERGY, [0.0, 30.0, 1e4], dict(noise_var=10.0, block=7)),
    (discovery.ENERGY, [5.0, 50.0], dict(noise_var=2.0, receivers=range(11, 40, 3))),
    (discovery.ENERGY, [0.5, 2.0], dict(noise_var=0.0, block=7)),
])
def test_threshold_sweep_equals_one_run_per_threshold(mode, thresholds, run):
    topo, radius = _sixty_nodes()
    reports = discovery.run_threshold_sweep(topo, radius, 300, 0.1, thresholds, mode,
                                            seed=5, **run)
    assert len(reports) == len(thresholds)
    for threshold, rep in zip(thresholds, reports):
        single = discovery.run_discovery_experiment(topo, radius, 300, 0.1, mode,
                                                    threshold=threshold, seed=5, **run)
        assert rep.records == single.records
        assert rep.threshold == single.threshold
        assert (rep.num_nodes, rep.num_slots, rep.mode) == \
            (single.num_nodes, single.num_slots, single.mode)


@pytest.mark.parametrize("mode,thresholds,run,message", [
    (discovery.ENERGY, [10.0, 20.0, -1.0], {}, "nonnegative"),
    (discovery.ENERGY, [math.nan, 20.0], {}, "nonnegative"),
    (discovery.ENERGY, [], {}, "at least one threshold"),
    (discovery.ENERGY, [10.0, None], dict(noise_var=0.0), "explicit threshold"),
    (discovery.OR_NOISELESS, [None, 5.0], {}, "energy mode"),
    ("loud", [None], {}, "unknown discovery mode"),
    (discovery.ENERGY, [20.0, math.inf], {}, "finite"),
])
def test_threshold_sweep_refuses_before_deriving(monkeypatch, mode, thresholds, run,
                                                 message):
    def refuse(*args, **kwargs):
        raise AssertionError("the book was derived before the arguments were checked")
    monkeypatch.setattr(signatures, "reconstruct_book", refuse)
    topo, radius = _sixty_nodes()
    with pytest.raises(ValueError, match=message):
        discovery.run_threshold_sweep(topo, radius, 300, 0.1, thresholds, mode,
                                      seed=5, **run)


@pytest.mark.parametrize("block", [0, -1, 2.5, True])
@pytest.mark.parametrize("single", [False, True])
def test_experiment_refuses_a_bad_block(monkeypatch, block, single):
    # -1 used to give empty reports with a nan accuracy, 0 a bare range() error
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the block was checked")
    monkeypatch.setattr(signatures, "reconstruct_book", refuse)
    monkeypatch.setattr(discovery, "neighbor_lists", refuse)
    topo, radius = _sixty_nodes()
    with pytest.raises(ValueError, match="^block must be"):
        if single:
            discovery.run_discovery_experiment(topo, radius, 300, 0.1, seed=5, block=block)
        else:
            discovery.run_threshold_sweep(topo, radius, 300, 0.1, [None], seed=5,
                                          block=block)


@pytest.mark.parametrize("pick", [
    lambda n: [-1], lambda n: [n], lambda n: [0, 3, n + 5], lambda n: [2.0],
    lambda n: [True], lambda n: [[0, 1]], lambda n: 3,
])
def test_threshold_sweep_refuses_receivers_outside_the_network(monkeypatch, pick):
    # [-1] used to score the last node under the label -1, [n] to fail
    # with a bare IndexError after the book was built
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the receivers were checked")
    monkeypatch.setattr(signatures, "reconstruct_book", refuse)
    monkeypatch.setattr(discovery, "neighbor_lists", refuse)
    topo, radius = _sixty_nodes()
    with pytest.raises(ValueError, match="receivers"):
        discovery.run_threshold_sweep(topo, radius, 300, 0.1, [None], seed=5,
                                      receivers=pick(topo.num_nodes))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), picks=st.lists(st.integers(0, 10**6), max_size=30),
       torus=st.booleans())
def test_neighbor_query_at_receivers_equals_the_full_query(seed, picks, torus):
    topo, radius = discovery.poisson_discovery_topology(80, 6.0, seed=seed,
                                                        area_side=100.0, torus=torus)
    receivers = [p % topo.num_nodes for p in picks]
    full = discovery.neighbor_lists(topo, radius)
    got = discovery.neighbor_lists(topo, radius, receivers)
    assert len(got) == len(receivers)
    for k, nbrs in zip(receivers, got):
        assert nbrs.dtype == np.int64
        assert np.array_equal(nbrs, full[k])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), torus=st.booleans())
def test_radius_and_gain_threshold_give_the_same_neighbors(seed, torus):
    # the tuned energy threshold, neighbor_threshold * noise_var / 4, sits at
    # the edge of the radius neighborhood only because the two relations agree
    topo, radius = discovery.poisson_discovery_topology(200, 8.0, seed=seed,
                                                        area_side=100.0, torus=torus)
    for k, nbrs in enumerate(discovery.neighbor_lists(topo, radius)):
        row = model.gain_row(topo, k)
        assert nbrs.tolist() == np.flatnonzero(row >= topo.neighbor_threshold).tolist()


@pytest.mark.parametrize("mode, gains", [(discovery.OR_NOISELESS, 0), (discovery.ENERGY, 1)])
def test_observation_reads_one_neighbor_query_and_one_gain_call(monkeypatch, mode, gains):
    calls = {"neighbor_lists": 0, "path_gain": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(discovery, "neighbor_lists",
                        counted("neighbor_lists", discovery.neighbor_lists))
    monkeypatch.setattr(model.Topology, "path_gain",
                        counted("path_gain", model.Topology.path_gain))
    topo, radius = _clique(5)
    discovery.observe_discovery(topo, radius, 2, _book(5), mode, seed=1)
    assert calls == {"neighbor_lists": 1, "path_gain": gains}


def test_observation_rejects_negative_noise_variance():
    # OR mode never reads noise_var, but a negative one is still an error
    topo, radius = _clique(4)
    for mode in (discovery.ENERGY, discovery.OR_NOISELESS):
        with pytest.raises(ValueError, match="noise_var"):
            discovery.observe_discovery(topo, radius, 0, _book(4), mode, noise_var=-1.0,
                                        seed=5)


def test_noiseless_energy_run_needs_a_threshold():
    # the default threshold scales with noise_var, so at 0 nothing would
    # read quiet and every candidate would survive
    topo, radius = discovery.poisson_discovery_topology(
        200, 6.0, seed=1, area_side=300.0, torus=True)
    run = dict(noise_var=0.0, seed=1, receivers=[0, 1, 2])
    with pytest.raises(ValueError, match="threshold"):
        discovery.run_discovery_experiment(topo, radius, 300, 0.1, discovery.ENERGY,
                                           **run)
    rep = discovery.run_discovery_experiment(topo, radius, 300, 0.1, discovery.ENERGY,
                                             threshold=1.0, **run)
    assert rep.mean_accuracy == 1.0
    assert rep.total_false_alarms == 0


def test_mean_rates_skip_receivers_without_neighbors():
    rep = discovery.ExperimentReport(records=[(0, 0, 0, 0, 0, None),
                                              (1, 4, 5, 1, 2, 0.25),
                                              (2, 2, 2, 0, 0, 1.0)])
    assert rep.mean_miss_rate == pytest.approx((1 / 4 + 0) / 2)
    assert rep.mean_false_alarm_rate == pytest.approx((2 / 4 + 0) / 2)
    assert rep.mean_accuracy == pytest.approx(0.625)
    lonely = discovery.ExperimentReport(records=[(0, 0, 1, 0, 1, None)])
    assert math.isnan(lonely.mean_miss_rate)
    assert math.isnan(lonely.mean_false_alarm_rate)
    assert math.isnan(lonely.mean_accuracy)


def test_experiment_report_csv_shape():
    topo, radius = discovery.poisson_discovery_topology(
        30, 4.0, seed=8, area_side=100.0, torus=True)
    rep = discovery.run_discovery_experiment(topo, radius, 200, 0.1, seed=8)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "receiver,true_count,est_count,misses,false_alarms,accuracy"
    assert lines[-1].startswith("aggregate,")
    assert len(lines) == topo.num_nodes + 2


@pytest.mark.parametrize("mode,thresholds", [
    (discovery.OR_NOISELESS, [None, None]),
    (discovery.ENERGY, [20.0, None, 20.0]),
])
def test_block_order_is_invisible_in_the_records(mode, thresholds):
    # receivers are scored in serpentine order over cells of side 2r, on a
    # torus whose last cell wraps; the records still follow `receivers`,
    # whatever the block size or the order of that list, and equal
    # thresholds give equal reports
    topo, radius = discovery.poisson_discovery_topology(300, 6.0, seed=9, area_side=150.0,
                                                        torus=True)
    assert topo.area_side % (2 * radius) > 0
    shuffled = np.random.default_rng(4).permutation(topo.num_nodes)[:120]
    cells = {tuple(c) for c in (topo.positions[shuffled] // (2 * radius)).tolist()}
    assert len(cells) > 20
    by_receiver = None
    for receivers in (np.sort(shuffled), shuffled):
        runs = [discovery.run_threshold_sweep(topo, radius, 300, 0.1, thresholds, mode,
                                              noise_var=10.0, seed=3, receivers=receivers,
                                              block=block) for block in (1, 7, 64)]
        for reports in runs:
            assert [r.records for r in reports] == [r.records for r in runs[0]]
            assert [r.mean_accuracy.hex() for r in reports] == \
                [r.mean_accuracy.hex() for r in runs[0]]
        first = runs[0][0].records
        assert [rec[0] for rec in first] == receivers.tolist()
        assert runs[0][-1].records == first
        if by_receiver is None:
            by_receiver = {rec[0]: rec for rec in first}
        assert first == [by_receiver[k] for k in receivers.tolist()]
