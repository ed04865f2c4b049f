"""Input refusals of every layer, one table: each call must raise its
exception with a message that names what is wrong."""

import re

import numpy as np
import pytest

from rodd import analysis, channels, cli, discovery, model, signatures, sparsecode, validate


def _mask(length):
    return np.ones(length, dtype=np.uint8)


def _frame(length):
    return channels.TransmitFrame(symbols=np.ones(length), mask=_mask(length))


def _gains(k):
    return model.LinkGains(gamma=np.ones((k, k)) - np.eye(k))


_RECEIVERS = "receivers must be a list of node indices in [0, 3)"


def _topology(count):
    return model.Topology(positions=np.arange(2.0 * count).reshape(count, 2), alpha=4.0,
                          unit_snr=1.0, neighbor_threshold=1.0, area_side=100.0)


def _book(count):
    return signatures.reconstruct_book(range(count), 0.2, 16)


def _eliminate(receiver, candidates=None):
    book = _book(4)
    observation = discovery.observe_discovery(_topology(4), 5.0, 0, book)
    return discovery.eliminate(observation, receiver, book, candidates=candidates)


def _config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    _, registry = cli.build_parser()
    return cli._load_config(str(path), registry["fig2"])


# (call on a tmp_path, exception, fragment of its message)
REFUSALS = {
    "analysis.or_rate_at_p-p": (
        lambda tmp: analysis.or_rate_at_p(3, 0.2, 1.5), ValueError, "p must lie in [0,1]"),
    "analysis.or_aloha_throughput-q": (
        lambda tmp: analysis.or_aloha_throughput(3, 1.5), ValueError, "q must lie in [0,1]"),
    "analysis.or_aloha_throughput-q-nan": (
        lambda tmp: analysis.or_aloha_throughput(3, np.nan), ValueError,
        "q must lie in [0,1]"),
    "analysis.gauss_aloha_throughput-q-zero": (
        lambda tmp: analysis.gauss_aloha_throughput(3, 0.0, 1.0), ValueError,
        "q must be positive"),
    "analysis.asymmetric_rate_bounds-q-shape": (
        lambda tmp: analysis.asymmetric_rate_bounds(_gains(3), [0.2, 0.2], range(3)),
        ValueError, "need one q per node, got shape (2,) for K=3"),
    "analysis.asymmetric_rate_bounds-q-range": (
        lambda tmp: analysis.asymmetric_rate_bounds(_gains(3), [0.2, 0.2, 1.0], range(3)),
        ValueError, "all q must lie strictly inside (0,1)"),
    "channels.TransmitFrame-length": (
        lambda tmp: channels.TransmitFrame(symbols=np.ones(3), mask=_mask(4)),
        ValueError, "symbols and mask must have equal length"),
    # a mask is a 1-D 0/1 row wherever the channel takes one
    "channels.TransmitFrame-mask-2d": (
        lambda tmp: channels.TransmitFrame(symbols=np.ones((2, 2)), mask=np.zeros((2, 2))),
        ValueError, "frame mask bits must be a 1-D vector, got shape (2, 2)"),
    "channels.TransmitFrame-mask-fraction": (
        lambda tmp: channels.TransmitFrame(symbols=np.ones(2), mask=[0.5, 1]), ValueError,
        "mask bits must be 0/1"),
    "channels.or_channel-receiver-mask-2d": (
        lambda tmp: channels.or_channel(np.zeros((2, 2)), []), ValueError,
        "receiver mask bits must be a 1-D vector, got shape (2, 2)"),
    "channels.or_channel-receiver-mask-bits": (
        lambda tmp: channels.or_channel([0, 2], []), ValueError, "mask bits must be 0/1"),
    "channels.or_channel-peer-mask-2d": (
        lambda tmp: channels.or_channel(_mask(2), [(np.zeros((1, 2)), [1, 1])]), ValueError,
        "peer 0 mask bits must be a 1-D vector, got shape (1, 2)"),
    "channels.or_channel-peer-mask-bits": (
        lambda tmp: channels.or_channel(_mask(2), [(_mask(2), [1, 1]), ([0, 2], [1, 1])]),
        ValueError, "mask bits must be 0/1"),
    "channels.gaussian_mac-silent-receiver": (
        lambda tmp: channels.gaussian_mac(0, [0.0, 1.0], [None, _frame(4)], 1.0, seed=0),
        ValueError, "the receiver needs a frame"),
    "channels.gaussian_mac-frame-length": (
        lambda tmp: channels.gaussian_mac(0, [0.0, 1.0], [_frame(4), _frame(3)], 1.0, seed=0),
        ValueError, "frame of node 1 has length 3, expected 4"),
    "channels.gaussian_mac-short-gain-row": (
        lambda tmp: channels.gaussian_mac(0, [0.0, 1.0], [_frame(4)] * 3, 1.0, seed=0),
        ValueError, "need one gain per frame: got shape (2,) for 3 frames"),
    "channels.gaussian_mac-long-gain-row": (
        lambda tmp: channels.gaussian_mac(0, np.ones(4), [_frame(4)] * 3, 1.0, seed=0),
        ValueError, "need one gain per frame: got shape (4,) for 3 frames"),
    "cli.parse_grid-step": (
        lambda tmp: cli.parse_grid("0:1:-0.5"), cli.UsageError,
        "grid step must be positive in '0:1:-0.5'"),
    "cli.config-no-equals": (
        lambda tmp: _config(tmp, "# fig2\nK 3\n"), cli.UsageError,
        "run.cfg:2: expected `key = value`"),
    "cli.gains-file-unreadable": (
        lambda tmp: cli._read_gains_file(str(tmp / "missing.txt")), cli.UsageError,
        "cannot read gains file"),
    "discovery.observe_discovery-book-size": (
        lambda tmp: discovery.observe_discovery(_topology(3), 5.0, 0, _book(2)),
        ValueError, "book must cover every node in the topology"),
    "discovery.observe_discovery-mode": (
        lambda tmp: discovery.observe_discovery(_topology(3), 5.0, 0, _book(3), "loud"),
        ValueError, "unknown discovery mode 'loud'"),
    "discovery.observe_discovery-node": (
        lambda tmp: discovery.observe_discovery(_topology(3), 5.0, 3, _book(3)),
        ValueError, _RECEIVERS),
    "discovery.survivors-width": (
        lambda tmp: discovery.survivors(_book(3), np.zeros((1, 8), dtype=bool)),
        ValueError, "quiet rows of shape (1, 8) do not match 16-slot masks"),
    # an unknown NIA was a bare KeyError carrying only the number
    "discovery.eliminate-receiver-nia": (
        lambda tmp: _eliminate(99), KeyError, "NIA 99 is not in the book"),
    "discovery.eliminate-candidate-nia": (
        lambda tmp: _eliminate(0, [1, 9]), KeyError, "NIA 9 is not in the book"),
    "discovery.random_access_baseline-tx_prob": (
        lambda tmp: discovery.random_access_baseline([{1}, {0}], 8, 1.5, 0.9, seed=0),
        ValueError, "tx_prob must lie in [0,1]"),
    "discovery.random_access_baseline-frame_bits": (
        lambda tmp: discovery.random_access_baseline([{1}, {0}], 0, 0.5, 0.9, seed=0),
        ValueError, "frame_bits must be >= 1"),
    "discovery.run_discovery_experiment-radius-nan": (
        lambda tmp: discovery.run_discovery_experiment(_topology(3), np.nan, 16, 0.2),
        ValueError, "radius must be nonnegative and finite, got nan"),
    "discovery.run_discovery_experiment-radius-negative": (
        lambda tmp: discovery.run_discovery_experiment(_topology(3), -1.0, 16, 0.2),
        ValueError, "radius must be nonnegative and finite, got -1.0"),
    "discovery.neighbor_lists-radius-inf": (
        lambda tmp: discovery.neighbor_lists(_topology(3), np.inf),
        ValueError, "radius must be nonnegative and finite, got inf"),
    # -1 listed the last node as its own neighbor, 1.5 read as node 1,
    # True as node 1, and 3 died with a bare IndexError
    "discovery.neighbor_lists-node-negative": (
        lambda tmp: discovery.neighbor_lists(_topology(3), 5.0, [-1]), ValueError, _RECEIVERS),
    "discovery.neighbor_lists-node-float": (
        lambda tmp: discovery.neighbor_lists(_topology(3), 5.0, [1.5]), ValueError, _RECEIVERS),
    "discovery.neighbor_lists-node-bool": (
        lambda tmp: discovery.neighbor_lists(_topology(3), 5.0, [True]), ValueError, _RECEIVERS),
    "discovery.neighbor_lists-node-past-end": (
        lambda tmp: discovery.neighbor_lists(_topology(3), 5.0, [0, 3]), ValueError,
        _RECEIVERS),
    "model.Topology-positions": (
        lambda tmp: model.Topology(positions=np.zeros((3, 3)), alpha=4.0, unit_snr=1.0,
                                   neighbor_threshold=1.0, area_side=10.0),
        ValueError, "positions must have shape (K, 2)"),
    "model.LinkGains-square": (
        lambda tmp: model.LinkGains(gamma=np.zeros((2, 3))), ValueError,
        "gamma must be a square matrix"),
    "model.LinkGains-negative": (
        lambda tmp: model.LinkGains(gamma=[[0.0, -1.0], [1.0, 0.0]]), ValueError,
        "link gains must be nonnegative"),
    "model.gain_row-one-node": (
        lambda tmp: model.gain_row(_topology(1), 0), ValueError,
        "link gains need at least 2 nodes"),
    # -1 gave the row of the last node
    "model.gain_row-node-negative": (
        lambda tmp: model.gain_row(_topology(3), -1), ValueError, _RECEIVERS),
    "signatures.SignatureBook-negative": (
        lambda tmp: signatures.SignatureBook([1], bits=[[-1, 0]]), ValueError,
        "mask bits must be 0/1"),
    "signatures.SignatureBook-fraction": (
        lambda tmp: signatures.SignatureBook([1], np.array([[0.25, 1.0]])), ValueError,
        "mask bits must be 0/1"),
    "signatures.derive_bit-slot": (
        lambda tmp: signatures.derive_bit(0, 0.5, -1), ValueError,
        "slot must be nonnegative"),
    # q * 2**64 truncated to an on-threshold of 0, so every mask came out empty
    "signatures.derive_bit-q-below-word": (
        lambda tmp: signatures.derive_bit(0, 1e-300, 0), ValueError,
        "on-probability q must be at least 2**-64, got 1e-300"),
    "signatures.reconstruct_book-q-below-word": (
        lambda tmp: signatures.reconstruct_book(range(3), 2.0**-65, 16), ValueError,
        "on-probability q must be at least 2**-64"),
    "sparsecode.encode-nia": (
        lambda tmp: sparsecode.encode(
            sparsecode.build_message_book([5, 6], mu=2, q=0.3, num_slots=16), 7, 1),
        KeyError, "NIA 7 is not in the book"),
    "validate.mc_gauss_rate-gamma": (
        lambda tmp: validate.mc_gauss_rate(3, 0.2, -1.0, 1000, 0), ValueError,
        "gamma must be nonnegative"),
    "validate.validate_suite-suite": (
        lambda tmp: validate.validate_suite(0, 1000, suite="loud"), ValueError,
        "unknown suite 'loud'"),
}


@pytest.mark.parametrize("call, exception, fragment", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_bad_input_is_refused_by_name(tmp_path, call, exception, fragment):
    with pytest.raises(exception, match=re.escape(fragment)):
        call(tmp_path)
