import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rodd import cli


def run(*argv):
    return cli.main(list(argv))


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_parse_grid_colon_syntax():
    grid = cli.parse_grid("0.02:0.98:0.02")
    assert len(grid) == 49
    assert grid[0] == pytest.approx(0.02)
    assert grid[-1] == pytest.approx(0.98)


def test_parse_grid_comma_list():
    assert cli.parse_grid("0.1,0.5") == [0.1, 0.5]


def test_parse_grid_rejects_garbage():
    with pytest.raises(cli.UsageError):
        cli.parse_grid("0.1:0.9")
    with pytest.raises(cli.UsageError):
        cli.parse_grid("0.9:0.1:0.1")
    with pytest.raises(cli.UsageError):
        cli.parse_grid("a:b:c")
    with pytest.raises(cli.UsageError):
        cli.parse_q_grid("0:0.9:0.1")
    with pytest.raises(cli.UsageError, match="empty grid"):
        cli.parse_grid(",")
    with pytest.raises(cli.UsageError, match="'0:1:1e-6' has 1000001 points, more than 10"):
        cli.parse_grid("0:1:1e-6")
    assert len(cli.parse_grid("1:1000000:1")) == 10**6


def test_fig2_row_count_and_determinism(tmp_path):
    out = tmp_path / "fig2.csv"
    hashes = set()
    for _ in range(3):
        assert run("fig2", "--K", "3,5,20", "--q", "0.02:0.98:0.02",
                   "--out", str(out)) == 0
        hashes.add(digest(out))
    assert len(hashes) == 1
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 148  # header + 147 rows
    assert out.read_bytes().count(b"\r") == 0


def test_fig2_check_passes(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    assert run("fig2", "--K", "3", "--q", "0.1:0.9:0.4", "--check",
               "--out", str(out)) == 0
    assert "PASS" in capsys.readouterr().out


def test_fig2_check_failure_exits_3_after_writing_the_csv(tmp_path, capsys, monkeypatch):
    from rodd import analysis

    aloha = analysis.or_aloha_throughput

    def inflated(K, q):    # ALOHA beats RODD at q = 0.5 only
        return aloha(K, q) + (1.0 if q == 0.5 else 0.0)
    monkeypatch.setattr(analysis, "or_aloha_throughput", inflated)
    out = tmp_path / "fig2.csv"
    assert run("fig2", "--K", "3", "--q", "0.2,0.5", "--check", "--out", str(out)) == 3
    captured = capsys.readouterr()
    assert "check failed: dominance failed on 1 rows" in captured.err
    assert "check K=3 q=0.5 FAIL" in captured.out
    assert "check K=3 q=0.2 PASS" in captured.out
    assert len(out.read_text().splitlines()) == 3    # header + both rows


def test_fig2_empty_grid_is_usage_error(tmp_path):
    assert run("fig2", "--q", "0.9:0.1:0.1", "--out", str(tmp_path / "x")) == 2


@pytest.mark.parametrize("grid", ["0.1:inf:0.1", "-inf:0.5:0.1", "0.1:0.5:inf",
                                  "0.1:nan:0.1"])
def test_fig2_non_finite_grid_is_usage_error(tmp_path, capsys, grid):
    assert run("fig2", f"--q={grid}", "--out", str(tmp_path / "x")) == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("K,q", [("3,,5", "0.1"), ("3,", "0.1"), (",3", "0.1"),
                                 ("3", "0.1,,0.2"), ("3", "0.1, ")])
def test_fig2_empty_list_entry_is_usage_error(tmp_path, capsys, K, q):
    out = tmp_path / "x"
    assert run("fig2", f"--K={K}", f"--q={q}", "--out", str(out)) == 2
    assert "empty entry" in capsys.readouterr().err
    assert not out.exists()


def test_discover_nan_snr_is_usage_error(tmp_path, capsys):
    assert run("discover", "--n", "200", "--neighbors", "6", "--M", "300", "--q", "0.1",
               "--area", "300", "--seed", "1", "--receivers", "3", "--snr-db", "nan",
               "--out", str(tmp_path / "x")) == 2
    assert "snr_db" in capsys.readouterr().err


def test_fig3_writes_gamma_column(tmp_path):
    out = tmp_path / "fig3.csv"
    assert run("fig3", "--gamma-db", "20", "--K", "3,5", "--q", "0.1:0.9:0.2",
               "--out", str(out)) == 0
    assert ",100," in out.read_text().splitlines()[1]


def test_fig3_infinite_gamma_guard(tmp_path, capsys):
    assert run("fig3", "--gamma-db=-inf", "--out", str(tmp_path / "x")) == 2
    # 10**(db/10) raised OverflowError, exit 1
    assert run("fig3", "--gamma-db", "1e308", "--out", str(tmp_path / "x")) == 2
    assert "dB value 1e+308 overflows" in capsys.readouterr().err


def test_seed_is_mandatory(tmp_path, capsys):
    assert run("discover", "--n", "30", "--neighbors", "4",
               "--out", str(tmp_path / "x")) == 2
    assert run("sparsecode", "--K", "3", "--mu", "4", "--trials", "2",
               "--out", str(tmp_path / "x")) == 2
    assert run("validate", "--out", str(tmp_path / "x")) == 2
    assert run("trace", "--out", str(tmp_path / "x")) == 2
    assert capsys.readouterr().err.count("--seed is required") == 4


def test_the_parser_converts_list_flags_and_their_string_defaults():
    parser, _ = cli.build_parser()
    args = parser.parse_args(["fig2", "--K", "3,5"])
    assert args.K == [3, 5] and len(args.q) == 49 and args.q[0] == 0.02
    args = parser.parse_args(["discover", "--threshold-sweep", "1:3:1"])
    assert args.threshold_sweep == [1.0, 2.0, 3.0]
    assert parser.parse_args(["asym", "--gains-file", "g"]).q == [0.2]


def test_discover_smoke(tmp_path):
    out = tmp_path / "d.csv"
    assert run("discover", "--n", "20", "--neighbors", "4", "--M", "200",
               "--q", "0.1", "--area", "100", "--seed", "1",
               "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("receiver,")
    assert lines[-1].startswith("aggregate,")


@pytest.mark.parametrize("count", ["0", "-1"])
def test_discover_rejects_fewer_than_one_receiver(tmp_path, capsys, count):
    out = tmp_path / "d.csv"
    assert run("discover", "--n", "20", "--neighbors", "4", "--M", "200",
               "--q", "0.1", "--area", "100", "--receivers", count, "--seed", "1",
               "--out", str(out)) == 2
    assert "--receivers" in capsys.readouterr().err
    assert not out.exists()


def test_discover_determinism(tmp_path):
    out = tmp_path / "d.csv"
    argv = ["discover", "--n", "60", "--neighbors", "5", "--M", "300",
            "--q", "0.1", "--area", "100", "--mode", "energy", "--seed", "4",
            "--out", str(out)]
    hashes = {(run(*argv), digest(out)) for _ in range(3)}
    assert len(hashes) == 1


def test_discover_threshold_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run("discover", "--n", "40", "--neighbors", "4", "--M", "200",
               "--q", "0.1", "--area", "100", "--mode", "energy",
               "--threshold-sweep", "5:45:20", "--seed", "2",
               "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "threshold,mean_miss_rate,mean_false_alarm_rate,mean_accuracy"
    assert len(lines) == 4


def test_threshold_sweep_over_receivers_without_neighbors(tmp_path):
    # receiver 0 of this sparse network has no neighbor: its rates are
    # undefined, so the sweep row reads nan instead of crashing
    out = tmp_path / "sweep.csv"
    assert run("discover", "--n", "40", "--neighbors", "0.05", "--area", "1000",
               "--M", "100", "--q", "0.1", "--mode", "energy",
               "--threshold-sweep", "1:2:1", "--receivers", "1", "--seed", "1",
               "--out", str(out)) == 0
    assert out.read_text().split("\n")[1:3] == ["1,nan,nan,nan", "2,nan,nan,nan"]


def test_discover_rejects_negative_noise_variance(tmp_path, capsys):
    for mode in ("energy", "or"):   # OR mode never reads it, yet must refuse it
        assert run("discover", "--n", "40", "--neighbors", "4", "--M", "100",
                   "--q", "0.1", "--area", "100", "--mode", mode, "--noise-var", "-1",
                   "--seed", "1", "--out", str(tmp_path / "x")) == 2
        assert "noise_var must be nonnegative" in capsys.readouterr().err


def test_discover_refuses_a_q_below_one_philox_step(tmp_path, capsys):
    # q * 2**64 truncated to 0: every mask was empty and the run exited 0
    out = tmp_path / "d.csv"
    assert run("discover", "--n", "200", "--neighbors", "8", "--M", "80", "--q", "1e-300",
               "--seed", "1", "--out", str(out)) == 2
    assert "q must be at least 2**-64, got 1e-300" in capsys.readouterr().err
    assert not out.exists()


def test_a_tuned_threshold_that_overflows_is_refused_by_noise_var(tmp_path, capsys,
                                                                  monkeypatch):
    from rodd import discovery, signatures

    out = tmp_path / "d.csv"
    argv = ["discover", "--n", "60", "--neighbors", "5", "--M", "64", "--mode", "energy",
            "--noise-var", "1e308", "--seed", "1", "--out", str(out)]
    with monkeypatch.context() as patch:
        def refuse(*args, **kwargs):
            raise AssertionError("the neighbor query or the book was made")
        patch.setattr(discovery, "neighbor_lists", refuse)
        patch.setattr(signatures, "reconstruct_book", refuse)
        assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "noise_var 1e+308 times neighbor threshold 100 overflows" in err
    assert not out.exists()
    assert run(*argv, "--threshold", "5") == 0      # an explicit threshold still runs


def test_noiseless_energy_discovery_needs_a_threshold(tmp_path, capsys):
    out = tmp_path / "d.csv"
    argv = ["discover", "--n", "200", "--neighbors", "6", "--M", "300", "--q", "0.1",
            "--area", "300", "--mode", "energy", "--noise-var", "0", "--seed", "1",
            "--receivers", "3", "--out", str(out)]
    assert run(*argv) == 2
    assert "threshold" in capsys.readouterr().err
    assert not out.exists()
    assert run(*argv, "--threshold", "1") == 0
    aggregate = out.read_text().strip().split("\n")[-1].split(",")
    assert aggregate[4:] == ["0", "1"]     # no false alarm, accuracy 1


def test_discover_rejects_thresholds_the_quiet_rule_cannot_use(tmp_path, capsys, monkeypatch):
    from rodd import discovery

    def refuse(*args, **kwargs):
        raise AssertionError("the neighbor query ran before the thresholds were checked")
    monkeypatch.setattr(discovery, "neighbor_lists", refuse)
    out = tmp_path / "d.csv"
    net = ["discover", "--n", "200", "--neighbors", "6", "--M", "300", "--q", "0.1",
           "--area", "300", "--seed", "1", "--receivers", "3", "--out", str(out)]
    for flags, message in ((["--mode", "energy", "--threshold", "-1"], "nonnegative"),
                           (["--mode", "energy", "--threshold-sweep", "10,nan"],
                            "nonnegative"),
                           (["--mode", "energy", "--threshold-sweep", ","], "empty grid"),
                           (["--mode", "energy", "--threshold-sweep", "0:1:1e-6"],
                            "'0:1:1e-6' has 1000001 points"),
                           (["--mode", "energy", "--threshold", "inf"], "finite"),
                           (["--mode", "or", "--threshold", "5"], "energy mode")):
        assert run(*net, *flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_discover_accepts_the_largest_finite_threshold(tmp_path):
    out = tmp_path / "d.csv"
    assert run("discover", "--n", "200", "--neighbors", "6", "--M", "300", "--q", "0.1",
               "--area", "300", "--seed", "1", "--receivers", "3", "--mode", "energy",
               "--threshold", "1e308", "--out", str(out)) == 0
    assert out.read_text().startswith("receiver,")


@pytest.mark.parametrize("flags,name", [(["--alpha", "nan"], "alpha nan"),
                                        (["--mode", "energy", "--snr-db", "4000"],
                                         "snr_db 4000"),
                                        (["--mode", "energy", "--alpha", "1e308"],
                                         "alpha 1e+308"),
                                        (["--area", "1e200"], "area_side 1e+200")])
def test_discover_refuses_topology_parameters_that_leave_the_floats(tmp_path, capsys,
                                                                    flags, name):
    out = tmp_path / "x"
    assert run("discover", "--n", "200", "--neighbors", "6", "--M", "300", "--seed", "1",
               "--receivers", "3", *flags, "--out", str(out)) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,name", [(["--n", "0"], "expected_nodes"),
                                        (["--n", "-5"], "expected_nodes"),
                                        (["--neighbors", "-1"], "mean_neighbors"),
                                        (["--area", "0"], "area_side")])
def test_discover_rejects_nonpositive_network_sizes(tmp_path, capsys, flags, name):
    assert run("discover", "--seed", "1", *flags, "--out", str(tmp_path / "x")) == 2
    assert f"{name} must be positive" in capsys.readouterr().err


def test_energy_csv_does_not_depend_on_the_blas_thread_count(tmp_path):
    # amplitudes are summed in row order, not by BLAS, so a one-thread
    # run reproduces the golden digest of the energy threshold sweep
    from test_golden import GOLDEN
    argv, expected = next((a, h) for name, a, h in GOLDEN if name == "discover-sweep")
    out = tmp_path / "sweep.csv"
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-m", "rodd", *argv, "--out", str(out)],
                   env=env, check=True, capture_output=True)
    assert digest(out) == expected


def test_out_dash_writes_the_csv_to_stdout_and_the_summary_to_stderr(tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = ["sparsecode", "--K", "3", "--mu", "4", "--M", "64", "--trials", "2",
            "--seed", "1"]
    assert run(*argv, "--out", str(out)) == 0
    summary = capsys.readouterr().out
    assert run(*argv, "--out", "-") == 0
    captured = capsys.readouterr()
    assert captured.out.encode() == out.read_bytes()
    assert captured.err == summary


def test_threshold_sweep_derives_queries_and_observes_once(tmp_path, monkeypatch):
    # the sweep scores one discovery round: one book, one neighbor query,
    # one on-slot index, and each receiver observed once through the block
    # channel (no per-receiver `receive` call), at any number of thresholds
    import functools
    import inspect

    from rodd import discovery, signatures
    calls, observed = {}, []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(signatures, "reconstruct_book")
    for name in ("neighbor_lists", "receive"):
        counted(discovery, name)
    # the book's cached on-slot index: counted once per build, not per read
    for name in ("starts", "slots"):
        build = getattr(signatures.SignatureBook, name).func

        def build_index(book, build=build, name=name):
            calls[f"book.{name}"] = calls.get(f"book.{name}", 0) + 1
            return build(book)
        index = functools.cached_property(build_index)
        index.__set_name__(signatures.SignatureBook, name)
        monkeypatch.setattr(signatures.SignatureBook, name, index)
    block = discovery.receive_block

    def observe(*args, **kwargs):
        # an energy receiver's noise seed is (seed, salt, receiver)
        seeds = inspect.signature(block).bind(*args, **kwargs).arguments["seeds"]
        observed.extend(seed[2] for seed in seeds)
        return block(*args, **kwargs)
    monkeypatch.setattr(discovery, "receive_block", observe)
    for sweep, rows in (("10:40:10", 4), ("5", 1)):
        calls.clear()
        observed.clear()
        out = tmp_path / "sweep.csv"
        assert run("discover", "--n", "200", "--neighbors", "6", "--M", "300",
                   "--q", "0.1", "--area", "300", "--mode", "energy",
                   "--receivers", "30", "--threshold-sweep", sweep, "--seed", "3",
                   "--out", str(out)) == 0
        assert len(out.read_text().strip().split("\n")) == rows + 1
        assert calls == {"reconstruct_book": 1, "neighbor_lists": 1, "book.starts": 1,
                         "book.slots": 1}
        assert sorted(observed) == list(range(30))


def test_threshold_sweep_requires_energy_mode(tmp_path):
    assert run("discover", "--n", "20", "--neighbors", "4", "--seed", "1",
               "--threshold-sweep", "1:2:1", "--out", str(tmp_path / "x")) == 2


def test_a_threshold_with_a_threshold_sweep_is_refused_before_the_topology(
        tmp_path, capsys, monkeypatch):
    from rodd import discovery

    def refuse(*args, **kwargs):
        raise AssertionError("the topology was drawn before the flags were checked")
    monkeypatch.setattr(discovery, "poisson_discovery_topology", refuse)
    out = tmp_path / "sweep.csv"
    assert run("discover", "--n", "40", "--neighbors", "4", "--M", "200", "--q", "0.1",
               "--area", "100", "--mode", "energy", "--threshold", "5",
               "--threshold-sweep", "10:20:10", "--seed", "2", "--out", str(out)) == 2
    assert "--threshold and --threshold-sweep" in capsys.readouterr().err
    assert not out.exists()


def test_sparsecode_determinism(tmp_path):
    out = tmp_path / "s.csv"
    argv = ["sparsecode", "--K", "4", "--mu", "8", "--q", "0.12", "--M", "128",
            "--trials", "5", "--seed", "3", "--out", str(out)]
    hashes = {(run(*argv), digest(out)) for _ in range(3)}
    assert len(hashes) == 1
    assert out.read_text().startswith("trial,receiver,neighbor,outcome")


@pytest.mark.parametrize("flag, value, name", [
    ("--K", "0", "num_nodes"), ("--K", "1", "num_nodes"),
    ("--trials", "0", "trials"), ("--trials", "-2", "trials"),
])
def test_sparsecode_without_pairs_is_usage_error(tmp_path, capsys, flag, value, name):
    flags = {"--K": "4", "--mu": "4", "--q": "0.2", "--M": "64", "--trials": "2",
             "--seed": "1", flag: value}
    out = tmp_path / "s.csv"
    argv = [tok for item in flags.items() for tok in item]
    assert run("sparsecode", *argv, "--out", str(out)) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_validate_check_exit_codes(tmp_path):
    out = tmp_path / "v.csv"
    assert run("validate", "--seed", "3", "--M", "20000", "--check",
               "--out", str(out)) == 0
    # deterministic 3-sigma exceedance: seed 37 at M=5000 on the OR suite
    assert run("validate", "--suite", "or", "--seed", "37", "--M", "5000",
               "--check", "--out", str(out)) == 3
    assert ",FAIL" in out.read_text()


def test_asym_command(tmp_path):
    gains = tmp_path / "gains.txt"
    gains.write_text("# 2x2 demo\n0 100\n100 0\n", encoding="utf-8")
    out = tmp_path / "a.csv"
    assert run("asym", "--gains-file", str(gains), "--q", "0.5",
               "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "node,q,rate_bound"
    assert len(lines) == 3


def test_asym_rejects_ragged_matrix(tmp_path):
    gains = tmp_path / "gains.txt"
    gains.write_text("0 1\n1\n", encoding="utf-8")
    assert run("asym", "--gains-file", str(gains), "--out",
               str(tmp_path / "x")) == 2


@pytest.mark.parametrize("matrix, message", [
    ("0\n", "K=1"),                   # one node: no listener to bound against
    ("0 nan\n1 0\n", "finite"),
    ("0 inf\n1 0\n", "finite"),
])
def test_asym_refuses_gains_it_cannot_bound(tmp_path, capsys, matrix, message):
    gains = tmp_path / "gains.txt"
    gains.write_text(matrix, encoding="utf-8")
    out = tmp_path / "a.csv"
    assert run("asym", "--gains-file", str(gains), "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_asym_q_count_mismatch(tmp_path):
    gains = tmp_path / "gains.txt"
    gains.write_text("0 1 1\n1 0 1\n1 1 0\n", encoding="utf-8")
    assert run("asym", "--gains-file", str(gains), "--q", "0.2,0.3",
               "--out", str(tmp_path / "x")) == 2


@pytest.mark.parametrize("q", ["0", "0.2,1.5,0.3", "0.2,0.3,-0.1", "1"])
def test_asym_q_outside_the_unit_interval(tmp_path, capsys, q):
    gains = tmp_path / "gains.txt"
    gains.write_text("0 1 1\n1 0 1\n1 1 0\n", encoding="utf-8")
    out = tmp_path / "a.csv"
    assert run("asym", "--gains-file", str(gains), "--q", q, "--out", str(out)) == 2
    assert "strictly inside (0,1)" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\nM = 128\ntrials = 5  # inline comment\n"
                   "K = 4\nmu = 8\nq = 0.12\n", encoding="utf-8")
    out_cfg = tmp_path / "a.csv"
    out_flag = tmp_path / "b.csv"
    assert run("sparsecode", "--config", str(cfg), "--out", str(out_cfg)) == 0
    assert run("sparsecode", "--K", "4", "--mu", "8", "--q", "0.12", "--M", "128",
               "--trials", "5", "--seed", "3", "--out", str(out_flag)) == 0
    assert out_cfg.read_bytes() == out_flag.read_bytes()


def test_config_comment_and_blank_lines_are_skipped(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# fig2 at one point\n\n   \nK = 3\n  # indented comment\n"
                   "q = 0.5  # trailing comment\n\n", encoding="utf-8")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("fig2", "--config", str(cfg), "--out", str(a)) == 0
    assert run("fig2", "--K", "3", "--q", "0.5", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 2


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\nM = 128\ntrials = 5\nK = 4\nmu = 8\nq = 0.12\n",
                   encoding="utf-8")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run("sparsecode", "--config", str(cfg), "--out", str(a)) == 0
    assert run("sparsecode", "--config", str(cfg), "--trials", "2",
               "--out", str(b)) == 0
    assert len(a.read_text().splitlines()) > len(b.read_text().splitlines())


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n", encoding="utf-8")
    assert run("sparsecode", "--config", str(cfg), "--seed", "1",
               "--out", str(tmp_path / "x")) == 2


def test_config_boolean_turns_on_a_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("check = yes\nK = 3\nq = 0.1:0.9:0.4\n", encoding="utf-8")
    assert run("fig2", "--config", str(cfg), "--out", str(tmp_path / "a.csv")) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("command, line, message", [
    ("fig2", "check = maybe", "boolean expected for 'check'"),
    ("sparsecode", "trials = 2.5", "bad value for 'trials'"),
    ("discover", "mode = loud", "'mode' must be one of"),
    ("sparsecode", "help = 1", "unknown option 'help'"),
    ("sparsecode", "config = other.cfg", "unknown option 'config'"),
])
def test_config_bad_entries_exit_2(tmp_path, capsys, command, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n", encoding="utf-8")
    out = tmp_path / "x"
    assert run(command, "--config", str(cfg), "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_equals_spelling_matches_the_spaced_one(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\nM = 128\ntrials = 5\nK = 4\nmu = 8\n", encoding="utf-8")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("sparsecode", "--config", str(cfg), "--out", str(a)) == 0
    assert run("sparsecode", f"--config={cfg}", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unreadable_config_exits_2_before_any_output(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run("sparsecode", "--config", str(tmp_path / "missing.cfg"), "--seed", "1",
               "--out", str(out)) == 2
    assert "cannot read config" in capsys.readouterr().err
    assert not out.exists()


def test_config_before_the_subcommand_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\n", encoding="utf-8")
    out = tmp_path / "x.csv"
    try:  # argparse refuses the top-level option with SystemExit(2)
        code = run("--config", str(cfg), "sparsecode", "--trials", "2", "--out", str(out))
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["discover", "--n", "60", "--neighbors", "5", "--M", "64"],
    ["sparsecode", "--K", "3", "--mu", "4", "--M", "64", "--trials", "5"],
    ["validate", "--suite", "or", "--M", "1000"],
    ["trace"],
], ids=["discover", "sparsecode", "validate", "trace"])
def test_a_negative_seed_is_refused_by_name(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert run(*argv, "--seed", "-1", "--out", str(out)) == 2
    assert "--seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_trace_or_mode(tmp_path):
    out = tmp_path / "t.txt"
    assert run("trace", "--n", "4", "--M", "50", "--seed", "12",
               "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 50
    assert all(ln.split()[1] in ("E", "0", "1") for ln in lines)


def test_trace_gauss_mode_deterministic(tmp_path):
    out = tmp_path / "t.txt"
    argv = ["trace", "--n", "4", "--M", "40", "--mode", "gauss",
            "--noise-var", "0.5", "--seed", "12", "--out", str(out)]
    hashes = {(run(*argv), digest(out)) for _ in range(3)}
    assert len(hashes) == 1


def test_trace_or_mode_rejects_negative_noise_variance(tmp_path, capsys):
    out = tmp_path / "t.txt"
    assert run("trace", "--mode", "or", "--noise-var", "-1", "--seed", "1",
               "--out", str(out)) == 2
    assert "noise_var must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_trace_or_mode_rejects_a_noise_variance_gauss_mode_would_refuse(tmp_path, capsys,
                                                                         noise):
    out = tmp_path / "t.txt"
    assert run("trace", "--mode", "or", "--noise-var", noise, "--seed", "1",
               "--out", str(out)) == 2
    assert "noise_var must be nonnegative and finite" in capsys.readouterr().err
    assert not out.exists()


def test_trace_or_mode_builds_no_gain_matrix(tmp_path, monkeypatch):
    # gains are read in gauss mode only; at --n 3000 a dense K x K gain
    # matrix took the OR trace to 410 MB
    from rodd import model

    def refuse(*args, **kwargs):
        raise AssertionError("an OR trace built link gains")
    monkeypatch.setattr(model, "gain_row", refuse)
    out = tmp_path / "t.txt"
    assert run("trace", "--n", "30", "--area", "100", "--M", "40", "--mode", "or",
               "--seed", "12", "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 40


def test_trace_gauss_mode_builds_no_gain_matrix(tmp_path, monkeypatch):
    # gaussian_mac reads the receiver's gains only; at --n 3000 a dense
    # K x K matrix took the gauss trace to 413 MB
    import numpy as np

    from rodd import model
    argv = ["trace", "--n", "30", "--area", "100", "--M", "40", "--mode", "gauss",
            "--noise-var", "0.5", "--receiver", "3", "--seed", "12"]

    def matrix_row(topo, k):
        nodes = np.arange(topo.num_nodes)
        gamma = topo.path_gain(nodes[:, None], nodes)
        np.fill_diagonal(gamma, 0.0)
        return gamma[k]
    matrix = tmp_path / "matrix.txt"
    with monkeypatch.context() as patch:
        patch.setattr(model, "gain_row", matrix_row)
        assert run(*argv, "--out", str(matrix)) == 0

    sizes = []
    path_gain = model.Topology.path_gain

    def sized(topo, at, of):
        gain = path_gain(topo, at, of)
        sizes.append((gain.size, topo.num_nodes))
        return gain
    monkeypatch.setattr(model.Topology, "path_gain", sized)
    out = tmp_path / "t.txt"
    assert run(*argv, "--out", str(out)) == 0
    assert sizes and all(size <= n for size, n in sizes)
    assert out.read_bytes() == matrix.read_bytes()
    assert len(out.read_text().splitlines()) == 40


@pytest.mark.parametrize("mode", ["or", "gauss"])
def test_trace_refuses_a_one_node_draw(tmp_path, capsys, mode):
    out = tmp_path / "t.txt"
    assert run("trace", "--n", "1", "--area", "10", "--mode", mode, "--seed", "6",
               "--out", str(out)) == 2
    assert "link gains need at least 2 nodes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["or", "gauss"])
@pytest.mark.parametrize("area", ["0", "1e-300", "nan", "inf", "1e200"])
def test_trace_refuses_an_area_without_a_density(tmp_path, capsys, mode, area):
    out = tmp_path / "t.txt"
    assert run("trace", "--n", "4", "--M", "50", "--seed", "7", "--mode", mode,
               "--area", area, "--out", str(out)) == 2
    assert "--area" in capsys.readouterr().err
    assert not out.exists()


def test_trace_receiver_out_of_range(tmp_path):
    assert run("trace", "--n", "3", "--receiver", "99", "--seed", "1",
               "--out", str(tmp_path / "x")) == 2


@pytest.mark.parametrize("argv, work", [
    (["fig2", "--K", "3", "--q", "0.5"], ("analysis", "sweep_or")),
    (["discover", "--n", "200", "--neighbors", "6", "--M", "300", "--seed", "1",
      "--mode", "energy", "--threshold-sweep", "1:3:1"], ("discovery", "run_threshold_sweep")),
])
def test_an_unwritable_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                      argv, work):
    import importlib

    def refuse(*args, **kwargs):
        raise AssertionError("the command ran before its --out was checked")
    monkeypatch.setattr(importlib.import_module(f"rodd.{work[0]}"), work[1], refuse)
    for out, problem in ((tmp_path / "missing" / "p.csv", "no folder"),
                         (tmp_path, "it is a folder")):
        assert run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert str(out) in err and problem in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_an_empty_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch, source):
    # dirname('') is '.', so an empty path passed the folder check and
    # open('') raised after the sweep had run
    def refuse(*args, **kwargs):
        raise AssertionError("the command ran before its --out was checked")
    from rodd import analysis
    monkeypatch.setattr(analysis, "sweep_or", refuse)
    argv = ["fig2", "--K", "3", "--q", "0.5"]
    if source == "flag":
        argv += ["--out", ""]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out =\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert run(*argv) == 2
    assert "cannot write --out '': the path is empty" in capsys.readouterr().err


def test_the_out_check_leaves_an_existing_file_until_its_csv_is_ready(tmp_path):
    out = tmp_path / "d.csv"
    out.write_text("kept\n")
    argv = ["discover", "--n", "200", "--neighbors", "6", "--M", "300", "--q", "0.1",
            "--area", "300", "--seed", "1", "--receivers", "3", "--mode", "energy",
            "--out", str(out)]
    assert run(*argv, "--threshold", "inf") == 2
    assert out.read_text() == "kept\n"
    assert run(*argv) == 0
    assert out.read_text().startswith("receiver,")


def test_an_out_without_write_permission_is_refused(tmp_path, capsys, monkeypatch):
    # os.access grants root everything, so the denial is simulated
    asked = []

    def deny(path, mode):
        asked.append((path, mode))
        return False
    monkeypatch.setattr(cli.os, "access", deny)
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"kept\n")
    for out, checked in ((kept, kept), (tmp_path / "new.csv", tmp_path)):
        assert run("fig2", "--K", "3", "--q", "0.5", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"cannot write --out {str(out)!r}: permission denied" in err
        assert asked.pop() == (str(checked), os.W_OK)
    assert kept.read_bytes() == b"kept\n"
    assert not (tmp_path / "new.csv").exists()


def test_no_command_prints_usage():
    assert run() == 2


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("fig2", "--bogus")
    assert exc.value.code == 2


def test_a_bare_import_loads_neither_numpy_nor_scipy():
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import sys, rodd; print(rodd.__version__); "
             "print(*(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["0.1.0", ""]


_SCIPY_PROBE = ("import sys; from rodd import cli; "
                "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
                "print(*loaded()); print(cli.main(sys.argv[1:])); print(*loaded())")


@pytest.mark.parametrize("argv, loaded", [
    (["sparsecode", "--K", "3", "--mu", "4", "--M", "64", "--trials", "2", "--seed", "1"],
     set()),
    (["fig2", "--K", "3", "--q", "0.5"], set()),
    (["fig3", "--K", "3"], set()),
    (["validate", "--M", "2000", "--seed", "3"], set()),
    (["discover", "--n", "60", "--neighbors", "5", "--M", "64", "--q", "0.1", "--seed", "1"],
     {"scipy.special", "scipy.spatial"}),
])
def test_a_command_imports_only_the_scipy_it_runs(tmp_path, argv, loaded):
    # cKDTree (neighbor query) is imported on first use; the closed forms need no scipy
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv,
                           "--out", str(tmp_path / "out.csv")], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()      # a summary line may sit in between
    at_import, code, after_run = lines[0], lines[-2], lines[-1]
    assert (at_import, code) == ("", "0")
    modules = set(after_run.split())
    assert {"scipy.special", "scipy.spatial"} & modules == loaded
    if not loaded:
        assert modules == set()


def test_python_dash_m_rodd_runs_the_cli(tmp_path):
    # `python -m rodd` from a checkout: the package on PYTHONPATH, no install
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = tmp_path / "fig2.csv"
    done = subprocess.run([sys.executable, "-m", "rodd", "fig2", "--K", "3", "--q", "0.5",
                           "--out", str(out)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    expected = tmp_path / "expected.csv"
    assert run("fig2", "--K", "3", "--q", "0.5", "--out", str(expected)) == 0
    assert out.read_bytes() == expected.read_bytes()


_SWEEP_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "1e-300")


def _count(v):
    return v.is_integer() and v >= 1


def _index(v):
    return v.is_integer() and v >= 0


def _positive(v):
    return 0 < v < math.inf


def _nonnegative(v):
    return 0 <= v < math.inf


# The documented domain of every value flag, as a test on the value read as
# a float: a value that the CLI accepts with exit 0 must pass it.
_FLAG_DOMAINS = {
    "--K": _count, "--n": _count, "--M": _count, "--mu": _count, "--trials": _count,
    "--receivers": _count, "--seed": _index, "--receiver": _index,
    "--q": lambda v: 0 < v < 1, "--alpha": lambda v: 2 <= v < math.inf,
    "--gamma-db": math.isfinite, "--snr-db": math.isfinite,
    "--neighbors": _positive, "--area": _positive,
    "--noise-var": _nonnegative, "--threshold": _nonnegative,
    "--threshold-sweep": _nonnegative,
}


@pytest.mark.parametrize("base", [
    ["fig2", "--K", "3", "--q", "0.5"],
    ["fig3", "--K", "3", "--q", "0.5"],
    ["discover", "--n", "60", "--neighbors", "5", "--M", "64", "--seed", "1"],
    ["discover", "--n", "60", "--neighbors", "5", "--M", "64", "--seed", "1",
     "--mode", "energy"],
    ["sparsecode", "--K", "3", "--mu", "4", "--M", "64", "--trials", "5", "--seed", "1"],
    ["validate", "--suite", "or", "--M", "1000", "--seed", "1"],
    ["asym", "--q", "0.2"],
    ["trace", "--seed", "1"],
    ["trace", "--seed", "1", "--mode", "gauss"],
], ids=["fig2", "fig3", "discover-or", "discover-energy", "sparsecode", "validate", "asym",
        "trace-or", "trace-gauss"])
def test_every_numeric_flag_at_every_edge_value_exits_0_or_2(tmp_path, capsys, base):
    """Each value flag of the subcommand (all but --config, --out and the
    gains file) at each edge value: exit 0 or 2, never an escaped exception,
    and exit 0 only inside the flag's domain.  argparse refuses a value with
    SystemExit(2), which counts as exit 2."""
    gains = tmp_path / "gains.txt"
    gains.write_text("0 1 1\n1 0 1\n1 1 0\n", encoding="utf-8")
    argv = base + ["--out", str(tmp_path / "out.csv")]
    if base[0] == "asym":
        argv += ["--gains-file", str(gains)]
    _, registry = cli.build_parser()
    flags = [a.option_strings[-1] for a in registry[base[0]]._actions
             if a.option_strings and a.nargs != 0 and a.choices is None
             and a.dest not in ("config", "out", "gains_file")]
    assert flags and set(flags) <= _FLAG_DOMAINS.keys() and cli.main(argv) == 0
    wrong = []
    for flag in flags:
        for value in _SWEEP_VALUES:
            try:  # with "=", argparse reads "-inf" as a value, not as an option
                code = cli.main(argv + [f"{flag}={value}"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # any other escape is the failure
                code = f"{type(exc).__name__}: {exc}"
            if code not in (0, 2):
                wrong.append(f"{flag} {value}: {code}")
            elif code == 0 and not _FLAG_DOMAINS[flag](float(value)):
                wrong.append(f"{flag} {value}: accepted outside its domain")
    assert "Traceback" not in capsys.readouterr().err
    assert wrong == []


def test_the_readme_output_formats_are_the_subcommands():
    """Each bullet under README's `### Output formats` is headed by backticked
    subcommand names, and together they name each subcommand once."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Output formats\n", 1)[1].split("\n#", 1)[0]
    heads = [re.match(r"- ((?:`\w+`/?)+):", line)
             for line in section.splitlines() if line.startswith("- ")]
    assert all(heads), "a bullet under Output formats is not headed by a subcommand"
    _, registry = cli.build_parser()
    assert sorted(re.findall(r"\w+", "".join(h[1] for h in heads))) == sorted(registry)
