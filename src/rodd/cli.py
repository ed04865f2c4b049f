"""Command-line front end: experiment orchestration and CSV emission.

Every randomized command requires an explicit --seed and produces
byte-identical output when rerun with the same flags.  fig3's --gamma-db
is converted to linear SNR here; discover's --snr-db is passed in dB to
discovery.poisson_discovery_topology, which converts it.  The rest of the
library works in linear units.

Exit codes: 0 success, 2 usage error, 3 check failure (--check).
"""

import argparse
import math
import os
import sys

import numpy as np

from . import analysis, channels, discovery, model, signatures, sparsecode, validate


# Largest colon grid built; a finer step is refused before any list is made.
_MAX_GRID_POINTS = 10**6


class UsageError(Exception):
    pass


class CheckFailure(Exception):
    pass


def _entries(text, what):
    """The comma-separated entries of text; a blank entry is refused."""
    entries = text.split(",")
    if not any(tok.strip() for tok in entries):
        raise UsageError(f"empty {what} {text!r}")
    if not all(tok.strip() for tok in entries):
        raise UsageError(f"empty entry in {what} {text!r}")
    return entries


def parse_grid(text):
    """`start:stop:step` inclusive grid, or a comma-separated list."""
    try:
        if ":" in text:
            start, stop, step = (float(tok) for tok in text.split(":"))
            if not all(map(math.isfinite, (start, stop, step))):
                raise UsageError(f"grid bounds and step must be finite in {text!r}")
            if step <= 0:
                raise UsageError(f"grid step must be positive in {text!r}")
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            if count > _MAX_GRID_POINTS:
                raise UsageError(f"grid {text!r} has {count} points, more than "
                                 f"{_MAX_GRID_POINTS}")
            grid = [start + i * step for i in range(count)]
        else:
            grid = [float(tok) for tok in _entries(text, "grid")]
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"cannot parse grid {text!r}: {exc}") from None
    if not grid:
        raise UsageError(f"empty grid {text!r}")
    return grid


def parse_int_list(text):
    try:
        return [int(tok) for tok in _entries(text, "integer list")]
    except ValueError as exc:
        raise UsageError(f"cannot parse integer list {text!r}: {exc}") from None


def parse_q_grid(text):
    grid = parse_grid(text)
    if any(not (0.0 < q < 1.0) for q in grid):
        raise UsageError("q grid must lie strictly inside (0,1)")
    return grid


def db_to_linear(db):
    if not math.isfinite(db):
        raise UsageError(f"dB value must be finite, got {db}")
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise UsageError(f"dB value {db:g} overflows the linear scale") from None


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)


def _check_out(path):
    """Refuse an --out that cannot be written, before any work; the file is
    neither created nor truncated until its CSV is ready."""
    if path == "-":
        return
    folder = os.path.dirname(path) or "."
    if not path:
        problem = "the path is empty"
    elif not os.path.isdir(folder):
        problem = f"no folder {folder!r}"
    elif os.path.isdir(path):
        problem = "it is a folder"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        problem = "permission denied"
    else:
        return
    raise UsageError(f"cannot write --out {path!r}: {problem}")


def _say(args, message):
    print(message, file=sys.stderr if args.out == "-" else sys.stdout)


def _require_seed(args):
    if args.seed is None:
        raise UsageError("--seed is required (rerunning with the same seed "
                         "must reproduce the output byte for byte)")
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")


def _load_config(path, subparser):
    """Flat `key = value` file applied as subcommand defaults.

    Keys match the long flag names (dashes or underscores); values go
    through the same conversion as flag strings.  Flags given on the
    command line still win because argparse only consults defaults for
    absent flags.
    """
    actions = {a.dest: a for a in subparser._actions}
    out = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected `key = value`")
        key, value = (tok.strip() for tok in line.split("=", 1))
        dest = key.replace("-", "_")
        action = actions.get(dest)
        if action is None or dest in ("help", "config"):
            raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            if value.lower() not in ("0", "1", "true", "false", "yes", "no"):
                raise UsageError(f"{path}:{lineno}: boolean expected for {key!r}")
            out[dest] = value.lower() in ("1", "true", "yes")
        else:
            try:
                out[dest] = action.type(value) if action.type else value
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
            if action.choices and out[dest] not in action.choices:
                raise UsageError(f"{path}:{lineno}: {key!r} must be one of "
                                 f"{sorted(action.choices)}")
    return out


def _add_common(sub, run):
    sub.set_defaults(run=run)
    sub.add_argument("--config", help="flat key=value file; flags override it")
    sub.add_argument("--out", default="-", help="output path ('-' = stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rodd",
        description="On-off duplex signaling: throughput tables, neighbor "
                    "discovery and sparse-recovery message code experiments.",
    )
    subs = parser.add_subparsers(dest="command", metavar="command")

    for name, help_text in (("fig2", "OR-channel sum rate/capacity vs ALOHA sweep"),
                            ("fig3", "Gaussian-channel sweep at fixed SNR")):
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--K", type=parse_int_list, default="3,5,20",
                       help="comma list of node counts")
        p.add_argument("--q", type=parse_q_grid, default="0.02:0.98:0.02",
                       help="q grid start:stop:step")
        if name == "fig3":
            p.add_argument("--gamma-db", type=float, default=20.0, help="link SNR in dB")
        p.add_argument("--check", action="store_true",
                       help="verify dominance per row, exit 3 on failure")
        _add_common(p, _cmd_sweep)

    p = subs.add_parser("discover", help="network-wide compressed neighbor discovery")
    p.add_argument("--n", type=int, default=10000, help="expected node count")
    p.add_argument("--neighbors", type=float, default=50.0, help="mean neighbor degree")
    p.add_argument("--M", type=int, default=2500, help="signature length in slots")
    p.add_argument("--q", type=float, default=0.02, help="signature on-probability")
    p.add_argument("--mode", choices=("or", "energy"), default="or")
    p.add_argument("--snr-db", type=float, default=20.0,
                   help="link SNR at the neighborhood boundary, dB")
    p.add_argument("--noise-var", type=float, default=1.0)
    p.add_argument("--threshold", type=float, default=None,
                   help="energy elimination threshold (default: tuned)")
    p.add_argument("--threshold-sweep", type=parse_grid, metavar="LO:HI:STEP",
                   help="energy mode: sweep thresholds, emit tradeoff CSV")
    p.add_argument("--receivers", type=int, default=None,
                   help="evaluate only the first R receivers")
    p.add_argument("--area", type=float, default=1000.0, help="square side, meters")
    p.add_argument("--alpha", type=float, default=4.0, help="path-loss exponent")
    p.add_argument("--no-torus", action="store_true",
                   help="disable wraparound distances (edge effects return)")
    p.add_argument("--seed", type=int, default=None,
                   help="draws topology and noise; the book is always NIAs 0..N-1")
    _add_common(p, _cmd_discover)

    p = subs.add_parser("sparsecode", help="mu-signatures-per-node message code trial")
    p.add_argument("--K", type=int, default=10, help="clique size")
    p.add_argument("--mu", type=int, default=1024, help="messages per node")
    p.add_argument("--q", type=float, default=0.09, help="signature on-probability")
    p.add_argument("--M", type=int, default=512, help="signature length in slots")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p, _cmd_sparsecode)

    p = subs.add_parser("validate", help="Monte Carlo vs closed-form rate checks")
    p.add_argument("--suite", choices=("all", "or", "gauss"), default="all")
    p.add_argument("--M", type=int, default=100000, help="slots per estimate")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--check", action="store_true", help="exit 3 if any row fails")
    _add_common(p, _cmd_validate)

    p = subs.add_parser("asym", help="per-node achievable rates from a gain matrix")
    p.add_argument("--gains-file", required=True,
                   help="whitespace K x K matrix, gamma[i][j] = SNR of j at i")
    p.add_argument("--q", type=parse_q_grid, default="0.2",
                   help="per-node on-probabilities (single value or comma list)")
    _add_common(p, _cmd_asym)

    p = subs.add_parser("trace", help="slot-by-slot observation of one receiver")
    p.add_argument("--n", type=int, default=4, help="expected node count")
    p.add_argument("--receiver", type=int, default=0)
    p.add_argument("--M", type=int, default=50, help="frame length in slots")
    p.add_argument("--q", type=float, default=0.35)
    p.add_argument("--mode", choices=("or", "gauss"), default="or")
    p.add_argument("--noise-var", type=float, default=0.0)
    p.add_argument("--area", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p, _cmd_trace)

    return parser, subs.choices


def _cmd_sweep(args):
    """fig2 (OR channel) or fig3 (Gaussian channel at --gamma-db)."""
    if args.command == "fig2":
        table, note = analysis.sweep_or(args.K, args.q), ""
    else:
        gamma = db_to_linear(args.gamma_db)
        table, note = analysis.sweep_gauss(args.K, args.q, gamma), f" (gamma = {gamma:.6g})"
    _write_text(args.out, table.to_csv())
    _say(args, f"{args.command}: wrote {len(table.rows)} rows to {args.out}{note}")
    if args.check:
        failures = 0
        for row in table.rows:
            ok = (row.rodd_sum_rate >= row.aloha - 1e-9
                  and row.rodd_sum_capacity >= row.rodd_sum_rate - 1e-9)
            _say(args, f"check K={row.K} q={row.q:.12g} {'PASS' if ok else 'FAIL'}")
            failures += not ok
        if failures:
            raise CheckFailure(f"dominance failed on {failures} rows")
    return 0


def _cmd_discover(args):
    if args.receivers is not None and args.receivers < 1:
        raise UsageError(f"--receivers must be at least 1, got {args.receivers}")
    if args.threshold is not None and args.threshold_sweep is not None:
        raise UsageError("--threshold and --threshold-sweep exclude each other")
    mode = discovery.OR_NOISELESS if args.mode == "or" else discovery.ENERGY
    topo, radius = discovery.poisson_discovery_topology(
        args.n, args.neighbors, args.seed, area_side=args.area,
        alpha=args.alpha, snr_db=args.snr_db, torus=not args.no_torus)
    receivers = None if args.receivers is None else np.arange(
        min(args.receivers, topo.num_nodes))
    run = dict(noise_var=args.noise_var, seed=args.seed, receivers=receivers)
    if args.threshold_sweep is not None:
        reports = discovery.run_threshold_sweep(
            topo, radius, args.M, args.q, args.threshold_sweep, mode, **run)
        lines = ["threshold,mean_miss_rate,mean_false_alarm_rate,mean_accuracy"]
        for rep in reports:
            lines.append(f"{rep.threshold:.12g},{rep.mean_miss_rate:.12g},"
                         f"{rep.mean_false_alarm_rate:.12g},{rep.mean_accuracy:.12g}")
            _say(args, f"discover: threshold {rep.threshold:g} -> accuracy "
                       f"{rep.mean_accuracy:.6f}")
        _write_text(args.out, "\n".join(lines) + "\n")
        return 0
    rep = discovery.run_discovery_experiment(topo, radius, args.M, args.q, mode,
                                             threshold=args.threshold, **run)
    _write_text(args.out, rep.to_csv())
    _say(args, f"discover: {topo.num_nodes} nodes, {args.M} slots, mode={args.mode}, "
               f"mean accuracy {rep.mean_accuracy:.6f}, "
               f"misses {rep.total_misses}, false alarms {rep.total_false_alarms}")
    return 0


def _cmd_sparsecode(args):
    rep = sparsecode.run_sparsecode_experiment(
        args.K, args.mu, args.q, args.M, args.trials, args.seed)
    _write_text(args.out, rep.to_csv())
    s = rep.summary
    _say(args, f"sparsecode: {s.pairs} pairs, success {s.success_rate:.6f}, "
               f"no-miss {s.no_miss_rate:.6f}, ambiguous {s.ambiguous}, "
               f"eliminated-all {s.eliminated_all}")
    return 0


def _cmd_validate(args):
    rep = validate.validate_suite(args.seed, args.M, suite=args.suite)
    _write_text(args.out, rep.to_csv())
    n_pass = sum(r.passed for r in rep.rows)
    _say(args, f"validate: {n_pass}/{len(rep.rows)} rows within 3 standard errors")
    if args.check and not rep.all_passed:
        raise CheckFailure(f"{len(rep.rows) - n_pass} validation rows failed")
    return 0


def _read_gains_file(path):
    rows = []
    try:
        with open(path, encoding="utf-8") as f:
            for raw in f:
                line = raw.split("#", 1)[0].strip()
                if line:
                    rows.append([float(tok) for tok in line.split()])
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read gains file {path!r}: {exc}") from None
    if not rows or any(len(r) != len(rows) for r in rows):
        raise UsageError(f"gains file {path!r} must hold a square matrix")
    return model.LinkGains(gamma=np.array(rows))


def _cmd_asym(args):
    gains = _read_gains_file(args.gains_file)
    K = gains.num_nodes
    qs = args.q * K if len(args.q) == 1 else args.q
    if len(qs) != K:
        raise UsageError(f"need 1 or {K} q values, got {len(qs)}")
    lines = ["node,q,rate_bound"]
    for k, bound in enumerate(analysis.asymmetric_rate_bounds(gains, np.array(qs), range(K))):
        lines.append(f"{k},{qs[k]:.12g},{bound:.12g}")
    _write_text(args.out, "\n".join(lines) + "\n")
    _say(args, f"asym: {K} nodes from {args.gains_file}")
    return 0


def _cmd_trace(args):
    if not 0 <= args.noise_var < math.inf:
        raise UsageError(f"noise_var must be nonnegative and finite, got {args.noise_var}")
    try:
        density = args.n / args.area**2
    except (ZeroDivisionError, OverflowError):
        density = math.nan
    if not (0 < args.area < math.inf and math.isfinite(density)):
        raise UsageError(f"--area must be positive, with a square that is a nonzero "
                         f"finite float, got {args.area}")
    topo = model.generate_poisson_network(args.area, density, args.seed)
    n = topo.num_nodes
    if not (0 <= args.receiver < n):
        raise UsageError(f"receiver {args.receiver} out of range: the Poisson "
                         f"draw produced {n} nodes")
    if n < 2:
        raise UsageError("link gains need at least 2 nodes")
    book = signatures.reconstruct_book(range(n), args.q, args.M)
    rng = np.random.default_rng((args.seed, 0x7ACE))
    if args.mode == "or":
        peers = [(book[j], rng.integers(0, 2, args.M).astype(np.uint8))
                 for j in range(n) if j != args.receiver]
        obs = channels.or_channel(book[args.receiver], peers)
    else:
        frames = []
        for j in range(n):
            symbols = rng.normal(0.0, 1.0, args.M)
            power = float(np.sum(book[j] * symbols**2))
            symbols *= math.sqrt(args.M / max(power, args.M))
            frames.append(channels.TransmitFrame(symbols=symbols, mask=book[j]))
        obs = channels.gaussian_mac(args.receiver, model.gain_row(topo, args.receiver),
                                    frames, args.noise_var, seed=args.seed)
    _write_text(args.out, channels.dump_observation(obs))
    _say(args, f"trace: receiver {args.receiver} of {n} nodes, {args.M} slots, "
               f"mode={args.mode}")
    return 0


def main(argv=None):
    parser, registry = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        if args.config is not None:
            sub = registry[args.command]
            sub.set_defaults(**_load_config(args.config, sub))
            args = parser.parse_args(argv)
        _check_out(args.out)
        if hasattr(args, "seed"):
            _require_seed(args)
        return args.run(args)
    except (UsageError, ValueError, analysis.WaterLevelBracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3
