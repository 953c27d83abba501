"""Command-line interface.

Every subcommand writes CSV (or plain lines) preceded by '#' comment
lines that echo the fully resolved configuration, including defaulted
values and the seed, so each output is reproducible from its own header.
Every distinct warning a subcommand raises goes into that header as a
'# warning=' line.  Handlers return their header pairs and lines, and
``main`` is the only writer.
Exit codes: 0 success, 1 validation/usage error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import re
import sys
import warnings
from contextlib import nullcontext
from math import inf, isfinite, isnan, pi
from typing import Iterable

import numpy as np

from . import bounds as bnd
from . import radar, simkit
from .channel import CHANNEL_KINDS, check_channel, n0_from_snr_db, snr_from_db
from .errors import NumericError, PermradError, ValidationError
from .lehmer import (
    bits_per_block,
    check_block_size,
    permutation_to_rank,
    rank_to_permutation,
    symbol_capacity,
)
from .receiver import hungarian_detect
from .waveform import WaveformParams, synthesize

# what a command handler returns: its header pairs and its output lines
_Output = tuple[list[tuple[str, object]], Iterable[str]]

# key aliases accepted in simulate config files
_CONFIG_ALIASES = {"n_antennas": "n", "snr_db_list": "snr_db"}

# a token that starts like a negative number or number list ("-2,0,2",
# "-1e-3", "-inf") is a value, never an option
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on usage errors."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only plain "-2" and "-0.5" as negative numbers, and
        # any other token that starts with "-" as an option; that would leave
        # "--snr-db -2,0,2" without its value
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _encode_arguments(p: _Parser) -> None:
    p.add_argument("--m", type=int, required=True, help="tones per block")
    p.add_argument("--symbol", type=int, required=True, help="symbol rank (0-based)")
    p.add_argument("--bit-mode", action="store_true",
                   help="restrict symbols to the 2**floor(log2 m!) binary-addressable range")
    p.set_defaults(handler=_cmd_encode)


def _decode_arguments(p: _Parser) -> None:
    p.add_argument("--perm", type=_int_list, required=True,
                   help="comma-separated tone indices, e.g. 0,3,2,1")
    p.set_defaults(handler=_cmd_decode)


def _geometry_arguments(p: _Parser) -> None:
    """The pulse geometry of waveform, af and crlb, read by _resolve_waveform."""
    p.add_argument("--t-sec", type=float, default=1.0, help="pulse width in seconds")
    p.add_argument("--delta-f-hz", type=float, default=None,
                   help="tone spacing in Hz (default 1/t)")
    p.add_argument("--f0-hz", type=float, default=0.0, help="lowest tone frequency in Hz")


def _waveform_arguments(p: _Parser) -> None:
    p.add_argument("--m", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--symbol", type=int, default=None,
                       help="symbol to encode (default: the ascending order)")
    group.add_argument("--perm", type=_int_list, default=None, help="explicit permutation")
    _geometry_arguments(p)
    p.add_argument("--energy", type=float, default=1.0, help="total waveform energy")
    p.add_argument("--oversampling", type=int, default=None, help="samples per pulse")
    p.set_defaults(handler=_cmd_waveform)


def _detect_arguments(p: _Parser) -> None:
    p.add_argument("--matrix", required=True, help="CSV file with the square matrix ('#' comments ok)")
    p.set_defaults(handler=_cmd_detect)


def _bounds_arguments(p: _Parser) -> None:
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", "--n-antennas", dest="n", type=int, required=True,
                   help="receive antennas")
    p.add_argument("--channel", choices=CHANNEL_KINDS, default="awgn")
    p.add_argument("--rician-k", type=float, default=0.0, help="Rician factor (linear)")
    p.add_argument("--snr-db", "--snr-db-list", dest="snr_db", type=_float_list, required=True,
                   help="comma-separated SNR grid in dB (snr = energy/n0)")
    p.set_defaults(handler=_cmd_bounds)


def _simulate_arguments(p: _Parser) -> None:
    p.add_argument("--config", default=None,
                   help="flat key=value file; command-line flags win over it")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", "--n-antennas", dest="n", type=int, default=2)
    p.add_argument("--channel", choices=CHANNEL_KINDS, default="awgn")
    p.add_argument("--rician-k", type=float, default=0.0)
    p.add_argument("--snr-db", "--snr-db-list", dest="snr_db", type=_float_list,
                   default=(0.0, 2.0, 4.0, 6.0, 8.0, 10.0))
    p.add_argument("--trials", type=int, default=100_000, help="trials per SNR point")
    p.add_argument("--target-errors", type=int, default=None,
                   help="stop a point early once this many errors are seen")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--receiver", choices=("hungarian", "exhaustive"), default="hungarian",
                   help="labels the output: both receivers print the same counts")
    p.add_argument("--mode", choices=("statistic", "sampled"), default="statistic",
                   help="labels the output: both modes print the same counts")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=_cmd_simulate)


def _af_arguments(p: _Parser) -> None:
    p.add_argument("--m", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--perm", type=_int_list, default=None)
    group.add_argument("--symbol", type=int, default=None)
    group.add_argument("--order", choices=("ascending", "descending"), default=None,
                       help="convenience tone orders")
    _geometry_arguments(p)
    p.add_argument("--tau-min-sec", type=float, default=None, help="default -m*t")
    p.add_argument("--tau-max-sec", type=float, default=None, help="default +m*t")
    p.add_argument("--tau-steps", type=int, default=81)
    p.add_argument("--doppler-min-hz", type=float, default=None, help="default -2/t")
    p.add_argument("--doppler-max-hz", type=float, default=None, help="default +2/t")
    p.add_argument("--doppler-steps", type=int, default=81)
    p.add_argument("--workers", type=int, default=1,
                   help="labels the output: af runs in one process")
    p.set_defaults(handler=_cmd_af)


def _crlb_arguments(p: _Parser) -> None:
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--perm", type=_int_list, default=None, help="default ascending order")
    _geometry_arguments(p)
    p.add_argument("--bt", type=float, default=100.0,
                   help="bandwidth-time product; receiver bandwidth b = bt/t")
    p.add_argument("--energy", type=float, default=1.0)
    p.add_argument("--snr-db", "--snr-db-list", dest="snr_db", type=_float_list, required=True,
                   help="SNR grid in dB; n0 = energy / snr")
    p.set_defaults(handler=_cmd_crlb)


# subcommand -> (help line, function that adds its arguments)
_COMMANDS = {
    "encode": ("map a data symbol to a tone permutation", _encode_arguments),
    "decode": ("map a tone permutation back to its symbol", _decode_arguments),
    "waveform": ("emit waveform samples as CSV t,re,im", _waveform_arguments),
    "detect": ("detect the permutation in a correlation matrix", _detect_arguments),
    "bounds": ("closed-form error bounds as CSV", _bounds_arguments),
    "simulate": ("Monte Carlo BLER sweep as CSV", _simulate_arguments),
    "af": ("ambiguity magnitude grid as CSV tau,omega_rad_s,magnitude", _af_arguments),
    "crlb": ("delay/Doppler estimation bounds as CSV", _crlb_arguments),
}


def _command_arguments(p: _Parser, name: str) -> _Parser:
    """Add command ``name``'s arguments and --out to ``p``, and return it."""
    _COMMANDS[name][1](p)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    return p


def build_parser() -> _Parser:
    """The permrad parser with every subcommand.

    A call that names a command is parsed by that command's parser alone;
    this one is built only where its text is the output: usage, help, an
    unknown command, or the unrecognized arguments a command leaves over.
    """
    parser = _Parser(prog="permrad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in _COMMANDS.items():
        _command_arguments(sub.add_parser(name, help=help_line), name)
    return parser


def _cmd_encode(args) -> _Output:
    cap = symbol_capacity(args.m, bit_mode=args.bit_mode)
    if not 0 <= args.symbol < cap:
        raise ValidationError(
            f"symbol {args.symbol} out of range: valid symbols are 0..{cap - 1}"
            f" ({'bit' if args.bit_mode else 'symbol'} mode, m={args.m})"
        )
    perm = rank_to_permutation(args.symbol, args.m)
    header = [
        ("m", args.m),
        ("symbol", args.symbol),
        ("bit_mode", args.bit_mode),
        ("bits_per_block", bits_per_block(args.m)),
    ]
    return header, [" ".join(str(x) for x in perm)]


def _cmd_decode(args) -> _Output:
    rank = permutation_to_rank(args.perm)
    header = [
        ("m", len(args.perm)),
        ("perm", ",".join(str(x) for x in args.perm)),
    ]
    return header, [str(rank)]


def _resolve_waveform(args, energy=1.0, oversampling=None) -> tuple[list[int], WaveformParams, list]:
    """The tone order, its WaveformParams and their five header pairs, from
    --m, the geometry flags and the tone-order flags of waveform, af or
    crlb; with no tone order given, the ascending one."""
    params = WaveformParams(m=args.m, t=args.t_sec, delta_f=args.delta_f_hz, f0=args.f0_hz,
                            energy=energy, oversampling=oversampling)
    if args.perm is not None:
        perm = args.perm
    elif getattr(args, "order", None) == "descending":
        perm = list(range(args.m))[::-1]
    elif getattr(args, "symbol", None) is not None:
        perm = rank_to_permutation(args.symbol, args.m)
    else:
        perm = list(range(args.m))
    header = [
        ("m", params.m),
        ("perm", ",".join(str(x) for x in perm)),
        ("t_sec", params.t),
        ("delta_f_hz", params.delta_f),
        ("f0_hz", params.f0),
    ]
    return perm, params, header


def _cmd_waveform(args) -> _Output:
    perm, params, header = _resolve_waveform(args, args.energy, args.oversampling)
    samples = synthesize(perm, params)
    header += [
        ("energy", params.energy),
        ("oversampling", params.samples_per_pulse),
        ("sample_rate_hz", params.sample_rate),
    ]
    times = np.arange(samples.size) / params.sample_rate
    columns = zip(times.tolist(), samples.real.tolist(), samples.imag.tolist())
    return header, ["t,re,im", *(f"{t},{real},{imag}" for t, real, imag in columns)]


def _cmd_detect(args) -> _Output:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # numpy warns on a file with no data
            matrix = np.atleast_2d(np.loadtxt(args.matrix, delimiter=",", comments="#"))
    except (ValueError, UserWarning) as exc:
        raise ValidationError(f"{args.matrix}: not a numeric matrix: {exc}") from exc
    check_block_size(matrix.shape[0])  # before the O(M^3) solve, not after it
    perm = hungarian_detect(matrix)
    rank = permutation_to_rank(perm)
    header = [
        ("matrix", args.matrix),
        ("m", matrix.shape[0]),
    ]
    return header, [" ".join(str(x) for x in perm), str(rank)]


def _check_snr_grid(snr_db) -> None:
    if len(snr_db) == 0:
        raise ValidationError("snr grid must not be empty")


def _cmd_bounds(args) -> _Output:
    _check_snr_grid(args.snr_db)
    k = check_channel(args.channel, args.n, args.rician_k)
    header = [
        ("m", args.m),
        ("n", args.n),
        ("channel", args.channel),
        ("rician_k", k),
        ("snr_db", ",".join(map(str, args.snr_db))),
        ("snr_definition", "energy/n0 per receive antenna"),
    ]
    lines = ["snr_db,ub,nn,channel,M,N,K"]
    for snr_db in args.snr_db:
        ub, nn = bnd.block_error_bounds(args.m, args.n, args.channel, k, snr_from_db(snr_db))
        lines.append(f"{snr_db},{ub},{nn},{args.channel},{args.m},{args.n},{k}")
    return header, lines


def _cmd_simulate(args) -> _Output:
    cfg = simkit.SimConfig(
        m=args.m,
        n=args.n,
        snr_db=tuple(args.snr_db),
        channel=args.channel,
        k=args.rician_k,
        trials=args.trials,
        target_errors=args.target_errors,
        master_seed=args.seed,
        workers=args.workers,
    )
    header = [
        ("m", cfg.m),
        ("n", cfg.n),
        ("channel", cfg.channel),
        ("rician_k", cfg.k),
        ("snr_db", ",".join(map(str, cfg.snr_db))),
        ("trials", cfg.trials),
        ("target_errors", cfg.target_errors),
        ("seed", cfg.master_seed),
        ("receiver", args.receiver),
        ("mode", args.mode),
        ("workers", cfg.workers),
        ("snr_definition", "energy/n0 per receive antenna"),
    ]
    points = simkit.run_bler_sweep(cfg)  # warns of points that hit the trial cap
    lines = ["snr_db,bler,ci_lo,ci_hi,trials,errors,M,N,channel,K,receiver,mode,seed"]
    for pt in points:
        lines.append(
            f"{pt.snr_db},{pt.bler},{pt.ci_lo},{pt.ci_hi},"
            f"{pt.trials},{pt.errors},{cfg.m},{cfg.n},{cfg.channel},{cfg.k},"
            f"{args.receiver},{args.mode},{cfg.master_seed}"
        )
    return header, lines


def _cmd_af(args) -> _Output:
    if args.tau_steps < 1 or args.doppler_steps < 1:
        raise ValidationError(
            f"grid steps must be at least 1, got --tau-steps {args.tau_steps}, "
            f"--doppler-steps {args.doppler_steps}"
        )
    perm, params, header = _resolve_waveform(args)
    tau_min = args.tau_min_sec if args.tau_min_sec is not None else -params.duration
    tau_max = args.tau_max_sec if args.tau_max_sec is not None else params.duration
    dop_min = args.doppler_min_hz if args.doppler_min_hz is not None else -2.0 / params.t
    dop_max = args.doppler_max_hz if args.doppler_max_hz is not None else 2.0 / params.t
    for name, lo, hi in (("delay", tau_min, tau_max),
                         ("2 pi doppler", 2.0 * pi * dop_min, 2.0 * pi * dop_max)):
        # finite ends and span keep every axis value finite
        if not (isfinite(lo) and isfinite(hi) and isfinite(hi - lo)):
            raise ValidationError(f"the {name} axis from {lo} to {hi} is not finite")
    # the output grid is reserved, untouched, before the axes are built, so
    # one too large for memory is refused before its axes take any
    np.empty((args.tau_steps, args.doppler_steps))
    tau_axis = radar.af_axis(tau_min, tau_max, args.tau_steps)
    omega_axis = 2.0 * pi * radar.af_axis(dop_min, dop_max, args.doppler_steps)
    # af runs in one process and --workers only labels the output, but a
    # value below 1 is still refused, as simulate's is
    if args.workers < 1:
        raise ValidationError(f"workers must be at least 1, got {args.workers}")
    magnitudes = radar.af_grid(perm, params, tau_axis, omega_axis)
    header += [
        ("tau_min_sec", float(tau_min)),
        ("tau_max_sec", float(tau_max)),
        ("tau_steps", args.tau_steps),
        ("doppler_min_hz", float(dop_min)),
        ("doppler_max_hz", float(dop_max)),
        ("doppler_steps", args.doppler_steps),
        ("omega_rad_s", "2*pi*doppler_hz"),
        ("workers", args.workers),
    ]
    parts = [s for om in omega_axis.tolist() for s in ("", f",{om},", "")]

    def lines():
        yield "tau,omega_rad_s,magnitude"
        # |A(-tau, -Omega)| = |A(tau, Omega)|, so a tau > 0 row is often an
        # earlier row reversed: each formatted row's magnitude text is kept,
        # joined, under the bytes of its reverse until a row with those bytes
        # takes it (equal bits give equal repr, so the reuse is exact)
        mirrors = {}
        for tau, row in zip(tau_axis.tolist(), magnitudes):
            # one join per delay row over fixed slots: tau, ",omega,", magnitude, "\n" tau, ...
            parts[::3] = [str(tau)] + [f"\n{tau}"] * (args.doppler_steps - 1)
            text = mirrors.pop(row.tobytes(), None)
            if text is None:
                cells = list(map(repr, row.tolist()))  # the only per-cell work
                mirrors[row[::-1].tobytes()] = ",".join(cells)
            else:
                cells = text.split(",")[::-1]
            parts[2::3] = cells
            yield "".join(parts)

    return header, lines()


def _cmd_crlb(args) -> _Output:
    _check_snr_grid(args.snr_db)
    if not isfinite(args.bt):
        raise ValidationError(f"bandwidth-time product must be finite, got {args.bt}")
    perm, params, header = _resolve_waveform(args, args.energy)
    b = args.bt / params.t
    header += [
        ("bt", args.bt),
        ("bandwidth_hz", b),
        ("energy", args.energy),
        ("snr_db", ",".join(map(str, args.snr_db))),
        ("n0_definition", "energy/snr"),
    ]
    lines = ["snr_db,n0,crlb_tau,crlb_omega,variant"]
    indefinite = []
    for snr_db in args.snr_db:
        n0 = n0_from_snr_db(args.energy, snr_db)
        fim = radar.fisher_matrix(perm, params, n0, b)  # warns below a product of 10
        try:
            full = radar.crlb_from_fisher(fim)
        except NumericError:
            # the large-BT closed form loses positive definiteness when the
            # coupling entry dominates; report the gap instead of aborting
            full = (float("nan"), float("nan"))
            indefinite.append(snr_db)
        # without the coupling entry the bounds are 1 / the Fisher diagonal;
        # an entry that underflows to 0 gives an infinite bound
        simple = tuple(1.0 / j if j else inf for j in (fim.j11, fim.j22))
        if not all(0.0 < x < inf for x in (*full, *simple) if not isnan(x)):
            raise NumericError(
                f"a bound at snr {snr_db} dB underflows to 0 or overflows",
                j11=fim.j11, j12=fim.j12, j22=fim.j22, full=full, simplified=simple,
            )
        for variant, (tau, omega) in (("full", full), ("simplified", simple)):
            lines.append(f"{snr_db},{n0},{tau},{omega},{variant}")
    if indefinite:
        warnings.warn(
            f"fisher matrix indefinite at snr_db={','.join(map(str, indefinite))}; "
            "full-variant rows are nan (increase --bt)"
        )
    return header, lines


def _config_defaults(path: str, parser: _Parser) -> dict:
    """Parse a flat key=value file into typed defaults for ``parser``.

    A key is a flag's dest, converted by the flag's own type and checked
    against its choices.
    """
    actions = {action.dest: action for action in parser._actions
               if action.dest not in ("help", "config")}
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            key = _CONFIG_ALIASES.get(key, key)
            if key not in actions:
                raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
            action = actions[key]
            try:
                out[key] = (action.type or str)(value.strip())
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValidationError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
            if action.choices is not None and out[key] not in action.choices:
                raise ValidationError(f"{path}:{lineno}: bad value for {key}: {out[key]!r} "
                                      f"is not one of {', '.join(action.choices)}")
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    name = argv[0] if argv else None
    if name not in _COMMANDS:
        build_parser().parse_args(argv)  # exits with usage, help or an error
    # building subparsers is most of the cost of a short call, so only the
    # named command's parser is built; it reads as that subparser would
    parser = _command_arguments(_Parser(prog=f"permrad {name}"), name)
    try:
        args, extra = parser.parse_known_args(argv[1:])
        if extra:
            build_parser().parse_args(argv)  # exits: unrecognized arguments
        if getattr(args, "config", None):
            parser.set_defaults(**_config_defaults(args.config, parser))
            args = parser.parse_args(argv[1:])
        with warnings.catch_warnings(record=True) as caught:
            # permrad's own warnings go into the header, each distinct one once;
            # any other category meets the active filters, which may make it an error
            warnings.simplefilter("always", UserWarning)
            header, lines = args.handler(args)
        header = [("command", name), *header]
        header += [("warning", msg) for msg in dict.fromkeys(str(w.message) for w in caught)]
        # opened only once the command has succeeded, so a failure leaves no file
        to_file = args.out not in (None, "-")
        with open(args.out, "w", encoding="utf-8") if to_file else nullcontext(sys.stdout) as fh:
            fh.writelines(f"# {key}={value}\n" for key, value in header)
            fh.writelines(line + "\n" for line in lines)
        return 0
    except NumericError as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        if exc.details:
            sys.stderr.write(f"details: {exc.details}\n")
        return 2
    except (PermradError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {exc or 'an allocation was refused'}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
