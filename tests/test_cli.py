"""End-to-end CLI tests: golden outputs, exit codes, reproducibility."""

import argparse
import contextlib
import io
import os
import subprocess
import sys
import tracemalloc
import warnings
from math import isfinite, pi
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permrad
from permrad.cli import _COMMANDS, _command_arguments, _Parser, build_parser, main
from permrad.radar import af_axis, af_grid
from permrad.waveform import WaveformParams
from test_bounds import _disagreeing_rule, _rician_mgf_oracle
from test_radar import crlb_simplified
from test_receiver import OVERFLOWING, brute_force_detect


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _data_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line and not line.startswith("#")]


def test_encode_example(capsys):
    rc, out, _ = _run(capsys, ["encode", "--m", "4", "--symbol", "5"])
    assert rc == 0
    assert _data_lines(out) == ["0 3 2 1"]


def test_encode_decode_round_trip(capsys):
    rc, out, _ = _run(capsys, ["encode", "--m", "5", "--symbol", "97"])
    perm = _data_lines(out)[0].replace(" ", ",")
    rc, out, _ = _run(capsys, ["decode", "--perm", perm])
    assert rc == 0
    assert _data_lines(out) == ["97"]


def test_encode_bit_mode_range(capsys):
    rc, _, err = _run(capsys, ["encode", "--m", "4", "--symbol", "20", "--bit-mode"])
    assert rc == 1
    assert "0..15" in err


def test_encode_out_of_range_exit_code(capsys):
    rc, _, err = _run(capsys, ["encode", "--m", "3", "--symbol", "6"])
    assert rc == 1
    assert "error" in err


def _golden_detect_runs(capsys, tmp_path):
    """Run detect on the golden matrix at scales 1 and 1e-12; yield (matrix, data lines)."""
    path = tmp_path / "matrix.csv"
    rows = ["-4,-3,-2,-6", "-2,1,0,-4", "4,-2,5,-3", "5,4,-4,3"]
    for scale in ("", "e-12"):  # the answer does not depend on the matrix's units
        path.write_text(
            "# reference correlation matrix\n"
            + "".join(",".join(x + scale for x in row.split(",")) + "\n" for row in rows)
        )
        rc, out, _ = _run(capsys, ["detect", "--matrix", str(path)])
        assert rc == 0
        yield np.loadtxt(path, delimiter=","), _data_lines(out)


def test_detect_golden_matrix(capsys, tmp_path):
    for r, lines in _golden_detect_runs(capsys, tmp_path):
        # the permutation and its Lehmer rank
        assert lines == ["2 1 0 3", "14"], r[0, 0]


def test_detect_with_oracle_receiver(capsys, tmp_path):
    # detect's single receiver agrees with the brute-force oracle at both scales
    for r, lines in _golden_detect_runs(capsys, tmp_path):
        oracle = brute_force_detect(r)
        assert oracle == [2, 1, 0, 3], r[0, 0]
        assert lines[0] == " ".join(map(str, oracle)), r[0, 0]


def test_waveform_csv_energy(capsys):
    rc, out, _ = _run(
        capsys,
        ["waveform", "--m", "2", "--symbol", "1", "--t-sec", "1.0", "--energy", "2.0"],
    )
    assert rc == 0
    rows = _data_lines(out)
    assert rows[0] == "t,re,im"
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    dt = data[1, 0] - data[0, 0]
    energy = np.sum(data[:, 1] ** 2 + data[:, 2] ** 2) * dt
    assert energy == pytest.approx(2.0, rel=1e-9)


def test_bounds_awgn_reference_row(capsys):
    rc, out, _ = _run(
        capsys,
        ["bounds", "--m", "2", "--n", "1", "--channel", "awgn", "--snr-db", "0"],
    )
    assert rc == 0
    rows = _data_lines(out)
    assert rows[0] == "snr_db,ub,nn,channel,M,N,K"
    fields = rows[1].split(",")
    assert float(fields[1]) == pytest.approx(0.158655, abs=1e-6)
    assert float(fields[1]) == float(fields[2])  # union equals nearest neighbour


def test_bounds_rician_runs(capsys):
    rc, out, _ = _run(
        capsys,
        ["bounds", "--m", "4", "--n", "4", "--channel", "rician",
         "--rician-k", "1.0", "--snr-db", "0,5,10"],
    )
    assert rc == 0
    assert len(_data_lines(out)) == 4


def test_bounds_numeric_failure_exit_code(capsys, monkeypatch):
    _disagreeing_rule(monkeypatch)
    rc, _, err = _run(
        capsys,
        ["bounds", "--m", "4", "--n", "4", "--channel", "rician",
         "--rician-k", "8.0", "--snr-db", "5"],
    )
    assert rc == 2
    assert "numeric error" in err
    details = err.split("details: ", 1)[1]
    assert "'fine':" in details and "'coarse':" in details


@pytest.mark.parametrize("flag,value", [("--j-max", "200"), ("--series-tol", "1e-12")])
def test_bounds_retired_series_flags_exit_1(capsys, flag, value):
    with pytest.raises(SystemExit) as info:
        main(["bounds", "--m", "4", "--n", "2", "--channel", "rician", "--snr-db", "0",
              flag, value])
    assert info.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert sum("error:" in line for line in err.splitlines()) == 1


@pytest.mark.parametrize("snr_db", ["-3000", "-30", "0", "40", "3000"])
@pytest.mark.parametrize("k", ["0", "1e-300", "1", "1e308"])
@pytest.mark.parametrize("n", ["1", "32"])
@pytest.mark.parametrize("m", ["2", "20"])
@pytest.mark.parametrize("channel", ["rician", "rayleigh"])
def test_fading_bounds_are_finite(capsys, channel, m, n, k, snr_db):
    rc, out, err = _run(capsys, ["bounds", "--m", m, "--n", n, "--channel", channel,
                                 "--rician-k", k, "--snr-db", snr_db])
    assert rc == 0, err
    (row,) = _data_lines(out)[1:]
    ub, nn = (float(x) for x in row.split(",")[1:3])
    assert isfinite(ub) and isfinite(nn)
    assert 0.0 <= nn <= ub


def test_bounds_many_antennas_strong_los_matches_quadrature(capsys):
    # the Poisson series this replaced needed more than its 200-term cap here
    rc, out, _ = _run(capsys, ["bounds", "--m", "16", "--n", "32", "--channel", "rician",
                               "--rician-k", "8", "--snr-db", "20"])
    assert rc == 0
    nn = float(_data_lines(out)[1].split(",")[2])
    oracle = 120.0 * _rician_mgf_oracle(2, 16, 32, 8.0, 100.0)
    assert oracle > 0.0
    assert nn == pytest.approx(oracle, rel=1e-9, abs=0)


def test_bounds_largest_rician_factor_completes(capsys):
    # with N K = inf the Poisson series this replaced ran to its term cap
    rc, out, _ = _run(capsys, ["bounds", "--m", "4", "--n", "2", "--channel", "rician",
                               "--rician-k", "1e308", "--snr-db", "0,10"])
    assert rc == 0
    assert len(_data_lines(out)) == 3


def test_simulate_reproducible_byte_for_byte(capsys):
    argv = [
        "simulate", "--m", "2", "--n", "1", "--channel", "awgn",
        "--snr-db", "0,3", "--trials", "5000", "--seed", "3",
        "--receiver", "exhaustive",
    ]
    rc1, out1, _ = _run(capsys, argv)
    rc2, out2, _ = _run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    rows = _data_lines(out1)
    assert rows[0].startswith("snr_db,bler,ci_lo,ci_hi,trials,errors")
    assert len(rows) == 3


def test_simulate_workers_do_not_change_output(capsys):
    base = [
        "simulate", "--m", "4", "--n", "2", "--snr-db", "2", "--trials", "20000",
        "--seed", "5", "--receiver", "exhaustive",
    ]
    _, out1, _ = _run(capsys, base + ["--workers", "1"])
    _, out4, _ = _run(capsys, base + ["--workers", "4"])
    out4 = out4.replace("workers=4", "workers=1")
    assert out1 == out4


def test_simulate_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# sweep description\n"
        "m=2\n"
        "n_antennas=1\n"
        "channel=awgn\n"
        "snr_db_list=0\n"
        "trials=2000\n"
        "seed=9\n"
        "receiver=exhaustive\n"
    )
    rc, out_file, _ = _run(capsys, ["simulate", "--config", str(cfg)])
    assert rc == 0
    # a command-line flag overrides the file value
    rc, out_cli, _ = _run(capsys, ["simulate", "--config", str(cfg), "--trials", "4000"])
    assert rc == 0
    row_file = _data_lines(out_file)[1].split(",")
    row_cli = _data_lines(out_cli)[1].split(",")
    assert row_file[4] == "2000"
    assert row_cli[4] == "4000"


def test_simulate_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("turbo=yes\n")
    rc, _, err = _run(capsys, ["simulate", "--config", str(cfg)])
    assert rc == 1
    assert "unknown config key" in err


# the last three are not among their flag's choices, which a file value
# meets as a command-line value does
@pytest.mark.parametrize(
    "line",
    ["n 2", "trials=1e5", "m=four", "snr_db=a,b", "receiver=genie", "mode=exact", "channel=foo"],
)
def test_simulate_config_bad_value_exits_one(capsys, tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# sweep\nn=1\n{line}\n")
    rc, out, err = _run(capsys, ["simulate", "--config", str(cfg)])
    assert rc == 1
    assert out == ""
    assert err.count("error:") == 1
    assert f"{cfg}:3:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--m", "99999999999999999999", "--n", "1", "--snr-db", "0"],
        ["bounds", "--m", "4", "--n", "1", "--snr-db=1e308"],
        ["bounds", "--m", "4", "--n", "1", "--channel", "rician", "--rician-k", "inf",
         "--snr-db", "0"],
        ["simulate", "--m", "2", "--trials", "10", "--snr-db=1e308"],
        ["simulate", "--m", "2", "--trials", "10", "--snr-db=-1e308"],
        ["simulate", "--m", "2", "--trials", "10", "--channel", "rician", "--rician-k", "nan"],
        ["crlb", "--m", "2", "--snr-db=-1e308"],
        # finite, but 10 ** 400 overflows a double and 10 ** -400 underflows
        ["simulate", "--m", "4", "--n", "2", "--trials", "1000", "--snr-db", "0,4000"],
        ["simulate", "--mode", "sampled", "--m", "2", "--n", "1", "--trials", "10",
         "--snr-db=-4000"],
        ["af", "--m", "2", "--f0-hz", "1e308", "--tau-steps", "3", "--doppler-steps", "3"],
        ["crlb", "--m", "2", "--f0-hz", "1e308", "--snr-db", "0"],
        ["crlb", "--m", "4", "--snr-db", "0", "--bt", "inf"],
        ["bounds", "--m", "4", "--n", "1", "--snr-db", ","],
        ["crlb", "--m", "4", "--snr-db", ","],
        # far beyond any machine's memory: numpy refuses them before
        # allocating anything
        ["af", "--m", "4", "--tau-steps", "100000000", "--doppler-steps", "100000000"],
        ["waveform", "--m", "4", "--oversampling", "100000000000000000"],
        # 10 ** -400 underflows to 0, and 10 ** 400 overflows
        ["bounds", "--m", "4", "--n", "1", "--snr-db=-4000"],
        ["crlb", "--m", "2", "--snr-db", "4000"],
        # a malformed Rician factor is refused on every channel, as simulate does
        ["bounds", "--m", "4", "--n", "1", "--channel", "awgn", "--rician-k", "nan",
         "--snr-db", "0"],
        ["bounds", "--m", "4", "--n", "1", "--channel", "rayleigh", "--rician-k", "inf",
         "--snr-db", "0"],
        ["bounds", "--m", "4", "--n", "1", "--rician-k", "-1", "--snr-db", "0"],
        ["simulate", "--m", "2", "--trials", "10", "--snr-db", "0", "--workers", "0"],
        ["simulate", "--m", "2", "--trials", "10", "--snr-db", "0", "--target-errors", "0"],
        # each SNR is finite, but energy / snr leaves the noise variance's range
        ["crlb", "--m", "4", "--energy", "1e300", "--snr-db", "-100"],
        ["crlb", "--m", "4", "--energy", "1e-300", "--snr-db", "300"],
    ],
)
def test_out_of_range_value_exits_one(capsys, argv):
    rc, out, err = _run(capsys, argv)
    assert rc == 1
    assert _data_lines(out) == []
    assert err.count("error:") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--bt", "1e308"],  # the delay information entry overflows
        ["--t-sec", "1e5", "--bt", "1e308", "--snr-db", "30"],  # its determinant does
        ["--snr-db=-3000"],  # the entries underflow to 0, so 1 / entry overflows
    ],
)
def test_crlb_overflow_exits_two_with_the_entries(capsys, flags):
    rc, out, err = _run(capsys, ["crlb", "--m", "4", "--snr-db", "0", *flags])
    assert rc == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("numeric error:")
    assert all(f"'{key}'" in lines[1] for key in ("j11", "j12", "j22"))


# the data rows at these seeds, pinned: a change to the draw or the decision
# shows here as a changed count
_PINNED_ROWS = [
    (["--m", "4", "--n", "2", "--snr-db", "0,6", "--trials", "3000", "--seed", "5"],
     ["0.0,0.5916666666666667,0.5739716107291531,0.609127267004537,3000,1775,"
      "4,2,awgn,0.0,hungarian,statistic,5",
      "6.0,0.12533333333333332,0.11396244466991899,0.13766250597492527,3000,376,"
      "4,2,awgn,0.0,hungarian,statistic,5"]),
    (["--m", "8", "--n", "2", "--channel", "rician", "--rician-k", "2", "--snr-db", "6,10",
      "--trials", "10000", "--seed", "11"],
     ["6.0,0.8205,0.8128556034645833,0.827898253579813,10000,8205,"
      "8,2,rician,2.0,hungarian,statistic,11",
      "10.0,0.4104,0.4007950091722479,0.4200738033357772,10000,4104,"
      "8,2,rician,2.0,hungarian,statistic,11"]),
    # above M = 8 the exhaustive label is a label too
    (["--m", "12", "--n", "2", "--snr-db", "10,14", "--trials", "3000", "--seed", "13"],
     ["10.0,0.8696666666666667,0.8571449941341893,0.8812428437082198,3000,2609,"
      "12,2,awgn,0.0,hungarian,statistic,13",
      "14.0,0.13566666666666666,0.12387794363589708,0.1483872441352904,3000,407,"
      "12,2,awgn,0.0,hungarian,statistic,13"]),
]


@pytest.mark.parametrize("argv,rows", _PINNED_ROWS)
def test_simulate_pinned_rows(capsys, argv, rows):
    rc, out, err = _run(capsys, ["simulate", *argv])
    assert rc == 0, err
    assert _data_lines(out)[1:] == rows
    # the mode and the receiver label the rows and change no number
    rc, out, err = _run(capsys, ["simulate", *argv, "--mode", "sampled",
                                 "--receiver", "exhaustive"])
    assert rc == 0, err
    relabelled = [row.replace(",hungarian,statistic,", ",exhaustive,sampled,") for row in rows]
    assert _data_lines(out)[1:] == relabelled


_RETIRED_SIMULATE_FLAGS = [("--energy", "2"), ("--t-sec", "0.5"), ("--delta-f-hz", "2"),
                           ("--f0-hz", "1e3"), ("--oversampling", "64")]


@pytest.mark.parametrize("flag,value", _RETIRED_SIMULATE_FLAGS)
def test_simulate_retired_waveform_flags_exit_1(capsys, flag, value):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--m", "2", "--trials", "10", "--snr-db", "0", flag, value])
    assert info.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("flag,value", _RETIRED_SIMULATE_FLAGS)
def test_simulate_retired_config_keys_exit_1(capsys, tmp_path, flag, value):
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "retired.cfg"
    cfg.write_text(f"trials=10\n{key}={value}\n")
    rc, out, err = _run(capsys, ["simulate", "--config", str(cfg)])
    assert rc == 1
    assert out == ""
    assert err.count("error:") == 1
    assert f"{cfg}:2: unknown config key" in err


@pytest.mark.parametrize(
    "argv",
    [["waveform", "--m", "2", "--energy", "2"],
     ["crlb", "--m", "2", "--snr-db", "0", "--energy", "2"],
     ["af", "--m", "2", "--t-sec", "0.5", "--tau-steps", "3", "--doppler-steps", "3"]],
)
def test_waveform_commands_keep_their_energy_and_geometry_flags(capsys, argv):
    rc, out, err = _run(capsys, argv)
    assert rc == 0, err
    assert len(_data_lines(out)) > 1


@pytest.mark.parametrize(
    "argv,flag,value,rows",
    [
        (["bounds", "--m", "2", "--n", "1"], "--snr-db", "-2,0,2", 4),
        (["simulate", "--m", "2", "--n", "1", "--trials", "100"], "--snr-db", "-2,0,2", 4),
        (["crlb", "--m", "2"], "--snr-db", "-2,0,2", 7),
        (["af", "--m", "2", "--tau-steps", "3", "--doppler-steps", "2"],
         "--tau-min-sec", "-1e-3", 7),
        (["af", "--m", "2", "--tau-steps", "3", "--doppler-steps", "2"],
         "--doppler-min-hz", "-1e-1", 7),
    ],
)
def test_negative_value_after_flag(capsys, argv, flag, value, rows):
    rc, out, err = _run(capsys, [*argv, flag, value])
    assert rc == 0, err
    assert len(_data_lines(out)) == rows
    # the same output as the unambiguous --flag=value form
    assert _run(capsys, [*argv, f"{flag}={value}"]) == (0, out, "")


def test_af_csv_shape_and_peak(capsys):
    rc, out, _ = _run(
        capsys,
        ["af", "--m", "2", "--order", "ascending", "--tau-steps", "5",
         "--doppler-steps", "5", "--tau-min-sec", "-2", "--tau-max-sec", "2",
         "--doppler-min-hz", "-1", "--doppler-max-hz", "1"],
    )
    assert rc == 0
    rows = _data_lines(out)
    assert rows[0] == "tau,omega_rad_s,magnitude"
    assert len(rows) == 1 + 25
    values = {}
    for row in rows[1:]:
        tau, om, mag = (float(v) for v in row.split(","))
        values[(tau, om)] = mag
    assert values[(0.0, 0.0)] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "tau_steps, doppler_steps, tau_end, doppler_end",
    # an end is None (the default), a number x (the ends -x and x) or a pair
    # (lo, hi).  One delay row, or one cell per row (no "\n" tau slot), and
    # axis ends that print in exponent form; then grids whose tau > 0 rows
    # take their mirror row's text: symmetric odd and even (no tau = 0 row),
    # asymmetric delay ends (some tau > 0 rows have no mirror), delays past
    # the waveform's 2.5 s (14 all-zero rows, all with equal bytes) and a
    # skew Doppler axis (no row is an earlier row reversed)
    [(1, 1, None, None), (1, 17, None, None), (23, 1, None, None), (23, 17, None, None),
     (5, 4, 1e-300, 1e20),
     (33, 25, None, None), (32, 24, None, None),
     pytest.param(33, 25, (-1.5, 2.5), None, id="33-25-asymmetric-tau"),
     (33, 25, 4.0, None),
     pytest.param(33, 25, None, (-4.0, 3.0), id="33-25-skew-doppler")],
)
def test_af_data_lines_format_grid_values_byte_for_byte(
    capsys, tau_steps, doppler_steps, tau_end, doppler_end
):
    perm = [2, 0, 4, 1, 3]
    argv = ["af", "--m", "5", "--perm", "2,0,4,1,3", "--t-sec", "0.5", "--f0-hz", "3",
            "--tau-steps", str(tau_steps), "--doppler-steps", str(doppler_steps)]

    def axis_ends(end, default):
        end = default if end is None else end
        return end if isinstance(end, tuple) else (-end, end)

    tau_lo, tau_hi = axis_ends(tau_end, 2.5)
    doppler_lo, doppler_hi = axis_ends(doppler_end, 4.0)
    if tau_end is not None:
        argv += ["--tau-min-sec", repr(tau_lo), "--tau-max-sec", repr(tau_hi)]
    if doppler_end is not None:
        argv += ["--doppler-min-hz", repr(doppler_lo), "--doppler-max-hz", repr(doppler_hi)]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    params = WaveformParams(m=5, t=0.5, delta_f=2.0, f0=3.0)
    taus = af_axis(tau_lo, tau_hi, tau_steps)
    omegas = 2.0 * pi * af_axis(doppler_lo, doppler_hi, doppler_steps)
    grid = af_grid(perm, params, taus, omegas)
    expected = [
        f"{float(tau)!r},{float(om)!r},{float(grid[i, j])!r}"
        for i, tau in enumerate(taus)
        for j, om in enumerate(omegas)
    ]
    assert _data_lines(out) == ["tau,omega_rad_s,magnitude", *expected]
    assert out.endswith("\n") and not out.endswith("\n\n")


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_af_writer_holds_half_the_grid_text_below_the_kernels_peak():
    # the writer keeps the joined magnitude text of the rows whose mirror is
    # still to come (about 245 KB here); the whole grid as Python floats and
    # lists takes about 0.85 MB, and every row's text as lists of strings
    # about 1.35 MB
    parser = _command_arguments(_Parser(), "af")
    args = parser.parse_args(["--m", "8", "--tau-steps", "161", "--doppler-steps", "161"])
    _, lines = args.handler(args)
    writer_peak = _traced_peak(lambda: all(lines))
    assert writer_peak < 0.5e6
    # the writer never sets the call's high-water mark
    params = WaveformParams(m=8, t=1.0)
    taus, omegas = af_axis(-8.0, 8.0, 161), 2.0 * pi * af_axis(-2.0, 2.0, 161)
    kernel_peak = _traced_peak(lambda: af_grid(list(range(8)), params, taus, omegas))
    assert writer_peak < kernel_peak


@pytest.mark.parametrize(
    "flags, formatted_rows",
    # the default grid is symmetric about the origin: each tau > 0 row takes
    # its mirror row's text, so 81 of 161 rows are formatted.  On a skew
    # Doppler axis no row is an earlier row reversed (and no row is all
    # zeros: the delays stay inside the waveform's 8 s)
    [([], 81),
     (["--tau-min-sec", "-7.5", "--tau-max-sec", "7.5",
       "--doppler-min-hz", "-2", "--doppler-max-hz", "1.5"], 161)],
)
def test_af_writer_formats_each_mirrored_row_once(capsys, monkeypatch, flags, formatted_rows):
    calls = []

    def counting_repr(x):
        calls.append(None)
        return repr(x)

    monkeypatch.setattr("permrad.cli.repr", counting_repr, raising=False)
    rc, out, _ = _run(capsys, ["af", "--m", "8", "--tau-steps", "161", "--doppler-steps", "161",
                              *flags])
    assert rc == 0
    assert len(_data_lines(out)) == 1 + 161 * 161
    assert len(calls) == formatted_rows * 161


def test_af_descending_order_is_the_reversed_perm(capsys):
    base = ["af", "--m", "5", "--tau-steps", "9", "--doppler-steps", "7"]
    rc, out, err = _run(capsys, base + ["--order", "descending"])
    assert rc == 0, err
    assert _run(capsys, base + ["--perm", "4,3,2,1,0"]) == (0, out, "")


def test_af_workers_do_not_change_output(capsys, pools):
    # --workers only labels the output: af runs in one process
    base = ["af", "--m", "8", "--tau-steps", "161", "--doppler-steps", "161"]
    _, out1, _ = _run(capsys, base + ["--workers", "1"])
    for workers in (2, 4):
        _, out, _ = _run(capsys, base + ["--workers", str(workers)])
        assert f"# workers={workers}\n" in out
        assert out1 == out.replace(f"# workers={workers}\n", "# workers=1\n")
    assert pools == []


def test_waveform_beyond_codec_block_limit(capsys):
    # with no tone order given, waveform sends the ascending one, as af and
    # crlb do, so it needs no symbol and takes M above the codec's 20
    base = ["waveform", "--m", "21", "--oversampling", "42"]
    rc, out, err = _run(capsys, base)
    assert rc == 0, err
    rc, want, err = _run(capsys, base + ["--perm", ",".join(map(str, range(21)))])
    assert rc == 0, err
    assert _data_lines(out) == _data_lines(want)
    assert len(_data_lines(out)) == 1 + 21 * 42


def test_af_beyond_codec_block_limit(capsys):
    rc, out, _ = _run(
        capsys,
        ["af", "--m", "32", "--order", "ascending", "--tau-steps", "5",
         "--doppler-steps", "5"],
    )
    assert rc == 0
    values = {}
    for row in _data_lines(out)[1:]:
        tau, om, mag = (float(v) for v in row.split(","))
        values[(tau, om)] = mag
    assert len(values) == 25
    assert values[(0.0, 0.0)] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("text", ["1,2\n3\n", "1,x\n3,4\n", "", "# header only\n"])
def test_detect_malformed_matrix_exits_one(capsys, tmp_path, text):
    path = tmp_path / "matrix.csv"
    path.write_text(text)
    # outside pytest a warning would print to stderr, so none may escape
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, _, err = _run(capsys, ["detect", "--matrix", str(path)])
    assert rc == 1
    assert err.startswith("error:")
    assert err.count("\n") == 1  # the error line and nothing else
    assert [str(w.message) for w in caught] == []


def test_crlb_csv_variants(capsys):
    rc, out, _ = _run(
        capsys,
        ["crlb", "--m", "1", "--snr-db", "0,10", "--bt", "100"],
    )
    assert rc == 0
    rows = _data_lines(out)
    assert rows[0] == "snr_db,n0,crlb_tau,crlb_omega,variant"
    assert len(rows) == 5
    assert rows[1].endswith("full")
    assert rows[2].endswith("simplified")


@pytest.mark.parametrize("m,f0_hz,t_sec", [(1, "0", "1"), (4, "0.3", "0.37"), (20, "1e6", "2e-3"),
                                          (64, "12345.678", "0.37")])
def test_crlb_simplified_rows_are_the_papers_formulas(capsys, m, f0_hz, t_sec):
    # the rows invert the Fisher diagonal; the paper prints these formulas
    rc, out, _ = _run(capsys, ["crlb", "--m", str(m), "--f0-hz", f0_hz, "--t-sec", t_sec,
                               "--snr-db", "-20,0,13.5,40", "--bt", "1e6"])
    assert rc == 0
    t = float(t_sec)
    params = WaveformParams(m=m, t=t, delta_f=1.0 / t, f0=float(f0_hz))
    rows = [row.split(",") for row in _data_lines(out)[1:] if row.endswith(",simplified")]
    assert len(rows) == 4
    for _, n0, tau, omega, _ in rows:
        want = crlb_simplified(params, float(n0), 1e6 / t)
        assert float(tau) == pytest.approx(want[0], rel=1e-14)
        assert float(omega) == pytest.approx(want[1], rel=1e-14)


def test_crlb_indefinite_full_variant_reports_nan(capsys):
    rc, out, _ = _run(
        capsys,
        ["crlb", "--m", "4", "--snr-db", "0", "--bt", "100"],
    )
    assert rc == 0
    full_row = next(r for r in _data_lines(out)[1:] if r.endswith("full"))
    assert "nan" in full_row
    assert any("indefinite" in line for line in out.splitlines() if line.startswith("#"))


def _warning_lines(argv, capsys):
    """The header warning lines of a CLI call, which must exit 0 with no
    warning left to print to stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = _run(capsys, argv)
    assert rc == 0 and err == ""
    assert [str(w.message) for w in caught] == []
    return [line for line in out.splitlines() if line.startswith("# warning=")]


def test_crlb_small_bandwidth_time_warning_goes_into_the_header(capsys):
    # the closed forms assume b t >= 10; one line however many points
    lines = _warning_lines(["crlb", "--m", "1", "--snr-db", "0,10", "--bt", "1"], capsys)
    assert lines == ["# warning=bandwidth-time product 1 is below 10; "
                     "the closed-form information matrix assumes a large product"]
    assert _warning_lines(["crlb", "--m", "1", "--snr-db", "0", "--bt", "10"], capsys) == []


def test_simulate_trial_cap_warning_goes_into_the_header(capsys):
    argv = ["simulate", "--m", "2", "--n", "1", "--snr-db", "60,0,50", "--trials", "300",
            "--target-errors", "10"]
    assert _warning_lines(argv, capsys) == [
        f"# warning=snr point {snr} dB: reached the 300-trial cap with 0 < 10 target errors"
        for snr in ("60.0", "50.0")
    ]


def test_simulate_echoes_the_rician_factor_it_draws_with(capsys):
    # K is the Rician factor: 0 on a Rayleigh or AWGN channel, as in bounds
    for channel in ("rayleigh", "awgn"):
        base = ["simulate", "--m", "4", "--n", "2", "--channel", channel, "--snr-db", "0,6",
                "--trials", "3000", "--seed", "9"]
        _, out, _ = _run(capsys, base + ["--rician-k", "4"])
        _, want, _ = _run(capsys, base + ["--rician-k", "0"])
        assert out == want
        assert "# rician_k=0.0" in out.splitlines()
        assert all(row.split(",")[9] == "0.0" for row in _data_lines(out)[1:])


def test_bounds_echoes_the_rician_factor_it_draws_with(capsys):
    # K is the Rician factor: 0 on a Rayleigh or AWGN channel, as in simulate
    for channel in ("rayleigh", "awgn"):
        base = ["bounds", "--m", "4", "--n", "2", "--channel", channel, "--snr-db", "0,6"]
        _, out, _ = _run(capsys, base + ["--rician-k", "4"])
        _, want, _ = _run(capsys, base + ["--rician-k", "0"])
        assert out == want
        assert "# rician_k=0.0" in out.splitlines()
        assert all(row.split(",")[6] == "0.0" for row in _data_lines(out)[1:])


def test_detect_refuses_overflowing_matrix(capsys, tmp_path):
    path = tmp_path / "overflow.csv"
    path.write_text(_OVERFLOWING_CSV)
    rc, out, err = _run(capsys, ["detect", "--matrix", str(path)])
    assert rc == 1
    assert out == ""
    assert err.count("error:") == 1 and "overflow" in err


def test_detect_checks_the_block_size_before_solving(capsys, tmp_path, monkeypatch):
    # the codec ranks at most 20 tones; a larger matrix is refused unsolved
    def unreachable(r):
        raise AssertionError("solved a matrix the codec cannot rank")

    monkeypatch.setattr("permrad.cli.hungarian_detect", unreachable)
    path = tmp_path / "m21.csv"
    np.savetxt(path, np.eye(21), delimiter=",")
    rc, out, err = _run(capsys, ["detect", "--matrix", str(path)])
    assert (rc, out, err) == (1, "", "error: block size 21 exceeds the supported maximum 20\n")


@pytest.mark.parametrize("receiver", ["hungarian", "exhaustive"])
def test_detect_retired_receiver_flag_exits_1(capsys, tmp_path, receiver):
    # detect has one detector; the brute-force search is a test oracle
    path = tmp_path / "golden.csv"
    path.write_text(_MATRICES["golden.csv"])
    with pytest.raises(SystemExit) as info:
        main(["detect", "--matrix", str(path), "--receiver", receiver])
    assert info.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "sub,flags",
    [
        ("waveform", ("--t-sec", "--delta-f-hz", "--f0-hz", "--energy")),
        ("bounds", ("--snr-db", "--rician-k", "--channel")),
        ("simulate", ("--trials", "--seed", "--workers", "--mode")),
        ("af", ("--tau-min-sec", "--doppler-min-hz", "--tau-steps")),
        ("crlb", ("--bt", "--snr-db", "--t-sec")),
    ],
)
def test_help_lists_flags(capsys, sub, flags):
    with pytest.raises(SystemExit) as info:
        main([sub, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for flag in flags:
        assert flag in out


@pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"] for name in _COMMANDS])
def test_help_equals_that_of_the_parser_with_every_argument(capsys, argv):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(argv)
    full = capsys.readouterr().out
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out == full


def test_cli_import_leaves_the_process_pool_unloaded():
    # only --workers > 1 uses a process pool; its modules are a sizeable
    # share of a serial call's start-up
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import permrad.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    src = str(Path(permrad.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["encode", "--m", "4", "--symbol", "1", "--frobnicate"])
    assert info.value.code == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    for command in ("transmogrify", "selftest"):  # selftest is retired
        with pytest.raises(SystemExit) as info:
            main([command])
        assert info.value.code == 1
        assert capsys.readouterr().err.count("error:") == 1


@pytest.mark.parametrize(
    "flags",
    [("--tau-steps", "0"), ("--doppler-steps", "0"), ("--t-sec", "0"),
     ("--delta-f-hz", "inf"), ("--delta-f-hz", "nan"), ("--f0-hz", "inf"),
     ("--f0-hz", "nan"), ("--t-sec", "inf"), ("--workers", "0"), ("--workers", "-2"),
     ("--doppler-min-hz", "nan"), ("--doppler-min-hz", "-inf"), ("--tau-max-sec", "inf"),
     ("--doppler-max-hz", "1e308"), ("--tau-min-sec", "-1e308", "--tau-max-sec", "1e308")],
)
def test_af_degenerate_grid_exits_one(capsys, flags):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        rc, out, err = _run(capsys, ["af", "--m", "4", "--tau-steps", "3", *flags])
    assert rc == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_headers_echo_configuration(capsys):
    _, out, _ = _run(
        capsys,
        ["simulate", "--m", "2", "--n", "1", "--snr-db", "0", "--trials", "1000",
         "--seed", "77", "--receiver", "exhaustive"],
    )
    header = [line for line in out.splitlines() if line.startswith("#")]
    joined = "\n".join(header)
    for needle in ("seed=77", "trials=1000", "m=2", "receiver=exhaustive", "mode=statistic"):
        assert needle in joined


def test_output_file_writing(tmp_path, capsys):
    path = tmp_path / "out.csv"
    rc, out, _ = _run(capsys, ["encode", "--m", "3", "--symbol", "4", "--out", str(path)])
    assert rc == 0
    assert out == ""
    assert path.read_text().splitlines()[-1] == "2 0 1"


# one small valid call per command; the simulate and crlb calls put warnings
# into their headers
_ONE_CALL_EACH = {
    "encode": ["encode", "--m", "4", "--symbol", "5"],
    "decode": ["decode", "--perm", "0,3,2,1"],
    "waveform": ["waveform", "--m", "2", "--oversampling", "4"],
    "detect": ["detect", "--matrix", "matrix.csv"],
    "bounds": ["bounds", "--m", "4", "--n", "1", "--snr-db", "0,10"],
    "simulate": ["simulate", "--m", "2", "--n", "1", "--snr-db", "60,0", "--trials", "300",
                 "--target-errors", "10"],
    "af": ["af", "--m", "3", "--tau-steps", "3", "--doppler-steps", "2"],
    "crlb": ["crlb", "--m", "8", "--snr-db", "0,10", "--bt", "1"],
}


def _one_call(command, tmp_path):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("-4,-3,-2,-6\n-2,1,0,-4\n4,-2,5,-3\n5,4,-4,3\n")
    return [str(matrix) if arg == "matrix.csv" else arg for arg in _ONE_CALL_EACH[command]]


@pytest.mark.parametrize(
    "argv",
    # an unknown command, no command and "--" before a command; arguments a
    # valid command's parser leaves over (an unknown flag; a stray
    # positional, after each command's one valid call and ahead of a config
    # file's bad value); an ambiguous abbreviation and a missing value
    [["transmogrify"], ["encode", "--m", "4", "--symbol", "1", "--frobnicate"],
     ["simulate", "--trials", "10", "stray"],
     [], ["--", "encode", "--m", "4", "--symbol", "1"],
     *([*_ONE_CALL_EACH[name], "stray"] for name in _COMMANDS),
     ["simulate", "--config", "bad.cfg", "stray"],
     ["af", "--m", "4", "--t", "1"], ["simulate", "--trials"]],
)
def test_usage_errors_equal_those_of_the_parser_with_every_argument(capsys, tmp_path, argv):
    (tmp_path / "bad.cfg").write_text("m=four\n")
    (tmp_path / "matrix.csv").write_text("1,0\n0,1\n")
    argv = [str(tmp_path / arg) if arg in ("matrix.csv", "bad.cfg") else arg for arg in argv]
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    full = capsys.readouterr().err
    assert full.count("error:") == 1
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert capsys.readouterr().err == full


@pytest.mark.parametrize("command", _COMMANDS)
def test_a_successful_call_builds_one_parser_and_a_serial_one_asks_no_core_count(
        capsys, monkeypatch, tmp_path, command):
    # the parser with every subcommand serves help and errors only
    def refuse(*args, **kwargs):
        raise AssertionError("not for a successful serial call")

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    argv = _one_call(command, tmp_path)
    if command in ("simulate", "af"):
        argv += ["--workers", "1"]
    monkeypatch.setattr(permrad.cli, "build_parser", refuse)
    monkeypatch.setattr(os, "cpu_count", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    rc, out, _ = _run(capsys, argv)
    assert rc == 0 and out.startswith(f"# command={command}\n")
    assert built == [f"permrad {command}"]


@pytest.mark.parametrize("command", _COMMANDS)
def test_stdout_and_out_file_get_the_same_bytes(capsys, tmp_path, command):
    argv = _one_call(command, tmp_path)
    rc, out, err = _run(capsys, argv)
    assert rc == 0 and err == ""
    assert out.startswith(f"# command={command}\n")
    path = tmp_path / "out.csv"
    rc, to_stdout, err = _run(capsys, [*argv, "--out", str(path)])
    assert rc == 0 and err == "" and to_stdout == ""
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("command", _COMMANDS)
def test_out_into_a_missing_directory_exits_one(capsys, tmp_path, command):
    path = tmp_path / "missing" / "out.csv"
    rc, out, err = _run(capsys, [*_one_call(command, tmp_path), "--out", str(path)])
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not path.parent.exists()


def _overflowing_sweep(cfg):
    np.float64(1e308) * 10
    return []


def test_a_numpy_warning_that_the_filters_make_an_error_still_raises(monkeypatch, capsys):
    # the header takes permrad's own warnings; other categories meet the
    # active filters
    monkeypatch.setattr(permrad.simkit, "run_bler_sweep", _overflowing_sweep)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow"):
            main(["simulate", "--m", "2", "--trials", "10"])
    assert capsys.readouterr().out == ""


def test_a_numpy_warning_goes_into_the_header_under_the_default_filters(monkeypatch, capsys):
    monkeypatch.setattr(permrad.simkit, "run_bler_sweep", _overflowing_sweep)
    with warnings.catch_warnings(record=True) as caught:
        warnings.resetwarnings()
        warnings.simplefilter("default")
        rc, out, err = _run(capsys, ["simulate", "--m", "2", "--trials", "10"])
    assert rc == 0 and err == ""
    assert [str(w.message) for w in caught] == []
    assert "# warning=overflow encountered in scalar multiply\n" in out


# value pools for the CLI fuzz test, (valid, bad) per flag; bad values are
# negative, non-finite, out of range or garbage.  Valid sizes stay small
# (m <= 8, n <= 3, trials <= 200, af grids of at most 3 x 3, at most 64
# waveform samples per pulse) so every run takes milliseconds.
_M = (["1", "2", "3", "4", "8"], ["0", "-1", "21", "99999999999999999999", "1.5", "x", ""])
_N = (["1", "2", "3"], ["0", "-2", "1e3", "x"])
_CHANNEL = (["awgn", "rayleigh", "rician"], ["fso"])
_K = (["0", "1.5", "1e-3"], ["-2", "-1e-3", "1e308", "inf", "-inf", "nan", "x", ""])
_SNR = (["0", "-2,0,2", "1,,3", "-1e-3,4", "20"],
        [",", "inf", "-inf", "nan", "1e308", "-1e308", "4000", "-4000", "a,b", ""])
_T = (["1", "1e-3"], ["0", "-1", "inf", "nan", "x"])
_DELTA_F = (["1", "2e3"], ["0.5", "-1", "nan", "x"])
_F0 = (["0", "1e3", "5e9"], ["-1", "1e308", "inf", "nan", "x"])
_PERM = (["0,1", "2,0,1"], ["0,0", "-1", "x"])
_ENERGY = (["1", "2.5"], ["0", "-1", "inf", "nan", "x"])
_FLAGS = {
    "encode": {"--m": _M, "--symbol": (["0", "5"], ["23", "-1", "99999999999999999999", "x"]),
               "--bit-mode": None},
    "decode": {"--perm": (["0,3,2,1", "2,0,1", "0"], ["-1,0", "0,0", ",", "1", "0,1,x", ""])},
    "bounds": {
        "--m": (["2", "3", "4"], _M[1]), "--n": _N, "--channel": _CHANNEL, "--rician-k": _K,
        "--snr-db": _SNR,
    },
    "waveform": {
        "--m": _M, "--symbol": (["0", "5"], ["-1", "99999999999999999999", "x"]),
        "--perm": _PERM, "--t-sec": _T, "--delta-f-hz": _DELTA_F, "--f0-hz": _F0,
        "--energy": _ENERGY,
        # 1 and 8 are below the Nyquist floor 2 m (delta_f t) at m = 8
        "--oversampling": (["32", "64"], ["0", "-1", "1", "8", "1.5", "x"]),
    },
    "crlb": {
        "--m": _M, "--perm": _PERM, "--t-sec": _T, "--delta-f-hz": _DELTA_F, "--f0-hz": _F0,
        "--energy": _ENERGY, "--bt": (["100", "1e4"], ["0", "-1", "inf", "nan", "x"]),
        "--snr-db": _SNR,
    },
    "detect": {"--matrix": None},
    "simulate": {
        "--m": _M, "--n": _N, "--channel": _CHANNEL, "--rician-k": _K, "--snr-db": _SNR,
        "--trials": (["1", "57", "200"], ["0", "-5", "1e2", "x"]),
        "--target-errors": (["1", "50"], ["0", "-1", "x"]),
        "--seed": (["0", "7", "99999999999999999999"], ["-1", "x"]),
        "--receiver": (["hungarian", "exhaustive"], ["genie"]),
        "--mode": (["statistic", "sampled"], ["exact"]),
        "--workers": (["1", "2"], ["0", "-1", "x"]),
    },
    "af": {
        "--m": _M, "--order": (["ascending", "descending"], ["sideways"]),
        "--perm": _PERM, "--t-sec": _T, "--delta-f-hz": _DELTA_F, "--f0-hz": _F0,
        "--tau-min-sec": (["-2", "0.5"], ["-1e308", "inf", "nan", "x"]),
        "--tau-max-sec": (["2", "-0.5"], ["1e308", "-inf", "nan", "x"]),
        "--tau-steps": (["1", "3"], ["0", "-1", "x"]),
        "--doppler-min-hz": (["-2", "0"], ["-1e308", "-inf", "nan", "x"]),
        "--doppler-max-hz": (["2", "1e3"], ["1e308", "inf", "nan", "x"]),
        "--doppler-steps": (["1", "3"], ["0", "-1", "x"]),
        "--workers": (["1", "2"], ["0", "-1", "x"]),
    },
}
_REQUIRED = {"encode": ["--m", "--symbol"], "decode": ["--perm"], "waveform": ["--m"],
             "crlb": ["--m", "--snr-db"],
             "bounds": ["--m", "--n", "--snr-db"], "detect": ["--matrix"], "simulate": [],
             "af": ["--m"]}
_OVERFLOWING_CSV = "".join(",".join(repr(x) for x in row) + "\n" for row in OVERFLOWING.tolist())
_MATRICES = {
    "golden.csv": "-4,-3,-2,-6\n-2,1,0,-4\n4,-2,5,-3\n5,4,-4,3\n",
    "ragged.csv": "1,2\n3\n",
    "text.csv": "1,x\n3,4\n",
    "nonfinite.csv": "nan,1\n1,inf\n",
    "huge.csv": "1e308,-1e308\n-1e308,1e308\n",
    "overflow.csv": _OVERFLOWING_CSV,
    "wide.csv": "1,2,3\n4,5,6\n",
    "scalar.csv": "5\n",
    "empty.csv": "",
}


@pytest.fixture(scope="module")
def matrix_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("matrices")
    for name, text in _MATRICES.items():
        (root / name).write_text(text)
    return root


@st.composite
def _argv(draw, matrix_dir):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    # a clean draw has valid values only; both kinds have the required flags
    clean = draw(st.booleans())
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), max_size=6, unique=True))
    chosen += [f for f in _REQUIRED[command] if f not in chosen]
    argv = [command]
    for flag in chosen:
        if flag == "--matrix":
            names = ["golden.csv", "scalar.csv"] if clean else [*_MATRICES, "missing.csv"]
            argv += [flag, str(matrix_dir / draw(st.sampled_from(names)))]
        elif flags[flag] is None:
            argv.append(flag)
        else:
            valid, bad = flags[flag]
            argv += [flag, draw(st.sampled_from(valid if clean else valid + bad))]
    if command == "simulate" and "--trials" not in argv:
        argv += ["--trials", "100"]  # the default would run 100000 trials
    if command == "waveform" and "--oversampling" not in argv:
        argv += ["--oversampling", "64"]  # the default grows with delta_f * t
    for flag in ("--tau-steps", "--doppler-steps"):
        if command == "af" and flag not in argv:
            argv += [flag, "3"]  # the default grid is 81 x 81
    if not clean and draw(st.booleans()):
        # a stray token: unknown flag, lone dash, negative number or junk;
        # in front of a required flag's value it also leaves that flag empty
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(["--frobnicate", "-", "--", "-3", "-x", "junk"])))
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exits_cleanly(matrix_dir, data):
    argv = data.draw(_argv(matrix_dir))
    out, err = io.StringIO(), io.StringIO()
    # outside pytest a warning would print to stderr, so none may escape
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    assert rc in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught] == [], argv
    if rc == 1:
        assert "error:" in err.getvalue()
