"""End-to-end CLI tests: golden outputs, exit codes, reproducibility."""

from math import pi

import numpy as np
import pytest

from permrad.cli import _fmt, main
from permrad.radar import af_grid
from permrad.waveform import WaveformParams


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


def test_detect_golden_matrix(capsys, tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text(
        "# reference correlation matrix\n"
        "-4,-3,-2,-6\n-2,1,0,-4\n4,-2,5,-3\n5,4,-4,3\n"
    )
    rc, out, _ = _run(capsys, ["detect", "--matrix", str(path)])
    assert rc == 0
    lines = _data_lines(out)
    assert lines[0] == "2 1 0 3"
    assert lines[1] == "14"  # Lehmer rank of the detected permutation


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


def test_bounds_numeric_failure_exit_code(capsys):
    rc, _, err = _run(
        capsys,
        ["bounds", "--m", "4", "--n", "4", "--channel", "rician",
         "--rician-k", "8.0", "--snr-db", "5", "--j-max", "2"],
    )
    assert rc == 2
    assert "numeric error" in err


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


def test_af_data_lines_format_grid_values_byte_for_byte(capsys):
    perm = [2, 0, 4, 1, 3]
    rc, out, _ = _run(
        capsys,
        ["af", "--m", "5", "--perm", "2,0,4,1,3", "--t-sec", "0.5", "--f0-hz", "3",
         "--tau-steps", "23", "--doppler-steps", "17"],
    )
    assert rc == 0
    params = WaveformParams(m=5, t=0.5, delta_f=2.0, f0=3.0)
    grid = af_grid(perm, params, np.linspace(-2.5, 2.5, 23),
                   2.0 * pi * np.linspace(-4.0, 4.0, 17))
    expected = [
        f"{_fmt(float(tau))},{_fmt(float(om))},{_fmt(float(grid.values[i, j]))}"
        for i, tau in enumerate(grid.tau)
        for j, om in enumerate(grid.omega)
    ]
    assert _data_lines(out) == ["tau,omega_rad_s,magnitude", *expected]
    assert out.endswith("\n") and not out.endswith("\n\n")


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


@pytest.mark.parametrize("text", ["1,2\n3\n", "1,x\n3,4\n"])
def test_detect_malformed_matrix_exits_one(capsys, tmp_path, text):
    path = tmp_path / "matrix.csv"
    path.write_text(text)
    rc, _, err = _run(capsys, ["detect", "--matrix", str(path)])
    assert rc == 1
    assert err.count("error:") == 1
    assert "Traceback" not in err


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


def test_crlb_indefinite_full_variant_reports_nan(capsys):
    rc, out, _ = _run(
        capsys,
        ["crlb", "--m", "4", "--snr-db", "0", "--bt", "100"],
    )
    assert rc == 0
    full_row = next(r for r in _data_lines(out)[1:] if r.endswith("full"))
    assert "nan" in full_row
    assert any("indefinite" in line for line in out.splitlines() if line.startswith("#"))


def test_selftest_passes(capsys):
    rc, out, _ = _run(capsys, ["selftest"])
    assert rc == 0
    assert all(line.endswith("ok") for line in _data_lines(out))


def test_detect_with_oracle_receiver(capsys, tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text("-4,-3,-2,-6\n-2,1,0,-4\n4,-2,5,-3\n5,4,-4,3\n")
    rc, out, _ = _run(capsys, ["detect", "--matrix", str(path), "--receiver", "exhaustive"])
    assert rc == 0
    assert _data_lines(out)[0] == "2 1 0 3"


@pytest.mark.parametrize(
    "sub,flags",
    [
        ("waveform", ("--t-sec", "--delta-f-hz", "--f0-hz", "--energy")),
        ("bounds", ("--snr-db", "--rician-k", "--j-max")),
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


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["encode", "--m", "4", "--symbol", "1", "--frobnicate"])
    assert info.value.code == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["transmogrify"])
    assert info.value.code == 1


@pytest.mark.parametrize(
    "flags",
    [("--tau-steps", "0"), ("--doppler-steps", "0"), ("--t-sec", "0"),
     ("--delta-f-hz", "inf"), ("--delta-f-hz", "nan"), ("--f0-hz", "inf"),
     ("--f0-hz", "nan"), ("--t-sec", "inf")],
)
def test_af_degenerate_grid_exits_one(capsys, flags):
    rc, _, err = _run(capsys, ["af", "--m", "4", *flags])
    assert rc == 1
    assert err.count("error:") == 1
    assert "Traceback" not in err


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
