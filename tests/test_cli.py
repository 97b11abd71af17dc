import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mzfringe.cli
from mzfringe.cli import main, parse_angle, parse_arm
from mzfringe.arms import Crystal, RawUnitary, Waveplate


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_parse_angle_units():
    assert parse_angle("22.5deg") == pytest.approx(np.pi / 8)
    assert parse_angle("0.5rad") == 0.5
    assert parse_angle("0.25") == 0.25


def test_parse_arm_grammar():
    arm = parse_arm("crystal:0deg:310;hwp:22.5deg;unitary:1,0,0,1j;identity")
    assert arm[0] == Crystal(0.0, 310.0)
    assert arm[1] == Waveplate(pytest.approx(np.pi / 8))
    assert isinstance(arm[2], RawUnitary) and arm[2].matrix[1, 1] == 1j
    assert isinstance(arm[3], RawUnitary)
    assert parse_arm("") == []


def test_sweep_writes_table(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--variant", "a", "--output", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["beta", "v_closed_form", "v_simulated", "v_oracle"]
    assert len(rows) == 25
    assert out.read_text().endswith("\n")
    for row in rows:
        assert abs(abs(float(row[1])) - float(row[2])) < 1e-9
    assert "variant=a" in capsys.readouterr().out


def test_sweep_requires_variant(tmp_path, capsys):
    assert main(["sweep", "--output", str(tmp_path / "x.csv")]) == 2
    assert "variant" in capsys.readouterr().err


def test_missing_output_is_usage_error(capsys):
    assert main(["sweep", "--variant", "a"]) == 2
    assert "output" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = sweep\nvariant = a\nbogus = 3\n")
    assert main(["--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 2
    assert "bogus" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "sweep.csv"
    cfg.write_text(f"""
# sweep settings
command = sweep
variant = a
beta-points = 5
output = {out}
""")
    assert main(["--config", str(cfg), "--variant", "b"]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 5
    assert "variant=b" in capsys.readouterr().out


@pytest.mark.parametrize("line, message", [
    pytest.param("phases = abc", "argument --phases: invalid int value: 'abc'",
                 id="phases-abc"),
    pytest.param("phases = 0", "'phases' must be >= 1", id="phases-0"),
    pytest.param("beta = nandeg", "not finite", id="beta-nandeg"),
    pytest.param("command = bogus", "argument command: invalid choice: 'bogus'",
                 id="command-bogus"),
    pytest.param("variant = z", "'variant' must be one of", id="variant-z"),
    pytest.param("config = other.cfg", "unknown config key 'config'", id="config-key"),
])
def test_config_file_values_are_parsed_like_flags(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"command = tomography\n{line}\n")
    assert main(["--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_fringe_defaults_to_64_phases(tmp_path):
    out = tmp_path / "fr.csv"
    assert main(["fringe", "--variant", "d", "--beta", "0", "--output", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 64


def test_fringe_accepts_degree_angles(tmp_path, capsys):
    out = tmp_path / "fr.csv"
    code = main(["fringe", "--variant", "d", "--beta", "22.5deg",
                 "--phases", "16", "--output", str(out)])
    assert code == 0
    assert "visibility=1.000000" in capsys.readouterr().out
    header, rows = read_csv(out)
    assert header == ["phi", "p0"]
    assert len(rows) == 16
    assert float(rows[0][1]) == pytest.approx(1.0)


def test_fringe_with_custom_arms(tmp_path, capsys):
    out = tmp_path / "fr.csv"
    arms = "crystal:0:310|crystal:0:310"
    assert main(["fringe", "--arms", arms, "--phases", "8",
                 "--output", str(out)]) == 0
    assert "visibility=1.000000" in capsys.readouterr().out


def test_tomography_single_angle(tmp_path, capsys):
    out = tmp_path / "tomo.csv"
    assert main(["tomography", "--beta", "45deg", "--output", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["beta", "chi_distance_upper", "chi_distance_lower",
                      "visibility_a", "visibility_b", "visibility_gap"]
    row = [float(x) for x in rows[0]]
    assert row[1] < 1e-9 and row[2] < 1e-9
    assert row[3] == pytest.approx(0.5, abs=1e-9)
    assert row[4] == pytest.approx(0.0, abs=1e-9)
    assert "gap=0.500000" in capsys.readouterr().out


def test_qkd_summary_format(tmp_path, capsys):
    out = tmp_path / "qkd.csv"
    assert main(["qkd", "--output", str(out)]) == 0
    assert "visibility=1.000000 qber=0.000000" in capsys.readouterr().out
    header, rows = read_csv(out)
    assert header == ["visibility", "qber"]
    assert rows == [["1", "0"]]


def test_qkd_with_segments(tmp_path, capsys):
    out = tmp_path / "qkd.csv"
    segments = "crystal:60deg:310|crystal:0:150|crystal:60deg:150|crystal:0:310"
    assert main(["qkd", "--segments", segments, "--output", str(out)]) == 0
    assert "visibility=0.250000 qber=0.375000" in capsys.readouterr().out


def test_oracle_check(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    assert main(["oracle-check", "--specs", "25", "--seed", "3",
                 "--output", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 25
    assert max(float(r[5]) for r in rows) < 1e-9
    assert "max_delta" in capsys.readouterr().out


def test_fit_round_trip_from_emitted_counts(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    fit_out = tmp_path / "fit.csv"
    assert main(["fringe", "--variant", "a", "--beta", "22.5deg", "--phases", "64",
                 "--mean-total", "10000", "--seed", "42",
                 "--output", str(counts)]) == 0
    header, rows = read_csv(counts)
    assert header == ["phi", "counts"]
    assert main(["fit", "--counts", str(counts), "--output", str(fit_out)]) == 0
    header, rows = read_csv(fit_out)
    assert header[:2] == ["amplitude", "visibility_hat"]
    assert float(rows[0][1]) == pytest.approx(0.75, abs=0.02)
    assert "visibility_hat=" in capsys.readouterr().out


def test_fit_inline_sampling(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    assert main(["fit", "--variant", "a", "--beta", "22.5deg", "--phases", "64",
                 "--mean-total", "10000", "--seed", "42",
                 "--output", str(out)]) == 0
    _, rows = read_csv(out)
    assert float(rows[0][1]) == pytest.approx(0.75, abs=0.02)


def test_fit_requires_counts_or_inline(tmp_path, capsys):
    assert main(["fit", "--output", str(tmp_path / "x.csv")]) == 2
    assert "counts" in capsys.readouterr().err


def test_fit_runtime_error_maps_to_exit_1(tmp_path, capsys, monkeypatch):
    def fail(records):
        raise RuntimeError("fit diverged")

    monkeypatch.setattr(mzfringe.cli, "fit_fringe", fail)
    assert main(["fit", "--variant", "a", "--beta", "0.3", "--mean-total", "100",
                 "--output", str(tmp_path / "f.csv")]) == 1
    assert "error (RuntimeError): fit diverged" in capsys.readouterr().err


@pytest.mark.parametrize("rows, reason", [
    ("0,10\n3.2,12\n", "at least 4 records"),
    ("0,10\n1,12\n2,11\n3,9\n", "more than half a fringe period"),
])
def test_unfittable_counts_file_is_usage_error(tmp_path, capsys, rows, reason):
    counts = tmp_path / "short.csv"
    counts.write_text("phi,counts\n" + rows)
    assert main(["fit", "--counts", str(counts),
                 "--output", str(tmp_path / "f.csv")]) == 2
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("row, message", [
    pytest.param("0,-5", "count '-5' must be finite and >= 0", id="count--5"),
    pytest.param("0,nan", "count 'nan' must be finite and >= 0", id="count-nan"),
    pytest.param("0,inf", "count 'inf' must be finite and >= 0", id="count-inf"),
    pytest.param("nan,5", "phi 'nan' must be finite", id="phi-nan"),
])
def test_bad_counts_file_row_is_usage_error(tmp_path, capfd, row, message):
    counts = tmp_path / "bad.csv"
    counts.write_text(f"phi,counts\n{row}\n1,3\n2,4\n3,5\n4,6\n")
    assert main(["fit", "--counts", str(counts),
                 "--output", str(tmp_path / "f.csv")]) == 2
    err = capfd.readouterr().err
    assert f"counts file {str(counts)!r} line 2: {message}" in err
    assert "DLASCL" not in err
    assert not (tmp_path / "f.csv").exists()


def test_seeded_commands_are_byte_identical(tmp_path):
    args = ["fringe", "--variant", "a", "--beta", "0.3927rad", "--phases", "32",
            "--mean-total", "5000", "--seed", "11"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bad_angle_is_usage_error(tmp_path, capsys):
    assert main(["fringe", "--variant", "a", "--beta", "oops",
                 "--output", str(tmp_path / "x.csv")]) == 2
    assert "angle" in capsys.readouterr().err


FRINGE = ["fringe", "--variant", "a", "--beta", "0.3"]


@pytest.mark.parametrize("args, flag, value, minimum", [
    pytest.param(["oracle-check"], "--specs", "-3", 1, id="--specs--3"),
    pytest.param(["oracle-check"], "--specs", "0", 1, id="--specs-0"),
    pytest.param(FRINGE, "--phases", "0", 1, id="--phases-0"),
    pytest.param(FRINGE, "--beta-points", "0", 1, id="--beta-points-0"),
    pytest.param(FRINGE, "--mean-total", "0", 1, id="--mean-total-0"),
    pytest.param(["fit", "--variant", "a", "--beta", "0.3", "--mean-total", "100"],
                 "--phases", "3", 4, id="fit--phases-3"),
])
def test_count_below_one_is_usage_error(tmp_path, capsys, args, flag, value, minimum):
    assert main(args + [flag, value, "--output", str(tmp_path / "x.csv")]) == 2
    assert f"'{flag[2:]}' must be >= {minimum}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("delay", ["-5", "nan", "inf"])
def test_bad_crystal_delay_is_usage_error(tmp_path, capsys, delay):
    assert main(["fringe", "--arms", f"crystal:0:{delay}|", "--phases", "8",
                 "--output", str(tmp_path / "x.csv")]) == 2
    assert "crystal delay" in capsys.readouterr().err


@pytest.mark.parametrize("beta", ["nandeg", "nan", "infrad"])
def test_non_finite_angle_is_usage_error(tmp_path, capsys, beta):
    assert main(["fringe", "--variant", "a", "--beta", beta,
                 "--output", str(tmp_path / "x.csv")]) == 2
    assert "not finite" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, mzfringe.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"
