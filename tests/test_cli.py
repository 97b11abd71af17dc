import argparse
import csv
import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mzfringe.arms
import mzfringe.cli
import mzfringe.experiments
import mzfringe.interferometer
from conftest import contrast, oracle, reference_spec, standard_pair
from mzfringe.cli import main, parse_angle, parse_arm
from mzfringe.experiments import poisson_fringe
from mzfringe.interferometer import kraus_contrasts
from mzfringe.arms import Crystal, RawUnitary, Waveplate, compose_arms
from mzfringe.core import validate_density_matrix


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_parse_angle_units():
    assert parse_angle("22.5deg") == pytest.approx(np.pi / 8)
    assert parse_angle("0.5rad") == 0.5
    assert parse_angle("0.25") == 0.25


def test_parse_arm_grammar(tmp_path, capsys):
    arm = parse_arm("crystal:0deg:310;hwp:22.5deg;unitary:1,0,0,1j;identity")
    assert arm[0] == Crystal(0.0, 310.0)
    assert isinstance(arm[1], Waveplate) and arm[1].axis_angle == pytest.approx(np.pi / 8)
    assert isinstance(arm[2], RawUnitary) and arm[2].matrix[1, 1] == 1j
    assert isinstance(arm[3], RawUnitary)
    assert parse_arm("") == []
    for text in ("identity:garbage", "crystal:0:310; identity:0.3", "identity:"):
        with pytest.raises(mzfringe.cli.UsageError, match="identity element takes no value"):
            parse_arm(text)
    assert main(["fringe", "--arms", "identity:0.3|", "--output", str(tmp_path / "x.csv")]) == 2
    assert "identity element takes no value: 'identity:0.3'" in capsys.readouterr().err


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
    pytest.param("variant = z", "argument --variant: invalid choice: 'z'", id="variant-z"),
    pytest.param("config = other.cfg", "unknown config key 'config'", id="config-key"),
    # argparse would take '--var' for '--variant'; a file's keys must be whole
    pytest.param("var = a", "unknown config key 'var'", id="key-prefix"),
    pytest.param("variant = \xff", "error: cannot read config file: 'utf-8' codec",
                 id="not-utf-8"),
    # a repeated key is refused rather than left to its last value
    pytest.param("command = tomography\ncommand = qkd",
                 "config line 2: key 'command' repeats line 1", id="command-repeated"),
])
def test_config_file_values_are_parsed_like_flags(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    head = "" if line.startswith("command =") else "command = tomography\n"
    cfg.write_bytes(f"{head}{line}\n".encode("latin-1"))
    # a command on the command line leaves every file value, the file's
    # command among them, parsed as before
    for argv in ([], ["qkd"]):
        assert main([*argv, "--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


def test_argv_command_beats_the_file_command_and_dashed_values_stay_values(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("command = sweep\nbeta = -0.3\noutput = -x.csv\n")
    assert main(["tomography", "--config", "run.cfg"]) == 0
    from_file = capsys.readouterr().out
    assert from_file.startswith("chi_upper=")
    assert main(["tomography", "--beta", "-0.3", "--output", "flags.csv"]) == 0
    assert capsys.readouterr().out == from_file
    assert (tmp_path / "-x.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()
    assert read_csv(tmp_path / "-x.csv")[1][0][0] == "-0.3"
    # a valid file command that argv overrides, with no other key
    (tmp_path / "qkd.cfg").write_text("command = sweep\n")
    assert main(["qkd", "--config", "qkd.cfg", "--output", "q.csv"]) == 0
    assert capsys.readouterr().out.startswith("visibility=")


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


def test_fringe_probabilities_stay_in_unit_interval(tmp_path):
    # a unitary within UNITARY_ATOL of the identity gives |C| = 1 + 4e-11,
    # past roundoff but within the 1e-9 clipping tolerance
    out = tmp_path / "p.csv"
    assert main(["fringe", "--arms", "unitary:1.00000000004,0,0,1.00000000004|",
                 "--phases", "4", "--output", str(out)]) == 0
    _, rows = read_csv(out)
    p0 = [float(p) for _, p in rows]
    assert len(p0) == 4 and all(0.0 <= p <= 1.0 for p in p0)
    assert p0[0] == 1.0 and p0[2] == 0.0


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


def test_tomography_summary_follows_its_mode(tmp_path, capsys):
    # a one-point grid is summarised as a grid, as sweep summarises it
    assert main(["tomography", "--beta-points", "1", "--output", str(tmp_path / "t.csv")]) == 0
    line = capsys.readouterr().out
    assert line.startswith("points=1 max_chi_distance=") and "max_gap=" in line
    assert main(["tomography", "--beta", "0", "--output", str(tmp_path / "b.csv")]) == 0
    assert capsys.readouterr().out.startswith("chi_upper=")


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
    def fail(phis, counts):
        raise RuntimeError("fit diverged")

    monkeypatch.setattr(mzfringe.cli, "fit_fringe", fail)
    assert main(["fit", "--variant", "a", "--beta", "0.3", "--mean-total", "100",
                 "--output", str(tmp_path / "f.csv")]) == 1
    assert "error (RuntimeError): fit diverged" in capsys.readouterr().err


@pytest.mark.parametrize("rows, reason", [
    ("0,10\n3.2,12\n", "at least 4 records"),
    ("0,10\n1,12\n2,11\n3,9\n", "more than half a fringe period"),
    pytest.param("0,10\n0,12\n4,30\n4,28\n", "at least 3 distinct phases",
                 id="two-distinct-phases"),
    pytest.param("", "at least 4 records", id="header-only"),
    pytest.param("\n\n", "at least 4 records", id="header-and-blank-lines"),
    pytest.param("0,10\n1e-7,12\n4,30\n4,28\n", "the fit did not converge in 100 steps",
                 id="not-converged"),
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
    pytest.param("0,10.5", "count '10.5' must be a whole number", id="count-10.5"),
    pytest.param("0,1e308", "count '1e308' must be at most 2**53", id="count-1e308"),
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


@pytest.mark.parametrize("text, line, message", [
    pytest.param("phi,counts\n0,10\n\n1,abc\n2,4\n3,5\n4,6\n", 4, "expected 'phi,counts'",
                 id="blank-before-bad-row"),
    pytest.param("\n\nphi,counts\n0,10\n1,-3\n2,4\n3,5\n", 5,
                 "count '-3' must be finite and >= 0", id="blanks-before-header"),
    pytest.param("phi,counts\r\n0,10\r\n\r\n1,2.5\r\n2,4\r\n3,5\r\n", 4,
                 "count '2.5' must be a whole number", id="crlf"),
    pytest.param("phi,counts\n0,10\n   \n1,2\n2,4\n3,5\n", 3, "expected 'phi,counts'",
                 id="whitespace-line"),
    pytest.param('phi,counts\n0,10\n"1","2"\n2,4\n3,5\n', 3, "expected 'phi,counts'",
                 id="quoted-fields"),
])
def test_counts_file_messages_name_the_file_line(tmp_path, capsys, text, line, message):
    counts = tmp_path / "bad.csv"
    counts.write_bytes(text.encode())
    assert main(["fit", "--counts", str(counts),
                 "--output", str(tmp_path / "f.csv")]) == 2
    assert f"counts file {str(counts)!r} line {line}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def test_whole_number_counts_written_as_floats_are_accepted(tmp_path):
    rows = [(0, 10), (1.5, 3), (3, 0), (4.5, 7)]
    outputs = []
    for name, fmt in (("int", "{},{}\n"), ("float", "{},{}.0\n")):
        counts = tmp_path / f"{name}.csv"
        counts.write_text("phi,counts\n" + "".join(fmt.format(*row) for row in rows))
        out = tmp_path / f"fit-{name}.csv"
        assert main(["fit", "--counts", str(counts), "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _format_value(value) -> str:
    """The per-value rule the CSV writer used before it formatted by column."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


WRITER_FLOATS = [0.0, -0.0, 1e-300, -2.5e-310, 1 / 3, -123456789012.5, 1e16, 2.0**53 + 2,
                 float("nan"), float("inf"), -float("inf"), 0.1, 1.0]
WRITER_INTS = [0, -1, 7, 2**53 + 1, -(2**63), 2**63 - 1, 12, 3, -5, 8, 9, 10, 11]
WRITER_BOOLS = [True, False] * 6 + [True]


def test_write_csv_matches_the_per_value_rule(tmp_path):
    columns = [WRITER_BOOLS, np.array(WRITER_BOOLS), WRITER_INTS,
               np.array(WRITER_INTS, dtype=np.int64),
               np.array([2**64 - 1 - i for i in range(13)], dtype=np.uint64),
               WRITER_FLOATS, np.array(WRITER_FLOATS), np.array(WRITER_FLOATS, dtype=np.float32)]
    header = [f"c{i}" for i in range(len(columns))]
    out = tmp_path / "t.csv"
    mzfringe.cli._write_csv(str(out), header, columns)
    expected = [",".join(header)]
    expected += [",".join(_format_value(v) for v in row) for row in zip(*columns)]
    assert out.read_bytes() == ("\n".join(expected) + "\n").encode()
    assert "9007199254740993" in out.read_text() and "-0" in out.read_text()
    mzfringe.cli._write_csv(str(out), header, [column[:0] for column in columns])
    assert out.read_bytes() == (",".join(header) + "\n").encode()


def test_counts_and_fit_csv_golden(tmp_path):
    # Pinned from the per-value writer and the per-row reader: the column
    # writer and the one-pass reader must give the same bytes.
    counts, fit = tmp_path / "c.csv", tmp_path / "f.csv"
    assert main(["fringe", "--variant", "a", "--beta", "22.5deg", "--phases", "1024",
                 "--mean-total", "10000", "--seed", "42", "--output", str(counts)]) == 0
    assert main(["fit", "--counts", str(counts), "--output", str(fit)]) == 0
    assert hashlib.sha256(counts.read_bytes()).hexdigest() == \
        "7ba4f58bbf708fc0c2cf74063946d5fee71b1a1066e183569cc61fe72b9888e0"
    assert hashlib.sha256(fit.read_bytes()).hexdigest() == \
        "39d7bbc15e6f5f4252842ae87bb855e8d88c263dae61a1e247e5a3492eebd47e"


@pytest.mark.parametrize("args, digest", [
    (["sweep", "--variant", "c", "--beta-points", "25"],
     "05cf9493c0b7ea418643882f80b630d7db0ed8ae3be0690a2f11707bae8fd091"),
    (["tomography", "--beta-points", "25"],
     "83970de07a1a0d98fee2ad0eaf50939c92ec36bf90664222235dbb58b49e4d16"),
    (["oracle-check", "--specs", "20", "--seed", "5"],
     "82fd778327a84abc60bf4c3e6d8427c18dba0ec9c37be5260e005c5cc1f7f253"),
    (["qkd", "--segments", "crystal:60deg:310|crystal:0:150|crystal:60deg:150|crystal:0:310"],
     "f1dae9ceff9785945b1df77fb16b79ef567cf3f1b81a052a573aa3587f2f570e"),
    (["fringe", "--variant", "d", "--beta", "22.5deg", "--phases", "64"],
     "32d94b91c6baccaa515d107ecc7d4a01c3c199d19aaa9424b0c1ed702c24df6d"),
], ids=["sweep", "tomography", "oracle-check", "qkd", "fringe"])
def test_paper_table_csv_golden(tmp_path, args, digest):
    # Pinned from the record types (FringeResult, SweepRow, BlindnessReport,
    # QkdSpec) and per-row tuples: the column-built tables give the same bytes.
    # oracle-check's is re-pinned on the counter-based draw of its specs.
    out = tmp_path / "t.csv"
    assert main(args + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


@pytest.mark.parametrize("args, flag, bound", [
    pytest.param(FRINGE, "--phases", 20, id="fringe--phases"),
    pytest.param(["fit", "--variant", "a", "--beta", "0.3", "--mean-total", "100"],
                 "--phases", 20, id="fit--phases"),
    pytest.param(["sweep", "--variant", "a"], "--beta-points", 16, id="sweep--beta-points"),
    pytest.param(["tomography"], "--beta-points", 16, id="tomography--beta-points"),
    pytest.param(["oracle-check"], "--specs", 16, id="oracle-check--specs"),
])
def test_count_past_its_bound_is_a_resource_limit(tmp_path, capsys, monkeypatch, args, flag,
                                                  bound):
    # no command runs: one would exit 1 here, and one past the bound exits 2
    monkeypatch.setattr(mzfringe.cli, "_RUNNERS", {})
    out = tmp_path / "x.csv"
    for value in (2 ** bound + 1, 10**13):
        assert main(args + [flag, str(value), "--output", str(out)]) == 2
        assert (f"resource limit: key '{flag[2:]}' is {value}, past its limit of {2 ** bound}"
                in capsys.readouterr().err)
    assert not out.exists()
    assert main(args + [flag, str(2 ** bound), "--output", str(out)]) == 1


@pytest.mark.parametrize("args, config", [
    pytest.param(["tomography", "--beta", "0.3", "--beta-points", "50"], "", id="tomography"),
    pytest.param(["tomography", "--beta", "0.3"], "beta-points = 50\n", id="tomography-file"),
    pytest.param(["sweep", "--variant", "a", "--beta", "0.3"], "", id="sweep"),
    pytest.param(["sweep", "--variant", "a", "--beta", "0.3", "--beta-points", "50"], "",
                 id="sweep--beta-points"),
    pytest.param(["sweep", "--variant", "a"], "beta = 0.3\n", id="sweep-file"),
])
def test_beta_beside_a_beta_grid_is_usage_error(tmp_path, capsys, args, config):
    # one angle and a grid conflict, from flags or file values alike; neither
    # is dropped
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "x.csv"
    assert main(args + ["--config", str(cfg), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "key 'beta'" in err and "key 'beta-points'" in err
    assert not out.exists()


IGNORED_KEYS = [
    (["fringe", "--variant", "a", "--beta", "0.3"], "beta-points", "50"),
    (["oracle-check", "--specs", "3"], "beta", "0.3"),
    (["qkd"], "beta-points", "7"),
    (["sweep", "--variant", "a", "--beta-points", "5"], "seed", "3"),
    (["tomography", "--beta-points", "5"], "phases", "9"),
]


@pytest.mark.parametrize("from_file", [False, True], ids=["flag", "file"])
@pytest.mark.parametrize("args, key, value", IGNORED_KEYS, ids=[a[0] for a, _, _ in IGNORED_KEYS])
def test_a_key_the_command_does_not_read_is_usage_error(tmp_path, capsys, args, key, value,
                                                        from_file):
    # each key that is given counts, from a flag or a file; the defaults of
    # the keys not given do not
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n" if from_file else "")
    extra = [] if from_file else [f"--{key}", value]
    out = tmp_path / "x.csv"
    assert main(args + extra + ["--config", str(cfg), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"command '{args[0]}' does not read key '{key}'" in err
    assert not out.exists()
    assert main(args + ["--output", str(out)]) == 0


# keys that the command reads in another mode: 'fringe' and 'fit' with an arm
# pair read no variant, 'fringe' seeds only a sample of counts, and 'fit'
# reads a counts file alone
MODE_KEYS = [
    (["fringe", "--arms", "crystal:0.1:150|"], "variant", "b"),
    (["fringe", "--arms", "crystal:0.1:150|"], "beta", "0.3"),
    (["fringe", "--variant", "a", "--beta", "0.3"], "seed", "5"),
    (["fit", "--arms", "crystal:0.1:150|", "--mean-total", "50"], "variant", "a"),
    (["fit", "--counts", "counts.csv"], "seed", "3"),
    (["fit", "--counts", "counts.csv"], "phases", "9"),
    (["fit", "--counts", "counts.csv"], "variant", "a"),
    (["fit", "--counts", "counts.csv"], "beta", "0.3"),
    (["fit", "--counts", "counts.csv"], "mean-total", "5"),
]


@pytest.mark.parametrize("from_file", [False, True], ids=["flag", "file"])
@pytest.mark.parametrize("args, key, value", MODE_KEYS,
                         ids=[f"{a[0]}-{a[1][2:]}-{k}" for a, k, _ in MODE_KEYS])
def test_a_key_the_mode_does_not_read_is_usage_error(tmp_path, capsys, monkeypatch, args, key,
                                                     value, from_file):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "counts.csv").write_text("phi,counts\n0,10\n1.5,7\n3,2\n4.5,6\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n" if from_file else "")
    extra = [] if from_file else [f"--{key}", value]
    out = tmp_path / "x.csv"
    assert main(args + extra + ["--config", str(cfg), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"command '{args[0]}' does not read key '{key}'" in err
    assert not out.exists()
    assert main(args + ["--output", str(out)]) == 0


# one small value per key; 'counts' names the file that the test writes
KEY_VALUES = {"arms": "crystal:0.1:150|", "variant": "a", "beta": "0.3", "beta-points": "3",
              "phases": "8", "mean-total": "1000", "seed": "1", "segments": "|||",
              "counts": "counts.csv", "specs": "3"}


def test_every_key_set_is_read_whole_or_refused(tmp_path, capsys, monkeypatch):
    # every subset of the keys, for every command: a run that is accepted reads
    # each key given, and any other set exits 2 with a message
    monkeypatch.chdir(tmp_path)
    (tmp_path / "counts.csv").write_text("phi,counts\n0,10\n1.5,7\n3,2\n4.5,6\n")
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parse = mzfringe.cli.parse_config
    monkeypatch.setattr(mzfringe.cli, "parse_config",
                        lambda argv: Recording(**vars(parse(argv))))
    accepted = dict.fromkeys(mzfringe.cli.COMMANDS, 0)
    for command in accepted:
        for size in range(len(KEY_VALUES) + 1):
            for keys in itertools.combinations(KEY_VALUES, size):
                argv = [command, *itertools.chain.from_iterable(
                    (f"--{key}", KEY_VALUES[key]) for key in keys), "--output", "x.csv"]
                reads.clear()
                code = main(argv)
                err = capsys.readouterr().err
                if code == 0:
                    accepted[command] += 1
                    assert {key.replace("-", "_") for key in keys} <= reads, argv
                else:
                    assert code == 2 and err.startswith("error: "), (argv, code, err)
    assert accepted == {"fringe": 12, "fit": 9, "sweep": 2, "oracle-check": 4,
                        "tomography": 3, "qkd": 2}


def test_the_module_entry_point_runs_and_refuses(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = [sys.executable, "-m", "mzfringe.cli", "qkd", "--output"]
    ok = subprocess.run(run + ["ok.csv"], cwd=tmp_path, env=env, capture_output=True,
                        text=True, timeout=60)
    assert (ok.returncode, ok.stdout, ok.stderr) == (0, "visibility=1.000000 qber=0.000000\n", "")
    refused = subprocess.run(run + ["bad.csv", "--beta", "0.3"], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=60)
    assert (refused.returncode, refused.stdout) == (2, "")
    assert refused.stderr.startswith("error: command 'qkd' does not read key 'beta'")
    assert (tmp_path / "ok.csv").exists() and not (tmp_path / "bad.csv").exists()


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


def test_all_zero_counts_file_is_usage_error(tmp_path, capsys):
    counts = tmp_path / "z.csv"
    counts.write_text("phi,counts\n" + "".join(f"{i},0\n" for i in range(5)))
    out = tmp_path / "f.csv"
    assert main(["fit", "--counts", str(counts), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(counts) in err and "sum to more than 0" in err
    assert not out.exists()


def test_inline_fit_of_all_zero_sample_fails(tmp_path, capsys):
    # mean 1 at visibility 1 over 4 phases: the first seed that samples no
    # photon at all
    f, phis = contrast(*standard_pair("d", 0.3927)), 2 * np.pi * np.arange(4) / 4
    seed = next((s for s in range(100) if not poisson_fringe(f, phis, 1, s).any()), None)
    assert seed is not None
    out = tmp_path / "f.csv"
    assert main(["fit", "--variant", "d", "--beta", "0.3927rad", "--mean-total", "1",
                 "--phases", "4", "--seed", str(seed), "--output", str(out)]) != 0
    assert "sum to more than 0" in capsys.readouterr().err
    assert not out.exists()


def loads_numpy_random(code: str, *args) -> bool:
    """Whether a fresh interpreter that imports mzfringe.cli and runs ``code``
    (with ``args`` in sys.argv) ends with numpy.random loaded."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = f"import sys, mzfringe.cli\n{code}\nprint('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    return out.strip().splitlines()[-1] == "True"


def test_sampled_fringe_loads_no_numpy_random(tmp_path):
    # the counts path, a sampled fringe and then its fit from the file
    code = ("assert mzfringe.cli.main(['fringe', '--variant', 'a', '--beta', '0.3', "
            "'--mean-total', '20', '--seed', '5', '--output', sys.argv[1]]) == 0; "
            "assert mzfringe.cli.main(['fit', '--counts', sys.argv[1], "
            "'--output', sys.argv[2]]) == 0")
    assert not loads_numpy_random(code, str(tmp_path / "c.csv"), str(tmp_path / "f.csv"))


def test_no_command_loads_numpy_random(tmp_path):
    # oracle-check draws its specs from counter-based uniforms, and no other
    # command draws at all
    code = ("for args in (['oracle-check', '--specs', '20', '--seed', '3'],\n"
            "             ['sweep', '--variant', 'c', '--beta-points', '5'],\n"
            "             ['tomography', '--beta-points', '5'], ['qkd'],\n"
            "             ['fringe', '--variant', 'b', '--beta', '0.3', '--phases', '8']):\n"
            "    assert mzfringe.cli.main(args + ['--output', sys.argv[1]]) == 0")
    assert not loads_numpy_random(code, str(tmp_path / "o.csv"))


@pytest.mark.parametrize("argv, parsed", [
    (["oracle-check", "--specs", "300"], 0),
    (["sweep", "--variant", "a", "--beta-points", "20"], 0),
    (["sweep", "--variant", "d", "--beta-points", "20"], 0),
    (["tomography", "--beta-points", "20"], 0),
    (["tomography", "--beta", "0.3"], 0),
    (["fringe", "--variant", "c", "--beta", "0.3"], 0),
    (["fit", "--variant", "b", "--beta", "0.3", "--mean-total", "100"], 0),
    (["qkd"], 0),
    (["fringe", "--arms", "crystal:0.3:150;hwp:0.2|unitary:1,0,0,1j;identity;crystal:0:75"], 5),
    (["fit", "--arms", "hwp:0.2|crystal:0.3:150", "--mean-total", "100"], 2),
    (["qkd", "--segments", "crystal:60deg:310|crystal:0:150|crystal:60deg:150|crystal:0:310"], 4),
])
def test_only_the_parser_builds_element_objects(tmp_path, monkeypatch, argv, parsed):
    # the draws and the standard configurations build tables directly; an
    # element object is made only by parse_arm, one per element of the text
    made = []
    for element in (Crystal, Waveplate, RawUnitary):
        def counted(self, check=element.__post_init__):
            made.append(sys._getframe(2).f_code.co_name)  # past the dataclass __init__
            check(self)
        monkeypatch.setattr(element, "__post_init__", counted)
    assert main(argv + ["--output", str(tmp_path / "x.csv")]) == 0
    assert made == ["parse_arm"] * parsed


def test_sampled_fringe_computes_one_contrast(tmp_path, monkeypatch):
    # one table of the pair's two arms and one join, with no validation of
    # the program's own maximally mixed state
    stacks, joins, validated = [], [], []

    def composed(arms):
        stacks.append(arms.arms)
        return compose_arms(arms)

    def joined(table, upper, lower, rho):
        joins.append((list(upper), list(lower)))
        return kraus_contrasts(table, upper, lower, rho)

    def checked(rho, *args):
        validated.append(np.shape(rho))
        return validate_density_matrix(rho, *args)

    for module in (mzfringe.cli, mzfringe.experiments, mzfringe.interferometer):
        monkeypatch.setattr(module, "compose_arms", composed)
        monkeypatch.setattr(module, "kraus_contrasts", joined)
    monkeypatch.setattr(mzfringe.interferometer, "validate_density_matrix", checked)
    assert main(["fringe", "--variant", "b", "--beta", "0.4", "--mean-total", "20",
                 "--seed", "5", "--output", str(tmp_path / "c.csv")]) == 0
    assert stacks == [2] and joins == [([0], [1])] and validated == []


@pytest.mark.parametrize("args, sizes", [
    (["tomography", "--beta-points", "100"], [200, 200]),
    (["sweep", "--variant", "a", "--beta-points", "200"], [400]),
])
def test_paper_tables_compose_each_arm_stack_once(tmp_path, monkeypatch, args, sizes):
    # tomography composes each configuration's upper arms and the shared lower
    # arm in one table, which feeds process tomography and the contrast, one
    # configuration after the other; a sweep composes its upper and lower arms
    # in one table. Each spans the whole beta grid.
    calls = []

    def counted(arms):
        calls.append(arms.arms)
        return compose_arms(arms)

    for module in (mzfringe.arms, mzfringe.interferometer, mzfringe.experiments):
        monkeypatch.setattr(module, "compose_arms", counted)
    assert main(args + ["--output", str(tmp_path / "t.csv")]) == 0
    assert calls == sizes


def test_oracle_check_equals_the_per_spec_routines(tmp_path, monkeypatch):
    got = {"contrast": [], "oracle": []}

    def kept(name, routine):
        def run(*args):
            values = routine(*args)
            got[name] += list(values)
            return values
        return run

    monkeypatch.setattr(mzfringe.cli, "shared_env_contrasts",
                        kept("contrast", mzfringe.cli.shared_env_contrasts))
    monkeypatch.setattr(mzfringe.cli, "oracle_contrasts",
                        kept("oracle", mzfringe.cli.oracle_contrasts))
    assert main(["oracle-check", "--specs", "300", "--seed", "17",
                 "--output", str(tmp_path / "o.csv")]) == 0
    specs = [reference_spec(17, i) for i in range(300)]
    assert [repr(c) for c in got["contrast"]] == [repr(contrast(*s)) for s in specs]
    assert [repr(complex(o)) for o in got["oracle"]] == [repr(oracle(*s)) for s in specs]


def test_oracle_check_validates_its_states_as_one_stack(tmp_path, monkeypatch):
    # 300 specs: each routine checks all 300 states at once
    shapes = []

    def counted(rho, *args):
        shapes.append(np.shape(rho))
        return validate_density_matrix(rho, *args)

    monkeypatch.setattr(mzfringe.interferometer, "validate_density_matrix", counted)
    assert main(["oracle-check", "--specs", "300", "--seed", "17",
                 "--output", str(tmp_path / "o.csv")]) == 0
    assert shapes == [(300, 2, 2)] * 2


def test_oracle_check_composes_all_arms_in_one_table(tmp_path, monkeypatch):
    # the 1,000 specs compose all their arms in one table and join all their
    # pairs in one call
    stacks, joins = [], []

    def composed(arms):
        stacks.append(arms.arms)
        return compose_arms(arms)

    def joined(table, upper, lower, rho):
        joins.append(len(upper))
        return kraus_contrasts(table, upper, lower, rho)

    monkeypatch.setattr(mzfringe.interferometer, "compose_arms", composed)
    monkeypatch.setattr(mzfringe.interferometer, "kraus_contrasts", joined)
    assert main(["oracle-check", "--specs", "1000", "--seed", "5",
                 "--output", str(tmp_path / "o.csv")]) == 0
    assert stacks == [2000]
    assert joins == [1000]


def test_a_config_run_leaves_no_defaults_behind(tmp_path, capsys):
    # the parser is built once per process; a config file's values hold only
    # for the parse that read it, even when that parse fails
    good, bad = tmp_path / "good.cfg", tmp_path / "bad.cfg"
    good.write_text("command = oracle-check\nspecs = 3\nseed = 9\n")
    bad.write_text("command = oracle-check\nspecs = 4\nseed = abc\n")
    assert main(["--config", str(good), "--output", str(tmp_path / "good.csv")]) == 0
    assert main(["--config", str(bad), "--output", str(tmp_path / "bad.csv")]) == 2
    assert main(["oracle-check", "--output", str(tmp_path / "here.csv")]) == 0
    here = capsys.readouterr().out.splitlines()[-1]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, mzfringe.cli; sys.exit(mzfringe.cli.main(sys.argv[1:]))"
    fresh = subprocess.run([sys.executable, "-c", code, "oracle-check",
                            "--output", str(tmp_path / "fresh.csv")],
                           env=env, capture_output=True, text=True, check=True, timeout=60)
    assert here.startswith("specs=200 ") and here == fresh.stdout.strip()
    assert (tmp_path / "here.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


@pytest.mark.parametrize("command", [["fringe"], ["fit", "--phases", "8"]])
def test_mean_total_past_2_53_is_usage_error(tmp_path, capsys, command):
    # without the limit, int64 counts wrap: a mean of 10**20 at unit visibility gives -2**63
    out = tmp_path / "x.csv"
    assert main(command + ["--variant", "d", "--beta", "22.5deg", "--mean-total",
                           str(10**20), "--output", str(out)]) == 2
    assert "resource limit: mean_total 100000000000000000000 is past 2**53" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, groups", [("--arms", 2), ("--segments", 4)])
def test_arms_past_the_bin_limit_are_usage_errors(tmp_path, capsys, key, groups):
    # 15 crystals at 150 * 2^k um reach 2^15 distinct delays, past COMPOSE_BIN_LIMIT
    deep = ";".join(f"crystal:0.1:{150 * 2 ** k}" for k in range(15))
    command = "fringe" if key == "--arms" else "qkd"
    text = "|".join([deep] + [""] * (groups - 1))
    assert main([command, key, text, "--output", str(tmp_path / "x.csv")]) == 2
    assert "resource limit" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key, groups", [("--arms", 2), ("--segments", 4)])
def test_crystal_delays_past_the_largest_float_are_usage_errors(tmp_path, capsys, key, groups):
    # 1e308 um overflows to inf pm; 2**51 + 2**51 pm reaches 2**52 pm, past
    # which micrometre delays no longer tell whole picometres apart
    command = "fringe" if key == "--arms" else "qkd"
    half = f"{2**51 / 1e6!r}"
    for arm, message in [("crystal:0.3:1e308", "must be >= 0 and finite in pm"),
                         (f"crystal:0.3:{half};crystal:0.2:{half}",
                          "resource limit: arm 0's crystal delays reach 2**52 pm")]:
        text = "|".join([arm] + [""] * (groups - 1))
        assert main([command, key, text, "--output", str(tmp_path / "x.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["fringe", "--arms", "crystal:0.3:2.75e-9|"], id="fringe"),
    pytest.param(["fit", "--arms", "crystal:0.3:2.75e-9|", "--mean-total", "100"], id="fit"),
    pytest.param(["qkd", "--segments", "crystal:0.3:2.75e-9|||"], id="qkd"),
])
def test_crystal_delays_off_the_picometre_grid_are_usage_errors(tmp_path, capsys, argv):
    assert main([*argv, "--output", str(tmp_path / "x.csv")]) == 2
    assert ("error: bad crystal delay in 'crystal:0.3:2.75e-9': crystal delay 2.75e-09 um "
            "is not in whole picometres") in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
