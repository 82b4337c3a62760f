import argparse
import contextlib
import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import extremap
from extremap.cli import (build_parser, exact_str, main, parse_count,
                          parse_counts, parse_grid, parse_point,
                          parse_positive, write_outputs)
from extremap.events import (Observable, annulus_set, dprime_sum,
                             exact_evl_prob, exact_hts_prob, threshold_for)
from extremap.intervals import ball
from extremap.maps import FullBranchMap
from fractions import Fraction as F


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
    return comments, rows


def test_parsers():
    assert parse_count("1e3") == 1000
    assert parse_count("100000") == 100000
    with pytest.raises(Exception):
        parse_count("1.5")
    assert parse_positive("1e5") == 100000 and parse_positive("2") == 2
    for bad in ("0", "-1", "1.5", "0e3"):
        with pytest.raises(Exception):
            parse_positive(bad)
    assert parse_point("1/3") == F(1, 3)
    assert parse_point("0.25") == F(1, 4)
    assert parse_grid("1/3,0.5") == [F(1, 3), F(1, 2)]
    assert parse_counts("1e3,, 2") == [1000, 2]
    with pytest.raises(Exception):
        parse_counts("1e3,0")
    for bad in ("", ",", " , "):
        with pytest.raises(Exception):
            parse_grid(bad)


@pytest.mark.parametrize("argv, flag", [
    (["ei", "--zeta", "1/0", "--eps", "1/100"], "--zeta"),
    (["ei", "--zeta", "inf", "--eps", "1/100"], "--zeta"),
    (["ei", "--zeta", "1/3", "--eps", "1/0"], "--eps"),
    (["evl", "--zeta", "1/3", "--n", "100", "--seed", "1", "--tau", "1/0"],
     "--tau"),
    (["evl", "--zeta", "1/3", "--tau", "1e400", "--n", "100", "--trials",
      "100", "--seed", "1"], "--tau"),
    (["bounds", "--zeta", "1/3", "--bracket", "sharp-hts", "--eps", "1/100",
      "--tau", "1e400"], "--tau"),
], ids=["zeta-1/0", "zeta-inf", "eps-1/0", "tau-1/0", "evl-tau-1e400",
        "sharp-hts-tau-1e400"])
def test_point_with_no_finite_value_is_usage_error(tmp_path, capsys, argv,
                                                   flag):
    # Fraction raises ZeroDivisionError on "1/0" and OverflowError on
    # float("inf"), which argparse would let through as a traceback; an
    # exact 1e400 has no float value, and the commands need one of tau
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evl", "bounds", "check"])
def test_horizon_zero_is_usage_error(tmp_path, capsys, command):
    # --n lists horizons; n = 0 has no threshold (u_n needs 1/n), and used
    # to end in a ZeroDivisionError with exit 1
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--zeta", "1/3", "--n", "100,0", "--seed", "1",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --n:" in capsys.readouterr().err
    assert not out.exists()


def test_ei_command_exact_values(tmp_path):
    rc = main(["ei", "--zeta", "1/3", "--eps", "1/100,1/50", "--q", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    comments, rows = read_csv(tmp_path / "ei.csv")
    assert any("schema_version" in c for c in comments)
    assert any('"zeta": "1/3"' in c for c in comments)
    assert [r["theta_n_exact"] for r in rows] == ["3/4", "3/4"]
    assert rows[0]["theta_limit_exact"] == "3/4"
    payload = json.loads((tmp_path / "ei.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["config"]["command"] == "ei"


# each command takes only the flags it reads; these belong to other commands
REMOVED_FLAGS = [
    ("ei", ("--workers", "2")), ("ei", ("--budget", "100")),
    ("ei", ("--decay-c0", "1")), ("ei", ("--decay-lam", "0.5")),
    ("bounds", ("--workers", "2")),
    ("check", ("--workers", "2")), ("check", ("--decay-c0", "1")),
    ("check", ("--decay-lam", "0.5")), ("check", ("--trials", "100")),
    ("pressure", ("--workers", "2")), ("pressure", ("--budget", "100")),
    ("pressure", ("--decay-c0", "1")), ("pressure", ("--decay-lam", "0.5")),
    ("evl", ("--budget", "100")), ("escape", ("--budget", "100")),
    ("hts", ("--budget", "100")), ("hts", ("--decay-c0", "1")),
    ("hts", ("--decay-lam", "0.5")),
    ("evl", ("--profile", "power")), ("evl", ("--beta", "2")),
    ("evl", ("--cap", "1")),
    ("escape", ("--bins", "64")), ("escape", ("--dump-ulam",)),
]


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS,
                         ids=[f"{c}{f[0]}" for c, f in REMOVED_FLAGS])
def test_unread_flag_is_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def test_missing_seed_is_usage_error(tmp_path):
    rc = main(["evl", "--zeta", "1/3", "--n", "100", "--out", str(tmp_path)])
    assert rc == 2


def test_check_without_draws_needs_no_seed(tmp_path, capsys):
    # only the proposition rows are drawn, so --seed is required with them
    assert main(["check", "--n", "64", "--prop-configs", "0",
                 "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "check.json").read_text())
    assert (tmp_path / "check.csv").exists()
    assert payload["config"]["seed"] is None
    assert [r["kind"] for r in payload["rows"]] == ["dprime"]
    out = tmp_path / "drawn"
    assert main(["check", "--n", "64", "--prop-configs", "1",
                 "--out", str(out)]) == 2
    assert "missing --seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", [
    "widths:1/2,0,1/2", "[1,2]", '[{"lo":0}]',
    '[{"lo": 0, "hi": "1/2", "slope": 2, "intercept": null},'
    ' {"lo": "1/2", "hi": 1, "slope": 2, "intercept": -1}]',
], ids=["zero-width", "not-objects", "missing-keys", "null-intercept"])
def test_malformed_map_spec_is_usage_error(tmp_path, capsys, spec):
    # each ended in a traceback (ZeroDivisionError, TypeError, KeyError)
    out = tmp_path / "out"
    for _ in range(2):
        assert main(["ei", "--map", spec, "--zeta", "1/3", "--eps", "1/100",
                     "--q", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_tau_zero_rejected(tmp_path):
    rc = main(["evl", "--zeta", "1/3", "--n", "100", "--tau", "0",
               "--seed", "1", "--out", str(tmp_path)])
    assert rc == 2


def _z(row, exact):
    """The estimate's distance from the exact value in standard errors
    (ci_half is the 95% Wilson half-width)."""
    return abs(float(row["estimate"]) - exact) / (float(row["ci_half"]) / 1.96)


def test_hts_past_a_quarter_matches_the_exact_oracle(tmp_path):
    # ball takes any radius in (0, 1/2), and so does the estimator
    rc = main(["hts", "--zeta", "1/3", "--eps", "0.3", "--tau", "1,2",
               "--trials", "2e4", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    f, B = FullBranchMap.doubling(), ball(F(1, 3), F(3, 10))
    _, rows = read_csv(tmp_path / "hts.csv")
    assert [r["tau"] for r in rows] == ["1.0", "2.0"]
    for r in rows:
        t = int(F(r["tau"]) / B.measure())
        assert _z(r, float(exact_hts_prob(f, B, t))) <= 4


def test_infeasible_n_rejected(tmp_path):
    rc = main(["bounds", "--zeta", "1/3", "--bracket", "sharp-evl", "--n", "2",
               "--out", str(tmp_path)])
    assert rc == 2


def test_evl_outputs_and_determinism(tmp_path):
    args = ["evl", "--map", "doubling", "--zeta", "1/3", "--tau", "1",
            "--n", "100,400", "--trials", "2e4", "--seed", "7",
            "--out", str(tmp_path)]
    assert main(args) == 0
    first = (tmp_path / "evl.csv").read_bytes()
    first_json = (tmp_path / "evl.json").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "evl.csv").read_bytes() == first
    assert (tmp_path / "evl.json").read_bytes() == first_json
    comments, rows = read_csv(tmp_path / "evl.csv")
    assert [r["scale"] for r in rows] == ["100", "400"]
    for r in rows:
        assert 0 <= float(r["estimate"]) <= 1
        assert float(r["bracket"]) > 0
        assert r["seed"] == "7"
    cfg = json.loads(comments[1].split("config: ", 1)[1])
    assert cfg["trials"] == 20000 and cfg["seed"] == 7


def test_evl_sweep_deterministic(tmp_path):
    # a rerun gives the same rows and config; the periodic centre 1/3
    # takes q = 2 and theta = 3/4, and every bracket is positive
    args = ["evl", "--zeta", "1/3", "--tau", "1", "--n", "200,800",
            "--trials", "30000", "--seed", "9", "--out", str(tmp_path)]
    runs = []
    for _ in range(2):
        assert main(args) == 0
        runs.append(json.loads((tmp_path / "evl.json").read_text()))
    t1, t2 = runs
    assert t1["rows"] == t2["rows"]
    assert t1["config"] == t2["config"]
    assert t1["columns"] == ["scale", "estimate", "ci_half", "limit",
                             "deviation", "bracket", "ratio", "seed"]
    for col in t1["columns"]:
        assert col in t1["rows"][0]
    assert t1["rows"][0]["q"] == 2 and t1["rows"][0]["theta"] == 0.75
    assert all(r["bracket"] > 0 for r in t1["rows"])
    # the config records the map, the horizons and q, theta as used
    cfg = t1["config"]
    assert cfg["map"] == "doubling" and cfg["n"] == [200, 800]
    assert cfg["q"] == 2 and cfg["theta"] == 0.75
    assert cfg["decay"] == {"c0": 4.0, "lam": 0.5} and cfg["chunk"] > 0


@pytest.mark.parametrize("spec, name", [
    ("widths:1/2,1/4,1/4", "widths-1/2,1/4,1/4"),
    ('[{"lo": 0, "hi": "1/2", "slope": -2, "intercept": 1},'
     ' {"lo": "1/2", "hi": 1, "slope": 2, "intercept": -1}]', "custom")])
def test_evl_records_the_map_spec_as_given(tmp_path, spec, name):
    # "map" is the spec as the user gave it, as in hts, escape and ei;
    # "map_name" is the name the map was built with
    assert main(["evl", "--map", spec, "--zeta", "1/5", "--tau", "1",
                 "--n", "8", "--trials", "1000", "--seed", "2",
                 "--out", str(tmp_path)]) == 0
    cfg = json.loads((tmp_path / "evl.json").read_text())["config"]
    assert cfg["map"] == spec
    assert cfg["map_name"] == name


def test_evl_nonperiodic_center_uses_theta_one(tmp_path):
    # dyadic denominator: strictly preperiodic, hence not periodic
    assert main(["evl", "--zeta", "419/1024", "--tau", "1", "--n", "128",
                 "--trials", "20000", "--seed", "3",
                 "--out", str(tmp_path)]) == 0
    row = json.loads((tmp_path / "evl.json").read_text())["rows"][0]
    assert row["q"] == 0 and row["theta"] == 1.0
    assert row["limit"] == pytest.approx(math.exp(-1.0))


def test_evl_q_and_theta_skip_period_detection(tmp_path, capsys):
    # the period of 1/1000003 under doubling is beyond the detection cap;
    # only --q and --theta together make the detection unnecessary
    args = ["evl", "--zeta", "1/1000003", "--n", "100", "--trials", "1000",
            "--seed", "1", "--q", "0", "--out", str(tmp_path)]
    assert main(args + ["--theta", "1"]) == 0
    cfg = json.loads((tmp_path / "evl.json").read_text())["config"]
    assert cfg["q"] == 0 and cfg["theta"] == 1.0
    assert main(args) == 2
    assert "period of 1/1000003 exceeds cap 1000000" in capsys.readouterr().err


def _no_detection(*args):
    raise AssertionError("period detection ran")


@pytest.mark.parametrize("argv", [
    ["evl", "--zeta", "1/3", "--n", "100", "--trials", "1000", "--seed", "1",
     "--q", "2", "--theta", "0.75"],
    ["check", "--zeta", "1/3", "--q", "2", "--n", "64", "--prop-configs", "1",
     "--seed", "1"],
], ids=["evl", "check"])
def test_given_values_skip_period_detection(tmp_path, monkeypatch, argv):
    import extremap.events as events_mod
    monkeypatch.setattr(events_mod, "theta_limit_exact", _no_detection)
    assert main(argv + ["--out", str(tmp_path)]) == 0


def test_hts_detects_the_period_once(tmp_path, monkeypatch):
    import extremap.events as events_mod
    calls = []
    original = events_mod.theta_limit_exact

    def counted(map_, zeta):
        calls.append(zeta)
        return original(map_, zeta)

    monkeypatch.setattr(events_mod, "theta_limit_exact", counted)
    assert main(["hts", "--zeta", "1/3", "--eps", "1/16,1/32", "--tau", "1",
                 "--trials", "1000", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    assert calls == [F(1, 3)]


@pytest.mark.parametrize("argv", [
    ["check", "--prop-configs", "0", "--seed", "1"],
    ["bounds", "--bracket", "general"],
], ids=["check", "bounds-general"])
def test_q_alone_suffices_where_theta_is_unused(tmp_path, argv):
    # the period of 1/1000003 under doubling is beyond the detection cap,
    # and neither run reads theta
    assert main([*argv, "--zeta", "1/1000003", "--q", "2", "--n", "64",
                 "--out", str(tmp_path)]) == 0
    cfg = json.loads((tmp_path / f"{argv[0]}.json").read_text())["config"]
    assert cfg["q"] == 2 and cfg.get("theta") is None


def test_period_past_64_is_detected(tmp_path):
    # 2 has order 130 mod 131
    assert main(["ei", "--zeta", "1/131", "--eps", "1/1000", "--q", "0",
                 "--out", str(tmp_path)]) == 0
    row = json.loads((tmp_path / "ei.json").read_text())["rows"][0]
    assert row["q_limit"] == 130
    assert main(["hts", "--zeta", "1/131", "--eps", "1/1000", "--tau", "1",
                 "--trials", "1e4", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "hts.json").read_text())["config"]["q"] == 130


def test_hts_command_tau_zero_row(tmp_path):
    rc = main(["hts", "--zeta", "1/3", "--eps", "1/40", "--tau", "0,1",
               "--trials", "1e4", "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "hts.csv")
    assert float(rows[0]["estimate"]) == 1.0


def test_escape_command(tmp_path):
    rc = main(["escape", "--zeta", "0", "--eps", "1/25", "--trials", "1e5",
               "--seed", "7", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "escape.csv")
    row = rows[0]
    assert float(row["PB"]) == pytest.approx(0.08)
    assert abs(float(row["rate"]) - float(row["spectral"])) \
        / float(row["spectral"]) < 0.15
    assert float(row["window_lower"]) <= float(row["spectral"])
    assert row["degenerate_window"] in ("True", "False")


def test_escape_leaves_spectral_blank_without_a_markov_partition(tmp_path):
    rc = main(["escape", "--map", "widths:2/5,3/5", "--zeta", "0",
               "--eps", "1/60", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "escape.csv")
    assert rows[0]["spectral"] == "" and float(rows[0]["rate"]) > 0
    row = json.loads((tmp_path / "escape.json").read_text())["rows"][0]
    assert "spectral" not in row


def test_pressure_command(tmp_path):
    rc = main(["pressure", "--map", "tripling", "--potential", "geometric",
               "--n-max", "6", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "pressure.csv")
    assert all(float(r["Z_n"]) == 1.0 for r in rows)
    assert all(float(r["pressure"]) == 0.0 for r in rows)
    rc = main(["pressure", "--map", "tripling", "--potential", "zero",
               "--n-max", "4", "--out", str(tmp_path)])
    _, rows = read_csv(tmp_path / "pressure.csv")
    assert all(abs(float(r["pressure"]) - math.log(3)) < 1e-12 for r in rows)


def test_check_command(tmp_path):
    rc = main(["check", "--zeta", "1/3", "--q", "2", "--n", "256,512,1024",
               "--seed", "5", "--prop-configs", "3", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "check.csv")
    dvals = [float(r["value"]) for r in rows if r["kind"] == "dprime"]
    assert dvals == sorted(dvals, reverse=True)
    props = [r for r in rows if r["kind"] == "proposition"]
    assert len(props) == 3 and all(r["ok"] == "True" for r in props)


@contextlib.contextmanager
def _no_int_digit_limit():
    # CPython 3.11 (and 3.10.7 on) refuses str() and int() past 4300
    # digits; older interpreters have no limit to lift
    get = getattr(sys, "get_int_max_str_digits", lambda: 0)
    set_ = getattr(sys, "set_int_max_str_digits", lambda n: None)
    old = get()
    set_(0)
    try:
        yield
    finally:
        set_(old)


def test_exact_str_writes_any_size():
    values = [F(0), F(-3, 7), F(10 ** 1000), F(10 ** 2000 - 1),
              F(-(10 ** 3000 + 7), 3 ** 5000), F(10 ** 999, 10 ** 4500 + 1)]
    with _no_int_digit_limit():
        expected = [str(v) for v in values]
    assert [exact_str(v) for v in values] == expected
    assert exact_str(12) == "12"


def test_check_at_a_million_writes_the_exact_sum(tmp_path):
    # n = 1e6: the sum runs j = 3..31248, and its exact value has about
    # 10^4 digits, past the digit limit of str(int)
    argv = ["check", "--map", "doubling", "--zeta", "1/3", "--n", "1000000",
            "--prop-configs", "1", "--seed", "1", "--out", str(tmp_path)]
    assert main(argv) == 0
    row = json.loads((tmp_path / "check.json").read_text())["rows"][0]
    assert row["kind"] == "dprime" and row["k_n"] == 32
    A = annulus_set(FullBranchMap.doubling(),
                    threshold_for(Observable(F(1, 3)), 10 ** 6, 1)
                    .exceedance, 2)
    value = dprime_sum(FullBranchMap.doubling(), A, 10 ** 6, 2, 32)
    assert value.denominator.bit_length() > 4300 * math.log2(10)
    with _no_int_digit_limit():
        assert F(row["value_exact"]) == value
    assert float(row["value"]) == float(value)


def test_bounds_command_theorems(tmp_path):
    rc = main(["bounds", "--zeta", "1/3", "--bracket", "general", "--n", "512",
               "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "bounds.csv")
    total = [r for r in rows if r["term"] == "total"]
    assert len(total) == 1 and float(total[0]["value"]) > 0
    rc = main(["bounds", "--zeta", "1/3", "--bracket", "sharp-hts", "--eps", "1/100",
               "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "bounds.csv")
    assert any(r["term"] == "exponent_shift" for r in rows)
    # gamma = 0 reduction: mixing and recurrence terms vanish
    rc = main(["bounds", "--zeta", "1/3", "--bracket", "sharp-evl", "--n", "512",
               "--decay-c0", "0", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "bounds.csv")
    by_term = {r["term"]: float(r["value"]) for r in rows}
    assert by_term["mixing"] == 0.0
    assert by_term["recurrence"] == 0.0


def test_bounds_total_is_the_same_on_every_interpreter(tmp_path):
    # the terms' left-to-right sum; Python 3.12's compensated sum() wrote
    # 0.09010994560731649 here
    assert main(["bounds", "--zeta", "1/3", "--n", "1000", "--tau", "1",
                 "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "bounds.json").read_text())["rows"]
    total = next(r for r in rows if r["term"] == "total")
    assert total["value"] == 0.09010994560731647


def test_bounds_zero_decay_records_the_lam_in_force(tmp_path):
    # at c0 = 0 every decay term is 0 whatever lam is, so the values agree
    payloads = []
    for lam in ("0.3", "0.5"):
        assert main(["bounds", "--zeta", "1/3", "--n", "512",
                     "--decay-c0", "0", "--decay-lam", lam, "--out", str(tmp_path / lam)]) == 0
        payloads.append(json.loads((tmp_path / lam / "bounds.json")
                                   .read_text()))
    assert payloads[0]["config"]["decay"] == {"c0": 0.0, "lam": 0.3}
    assert ([r["value"] for r in payloads[0]["rows"]]
            == [r["value"] for r in payloads[1]["rows"]])


@pytest.mark.parametrize("argv", [
    ["--map", "tripling", "--zeta", "1/7", "--tau", "30"],
    ["--map", "doubling", "--zeta", "1/3", "--tau", "700"],
], ids=["tripling-tau30", "doubling-tau700"])
def test_sharp_hts_overflowing_weight_is_flagged_not_failed(tmp_path, argv):
    # the vacuous exponent times tau overflows exp: the bound is inf
    assert main(["bounds", *argv, "--bracket", "sharp-hts", "--eps", "1/16",
                 "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "bounds.csv")
    total = next(r for r in rows if r["term"] == "total")
    assert float(total["value"]) == math.inf
    assert total["flags"] == "vacuous-exponent"


def test_bounds_and_check_record_horizons_radii_and_budget(tmp_path):
    assert main(["bounds", "--zeta", "1/3", "--n", "64,128", "--eps", "1/50",
                 "--budget", "1e5", "--out", str(tmp_path)]) == 0
    assert main(["check", "--n", "64,128", "--prop-configs", "0",
                 "--seed", "1", "--budget", "1e5", "--out", str(tmp_path)]) == 0
    for name, keys in (("bounds", {"n": [64, 128], "eps": ["1/50"]}),
                       ("check", {"n": [64, 128]})):
        comments, _ = read_csv(tmp_path / f"{name}.csv")
        cfg = json.loads(comments[1].split("config: ", 1)[1])
        assert cfg == json.loads((tmp_path / f"{name}.json").read_text())[
            "config"]
        assert {k: cfg[k] for k in keys} == keys
        assert cfg["budget"] == 100000


# a run of each command at zeta = 1/3, where q = 2 and theta = 3/4, and
# the (q, theta) each one uses: ei and check read no theta, pressure
# neither
RECORDED = {
    "evl": (("--zeta", "1/3", "--n", "100", "--trials", "1000", "--seed",
             "1"), (2, 0.75)),
    "hts": (("--zeta", "1/3", "--eps", "1/16", "--tau", "1/2,1", "--trials",
             "1000", "--seed", "1"), (2, 0.75)),
    "escape": (("--zeta", "1/3", "--eps", "1/16", "--trials", "1e4",
                "--seed", "1"), (2, 0.75)),
    "ei": (("--zeta", "1/3", "--eps", "1/100"), (2, None)),
    "bounds": (("--zeta", "1/3", "--n", "512"), (2, 0.75)),
    "check": (("--zeta", "1/3", "--n", "64", "--prop-configs", "0"),
              (2, None)),
    "pressure": (("--n-max", "3"), (None, None)),
}


@pytest.mark.parametrize("command", sorted(RECORDED))
def test_config_records_every_flag_and_the_values_used(tmp_path, command):
    argv, (q, theta) = RECORDED[command]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("map = doubling\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_file), *argv,
                 "--out", str(out)]) == 0
    comments, _ = read_csv(out / f"{command}.csv")
    payload = json.loads((out / f"{command}.json").read_text())
    cfg = payload["config"]
    assert json.loads(comments[1].split("config: ", 1)[1]) == cfg
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    dests = {a.dest for a in sub._actions if a.dest != "help"}
    # every flag under its dest, and beside them only what was resolved
    assert dests <= set(cfg)
    assert set(cfg) - dests <= {"command", "schema_version", "map_name", "q",
                                "theta", "decay", "chunk"}
    assert cfg["command"] == command and cfg["config"] == str(cfg_file)
    assert cfg["map"] == "doubling" == cfg["map_name"]
    assert cfg["out"] == str(out)
    assert cfg.get("q") == q and cfg.get("theta") == theta
    for row in payload["rows"]:
        assert all(row[k] == cfg[k] for k in ("q", "theta") if k in row)
    # exact values, as given
    assert cfg.get("zeta", "1/3") == "1/3"
    assert cfg.get("tau") == {"evl": "1", "hts": ["1/2", "1"],
                              "bounds": "1", "check": "1"}.get(command)
    decay = {"c0": 4.0, "lam": 0.5} if "decay_c0" in dests else None
    assert cfg.get("decay") == decay


@pytest.mark.parametrize("bracket", ["sharp-evl", "sharp-hts", "general",
                                     "limit"])
def test_bounds_budget_reaches_every_annulus(tmp_path, bracket):
    # one component cannot hold the q = 2 annulus of a ball at 1/3
    rc = main(["bounds", "--zeta", "1/3", "--bracket", bracket, "--n", "1024",
               "--budget", "1", "--out", str(tmp_path)])
    assert rc == 3
    assert not (tmp_path / "bounds.json").exists()


@pytest.mark.parametrize("bracket", ["general", "limit"])
def test_bounds_builds_one_annulus_per_n(tmp_path, monkeypatch, bracket):
    from extremap import brackets, events
    calls = []
    annulus_set = events.annulus_set

    def counted(*args, **kwargs):
        calls.append(args[1])
        return annulus_set(*args, **kwargs)

    for module in (events, brackets):
        monkeypatch.setattr(module, "annulus_set", counted)
    assert main(["bounds", "--zeta", "1/3", "--bracket", bracket,
                 "--n", "64,512", "--out", str(tmp_path)]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("command", [
    ["check", "--seed", "1", "--prop-configs", "0"],
    ["bounds", "--zeta", "1/3", "--bracket", "general"]])
def test_tau_over_n_at_least_one_is_usage_error(tmp_path, capsys, command):
    # at n = tau the threshold ball would have radius 1/2
    rc = main([*command, "--n", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "tau/n = 1/1 >= 1" in capsys.readouterr().err
    assert not (tmp_path / f"{command[0]}.json").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("zeta = 1/3\nn = 100\ntrials = 1e4\nseed = 9\n")
    rc = main(["evl", "--config", str(cfg), "--zeta", "1/2",  # flag wins
               "--n", "100", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "evl.json").read_text())
    assert payload["config"]["zeta"] == "1/2"
    assert payload["config"]["trials"] == 10000
    assert payload["config"]["seed"] == 9


# arguments each command runs with; a bad config line alone must stop it
RUNNABLE = {
    "bounds": ("--zeta", "1/3", "--n", "64"),
    "pressure": ("--n-max", "3"),
    "check": ("--seed", "1", "--n", "64", "--prop-configs", "0"),
    "ei": ("--zeta", "1/3", "--eps", "1/100"),
    "escape": ("--zeta", "0", "--eps", "1/25", "--trials", "1e5",
               "--seed", "7"),
}
BAD_CONFIG_LINES = [
    ("bounds", "bracket = foo", "--bracket"),  # not a choice
    ("pressure", "potential = custom", "--potential"),  # not a choice
    ("check", "n = 1.5", "--n"),  # not a count
    ("check", "n = ,", "--n"),  # no counts
    ("ei", "zeta = x", "--zeta"),  # not a point
    ("ei", "q = two", "--q"),  # not an int
    ("check", "budget = 1.5", "--budget"),  # not a count
    ("check", "budgget = 5", "--budgget"),  # no such flag
    ("check", "prop_configs = -1", "--prop-configs"),  # not a count
    ("pressure", "n_max = -2", "--n-max"),  # not positive
    ("escape", "dump_ulam = true", "--dump-ulam"),  # removed flags
    ("escape", "bins = 64", "--bins"),
]


@pytest.mark.parametrize("command, line, flag", BAD_CONFIG_LINES,
                         ids=[line for _, line, _ in BAD_CONFIG_LINES])
def test_config_values_go_through_their_flags_parser(tmp_path, capsys,
                                                     command, line, flag):
    # a config line is read as the flag --key=value, so argparse rejects
    # a bad one as it rejects a bad flag; the usage lines name every flag,
    # so the error line must
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), *RUNNABLE[command],
              "--out", str(out)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err.splitlines()[-1]
    assert not out.exists()


@pytest.mark.parametrize("flag, line", [
    (("--workers", "0"), None), (("--workers", "-1"), None),
    ((), "workers = 0"),
])
def test_workers_below_one_is_usage_error(tmp_path, capsys, flag, line):
    argv = ["hts", "--zeta", "1/3", "--eps", "1/16", "--seed", "1",
            "--trials", "100", *flag, "--out", str(tmp_path)]
    if line is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n")
        argv += ["--config", str(cfg)]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the flag itself
        rc = exc.code
    assert rc == 2
    assert "workers" in capsys.readouterr().err
    assert not (tmp_path / "hts.json").exists()


@pytest.mark.parametrize("command, args", [
    ("evl", ("--zeta", "1/3", "--n", "100")),
    ("hts", ("--zeta", "1/3", "--eps", "1/16")),
    ("escape", ("--zeta", "0", "--eps", "1/25")),
])
@pytest.mark.parametrize("flag, line", [
    (("--trials", "0"), None), (("--trials", "-5"), None),
    ((), "trials = 0"),
])
def test_trials_below_one_is_usage_error(tmp_path, capsys, command, args,
                                         flag, line):
    argv = [command, *args, "--seed", "1", *flag, "--out", str(tmp_path)]
    if line is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n")
        argv += ["--config", str(cfg)]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the flag itself
        rc = exc.code
    assert rc == 2
    assert "trials" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


def _fresh_env() -> dict:
    """The environment of a new interpreter that imports this extremap."""
    src = str(Path(extremap.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def _fresh_process(argv):
    """Run the CLI in a new interpreter."""
    return subprocess.run([sys.executable, "-m", "extremap.cli", *argv],
                          env=_fresh_env(), capture_output=True, text=True,
                          timeout=300)


def test_hts_memory_does_not_follow_the_horizon(tmp_path):
    # tau = 3e6 at P(B) = 1/8 is a horizon of 2.4e7 steps, but all 10
    # trials have entered by step 12: the first-entry histogram is cut
    # there (36 MB peak; a histogram to the horizon peaked at 585 MB)
    proc = subprocess.Popen(
        [sys.executable, "-m", "extremap.cli", "hts", "--zeta", "1/3",
         "--eps", "1/16", "--tau", "3e6", "--trials", "10", "--seed", "1",
         "--out", str(tmp_path)], env=_fresh_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    assert usage.ru_maxrss < 100 * 1024  # KiB on Linux
    _, rows = read_csv(tmp_path / "hts.csv")
    assert [(r["estimate"], r["censored"]) for r in rows] == [("0.0", "0")]


def test_main_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    # main builds its parser once; a run, a usage error and a run read
    # from a config file must each come out as in a new interpreter
    cfg = tmp_path / "hts.cfg"
    cfg.write_text("zeta = 1/3\neps = 1/16\ntrials = 2000\nseed = 3\n")
    runs = [
        ["ei", "--zeta", "1/3", "--eps", "1/100", "--q", "2"],
        ["hts", "--zeta", "1/3", "--eps", "1/16", "--seed", "1",
         "--workers", "0"],
        ["hts", "--config", str(cfg)],
    ]
    codes = []
    for i, argv in enumerate(runs):
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        try:
            rc = main(argv + ["--out", str(here)])
        except SystemExit as exc:
            rc = exc.code
        err = capsys.readouterr().err
        proc = _fresh_process(argv + ["--out", str(fresh)])
        assert (rc, err) == (proc.returncode, proc.stderr)
        names = sorted(p.name for p in here.glob("*"))
        assert names == sorted(p.name for p in fresh.glob("*"))
        for name in names:
            assert ((here / name).read_text().replace(str(here), "OUT")
                    == (fresh / name).read_text().replace(str(fresh), "OUT"))
        codes.append((rc, names))
    assert codes == [(0, ["ei.csv", "ei.json"]), (2, []),
                     (0, ["hts.csv", "hts.json"])]
    assert build_parser() is build_parser()


def test_main_runs_a_command_rebound_after_the_first_call(tmp_path,
                                                         monkeypatch):
    # the parser is cached, but main looks cmd_<command> up at call time,
    # so a wrapper installed after the first call (a tracer's) runs
    import extremap.cli as cli_mod
    argv = ["ei", "--zeta", "1/3", "--eps", "1/100", "--q", "2",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    calls = []
    original = cli_mod.cmd_ei

    def wrapper(args, map_):
        calls.append(args.command)
        return original(args, map_)

    monkeypatch.setattr(cli_mod, "cmd_ei", wrapper)
    assert main(argv) == 0
    assert calls == ["ei"]


def test_check_reads_tau_and_budget_from_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\ntau = 2\nbudget = 1e6\n")
    rc = main(["check", "--config", str(cfg), "--n", "64",
               "--prop-configs", "0", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "check.json").read_text())
    assert payload["config"]["tau"] == "2"  # over the parser's default 1
    rc = main(["check", "--config", str(cfg), "--n", "64", "--tau", "1/2",
               "--prop-configs", "0", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "check.json").read_text())
    assert payload["config"]["tau"] == "1/2"  # the flag over the file


def test_env_var_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("EXTREMAP_OUT", str(tmp_path / "envout"))
    rc = main(["ei", "--zeta", "0", "--eps", "1/100"])
    assert rc == 0
    assert (tmp_path / "envout" / "ei.csv").exists()


# each command run twice into one directory, the second output shorter
REUSED = {
    "evl": (("--zeta", "1/3", "--n", "100,200,400", "--trials", "4000",
             "--seed", "1"),
            ("--zeta", "1/3", "--n", "100", "--trials", "2000",
             "--seed", "1")),
    "hts": (("--zeta", "1/3", "--eps", "1/16,1/32", "--trials", "4000",
             "--seed", "1"),
            ("--zeta", "1/3", "--eps", "1/16", "--tau", "1", "--trials",
             "2000", "--seed", "1")),
    "escape": (("--zeta", "0", "--eps", "1/25,1/50", "--trials", "2e4",
                "--seed", "7"),
               ("--zeta", "0", "--eps", "1/25", "--trials", "1e4",
                "--seed", "7")),
    "ei": (("--zeta", "1/3", "--eps", "1/30,1/60,1/120"),
           ("--zeta", "1/3", "--eps", "1/30")),
    "bounds": (("--zeta", "1/3", "--n", "64,128,256"),
               ("--zeta", "1/3", "--n", "64")),
    "check": (("--seed", "1", "--n", "64,128", "--prop-configs", "2"),
              ("--seed", "1", "--n", "64", "--prop-configs", "0")),
    "pressure": (("--n-max", "6"), ("--n-max", "2")),
}


@pytest.mark.parametrize("command", sorted(REUSED))
def test_a_reused_output_directory_holds_only_the_last_run(tmp_path,
                                                           monkeypatch,
                                                           command):
    # the files are rewritten in place and cut at their new end, so the
    # longer output of the first run leaves no tail; --out is relative,
    # so both directories record the same one
    first, second = REUSED[command]
    names = [f"{command}.csv", f"{command}.json"]
    (tmp_path / "reused").mkdir()
    monkeypatch.chdir(tmp_path / "reused")
    assert main([command, *first, "--out", "out"]) == 0
    sizes = [(Path("out") / n).stat().st_size for n in names]
    assert main([command, *second, "--out", "out"]) == 0
    reused = [(Path("out") / n).read_bytes() for n in names]
    assert all(len(b) < size for b, size in zip(reused, sizes))
    (tmp_path / "fresh").mkdir()
    monkeypatch.chdir(tmp_path / "fresh")
    assert main([command, *second, "--out", "out"]) == 0
    assert reused == [(Path("out") / n).read_bytes() for n in names]


ROWS = [{"k": 1, "x": F(1, 3)}, {"k": 2, "x": 0.5, "flags": "a;b"}]


@pytest.mark.parametrize("before", ["longer", "shorter", "absent"])
def test_write_outputs_over_an_earlier_file(tmp_path, before):
    old = {"longer": "#" * 10_000 + "\n", "shorter": "x\n"}.get(before)
    paths = []
    for sub in ("fresh", "reused"):
        if sub == "reused" and old is not None:
            (tmp_path / sub).mkdir()
            for ext in ("csv", "json"):
                (tmp_path / sub / f"t.{ext}").write_text(old)
        paths.append(write_outputs(tmp_path / sub, "t", ["k", "x", "flags"],
                                   ROWS, {"out": "OUT"}))
    fresh, reused = paths
    assert [p.name for p in reused] == ["t.csv", "t.json"]
    for f, r in zip(fresh, reused):
        assert r.read_bytes() == f.read_bytes()
    assert fresh[0].read_bytes().count(b"\r\n") == 3  # header and two rows


def test_write_outputs_keeps_modes_and_follows_symlinks(tmp_path):
    # an existing file keeps its permission bits; a new one gets those of
    # open(path, "w"); a symlinked output is written through its link
    out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
    out.mkdir()
    elsewhere.mkdir()
    (out / "t.csv").write_text("old\n")
    (out / "t.csv").chmod(0o600)
    (elsewhere / "t.json").write_text("old\n")
    (out / "t.json").symlink_to(elsewhere / "t.json")
    with open(tmp_path / "made-by-open", "w"):
        pass
    write_outputs(out, "t", ["k", "x"], ROWS, {})
    write_outputs(tmp_path / "new", "t", ["k", "x"], ROWS, {})
    assert (out / "t.csv").stat().st_mode & 0o777 == 0o600
    assert (out / "t.json").is_symlink()
    assert json.loads((elsewhere / "t.json").read_text())["rows"][0]["k"] == 1
    mode = (tmp_path / "made-by-open").stat().st_mode & 0o777
    assert {(tmp_path / "new" / n).stat().st_mode & 0o777
            for n in ("t.csv", "t.json")} == {mode}


def test_check_budget_bounds_the_proposition_rows(tmp_path):
    # the recurrence sums of doubling have a closed form and pass a budget
    # of 5; the survivor sets of the proposition rows do not
    rc = main(["check", "--zeta", "1/3", "--q", "2", "--seed", "5", "--n", "16",
               "--budget", "5", "--out", str(tmp_path)])
    assert rc == 3
    assert not (tmp_path / "check.json").exists()


def test_check_violation_exits_one(tmp_path, monkeypatch):
    # fault injection: force the domination bound below the true gap
    import extremap.brackets as brackets_mod

    def broken_bound(map_, B, q, n):
        return 0, -1

    monkeypatch.setattr(brackets_mod, "annulus_replacement", broken_bound)
    rc = main(["check", "--zeta", "1/3", "--q", "2", "--n", "256",
               "--seed", "5", "--prop-configs", "2", "--out", str(tmp_path)])
    assert rc == 1


def test_check_builds_each_set_of_a_proposition_row_once(tmp_path,
                                                        monkeypatch):
    # the dprime rows build one annulus each; a proposition row is one
    # annulus_replacement call, which builds one annulus A and, where A is
    # not the ball B, the survivor set of A and the measure of B's.
    # Seed 8 draws (2/5, 1/128, q = 1, n = 6), where A = B, then
    # (0, 1/40, q = 1, n = 6), where A is not B
    import extremap.brackets as brackets_mod
    import extremap.events as events_mod
    built = []
    for mod, name in ((events_mod, "annulus_set"),
                      (brackets_mod, "annulus_set"),
                      (brackets_mod, "survivor_set"),
                      (brackets_mod, "exact_hts_prob")):
        monkeypatch.setattr(
            mod, name,
            lambda *args, _fn=getattr(mod, name), _name=name:
                built.append(_name) or _fn(*args))
    rc = main(["check", "--map", "tripling", "--zeta", "1/4",
               "--n", "256,1024,4096", "--prop-configs", "2", "--seed", "8",
               "--out", str(tmp_path)])
    assert rc == 0
    assert built == ["annulus_set"] * (3 + 2) + ["survivor_set",
                                                 "exact_hts_prob"]
    rows = json.loads((tmp_path / "check.json").read_text())["rows"]
    assert [(r["zeta"], r["eps"], r["q"], r["scale"]) for r in rows[3:]] == [
        ("2/5", "1/128", 1, 6), ("0", "1/40", 1, 6)]
    assert rows[3]["lhs_exact"] == rows[3]["rhs_exact"] == "0"


def test_budget_exceeded_exit_code(tmp_path):
    # slopes 5/2 and 5/3 give no Markov partition: the exact recurrence
    # sums need iterated preimages, whose component count explodes at
    # this horizon
    rc = main(["bounds", "--map", "widths:2/5,3/5", "--zeta", "0",
               "--bracket", "general", "--n", "4096", "--budget", "20000",
               "--out", str(tmp_path)])
    assert rc == 3


def test_check_on_widths_sums_pair_correlations_past_the_preimages(
        tmp_path, capsys):
    # at n = 1000 the recurrence sum adds m(A intersect f^-j A) for
    # j = 4..165, far past where iterated preimages fit the default
    # budget; the annulus's Markov partition has 83 cells, and its pass
    # costs 83 * (165 + 16) = 15023 of the budget
    argv = ["check", "--map", "widths:1/2,1/4,1/4", "--zeta", "2/5",
            "--n", "1000", "--prop-configs", "1", "--seed", "1"]
    assert main(argv + ["--out", str(tmp_path / "ok")]) == 0
    rows = json.loads((tmp_path / "ok" / "check.json").read_text())["rows"]
    assert [r["kind"] for r in rows] == ["dprime", "proposition"]
    assert F(rows[0]["value_exact"]) > 0
    assert main(argv + ["--budget", "15023",
                        "--out", str(tmp_path / "edge")]) == 0
    assert json.loads((tmp_path / "edge" / "check.json").read_text())[
        "rows"] == rows
    # one less, and the sum falls back to iterated preimages, which
    # exceed it
    capsys.readouterr()
    assert main(argv + ["--budget", "15022",
                        "--out", str(tmp_path / "no")]) == 3
    assert "exact preimage exceeds the component budget of 15022" in \
        capsys.readouterr().err
    assert not (tmp_path / "no" / "check.json").exists()


def test_sweep_and_bounds_share_bracket_inputs(tmp_path):
    # the same (map, zeta, tau, n) gives the evl sweep and the sharp-evl
    # bounds the same k, t, R and bracket total; per eps, escape and the
    # sharp-hts bounds the same k and t
    common = ["--map", "tripling", "--zeta", "1/4", "--tau", "1/2"]
    assert main(["evl", *common, "--n", "100,1000", "--trials", "2000",
                 "--seed", "1", "--out", str(tmp_path / "evl")]) == 0
    assert main(["bounds", *common, "--bracket", "sharp-evl",
                 "--n", "100,1000", "--out", str(tmp_path / "evl")]) == 0
    sweep = json.loads((tmp_path / "evl" / "evl.json").read_text())["rows"]
    bounds = json.loads((tmp_path / "evl" / "bounds.json").read_text())["rows"]
    totals = {r["scale"]: r for r in bounds if r["term"] == "total"}
    assert [r["scale"] for r in sweep] == sorted(totals) == [100, 1000]
    for r in sweep:
        b = totals[r["scale"]]
        assert (r["k"], r["t"], r["R"], r["bracket"]) == \
            (b["k"], b["t"], b["R"], b["value"])
    common = ["--zeta", "0", "--eps", "1/25,1/50"]
    assert main(["escape", *common, "--trials", "1e5", "--seed", "7",
                 "--out", str(tmp_path / "hts")]) == 0
    assert main(["bounds", *common, "--bracket", "sharp-hts",
                 "--out", str(tmp_path / "hts")]) == 0
    escape = json.loads((tmp_path / "hts" / "escape.json").read_text())
    bounds = json.loads((tmp_path / "hts" / "bounds.json").read_text())["rows"]
    kt = {(r["scale"], r["k"], r["t"]) for r in bounds}
    assert len(kt) == 2
    assert {(r["scale"], r["k"], r["t"]) for r in escape["rows"]} == kt
    # the escape window's lower end is the sharp-hts exponent shift
    theta = escape["config"]["theta"]
    shift = {r["scale"]: r["value"] for r in bounds
             if r["term"] == "exponent_shift"}
    assert sorted(shift) == sorted(r["scale"] for r in escape["rows"])
    for r in escape["rows"]:
        assert r["window_lower"] == (theta - shift[r["scale"]]) * r["PB"]


def test_oversized_annulus_fails_fast(tmp_path):
    # q = 3 on uniform:256: the third annulus preimage would have 16.7M
    # components, and its size bound exceeds the budget before it is built
    start = time.perf_counter()
    rc = main(["evl", "--map", "uniform:256", "--zeta", "1/7", "--n", "100",
               "--trials", "1000", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 3
    assert time.perf_counter() - start < 10


def test_oversized_survivor_set_fails_fast(tmp_path, capsys):
    # the proposition row's survivor set on uniform:256 grows 256-fold per
    # step; its next preimage is refused before it is built, not after.
    # Seeds 1 and 3 draw rows whose annulus is not the ball: (4/5, 1/40,
    # q = 2, n = 5) and (4/5, 1/200, q = 1, n = 8)
    for seed in ("1", "3"):
        out = tmp_path / seed
        start = time.perf_counter()
        rc = main(["check", "--map", "uniform:256", "--zeta", "1/3",
                   "--n", "256", "--seed", seed, "--prop-configs", "1",
                   "--out", str(out)])
        assert rc == 3
        assert time.perf_counter() - start < 10
        assert "component budget of 1000000" in capsys.readouterr().err
        assert not (out / "check.json").exists()


def test_monte_carlo_on_uniform_maps_either_side_of_256(tmp_path):
    # the uniform stepper is exact for any d < 2^64: past 256 it runs the
    # floor-division step of d = 3, and the estimates meet the oracles
    U = threshold_for(Observable(center=F(1, 3)), 100, 1).exceedance
    B = ball(F(1, 3), F(1, 40))
    for d in (256, 257):
        f = FullBranchMap.uniform(d)
        for cmd, exact in (
                (["evl", "--n", "100"], exact_evl_prob(f, U, 100)),
                (["hts", "--eps", "1/40", "--tau", "1"],
                 exact_hts_prob(f, B, int(1 / B.measure())))):
            rc = main([cmd[0], "--map", f"uniform:{d}", "--zeta", "1/3",
                       *cmd[1:], "--trials", "2e4", "--seed", "1",
                       "--out", str(tmp_path)])
            assert rc == 0
            _, (row,) = read_csv(tmp_path / f"{cmd[0]}.csv")
            assert _z(row, float(exact)) <= 4


@pytest.mark.parametrize("argv", [
    ["evl", "--n", "100", "--trials", "1e20"],  # a list of 3e15 chunks
    ["escape", "--eps", "1e-12", "--trials", "1000"],  # a 182 TiB histogram
    ["hts", "--eps", "1/16", "--tau", "1e9", "--trials", "10"],  # 59.6 GiB
], ids=["evl", "escape", "hts"])
def test_monte_carlo_past_the_lane_step_budget_exits_3(tmp_path, capsys, argv):
    out = tmp_path / "out"
    start = time.perf_counter()
    rc = main([argv[0], "--zeta", "1/3", *argv[1:], "--seed", "1",
               "--out", str(out)])
    assert rc == 3
    assert time.perf_counter() - start < 1
    assert "lane-steps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["evl", "--n", "100", "--theta", "nan", "--trials", "1000", "--seed", "1"],
     "--theta nan"),
    (["evl", "--n", "100", "--theta=-1", "--trials", "1000", "--seed", "1"],
     "--theta -1.0"),
    (["bounds", "--n", "100", "--decay-c0", "inf"], "c0 must be finite"),
    (["bounds", "--n", "100", "--decay-c0", "nan"], "(got nan)"),
    (["hts", "--eps", "1/16", "--tau=-1", "--trials", "1000", "--seed", "1"],
     "tau must be >= 0"),
    (["hts", "--eps", "1/16", "--tau=-1,1", "--trials", "1000", "--seed", "1"],
     "tau must be >= 0"),
], ids=["theta-nan", "theta-negative", "c0-inf", "c0-nan", "tau-negative",
        "tau-negative-first"])
def test_out_of_range_values_are_usage_errors(tmp_path, capsys, argv, named):
    # theta NaN and -1 wrote NaN and e^tau limits, c0 = inf an infinite
    # total, and tau = -1,1 a table: each exited 0
    out = tmp_path / "out"
    assert main([argv[0], "--zeta", "1/3", *argv[1:], "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()
