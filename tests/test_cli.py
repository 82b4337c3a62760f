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
from extremap.cli import (build_parser, main, parse_count, parse_grid,
                          parse_point, parse_positive)
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


def test_tau_zero_rejected(tmp_path):
    rc = main(["evl", "--zeta", "1/3", "--n", "100", "--tau", "0",
               "--seed", "1", "--out", str(tmp_path)])
    assert rc == 2


def test_eps_quarter_rejected(tmp_path):
    rc = main(["hts", "--zeta", "1/3", "--eps", "0.3", "--tau", "1",
               "--trials", "100", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 2


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
    # the config records the map name and q, theta as requested
    cfg = t1["config"]
    assert cfg["map"] == "doubling" and cfg["n_grid"] == [200, 800]
    assert cfg["q"] is None and cfg["theta"] is None
    assert cfg["decay"]["table"] == [] and cfg["chunk"] > 0


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
    assert "period of 1/1000003 exceeds cap 64" in capsys.readouterr().err


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
    from extremap import brackets, cli, events
    calls = []
    annulus_set = events.annulus_set

    def counted(*args, **kwargs):
        calls.append(args[1])
        return annulus_set(*args, **kwargs)

    for module in (events, brackets, cli):
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


@pytest.mark.parametrize("line, named", [
    ("budgget = 5", "'budgget'"),  # no such flag
    ("budget = 1.5", "'budget'"),  # not a count
])
def test_bad_config_line_is_usage_error(tmp_path, capsys, line, named):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 1\n{line}\n")
    rc = main(["check", "--config", str(cfg), "--n", "64",
               "--prop-configs", "0", "--out", str(tmp_path)])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "check.json").exists()


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


def _fresh_process(argv):
    """Run the CLI in a new interpreter."""
    src = str(Path(extremap.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "extremap.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


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


def test_check_reads_tau_and_budget_from_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\ntau = 2\nbudget = 1e6\n")
    rc = main(["check", "--config", str(cfg), "--n", "64",
               "--prop-configs", "0", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "check.json").read_text())
    assert payload["config"]["tau"] == "2"


def test_env_var_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("EXTREMAP_OUT", str(tmp_path / "envout"))
    rc = main(["ei", "--zeta", "0", "--eps", "1/100"])
    assert rc == 0
    assert (tmp_path / "envout" / "ei.csv").exists()


def test_escape_dump_ulam(tmp_path):
    rc = main(["escape", "--zeta", "0", "--eps", "1/25", "--trials", "1e5",
               "--seed", "7", "--dump-ulam", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "ulam.csv").read_text().splitlines()
    assert len(rows) == 100
    assert sum(float(v) for v in rows[0].split(",")) == pytest.approx(1.0)


@pytest.mark.parametrize("line, written", [
    ("dump_ulam = true", True), ("dump_ulam = false", False)])
def test_escape_reads_dump_ulam_from_config_file(tmp_path, line, written):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    rc = main(["escape", "--config", str(cfg), "--zeta", "0", "--eps", "1/25",
               "--trials", "1e5", "--seed", "7", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "ulam.csv").exists() == written


def test_escape_dump_ulam_config_value_must_be_true_or_false(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dump_ulam = yes\n")
    rc = main(["escape", "--config", str(cfg), "--zeta", "0", "--eps", "1/25",
               "--trials", "1e5", "--seed", "7", "--out", str(tmp_path)])
    assert rc == 2
    assert "'dump_ulam'" in capsys.readouterr().err
    assert not (tmp_path / "escape.json").exists()


def test_check_budget_bounds_the_proposition_rows(tmp_path):
    # the recurrence sums of doubling have a closed form and pass a budget
    # of 5; the survivor sets of the proposition rows do not
    rc = main(["check", "--zeta", "1/3", "--q", "2", "--seed", "5", "--n", "16",
               "--budget", "5", "--out", str(tmp_path)])
    assert rc == 3
    assert not (tmp_path / "check.json").exists()


def test_check_violation_exits_one(tmp_path, monkeypatch):
    # fault injection: force the domination bound below the true gap
    import extremap.cli as cli_mod

    def broken_bound(map_, B, A, q, n, budget=10 ** 6):
        return -1

    monkeypatch.setattr(cli_mod, "annuli_gap_bound", broken_bound)
    rc = main(["check", "--zeta", "1/3", "--q", "2", "--n", "256",
               "--seed", "5", "--prop-configs", "2", "--out", str(tmp_path)])
    assert rc == 1


def test_budget_exceeded_exit_code(tmp_path):
    # non-uniform map: the exact recurrence sums need iterated preimages,
    # whose component count explodes at this horizon
    rc = main(["bounds", "--map", "widths:1/2,1/4,1/4", "--zeta", "0",
               "--bracket", "general", "--n", "4096", "--budget", "20000",
               "--out", str(tmp_path)])
    assert rc == 3


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
    escape = json.loads((tmp_path / "hts" / "escape.json").read_text())["rows"]
    bounds = json.loads((tmp_path / "hts" / "bounds.json").read_text())["rows"]
    kt = {(r["scale"], r["k"], r["t"]) for r in bounds}
    assert len(kt) == 2
    assert {(r["scale"], r["k"], r["t"]) for r in escape} == kt


def test_oversized_annulus_fails_fast(tmp_path):
    # q = 3 on uniform:256: the third annulus preimage would have 16.7M
    # components, and its size bound exceeds the budget before it is built
    start = time.perf_counter()
    rc = main(["evl", "--map", "uniform:256", "--zeta", "1/7", "--n", "100",
               "--trials", "1000", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 3
    assert time.perf_counter() - start < 10


def test_monte_carlo_digit_limit_of_uniform_maps(tmp_path, capsys):
    for cmd in (["evl", "--n", "100"], ["hts", "--eps", "1/40", "--tau", "1"]):
        rc = main([cmd[0], "--map", "uniform:257", "--zeta", "1/3", *cmd[1:],
                   "--trials", "100", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert "d <= 256" in capsys.readouterr().err
        rc = main([cmd[0], "--map", "uniform:256", "--zeta", "1/3", *cmd[1:],
                   "--trials", "100", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
