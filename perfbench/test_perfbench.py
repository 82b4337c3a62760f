"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import copy
import dataclasses
import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest

import checks
import jobs
import run

ROOT = Path(__file__).resolve().parent.parent
cli = run.import_program()


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert jobs.build_jobs(workload, 11) == jobs.build_jobs(workload, 11)
    assert jobs.build_jobs(workload, 11) != jobs.build_jobs(workload, 12)
    names = [j.name for j in jobs.build_jobs(workload, 11)]
    assert len(names) == len(set(names))


def test_known_defect_job_is_always_present():
    for seed in range(5):
        defects = [j for j in jobs.build_jobs("evl-sweep", seed) if j.known_defect]
        assert [j.argv[1:5] for j in defects] == [(jobs.SKEWED, "1/3", "2", 8)]


def test_orbit_types():
    d = jobs.BRANCH_WIDTHS[jobs.DOUBLING]
    assert jobs.orbit_type(d, F(0)) == ("fixed", 1, 2)
    assert jobs.orbit_type(d, F(1, 3)) == ("periodic", 2, 4)
    assert jobs.orbit_type(d, F(1, 6))[0] == "preperiodic"
    w = jobs.BRANCH_WIDTHS[jobs.WIDTHS]
    assert jobs.orbit_type(w, F(2, 3)) == ("fixed", 1, 4)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_names()


def _run_cli(tmp_path, argv, name):
    out = tmp_path / name
    assert cli.main(list(argv) + ["--out", str(out)]) == 0
    return json.loads((out / f"{argv[0]}.json").read_text())


@pytest.mark.parametrize("argv", [
    ("evl", "--map", "tripling", "--zeta", "1/4", "--n", "50", "--trials",
     "7e4", "--seed", "3"),
    ("hts", "--map", "widths:1/2,1/4,1/4", "--zeta", "1/3", "--eps", "1/16",
     "--tau", "1/2,1", "--trials", "7e4", "--seed", "3"),
])
def test_mc_output_independent_of_workers(tmp_path, argv):
    one = _run_cli(tmp_path, argv + ("--workers", "1"), "w1")
    two = _run_cli(tmp_path, argv + ("--workers", "2"), "w2")
    assert one["rows"] == two["rows"]


def _job(check, argv, ref=None, kind="cli"):
    return jobs.references([jobs.Job("t", kind, argv, check, ref)])[0]


def _bump(out, key, by):
    bad = copy.deepcopy(out)
    bad["rows"][0][key] += by
    return bad


CASES = [
    ("evl_limit", ("evl", "--map", "doubling", "--zeta", "1/3", "--n",
                   "1000", "--trials", "2e4", "--seed", "1"),
     lambda o: _bump(o, "estimate", 0.5)),
    ("evl_exact", ("evl", "--map", "doubling", "--zeta", "1/3", "--n", "10",
                   "--tau", "1", "--trials", "2e4", "--seed", "1"),
     lambda o: _bump(o, "estimate", 0.05)),
    ("hts", ("hts", "--map", "doubling", "--zeta", "1/3", "--eps", "1/64",
             "--tau", "1/2,1", "--trials", "2e4", "--seed", "1"),
     lambda o: _bump(o, "estimate", 0.9)),
    ("hts_exact", ("hts", "--map", "doubling", "--zeta", "1/3", "--eps",
                   "1/16", "--tau", "1/2,1", "--trials", "5e4", "--seed", "1"),
     lambda o: _bump(o, "estimate", -0.05)),
    ("escape", ("escape", "--map", "doubling", "--zeta", "0", "--eps",
                "1/40", "--trials", "2e5", "--seed", "1"),
     lambda o: _bump(o, "rate", 0.02)),
    ("escape", ("escape", "--map", "doubling", "--zeta", "0", "--eps",
                "1/40", "--trials", "2e5", "--seed", "1"),
     lambda o: _bump(o, "window_lower", 1.0)),
    ("bounds", ("bounds", "--map", "doubling", "--zeta", "1/3", "--n", "1000"),
     lambda o: {"rows": [dict(r, value=-1.0) for r in o["rows"]]}),
    ("check", ("check", "--map", "doubling", "--zeta", "1/3", "--n", "256",
               "--prop-configs", "2", "--seed", "1"),
     lambda o: {"rows": [dict(r, ok=False) for r in o["rows"]]}),
    ("check", ("check", "--map", "tripling", "--zeta", "1/13", "--n", "256",
               "--prop-configs", "1", "--seed", "1"),
     lambda o: {"rows": [r for r in o["rows"] if r["kind"] != "proposition"]}),
    ("ei", ("ei", "--map", "doubling", "--zeta", "1/3", "--eps",
            ",".join(str(e) for e in jobs.ei_eps(jobs.DOUBLING, F(1, 3)))),
     lambda o: {"rows": [dict(o["rows"][0], theta_n_exact="2/3")]}),
    ("pressure_geometric", ("pressure", "--map", "doubling", "--n-max", "6"),
     lambda o: _bump(o, "Z_n", 1e-9)),
    ("pressure_zero", ("pressure", "--map", "tripling", "--potential",
                       "zero", "--n-max", "4"),
     lambda o: _bump(o, "pressure", 1e-9)),
]


@pytest.mark.parametrize("check,argv,perturb", CASES,
                         ids=[f"{c}-{i}" for i, (c, _, _) in enumerate(CASES)])
def test_check_passes_real_output_and_catches_perturbed(tmp_path, check, argv,
                                                        perturb):
    job = _job(check, argv)
    out = _run_cli(tmp_path, argv, "o")
    assert checks.run_check(job, 0, out) == []
    assert checks.run_check(job, 0, perturb(out)) != []
    assert checks.run_check(job, 1, out) == ["exit code 1"]


def test_exact_checks_catch_perturbed_values():
    evl = _job("exact_evl", ("exact_evl_prob", "doubling", "1/3", "1", 8),
               kind="call")
    hts = jobs.Job("h", "call", ("exact_hts_prob", "doubling", "1/3", "1", 8),
                   "exact_hts", ref="e")
    p = run._call(evl.argv)
    q = run._call(hts.argv)
    assert checks.run_check(evl, 0, p) == []
    assert checks.run_check(hts, 0, q, {"e": p}) == []
    assert checks.run_check(evl, 0, F(3, 2)) != []
    assert checks.run_check(evl, 0, float(p)) != []
    assert checks.run_check(hts, 0, q + F(1, 2 ** 40), {"e": p}) != []


def test_known_defect_is_reported_not_counted(tmp_path):
    job_list = jobs.references([j for j in jobs.build_jobs("evl-sweep", 1)
                                if j.known_defect])
    r = run.Run(cli, job_list, tmp_path)
    r.one_pass()
    assert r.failed == 0 and r.attempted == 1
    assert [j.name for _, j, _ in r.known] == [job_list[0].name]


def test_check_job_without_propositions_fails():
    job = _job("check", ("check", "--map", "doubling", "--zeta", "1/3",
                         "--n", "256", "--prop-configs", "0", "--seed", "1"))
    assert checks.run_check(job, 0, {"rows": []}) != []


def test_known_defect_job_counts_other_failures(tmp_path):
    job = jobs.references([j for j in jobs.build_jobs("evl-sweep", 1)
                           if j.known_defect])[0]
    r = run.Run(cli, [job], tmp_path)
    r.one_pass()
    r.digests[job.name] = "something else"
    r.one_pass()
    assert r.failed == 1 and r.failures[0][2] == ["output differs from pass 1"]
    assert len(r.known) == 2
    # a raise is counted, not taken for the known defect
    r = run.Run(cli, [dataclasses.replace(job, argv=job.argv[:3] + ("x",)
                                          + job.argv[4:])], tmp_path)
    r.one_pass()
    assert r.failed == 1 and r.failures[0][2][0].startswith("raised")
    assert r.known == []


def test_changed_output_between_passes_is_a_failure(tmp_path):
    job = _job("pressure_zero", ("pressure", "--map", "doubling",
                                 "--potential", "zero", "--n-max", "3"))
    r = run.Run(cli, [job], tmp_path)
    r.one_pass()
    r.digests[job.name] = "something else"
    r.one_pass()
    assert r.failed == 1
    assert r.failures[0][2] == ["output differs from pass 1"]


def test_traced_pass_records_layers_and_restores_the_program(tmp_path):
    import spans
    from extremap import events, intervals

    original = (events.survivor_set, intervals.IntervalUnion.intersect)
    job_list = jobs.references([
        jobs.Job("exact", "call", ("exact_evl_prob", "tripling", "1/4", "1", 5),
                 "exact_evl"),
        jobs.Job("evl", "cli", ("evl", "--map", "doubling", "--zeta", "1/3",
                                "--n", "100", "--trials", "2e4", "--seed", "1"),
                 "evl_limit")])
    r = run.Run(cli, job_list, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        r.one_pass()
    finally:
        tracer.uninstall()
    assert (events.survivor_set, intervals.IntervalUnion.intersect) == original
    assert r.failed == 0
    stats = tracer.self_times()
    for name in ("cli.main", "events.survivor_set", "events.exact_evl_prob",
                 "montecarlo.evl.uniform2", "brackets.optimize_kt_evl",
                 "intervals.IntervalUnion.intersect"):
        assert stats[name][0] >= 1, name
    assert tracer.counts["montecarlo.evl.uniform2.steps"] == 2e4 * 100
    assert tracer.counts["brackets.optimize_kt_evl.candidates"] == 99
    total = sum(s for _, s in stats.values())
    names, start, end, parent = tracer.arrays()
    roots = parent < 0
    assert math.isclose(total, (end[roots] - start[roots]).sum() / 1e9,
                        rel_tol=1e-9)
    # the oracle's survivor set nests inside its span and is not added again
    exact = names == tracer.names.index("events.exact_evl_prob")
    assert exact.sum() == 1
    nested = ["events.exact_evl_prob", "events.survivor_set"]
    assert tracer.inclusive_s(nested) == (end[exact] - start[exact]).sum() / 1e9


def test_latencies_are_scaled_to_the_reference_pace(tmp_path, monkeypatch):
    job_list = jobs.references([
        jobs.Job("exact", "call", ("exact_evl_prob", "doubling", "1/3", "1", 5),
                 "exact_evl"),
        jobs.Job("evl", "cli", ("evl", "--map", "doubling", "--zeta", "1/3",
                                "--n", "100", "--trials", "2e4", "--seed", "1"),
                 "evl_limit")])
    ref = run.REF_PACE_S
    readings = {"interpreter": iter([1, 3]), "kernels": iter([1, 2])}
    monkeypatch.setattr(run, "PACES", {
        k: (lambda k=k: ref[k] * next(readings[k])) for k in ref})
    r = run.Run(cli, job_list, tmp_path)
    r.one_pass()
    assert r.failed == 0
    exact, evl = r.latencies
    # each job is scaled by the pace of its kind read around it: the
    # oracle ran at half the interpreter's reference pace on average,
    # the Monte Carlo job at two thirds of the kernels'
    assert r.scaled == pytest.approx([exact / 2, evl / 1.5], rel=1e-12)
    assert [sorted(x) for x in r.paces] == [
        ["interpreter"], ["interpreter", "kernels"], ["kernels"]]


def test_setup_times_are_scaled_to_the_interpreter_pace(monkeypatch):
    ref = run.REF_PACE_S["interpreter"]
    monkeypatch.setattr(run, "interpreter_pace", lambda: 2 * ref)
    prep = run.Setup("exact-analytic", 1)
    prep._timed(lambda: (None, 1.0), prep.imports)
    prep._timed(lambda: (None, 3.0), prep.prepares)
    assert prep.imports == [(1.0, pytest.approx(0.5))]
    assert prep.prepares == [(3.0, pytest.approx(1.5))]
    assert prep.seconds == pytest.approx(2.0)
