"""Command-line surface: binds configs to experiments and bound evaluations.

Every command writes a CSV table and a JSON mirror, both embedding the
fully resolved configuration, and is deterministic under a fixed seed.
Exit codes: 0 success, 1 checked-property violation, 2 usage or config
error, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from .errors import ComponentBudgetError, ExtremapError, InfeasibleError
from .intervals import ball
from .maps import FullBranchMap, Potential, weighted_periodic_sum
from .events import (
    Observable,
    annulus_set,
    dprime_sum,
    survivor_set,
    theta_limit,
    theta_limit_exact,
    theta_n,
    threshold_for,
)
from .brackets import (
    DecayModel,
    annuli_gap_bound,
    evl_bracket_inputs,
    hts_bracket_inputs,
    escape_window,
    general_evl_bracket,
    sharp_evl_bracket,
    sharp_hts_bracket,
)
from . import montecarlo as mc

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


def parse_count(s) -> int:
    """Integer count, accepting scientific notation like 1e5."""
    v = float(s)
    if not v.is_integer() or v < 0:
        raise argparse.ArgumentTypeError(f"{s!r} is not a nonnegative integer")
    return int(v)


def parse_positive(s) -> int:
    """Count of at least 1 (trials, workers), accepting 1e5."""
    v = float(s)
    if not v.is_integer() or v < 1:
        raise argparse.ArgumentTypeError(f"{s!r} is not a positive integer")
    return int(v)


def parse_point(s) -> Fraction:
    """Exact point: fraction strings ("1/3") or decimal literals."""
    if isinstance(s, Fraction):
        return s
    s = str(s).strip()
    try:
        return Fraction(s)
    except ValueError:
        return Fraction(float(s))


def _parse_switch(s) -> bool:
    """A config-file switch: exactly "true" or "false"."""
    if s in ("true", "false"):
        return s == "true"
    raise argparse.ArgumentTypeError(f"{s!r} is not true or false")


def parse_grid(s, item=parse_point):
    return [item(part) for part in str(s).split(",") if part.strip()]


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float) and (math.isnan(v) or math.isinf(v)):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def write_outputs(out_dir, name: str, columns, rows, config) -> tuple:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _jsonable(dict(config, schema_version=SCHEMA_VERSION, command=name))
    csv_path = out_dir / f"{name}.csv"
    json_path = out_dir / f"{name}.json"
    with open(csv_path, "w", newline="") as fh:
        fh.write(f"# schema_version: {SCHEMA_VERSION}\n")
        fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_jsonable(row.get(c, "")) for c in columns])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": name,
        "config": config,
        "columns": list(columns),
        "rows": [_jsonable(r) for r in rows],
    }
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


# ---------------------------------------------------------------------------
# shared argument groups
# ---------------------------------------------------------------------------


def _add_common(p, stochastic=False, budget=False, decay=False):
    """--map, --config and --out, plus the flag groups the command reads:
    ``stochastic`` adds --workers, --trials and --seed."""
    p.add_argument("--map", default=None,
                   help="doubling | tripling | uniform:<d> | widths:w1,w2,... | JSON branches")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--out", default=None,
                   help="output directory (default $EXTREMAP_OUT or '.')")
    if stochastic:
        p.add_argument("--workers", type=parse_positive, default=None,
                       help="worker processes for the Monte Carlo chunks "
                            "(default 1; at most one per chunk and per CPU)")
        p.add_argument("--trials", type=parse_positive, default=None,
                       help="trial count (default 1e5)")
        p.add_argument("--seed", type=parse_count, default=None)
    if budget:
        p.add_argument("--budget", type=parse_count, default=None,
                       help="component budget for exact set computations")
    if decay:
        p.add_argument("--decay-c0", type=float, default=None,
                       help="decay prefactor (default 4)")
        p.add_argument("--decay-lam", type=float, default=None,
                       help="decay base (default: max branch width)")


_CONFIG_CONVERTERS = {
    "trials": parse_positive, "workers": parse_positive, "seed": parse_count,
    "bins": int, "q": int, "prop_configs": int, "n_max": int, "budget": parse_count,
    "theta": float, "decay_c0": float, "decay_lam": float,
    "dump_ulam": _parse_switch,
}


def _read_config(path) -> dict:
    """key=value lines; '#' starts a comment.  Precedence: flags > file > defaults.

    ``main`` rejects a key that names no flag of the command.
    """
    path = Path(path)
    if not path.exists():
        raise InfeasibleError(f"config file {path} not found")
    out = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InfeasibleError(f"bad config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        try:
            out[key] = _CONFIG_CONVERTERS.get(key, str)(value)
        except argparse.ArgumentTypeError as exc:
            raise InfeasibleError(f"config key {key!r}: {exc}") from exc
    return out


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise InfeasibleError(f"missing --{name.replace('_', '-')}")


def _defaults(args, **values):
    for name, value in values.items():
        if getattr(args, name, None) is None:
            setattr(args, name, value)


def _out_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get("EXTREMAP_OUT", "."))


def _decay_for(args, map_) -> DecayModel:
    base = DecayModel.for_map(map_)
    c0 = base.c0 if args.decay_c0 is None else float(args.decay_c0)
    lam = base.lam if args.decay_lam is None else float(args.decay_lam)
    if c0 == 0.0:
        return DecayModel.zero()
    return DecayModel.exponential(c0, lam)


def _common_config(args, map_, decay=None) -> dict:
    cfg = {
        "map": str(args.map),
        "map_name": map_.name,
        "out": str(_out_dir(args)),
    }
    if decay is not None:
        cfg["decay"] = {"kind": decay.kind, "c0": decay.c0, "lam": decay.lam}
    if hasattr(args, "trials"):
        cfg.update(workers=args.workers, trials=args.trials, seed=args.seed)
    return cfg


def _require_seed(args):
    if args.seed is None:
        raise InfeasibleError("--seed is required for stochastic commands")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_evl(args) -> int:
    _defaults(args, map="doubling", tau="1", workers=1, trials=100000)
    map_ = FullBranchMap.from_spec(args.map)
    _require(args, "zeta", "n")
    _require_seed(args)
    tau = parse_point(args.tau)
    if tau <= 0:
        raise InfeasibleError("tau must be positive")
    decay = _decay_for(args, map_)
    zeta = parse_point(args.zeta)
    n_grid = [parse_count(n) for n in str(args.n).split(",")]
    q, theta = args.q, args.theta
    if q is None or theta is None:
        q_det, theta_det = theta_limit(map_, zeta)
        q = q_det if q is None else q
        theta = theta_det if theta is None else theta
    obs = Observable(center=zeta)
    limit = math.exp(-theta * float(tau))
    rows = []
    for pt in mc.estimate_evl_grid(map_, obs, n_grid, tau, args.trials,
                                   args.seed, args.workers):
        U = threshold_for(obs, pt.n, tau).exceedance
        inputs = evl_bracket_inputs(map_, U, q, pt.n, decay)
        bracket = sharp_evl_bracket(float(tau), pt.n, theta, float(inputs.PA),
                                    inputs.k, inputs.t, inputs.R, decay).total
        deviation = abs(pt.estimate - limit)
        rows.append({
            "scale": pt.n, "estimate": pt.estimate, "ci_half": pt.half_width,
            "limit": limit, "deviation": deviation, "bracket": bracket,
            "ratio": deviation / bracket if bracket > 0 else math.inf,
            "seed": args.seed, "k": inputs.k, "t": inputs.t, "R": inputs.R,
            "q": q, "theta": theta, "PA": float(inputs.PA),
        })
    config = _common_config(args, map_, decay)
    config["decay"]["table"] = list(decay.table)
    config.update(map=map_.name, zeta=str(zeta), tau=str(tau), n_grid=n_grid,
                  q=args.q, theta=args.theta, chunk=mc.CHUNK)
    write_outputs(_out_dir(args), "evl",
                  ("scale", "estimate", "ci_half", "limit", "deviation",
                   "bracket", "ratio", "seed"), rows, config)
    return 0


def cmd_hts(args) -> int:
    _defaults(args, map="doubling", tau="0.5,1,2", workers=1, trials=100000)
    map_ = FullBranchMap.from_spec(args.map)
    _require(args, "zeta", "eps")
    _require_seed(args)
    zeta = parse_point(args.zeta)
    taus = parse_grid(args.tau)
    q, theta = theta_limit(map_, zeta)
    rows = []
    for eps in parse_grid(args.eps):
        ecdf = mc.estimate_hts(map_, zeta, eps, taus, args.trials, args.seed,
                               args.workers)
        for tau, est, hw in zip(ecdf.grid, ecdf.estimates, ecdf.half_widths):
            limit = math.exp(-theta * tau)
            rows.append({
                "scale": float(eps), "tau": tau, "estimate": est,
                "ci_half": hw, "limit": limit,
                "deviation": abs(est - limit), "censored": ecdf.censored,
                "seed": args.seed,
            })
    config = dict(_common_config(args, map_),
                  zeta=str(zeta), eps=[str(e) for e in parse_grid(args.eps)],
                  tau=[float(t) for t in taus], q=q, theta=theta)
    write_outputs(_out_dir(args), "hts",
                  ("scale", "tau", "estimate", "ci_half", "limit", "deviation",
                   "censored", "seed"), rows, config)
    return 0


def cmd_escape(args) -> int:
    _defaults(args, map="doubling", workers=1, trials=100000, dump_ulam=False)
    map_ = FullBranchMap.from_spec(args.map)
    _require(args, "zeta", "eps")
    _require_seed(args)
    zeta = parse_point(args.zeta)
    q, theta = theta_limit(map_, zeta)
    decay = _decay_for(args, map_)
    rows = []
    for eps in parse_grid(args.eps):
        hole = ball(zeta, eps)
        PB = hole.measure()
        fit = mc.estimate_escape_rate(map_, zeta, eps, args.trials, args.seed,
                                      args.workers)
        bins = args.bins or mc.aligned_bins(map_, hole)
        spectral = mc.ulam_escape_oracle(map_, hole, bins)
        inputs = hts_bracket_inputs(map_, hole, q, decay)
        window = escape_window(inputs, theta, float(PB), decay)
        rows.append({
            "scale": float(eps), "PB": float(PB), "rate": fit.slope,
            "rate_over_PB": fit.slope / float(PB),
            "spectral": spectral, "window_lower": window.lower,
            "window_nominal": window.nominal,
            "degenerate_window": window.degenerate,
            "fit_lo": fit.window[0], "fit_hi": fit.window[1],
            "residual": fit.residual_norm, "censored": fit.censored,
            "k": inputs.k, "t": inputs.t, "seed": args.seed,
        })
    config = dict(_common_config(args, map_, decay), zeta=str(zeta),
                  eps=[str(e) for e in parse_grid(args.eps)],
                  q=q, theta=theta, bins=args.bins)
    write_outputs(_out_dir(args), "escape",
                  ("scale", "PB", "rate", "rate_over_PB", "spectral",
                   "window_lower", "window_nominal", "degenerate_window",
                   "fit_lo", "fit_hi", "residual", "censored", "k", "t",
                   "seed"), rows, config)
    if args.dump_ulam:
        from .maps import save_matrix_csv, ulam_matrix
        bins = args.bins or mc.aligned_bins(
            map_, ball(zeta, parse_grid(args.eps)[0]))
        save_matrix_csv(ulam_matrix(map_, bins), _out_dir(args) / "ulam.csv")
    return 0


def cmd_ei(args) -> int:
    _defaults(args, map="doubling")
    map_ = FullBranchMap.from_spec(args.map)
    _require(args, "zeta", "eps")
    zeta = parse_point(args.zeta)
    q_limit, theta_lim = theta_limit_exact(map_, zeta)
    q = args.q if args.q is not None else q_limit
    rows = []
    for eps in parse_grid(args.eps):
        U = ball(zeta, eps)
        th = theta_n(map_, U, q)
        rows.append({
            "scale": float(eps), "q": q, "theta_n": float(th),
            "theta_n_exact": str(th), "q_limit": q_limit,
            "theta_limit": float(theta_lim),
            "theta_limit_exact": str(theta_lim),
        })
    config = dict(_common_config(args, map_), zeta=str(zeta), q=q,
                  eps=[str(e) for e in parse_grid(args.eps)])
    write_outputs(_out_dir(args), "ei",
                  ("scale", "q", "theta_n", "theta_n_exact", "q_limit",
                   "theta_limit", "theta_limit_exact"), rows, config)
    return 0


def _budget_rows(scale, k, t, R, budget):
    """Long-format breakdown: one row per named term, then the total."""
    base = {"scale": scale, "k": k, "t": t, "R": R,
            "flags": ";".join(budget.flags)}
    rows = [dict(base, term=name, value=value) for name, value in budget.terms]
    rows.append(dict(base, term="total", value=budget.total))
    if budget.exponent_shift is not None:
        rows.append(dict(base, term="exponent_shift",
                         value=budget.exponent_shift))
    for name, value in budget.extras:
        rows.append(dict(base, term=name, value=value))
    return rows


def cmd_bounds(args) -> int:
    _defaults(args, map="doubling", tau="1", bracket="sharp-evl", n="1024",
              eps="1/100", budget=10 ** 6)
    map_ = FullBranchMap.from_spec(args.map)
    _require(args, "zeta")
    zeta = parse_point(args.zeta)
    obs = Observable(center=zeta)
    decay = _decay_for(args, map_)
    tau = parse_point(args.tau)
    q, theta = theta_limit(map_, zeta)
    if args.q is not None:
        q = args.q
    rows = []
    kind = args.bracket
    if kind in ("general", "limit", "sharp-evl"):
        for n_s in str(args.n).split(","):
            n = parse_count(n_s)
            U = threshold_for(obs, n, tau).exceedance
            inputs = evl_bracket_inputs(map_, U, q, n, decay,
                                        budget=args.budget)
            k, t, PA = inputs.k, inputs.t, float(inputs.PA)
            if kind == "sharp-evl":
                budget = sharp_evl_bracket(float(tau), n, theta, PA, k, t,
                                           inputs.R, decay)
            else:
                dp = float(dprime_sum(map_, inputs.A, n, q, k,
                                      budget=args.budget,
                                      variant="theorem" if kind == "general"
                                      else "corollary"))
                budget = general_evl_bracket(
                    float(tau), n, q, k, t, float(U.measure()), PA,
                    inputs.M * decay.gamma(t), dp,
                    theta=None if kind == "general" else theta)
            rows.extend(_budget_rows(n, k, t, inputs.R, budget))
    elif kind == "sharp-hts":
        for eps in parse_grid(args.eps):
            B = ball(zeta, eps)
            inputs = hts_bracket_inputs(map_, B, q, decay, budget=args.budget)
            budget = sharp_hts_bracket(float(tau), float(B.measure()),
                                       float(inputs.PA), theta, inputs.k,
                                       inputs.t, inputs.R, inputs.ell,
                                       inputs.M, decay)
            rows.extend(_budget_rows(float(eps), inputs.k, inputs.t, inputs.R,
                                     budget))
    else:
        raise InfeasibleError(f"unknown bracket kind {kind!r}")
    config = dict(_common_config(args, map_, decay), zeta=str(zeta),
                  tau=str(tau), bracket=kind, q=q, theta=theta)
    write_outputs(_out_dir(args), "bounds",
                  ("scale", "term", "value", "k", "t", "R", "flags"),
                  rows, config)
    return 0


def cmd_check(args) -> int:
    _defaults(args, map="doubling", zeta="1/3", tau="1", prop_configs=10,
              n="256,512,1024,2048,4096,8192,16384", budget=10 ** 6)
    map_ = FullBranchMap.from_spec(args.map)
    _require_seed(args)
    zeta = parse_point(args.zeta)
    obs = Observable(center=zeta)
    q, _ = theta_limit(map_, zeta)
    if args.q is not None:
        q = args.q
    tau = parse_point(args.tau)
    rows = []
    violated = False
    previous = None
    for n_s in str(args.n).split(","):
        n = parse_count(n_s)
        k_n = max(1, math.ceil(n ** 0.25))
        A = annulus_set(map_, threshold_for(obs, n, tau).exceedance, q,
                        budget=args.budget)
        value = dprime_sum(map_, A, n, q, k_n, budget=args.budget)
        decreasing = previous is None or value < previous
        rows.append({"kind": "dprime", "scale": n, "k_n": k_n,
                     "value": float(value), "value_exact": str(value),
                     "ok": decreasing})
        previous = value
    rng = random.Random(args.seed)
    for i in range(args.prop_configs):
        den = rng.choice([3, 5, 7, 9, 11, 12, 16])
        zeta_i = Fraction(rng.randrange(0, den), den)
        eps = Fraction(1, rng.choice([40, 64, 100, 128, 200]))
        q_i = rng.randrange(0, 4)
        n_i = rng.randrange(q_i + 2, 13)
        B = ball(zeta_i, eps)
        A = annulus_set(map_, B, q_i, budget=args.budget)
        lhs = abs(survivor_set(map_, B, n_i, budget=args.budget).measure()
                  - survivor_set(map_, A, n_i, budget=args.budget).measure())
        rhs = annuli_gap_bound(map_, B, A, q_i, n_i, budget=args.budget)
        ok = lhs <= rhs
        violated = violated or not ok
        rows.append({"kind": "proposition", "scale": n_i, "zeta": str(zeta_i),
                     "eps": str(eps), "q": q_i, "lhs": float(lhs),
                     "rhs": float(rhs), "lhs_exact": str(lhs),
                     "rhs_exact": str(rhs), "ok": ok})
    config = dict(_common_config(args, map_), zeta=str(zeta), q=q,
                  tau=str(tau), seed=args.seed, prop_configs=args.prop_configs)
    write_outputs(_out_dir(args), "check",
                  ("kind", "scale", "k_n", "value", "zeta", "eps", "q",
                   "lhs", "rhs", "ok"), rows, config)
    if violated:
        print("check: exact inequality violated", file=sys.stderr)
        return 1
    return 0


def cmd_pressure(args) -> int:
    _defaults(args, map="doubling", potential="geometric", n_max=10)
    map_ = FullBranchMap.from_spec(args.map)
    if args.potential == "geometric":
        pot = Potential.geometric()
    elif args.potential == "zero":
        pot = Potential.zero()
    else:
        raise InfeasibleError(f"unknown potential {args.potential!r}")
    rows = []
    for n in range(1, args.n_max + 1):
        z = float(weighted_periodic_sum(map_, pot, n))
        rows.append({"scale": n, "Z_n": z, "pressure": math.log(z) / n})
    config = dict(_common_config(args, map_), potential=args.potential,
                  n_max=args.n_max)
    write_outputs(_out_dir(args), "pressure", ("scale", "Z_n", "pressure"),
                  rows, config)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``extremap`` parser, built once per process; do not modify it."""
    parser = argparse.ArgumentParser(
        prog="extremap",
        description="Rare-event laws for full-branch expanding interval maps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evl", help="extreme value law convergence sweep")
    _add_common(p, stochastic=True, decay=True)
    p.add_argument("--zeta", default=None)
    p.add_argument("--tau", default=None)
    p.add_argument("--n", default=None, help="comma list of horizons")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.set_defaults(func=cmd_evl)

    p = sub.add_parser("hts", help="hitting-time survival table")
    _add_common(p, stochastic=True)
    p.add_argument("--zeta", default=None)
    p.add_argument("--eps", default=None, help="comma list of radii")
    p.add_argument("--tau", default=None, help="comma list of rescaled times")
    p.set_defaults(func=cmd_hts)

    p = sub.add_parser("escape", help="escape rates through a small hole")
    _add_common(p, stochastic=True, decay=True)
    p.add_argument("--zeta", default=None)
    p.add_argument("--eps", default=None)
    p.add_argument("--bins", type=int, default=None,
                   help="Ulam bins (default: smallest aligned count)")
    p.add_argument("--dump-ulam", action="store_true", default=None,
                   help="also write the Ulam matrix as ulam.csv")
    p.set_defaults(func=cmd_escape)

    p = sub.add_parser("ei", help="extremal index, exact")
    _add_common(p)
    p.add_argument("--zeta", default=None)
    p.add_argument("--eps", default=None)
    p.add_argument("--q", type=int, default=None)
    p.set_defaults(func=cmd_ei)

    p = sub.add_parser("bounds", help="error bracket breakdowns")
    _add_common(p, budget=True, decay=True)
    p.add_argument("--zeta", default=None)
    p.add_argument("--tau", default=None)
    p.add_argument("--bracket", default=None,
                   choices=("general", "limit", "sharp-evl", "sharp-hts"))
    p.add_argument("--n", default=None)
    p.add_argument("--eps", default=None)
    p.add_argument("--q", type=int, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("check", help="exact condition checks (exit 1 on violation)")
    _add_common(p, budget=True)
    p.add_argument("--seed", type=parse_count, default=None)
    p.add_argument("--zeta", default=None)
    p.add_argument("--tau", default=None)
    p.add_argument("--n", default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--prop-configs", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("pressure", help="periodic-orbit sums and pressure")
    _add_common(p)
    p.add_argument("--potential", default=None,
                   choices=("geometric", "zero"))
    p.add_argument("--n-max", type=int, default=None)
    p.set_defaults(func=cmd_pressure)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            for key, value in _read_config(args.config).items():
                if key in ("command", "func") or not hasattr(args, key):
                    raise InfeasibleError(
                        f"config key {key!r}: {args.command} has no "
                        f"--{key.replace('_', '-')} flag")
                if getattr(args, key) is None:
                    setattr(args, key, value)
        return args.func(args)
    except ComponentBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ExtremapError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
