"""Command-line surface: binds configs to experiments and bound evaluations.

Every command writes a CSV table and a JSON mirror, both embedding the
fully resolved configuration, and is deterministic under a fixed seed.
A file left by an earlier run is rewritten in place and cut at the end
of the new text (``write_outputs``); a rewrite interrupted between the
two can leave old bytes past the new text, in the CSV as whole rows of
the earlier run, which the JSON mirror's config and row count expose.
Each flag's parser, default and choices are declared once, in its
``add_argument``; a ``--config`` file's lines are read as flags by the
same parser.  A command ``cmd_<command>(args, map_)`` returns a
``Table`` and writes nothing: ``main`` builds the map, looks the
command up at call time and writes the outputs.  Their config is
written once, by ``main``: every parsed flag under its dest, with its
exact value (``--config`` included), the map's name, the output
directory in use, and what the command resolved (q, theta where it is
read, the decay model).  Exit codes: 0 success, 1 checked-property
violation, 2 usage or config error, 3 resource budget exceeded.

Importing this module loads no computational module: each function
imports the ones it calls, so ``pressure`` loads ``maps`` (and with it
``intervals``), ``ei`` adds ``events``, ``bounds`` and ``check`` add
``brackets``, and only ``evl``, ``hts`` and ``escape`` load
``montecarlo``.  A name is read from its defining module at call time,
so a wrapper or a test double goes on that module.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .errors import ExtremapError, InfeasibleError, ResourceBudgetError

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
    """Count of at least 1 (trials, workers, horizons), accepting 1e5."""
    v = float(s)
    if not v.is_integer() or v < 1:
        raise argparse.ArgumentTypeError(f"{s!r} is not a positive integer")
    return int(v)


def parse_point(s) -> Fraction:
    """Exact point: fraction strings ("1/3") or decimal literals."""
    s = str(s).strip()
    try:
        try:
            point = Fraction(s)
        except ValueError:
            return Fraction(float(s))
        float(point)  # "1e400" is exact, but no command's float can hold it
        return point
    except (ZeroDivisionError, OverflowError):  # "1/0", "inf", "1e400"
        raise argparse.ArgumentTypeError(f"{s!r} is not a finite point")


def parse_grid(s, item=parse_point):
    grid = [item(part) for part in str(s).split(",") if part.strip()]
    if not grid:
        raise argparse.ArgumentTypeError(f"{s!r} lists no values")
    return grid


def parse_counts(s) -> list:
    """Comma list of horizons n >= 1, such as 1e3,1e4,1e5."""
    return parse_grid(s, parse_positive)


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


_CHUNK = 10 ** 1000


def _digits(n: int) -> str:
    """str(n) at any size.  CPython's str() refuses an int past
    sys.get_int_max_str_digits() digits (4300 by default), and an exact
    recurrence sum at n = 1e6 has about 10^4, so long ints are written
    1000 digits at a time."""
    if n < 0:
        return "-" + _digits(-n)
    chunks = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        chunks.append(f"{r:01000d}")
    return str(n) + "".join(reversed(chunks))


def exact_str(x) -> str:
    """str(x) for an exact value (a Fraction or an int), at any size:
    the format of every ``*_exact`` column."""
    if x.denominator == 1:
        return _digits(x.numerator)
    return f"{_digits(x.numerator)}/{_digits(x.denominator)}"


def _jsonable(v):
    if isinstance(v, Fraction):
        return exact_str(v)
    if isinstance(v, float) and (math.isnan(v) or math.isinf(v)):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def write_outputs(out_dir, name: str, columns, rows, config) -> tuple:
    """Write ``<name>.csv`` and its JSON mirror, each in one pass over
    the rows made JSON-ready once.

    Each file is rendered to one string and written over the old file in
    place: opened without truncation, written, then truncated at the end
    of the new text, so a longer earlier output leaves no tail.  On ext4
    this is several times cheaper than reopening an existing file with
    O_TRUNC.  Names, bytes, permission bits and symlinks are treated as
    ``open(path, "w")`` treats them.  A rewrite interrupted between its
    write and its truncate (a full disk, say) can leave old bytes past
    the new text; writing one rendered string and truncating right after
    keeps that window to two system calls.  In the CSV those bytes can
    include whole, well-formed rows of an earlier run with another
    config, so a reader that must rule this out checks the CSV's config
    line and row count against the JSON mirror.  The mirror is written
    second: if its own rewrite is cut short it fails to parse, and if
    the CSV's is, the mirror still holds the earlier run.  Rerunning the
    command regenerates both files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _jsonable(dict(config, schema_version=SCHEMA_VERSION, command=name))
    rows = [_jsonable(r) for r in rows]
    csv_path = out_dir / f"{name}.csv"
    json_path = out_dir / f"{name}.json"
    buf = io.StringIO(newline="")
    buf.write(f"# schema_version: {SCHEMA_VERSION}\n")
    buf.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows([r.get(c, "") for c in columns] for r in rows)
    _rewrite(csv_path, buf.getvalue(), newline="")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": name,
        "config": config,
        "columns": list(columns),
        "rows": rows,
    }
    _rewrite(json_path, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return csv_path, json_path


def _rewrite(path, text: str, newline=None) -> None:
    """Write ``text`` over the file at ``path`` (created if absent) and
    cut it at the end of ``text``."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline=newline) as fh:
        fh.write(text)
        fh.truncate()


# ---------------------------------------------------------------------------
# shared argument groups
# ---------------------------------------------------------------------------


def _add_common(p, stochastic=False, budget=False, decay=False):
    """--map, --config and --out, plus the flag groups the command reads:
    ``stochastic`` adds --workers, --trials and --seed."""
    from .maps import COMPONENT_BUDGET
    p.add_argument("--map", default="doubling",
                   help="doubling | tripling | uniform:<d> | widths:w1,w2,... | JSON branches")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--out",
                   help="output directory (default $EXTREMAP_OUT or '.')")
    if stochastic:
        p.add_argument("--workers", type=parse_positive, default=1,
                       help="worker processes for the Monte Carlo chunks "
                            "(default 1; at most one per chunk and per CPU)")
        p.add_argument("--trials", type=parse_positive, default=100000,
                       help="trial count (default 1e5)")
        p.add_argument("--seed", type=parse_count)
    if budget:
        p.add_argument("--budget", type=parse_count, default=COMPONENT_BUDGET,
                       help="most components an exact preimage may have "
                            f"(default {COMPONENT_BUDGET:,}); a command "
                            "whose exact sets need more exits 3")
    if decay:
        p.add_argument("--decay-c0", type=float,
                       help="decay prefactor (default 4)")
        p.add_argument("--decay-lam", type=float,
                       help="decay base (default: max branch width)")


def _config_flags(path) -> list:
    """The ``key = value`` lines of a config file as ``--key=value`` flags;
    '#' starts a comment, and '_' in a key reads as '-'.

    ``main`` parses them between the parser's defaults and the command
    line (flags > file > defaults), so a value goes through its flag's
    own type and choices, a key matches a flag as on the command line (a
    unique prefix too), and a bad key or value is a usage error, exit 2.
    """
    path = Path(path)
    if not path.exists():
        raise InfeasibleError(f"config file {path} not found")
    flags = []
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InfeasibleError(f"bad config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise InfeasibleError(f"missing --{name.replace('_', '-')}")


def _decay_for(args, map_):
    from .brackets import DecayModel
    base = DecayModel.for_map(map_)
    c0 = base.c0 if args.decay_c0 is None else args.decay_c0
    lam = base.lam if args.decay_lam is None else args.decay_lam
    return DecayModel(c0, lam)


def _limit(args, map_, uses_theta=True) -> tuple:
    """(q, theta) at --zeta: a value given as --q or --theta is kept, and
    the period is detected only when a value the command uses is missing.
    theta is None when the command does not use it."""
    from .events import theta_limit_exact
    q, theta = getattr(args, "q", None), getattr(args, "theta", None)
    if theta is not None and not 0 <= theta <= 1:  # NaN included
        raise InfeasibleError(f"--theta {theta} is outside [0, 1]")
    if q is None or (uses_theta and theta is None):
        q_det, theta_det = theta_limit_exact(map_, args.zeta)
        q = q_det if q is None else q
        theta = float(theta_det) if theta is None else theta
    return q, theta if uses_theta else None


class Table(NamedTuple):
    """A command's result, for ``main`` to write: the CSV columns, the
    rows, what the command resolved beyond its flags (q, and theta where
    it is read, at their values used; the decay model; ``evl``'s chunk
    size), which ``main`` records over the parsed flags, and the exit
    code."""

    columns: tuple
    rows: list
    config: dict
    code: int = 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_evl(args, map_) -> Table:
    from . import montecarlo as mc
    from .brackets import evl_bracket_inputs, sharp_evl_bracket
    from .events import Observable, threshold_for
    _require(args, "zeta", "n", "seed")
    tau = args.tau
    decay = _decay_for(args, map_)
    q, theta = _limit(args, map_)
    obs = Observable(center=args.zeta)
    rows = []
    for pt in mc.estimate_evl_points(map_, obs,
                                     [(n, tau) for n in sorted(args.n)],
                                     args.trials, args.seed, args.workers):
        U = threshold_for(obs, pt.n, tau).exceedance
        limit = math.exp(-theta * float(tau))  # tau > 0 here: no overflow
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
    return Table(("scale", "estimate", "ci_half", "limit", "deviation",
                  "bracket", "ratio", "seed"), rows,
                 dict(q=q, theta=theta, decay=vars(decay), chunk=mc.CHUNK))


def cmd_hts(args, map_) -> Table:
    from . import montecarlo as mc
    _require(args, "zeta", "eps", "seed")
    q, theta = _limit(args, map_)
    rows = []
    for eps in args.eps:
        ecdf = mc.estimate_hts(map_, args.zeta, eps, args.tau, args.trials,
                               args.seed, args.workers)
        for tau, est, hw in zip(ecdf.grid, ecdf.estimates, ecdf.half_widths):
            limit = math.exp(-theta * tau)
            rows.append({
                "scale": float(eps), "tau": tau, "estimate": est,
                "ci_half": hw, "limit": limit,
                "deviation": abs(est - limit), "censored": ecdf.censored,
                "seed": args.seed,
            })
    return Table(("scale", "tau", "estimate", "ci_half", "limit", "deviation",
                  "censored", "seed"), rows, dict(q=q, theta=theta))


def cmd_escape(args, map_) -> Table:
    from . import montecarlo as mc
    from .brackets import escape_window, hts_bracket_inputs
    from .events import spectral_escape_rate
    from .intervals import ball
    _require(args, "zeta", "eps", "seed")
    q, theta = _limit(args, map_)
    decay = _decay_for(args, map_)
    rows = []
    for eps in args.eps:
        hole = ball(args.zeta, eps)
        PB = hole.measure()
        fit = mc.estimate_escape_rate(map_, args.zeta, eps, args.trials,
                                      args.seed, args.workers)
        inputs = hts_bracket_inputs(map_, hole, q, decay)
        window = escape_window(inputs, theta, float(PB), decay)
        rows.append({
            "scale": float(eps), "PB": float(PB), "rate": fit.slope,
            "rate_over_PB": fit.slope / float(PB),
            "window_lower": window.lower,
            "window_nominal": window.nominal,
            "degenerate_window": window.degenerate,
            "fit_lo": fit.window[0], "fit_hi": fit.window[1],
            "residual": fit.residual_norm, "censored": fit.censored,
            "k": inputs.k, "t": inputs.t, "seed": args.seed,
        })
        if map_.is_integer:  # the oracle needs a Markov partition
            rows[-1]["spectral"] = spectral_escape_rate(map_, hole)
    return Table(("scale", "PB", "rate", "rate_over_PB", "spectral",
                  "window_lower", "window_nominal", "degenerate_window",
                  "fit_lo", "fit_hi", "residual", "censored", "k", "t",
                  "seed"), rows,
                 dict(q=q, theta=theta, decay=vars(decay)))


def cmd_ei(args, map_) -> Table:
    from .events import theta_limit_exact, theta_n
    from .intervals import ball
    _require(args, "zeta", "eps")
    q_limit, theta_lim = theta_limit_exact(map_, args.zeta)
    q = args.q if args.q is not None else q_limit
    rows = []
    for eps in args.eps:
        U = ball(args.zeta, eps)
        th = theta_n(map_, U, q)
        rows.append({
            "scale": float(eps), "q": q, "theta_n": float(th),
            "theta_n_exact": exact_str(th), "q_limit": q_limit,
            "theta_limit": float(theta_lim),
            "theta_limit_exact": exact_str(theta_lim),
        })
    return Table(("scale", "q", "theta_n", "theta_n_exact", "q_limit",
                  "theta_limit", "theta_limit_exact"), rows, dict(q=q))


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


def cmd_bounds(args, map_) -> Table:
    from .brackets import (evl_bracket_inputs, general_evl_bracket,
                           hts_bracket_inputs, sharp_evl_bracket,
                           sharp_hts_bracket)
    from .events import Observable, dprime_sum, threshold_for
    from .intervals import ball
    _require(args, "zeta")
    tau, kind = args.tau, args.bracket
    obs = Observable(center=args.zeta)
    decay = _decay_for(args, map_)
    q, theta = _limit(args, map_, uses_theta=kind != "general")
    rows = []
    if kind != "sharp-hts":
        for n in args.n:
            U = threshold_for(obs, n, tau).exceedance
            inputs = evl_bracket_inputs(map_, U, q, n, decay)
            k, t, PA = inputs.k, inputs.t, float(inputs.PA)
            if kind == "sharp-evl":
                budget = sharp_evl_bracket(float(tau), n, theta, PA, k, t,
                                           inputs.R, decay)
            else:
                dp = float(dprime_sum(map_, inputs.A, n, q, k,
                                      variant="theorem" if kind == "general"
                                      else "corollary"))
                budget = general_evl_bracket(
                    float(tau), n, q, k, t, float(U.measure()), PA,
                    inputs.M * decay.gamma(t), dp, theta=theta)
            rows.extend(_budget_rows(n, k, t, inputs.R, budget))
    else:
        for eps in args.eps:
            B = ball(args.zeta, eps)
            inputs = hts_bracket_inputs(map_, B, q, decay)
            budget = sharp_hts_bracket(float(tau), float(B.measure()),
                                       float(inputs.PA), theta, inputs.k,
                                       inputs.t, inputs.R, inputs.ell,
                                       inputs.M, decay)
            rows.extend(_budget_rows(float(eps), inputs.k, inputs.t, inputs.R,
                                     budget))
    config = dict(q=q, decay=vars(decay))
    if theta is not None:  # the general bracket never reads theta
        config["theta"] = theta
    return Table(("scale", "term", "value", "k", "t", "R", "flags"), rows,
                 config)


def cmd_check(args, map_) -> Table:
    from .brackets import annulus_replacement
    from .events import Observable, annulus_set, dprime_sum, threshold_for
    from .intervals import ball
    if args.prop_configs:  # only the proposition rows are drawn
        _require(args, "seed")
    obs = Observable(center=args.zeta)
    q, _ = _limit(args, map_, uses_theta=False)
    rows = []
    violated = False
    previous = None
    for n in args.n:
        k_n = max(1, math.ceil(n ** 0.25))
        A = annulus_set(map_, threshold_for(obs, n, args.tau).exceedance, q)
        value = dprime_sum(map_, A, n, q, k_n)
        decreasing = previous is None or value < previous
        rows.append({"kind": "dprime", "scale": n, "k_n": k_n,
                     "value": float(value),
                     "value_exact": exact_str(value), "ok": decreasing})
        previous = value
    rng = random.Random(args.seed)
    for i in range(args.prop_configs):
        den = rng.choice([3, 5, 7, 9, 11, 12, 16])
        zeta_i = Fraction(rng.randrange(0, den), den)
        eps = Fraction(1, rng.choice([40, 64, 100, 128, 200]))
        q_i = rng.randrange(0, 4)
        n_i = rng.randrange(q_i + 2, 13)
        lhs, rhs = annulus_replacement(map_, ball(zeta_i, eps), q_i, n_i)
        ok = lhs <= rhs
        violated = violated or not ok
        rows.append({"kind": "proposition", "scale": n_i, "zeta": str(zeta_i),
                     "eps": str(eps), "q": q_i, "lhs": float(lhs),
                     "rhs": float(rhs), "lhs_exact": exact_str(lhs),
                     "rhs_exact": exact_str(rhs), "ok": ok})
    if violated:
        print("check: exact inequality violated", file=sys.stderr)
    return Table(("kind", "scale", "k_n", "value", "zeta", "eps", "q", "lhs",
                  "rhs", "ok"), rows, dict(q=q), 1 if violated else 0)


def cmd_pressure(args, map_) -> Table:
    from .maps import weighted_periodic_sum
    s = {"zero": 0, "geometric": 1}[args.potential]
    rows = []
    for n in range(1, args.n_max + 1):
        z = float(weighted_periodic_sum(map_, s, n))
        rows.append({"scale": n, "Z_n": z, "pressure": math.log(z) / n})
    return Table(("scale", "Z_n", "pressure"), rows, {})


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
    p.add_argument("--zeta", type=parse_point)
    p.add_argument("--tau", type=parse_point, default="1")
    p.add_argument("--n", type=parse_counts, help="comma list of horizons")
    p.add_argument("--q", type=int)
    p.add_argument("--theta", type=float)

    p = sub.add_parser("hts", help="hitting-time survival table")
    _add_common(p, stochastic=True)
    p.add_argument("--zeta", type=parse_point)
    p.add_argument("--eps", type=parse_grid, help="comma list of radii")
    p.add_argument("--tau", type=parse_grid, default="0.5,1,2",
                   help="comma list of rescaled times")

    p = sub.add_parser("escape", help="escape rates through a small hole")
    _add_common(p, stochastic=True, decay=True)
    p.add_argument("--zeta", type=parse_point)
    p.add_argument("--eps", type=parse_grid)

    p = sub.add_parser("ei", help="extremal index, exact")
    _add_common(p)
    p.add_argument("--zeta", type=parse_point)
    p.add_argument("--eps", type=parse_grid)
    p.add_argument("--q", type=int)

    p = sub.add_parser("bounds", help="error bracket breakdowns")
    _add_common(p, budget=True, decay=True)
    p.add_argument("--zeta", type=parse_point)
    p.add_argument("--tau", type=parse_point, default="1")
    p.add_argument("--bracket", default="sharp-evl",
                   choices=("general", "limit", "sharp-evl", "sharp-hts"))
    p.add_argument("--n", type=parse_counts, default="1024")
    p.add_argument("--eps", type=parse_grid, default="1/100")
    p.add_argument("--q", type=int)

    p = sub.add_parser("check", help="exact condition checks (exit 1 on violation)")
    _add_common(p, budget=True)
    p.add_argument("--seed", type=parse_count)
    p.add_argument("--zeta", type=parse_point, default="1/3")
    p.add_argument("--tau", type=parse_point, default="1")
    p.add_argument("--n", type=parse_counts,
                   default="256,512,1024,2048,4096,8192,16384")
    p.add_argument("--q", type=int)
    p.add_argument("--prop-configs", type=parse_count, default=10)

    p = sub.add_parser("pressure", help="periodic-orbit sums and pressure")
    _add_common(p)
    p.add_argument("--potential", default="geometric",
                   choices=("geometric", "zero"))
    p.add_argument("--n-max", type=parse_positive, default=10)

    return parser


def main(argv=None) -> int:
    from .maps import COMPONENT_BUDGET, FullBranchMap
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            at = argv.index(args.command) + 1
            args = parser.parse_args(
                argv[:at] + _config_flags(args.config) + argv[at:])
        map_ = FullBranchMap.from_spec(
            args.map, budget=getattr(args, "budget", COMPONENT_BUDGET))
        table = globals()[f"cmd_{args.command}"](args, map_)
        out = Path(args.out or os.environ.get("EXTREMAP_OUT", "."))
        config = {**vars(args), "map_name": map_.name, "out": str(out),
                  **table.config}
        write_outputs(out, args.command, table.columns, table.rows, config)
        return table.code
    except (ExtremapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ResourceBudgetError) else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
