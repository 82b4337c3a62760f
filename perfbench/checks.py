"""Output checks, one per job kind.

Each check takes the job, its exit code and its parsed output (the
command's JSON mirror, or the returned value of a direct call) and
returns a list of failure messages; an empty list means the output
passed.  ``outputs`` maps job names to the parsed outputs of the same
pass, for checks that compare two jobs.
"""

from __future__ import annotations

import math
from fractions import Fraction as F

Z_WILSON = 3.0  # MC vs exact: within this many 95% Wilson half-widths
ESCAPE_REL = 0.05
ESCAPE_MIN_SURVIVORS = 100  # the estimator's fit-window end


def evl_limit(job, rc, out, outputs=None) -> list:
    """|estimate - limit| <= bracket + 3 ci_half on every row."""
    fails = []
    for r in out["rows"]:
        slack = r["bracket"] + 3 * r["ci_half"]
        if not abs(r["estimate"] - r["limit"]) <= slack:
            fails.append(f"n={r['scale']}: |{r['estimate']} - {r['limit']}| "
                         f"> bracket + 3 ci_half = {slack}")
    return fails


def _within_wilson(est, hw, exact, what) -> list:
    if abs(est - float(exact)) <= Z_WILSON * hw:
        return []
    z = abs(est - float(exact)) / (hw / 1.959963984540054)
    return [f"{what}: MC {est} vs exact {float(exact):.6f} "
            f"(> {Z_WILSON:g} half-widths, z = {z:.1f})"]


def evl_exact(job, rc, out, outputs=None) -> list:
    """MC P(M_n <= u_n) within 3 Wilson half-widths of the exact value."""
    if job.kind == "call":
        return _within_wilson(out["estimate"], out["half_width"], job.ref,
                              f"n={out['n']}")
    rows = out["rows"]
    fails = evl_limit(job, rc, out)
    for r in rows:
        fails += _within_wilson(r["estimate"], r["ci_half"], job.ref,
                                f"n={r['scale']}")
    return fails


def hts(job, rc, out, outputs=None) -> list:
    """Survival estimates lie in [0, 1] and do not increase with tau."""
    ests = [r["estimate"] for r in sorted(out["rows"], key=lambda r: r["tau"])]
    fails = [f"estimate {e} outside [0, 1]" for e in ests if not 0 <= e <= 1]
    if any(b > a for a, b in zip(ests, ests[1:])):
        fails.append(f"survival increases with tau: {ests}")
    return fails


def hts_exact(job, rc, out, outputs=None) -> list:
    """MC P(r_B > t) within 3 Wilson half-widths of exact_hts_prob."""
    fails = hts(job, rc, out)
    by_tau = {float(F(t)): v for t, v in job.ref.items()}
    for r in out["rows"]:
        fails += _within_wilson(r["estimate"], r["ci_half"],
                                by_tau[r["tau"]], f"tau={r['tau']}")
    return fails


def escape(job, rc, out, outputs=None) -> list:
    """Fitted rate near the spectral oracle, window_lower <= spectral.

    The tolerance is 5 % of the spectral rate, widened to three standard
    errors of the fitted slope when that is larger: the fit ends where
    100 trials survive, so its log-survival at the window ends carries
    a sampling error of about sqrt(1/S_lo + 1/S_hi) over the window.
    """
    fails = []
    for r in out["rows"]:
        rate, spec = r["rate"], r["spectral"]
        width = max(r["fit_hi"] - r["fit_lo"], 1)
        s_hi = ESCAPE_MIN_SURVIVORS
        s_lo = s_hi * math.exp(min(rate * width, 50.0))
        stderr = math.sqrt(1 / s_lo + 1 / s_hi) / width
        tol = max(ESCAPE_REL * spec, 3 * stderr)
        if not abs(rate - spec) <= tol:
            fails.append(f"eps={r['scale']}: rate {rate} vs spectral {spec} "
                         f"(tolerance {tol:.3g})")
        if not r["window_lower"] <= spec:
            fails.append(f"eps={r['scale']}: window_lower "
                         f"{r['window_lower']} > spectral {spec}")
    return fails


def bounds(job, rc, out, outputs=None) -> list:
    """Every bracket total is a finite positive number."""
    totals = [r for r in out["rows"] if r["term"] == "total"]
    if not totals:
        return ["no total rows"]
    return [f"{r['scale']}: total {r['value']!r}" for r in totals
            if not (isinstance(r["value"], float) and 0 < r["value"] < math.inf)]


def check(job, rc, out, outputs=None) -> list:
    """Every requested exact inequality row is present and holds.

    Only the proposition rows carry an inequality; a job without them
    would check nothing, so at least one is required.
    """
    props = [r for r in out["rows"] if r["kind"] == "proposition"]
    wanted = int(job.argv[job.argv.index("--prop-configs") + 1])
    fails = [f"violated: {r}" for r in props if r["ok"] is not True]
    if wanted < 1 or len(props) != wanted:
        fails.append(f"{len(props)} proposition rows, expected {wanted} (>= 1)")
    return fails


def ei(job, rc, out, outputs=None) -> list:
    """theta_n and the limit index both equal 1 - 1/|DF^p(zeta)|."""
    fails = []
    for r in out["rows"]:
        for col in ("theta_n_exact", "theta_limit_exact"):
            if F(r[col]) != job.ref:
                fails.append(f"eps={r['scale']}: {col} {r[col]} != {job.ref}")
    return fails


def pressure_geometric(job, rc, out, outputs=None) -> list:
    """Z_n of the geometric potential is 1 for every n."""
    return [f"n={r['scale']}: Z_n = {r['Z_n']!r}" for r in out["rows"]
            if not abs(r["Z_n"] - 1.0) <= 1e-12]


def pressure_zero(job, rc, out, outputs=None) -> list:
    """The zero-potential pressure is log d for every n."""
    return [f"n={r['scale']}: pressure {r['pressure']!r} != log d"
            for r in out["rows"] if not abs(r["pressure"] - job.ref) <= 1e-12]


def exact_evl(job, rc, out, outputs=None) -> list:
    """An exact probability: a Fraction in [0, 1]."""
    if not (isinstance(out, F) and 0 <= out <= 1):
        return [f"not an exact probability: {out!r}"]
    return []


def exact_hts(job, rc, out, outputs=None) -> list:
    """Lebesgue measure is invariant, so P(r_B > n) = P(M_n <= u) exactly."""
    fails = exact_evl(job, rc, out)
    other = (outputs or {}).get(job.ref)
    if other is None:
        fails.append(f"no output from {job.ref}")
    elif out != other:
        fails.append(f"exact_hts_prob {out} != exact_evl_prob {other}")
    return fails


CHECKS = {fn.__name__: fn for fn in (
    evl_limit, evl_exact, hts, hts_exact, escape, bounds, check, ei,
    pressure_geometric, pressure_zero, exact_evl, exact_hts)}


def run_check(job, rc, out, outputs=None) -> list:
    """Exit code 0 and the job's own check."""
    if rc != 0:
        return [f"exit code {rc}"]
    return CHECKS[job.check](job, rc, out, outputs)
