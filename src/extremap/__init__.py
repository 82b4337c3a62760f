"""Extreme value laws, hitting time statistics and escape rates for
full-branch expanding interval maps.

Subpackage map:

* ``intervals``  exact set algebra on finite unions of arcs of the
                 circle [0, 1), with Fraction endpoints
* ``maps``       full-branch maps, preimages, pressure
* ``events``     exceedance balls, annuli, extremal indices, exact oracles
* ``brackets``   closed-form error brackets, blocking optimizers and the
                 bracket inputs they share
* ``montecarlo`` seeded, reproducible large-scale estimators; they
                 estimate only, and import no bracket
* ``cli``        command-line entry points; each command puts the
                 estimates and the brackets of one event together

Importing the package loads none of these: each public name in the
table below is imported from its module on first access (PEP 562), so ``extremap.ball``
loads ``intervals`` alone and ``from extremap import maps`` the
submodule.
"""

import importlib

_EXPORTS = {
    "intervals": ("IntervalUnion", "ball"),
    "maps": ("AffineBranch", "FullBranchMap", "bv_norm_indicator",
             "weighted_periodic_sum"),
    "events": ("Observable", "ThresholdSchedule", "annulus_set",
               "dprime_sum", "exact_evl_prob", "exact_hts_prob",
               "first_return_time", "spectral_escape_rate", "survivor_set",
               "theta_limit_exact", "theta_n", "threshold_for"),
    "brackets": ("BracketInputs", "BlockingParams", "DecayModel",
                 "ErrorBudget", "EscapeWindow", "annulus_replacement",
                 "escape_window", "evl_bracket_inputs", "exp_approx_error",
                 "hts_bracket_inputs", "optimize_kt_evl", "optimize_kt_hts",
                 "general_evl_bracket", "sharp_evl_bracket",
                 "sharp_hts_bracket", "upsilon", "xi"),
    "montecarlo": ("ECDF", "EscapeFit", "EvlEstimate",
                   "estimate_escape_rate", "estimate_evl",
                   "estimate_evl_points", "estimate_hts", "wilson_halfwidth"),
}
# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"),
                   name)


def __dir__():
    return sorted({*globals(), *_SOURCE})
