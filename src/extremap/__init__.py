"""Extreme value laws, hitting time statistics and escape rates for
full-branch expanding interval maps.

Subpackage map:

* ``intervals``  exact set algebra on finite unions of arcs of the
                 circle [0, 1), with Fraction endpoints
* ``maps``       full-branch maps, preimages, periodic points, pressure
* ``events``     exceedance balls, annuli, extremal indices, exact oracles
* ``brackets``   closed-form error brackets, blocking optimizers and the
                 bracket inputs they share
* ``montecarlo`` seeded, reproducible large-scale estimators; they
                 estimate only, and import no bracket
* ``cli``        command-line entry points; each command puts the
                 estimates and the brackets of one event together
"""

from .intervals import IntervalUnion, ball
from .maps import (
    AffineBranch,
    FullBranchMap,
    Potential,
    SmoothBranch,
    bv_norm_indicator,
    periodic_points,
    pressure_sequence,
    ulam_matrix,
    weighted_periodic_sum,
)
from .events import (
    Observable,
    ThresholdSchedule,
    annulus_set,
    dprime_sum,
    exact_evl_prob,
    exact_hts_prob,
    first_return_time,
    survivor_set,
    theta_limit,
    theta_n,
    threshold_for,
)
from .brackets import (
    BlockEstimate,
    BracketInputs,
    BlockingParams,
    DecayModel,
    ErrorBudget,
    EscapeWindow,
    annuli_gap_bound,
    escape_rate_window,
    escape_window,
    evl_bracket_inputs,
    exp_approx_error,
    hts_bracket_inputs,
    optimize_kt_evl,
    optimize_kt_hts,
    survivor_block_estimate,
    general_evl_bracket,
    sharp_evl_bracket,
    sharp_hts_bracket,
    upsilon,
    xi,
)
from .montecarlo import (
    ECDF,
    EscapeFit,
    EvlEstimate,
    estimate_escape_rate,
    estimate_evl,
    estimate_evl_grid,
    estimate_hts,
    ulam_escape_oracle,
    wilson_halfwidth,
)

__version__ = "0.1.0"
