"""Realizing derangement-to-permutation ratios in digraphs.

Blow-up cycle digraphs, uniform m-edge subgraph sampling, exact counting,
parameter solving from a target ratio, and exact/asymptotic moments.
"""

from .counting import (
    CountPair,
    count,
    count_layered,
    count_permanent,
)
from .digraph import (
    Digraph,
    SampledSubgraph,
    build_blowup,
    sample_subgraph,
    to_general,
)
from .experiment import (
    McReport,
    convergence_sweep,
    derive_seed,
    run_mc,
)
from .moments import (
    MomentReport,
    expected_x_asymptotic,
    expected_x_exact,
    expected_y_asymptotic,
    expected_y_exact,
    moment_report,
    moment_report_for_plan,
    second_moment_x_exact,
    second_moment_y_upper,
)
from .params import ConstructionPlan, choose_ell, plan, solve_p
from .series import SeriesValue, f_eval
from .verify import verify_all

__version__ = "0.1.0"
