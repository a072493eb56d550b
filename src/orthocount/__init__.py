"""orthocount: exact lattice invariants, modular-form coefficient formulas,
Frobenius crystals over truncated two-variable arithmetic, and the valuation
combinatorics of decay schedules, each paired with brute-force oracles."""

__version__ = "0.1.0"

from .arith import InvariantError  # noqa: F401
from .budget import (  # noqa: F401
    CurveBudget,
    NestedLatticeSequence,
    formal_curve_sequence,
    g_P,
    local_intersection,
    ssmain_bound,
)
from .crystal import moore_checks, nonordinary_equation  # noqa: F401
from .density import (  # noqa: F401
    local_density,
    local_density_naive,
    local_density_recursive,
)
from .eisenstein import (  # noqa: F401
    EisensteinContext,
    cusp_part,
    densm_ratio,
    eis_coeff_global,
    eis_coeff_theta,
)
from .lattice import (  # noqa: F401
    QuadLattice,
    SublatticeBasis,
    det_and_disc_group,
    intersect_and_index,
    is_maximal_at,
    p_diagonalize,
    rep_count,
    successive_minima,
    theta_table,
)
from .valcomb import (  # noqa: F401
    SuperspecialProfile,
    ValuationProfile,
    min_set,
    nu,
    schedules,
    ssp_min_valuation,
    verify_minval,
)
