"""strainflow: numerical laboratory for the nonlocal strain gradient flow
p_t = -sigma(p) + mean(sigma(p)) and its traction-free companion p_t = -sigma(p).
"""

__version__ = "0.1.0"

from .asymptotics import (
    AsymptoticsReport,
    F_functional,
    asymptotics_report,
    chi_functional,
    convergence_monitor,
    cubic_invariants,
    equilibria_enumerate,
    nc3_check,
    nc_linear_independence,
    volume_fractions,
)
from .bounds import (
    BoundsProfile,
    bounds_profile,
    displacement_lower,
    displacement_upper,
    mixed_lower,
    mixed_upper,
)
from .counterexample import CylTrajectory, dense_data_demo, simulate_cyl, simulate_ensemble
from .displacement import (
    GronwallReport,
    approximate_initial_data,
    gronwall_check,
    integrate,
    prox_step,
    rearrange,
    rhs,
    seeded_state,
)
from .mixed import PointwiseSolution, reconstruct_y, solve_field, solve_pointwise
from .state import SimpleState, Trajectory, state_distance
from .stress_models import (
    BranchSet,
    StressModel,
    eval_W,
    find_branches,
    make_model,
    roots_at,
)

__all__ = [name for name in dir() if not name.startswith("_")]
