"""Multirate implicit-explicit ODE integration.

Slow methods advance three-way split problems y' = fF + fE + fI with one
implicit-explicit step per slow interval; the fast partition is resolved by
an inner explicit Runge-Kutta method driven by polynomial forcing.
"""

from .adaptivity import (ControllerState, ErrorEstimate,
                         accumulate_fast_error, controller_update,
                         estimate_slow_error, integrate_adaptive)
from .errors import MRISRError
from .integrator import (IntegrationRecord, NewtonConfig, SplitIVP,
                         StepStats, integrate_fixed, step)
from .problems import (BrusselatorParams, PROBLEMS, brusselator_problem,
                       kpr_exact, kpr_problem, make_problem)
from .rk import ButcherTable, INNER_METHODS, inner_method
from .stability import (RegionScan, SectorSpec, scan_component_region,
                        scan_joint_region, stability_value)
from .tableau import (BUILTIN_NAMES, MRISRTableau, load_builtin,
                      load_tableau, save_tableau, validate_structure)
from .theory import (base_ark, assemble_gark, c_statistic,
                     check_ark_order, check_coupling_order,
                     check_internal_consistency, method_order)

__version__ = "0.1.0"
