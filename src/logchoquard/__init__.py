"""Numerical toolkit for the planar Choquard equation with logarithmic
kernel: weighted Trudinger-Moser functionals, sign-split kernel forms,
Moser-sequence level estimates and a mountain-pass solver."""

from .energy import (EnergyBreakdown, MoserCap, RayAnalysis,
                     delta_n_closed_form, energy_IV, energy_gradient,
                     moser_cap, moser_delta_n, moser_grid,
                     mp_level_upper_bound, ray_analysis, total_energy)
from .grids import (Grid, GridField, build_grid, dirichlet_energy,
                    field_from_radial, field_from_xy, integrate, zero_field)
from .kernel import (HLSReport, KernelForm, LogHLSReport, bilinear_direct,
                     bilinear_direct_many, bilinear_fast, hls_check,
                     kernel_split, log_hls_check)
from .nonlinearity import (AssumptionReport, NonlinearitySpec, ScanPlan,
                           G_auxiliary, check_assumptions, compute_script_V,
                           eval_F, eval_f, eval_f_prime, ratio_Ffprime_f2)
from .solver import (PSDiagnostics, RecenterResult, SolverConfig,
                     SolverResult, check_mp_geometry, ps_diagnostics,
                     recenter, solve_mountain_pass, vanishing_check)
from .spaces import (PeriodicCoefficient, TMValue,
                     norm_1qw, norm_ruf_sq, norm_V_sq, norm_w0_sq,
                     radial_map_T, radial_map_T_inverse, radial_map_T_prime,
                     tm_functional, tm_sup_search, transform_to_unweighted)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
