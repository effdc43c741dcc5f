"""First-passage and first-exit time densities for stochastic growth models.

A general growth curve (covering the Malthus/logistic/Gompertz/Richards
family and its plateau and finite-time-ceiling variants) is extended to two
diffusions sharing its mean: a multiplicative-noise lognormal process and an
additive-noise inhomogeneous Ornstein-Uhlenbeck process.  The package
evaluates their transition laws, closed-form first-passage and first-exit
densities for special boundary families, numerical Volterra solutions for
general boundaries, and Monte Carlo validation with bridge-corrected
crossing detection.
"""

from .errors import (BandCrossing, ConfigError, DomainError, EmptySample,
                     GridError, GrowthFPTError, InvalidParams, NonPositiveState,
                     OrderError, ParseError, StartOnBoundary, StartOutsideBand,
                     ValidationError)
from .fet import (BandSpec, ProportionalBand, fet_pdf_gm_closed,
                  fet_pdf_lognormal_band, fet_pdf_ou_band,
                  fet_pdf_wiener_symmetric, volterra_fet, wiener_band_pdf)
from .fpt import (AffineGMBoundary, DensityCurve, ExpBoundary, GeneralBoundary,
                  affine_gm_boundary_fns, exp_boundary_fns, fpt_pdf_gm_closed,
                  fpt_pdf_lognormal, fpt_pdf_ou, volterra_fpt)
from .gm_core import (DanielsBoundary, GMSpec, TransitionLaw,
                      daniels_boundary_fns, infinitesimal_coeffs, psi_kernel,
                      r_ratio, transition_law, wiener_spec)
from .growth_curve import (CurveRegime, GrowthParams, ReparamCoeffs,
                           TimeDomain, classify_regime, domain_end, g_eval,
                           h_eval, h_integral, reparametrize, x_eval)
from .montecarlo import (EmpiricalHittingSample, SimConfig, density_distance,
                         estimate_fet, estimate_fpt, simulate_paths)
from .process_lognormal import LognormalProcess, transition_law_L
from .process_ou import OUProcess, gm_spec_G, transition_law_G
from .quadrature import integrate_adaptive

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
