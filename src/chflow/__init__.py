"""Pseudo-spectral simulator and verification harness for two-component
Camassa-Holm systems with a fractional inertia operator.

The package evolves the pair (u, rho) of the b-parameterized family

    m_t = alpha u_x - b u_x m - u m_x - kappa rho rho_x,   m = (1 - d^2/dx^2)^r u,
    rho_t = -u rho_x - (b - 1) u_x rho,

on a periodic truncation of the line, and checks the identities the family
satisfies: conservation of the |rho|^(1/(b-1)) integral, transport and
momentum balances along characteristics, compact-support propagation,
continuous dependence in dyadic (Besov-type) norms, and weighted-norm
persistence and tail decay.
"""

from .besov import BesovIndex, besov_norm, besov_norms
from .characteristics import (
    FlowDegeneracyError,
    SupportInterval,
    casimir,
    check_flow_identities,
    check_support_containment,
    evolve_flow,
    track_support,
)
from .dynamics import (
    BlowUpError,
    FormulationError,
    Params,
    Stack,
    State,
    StepControl,
    Trajectory,
    friedrichs_iterate,
    integrate,
    integrate_ensemble,
    rhs_m_form,
    stability_pairs,
    step_rk4,
)
from .harness import CODE_VERSION as __version__, PRESETS, Scenario, run_scenario, run_suite
from .offgrid import evaluate
from .spectral import Grid, GridMismatchError, RealField, invert_inertia
from .weights import StandardWeight, persistence_monitor
