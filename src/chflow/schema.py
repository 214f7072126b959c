"""Frozen output schema for CSV files and run manifests.

Downstream plotting relies on these column lists; change them only together
with a SCHEMA_VERSION bump.  Every manifest embeds the version.
"""

SCHEMA_VERSION = 1

# One row per (snapshot, grid point), snapshot-major; written one snapshot
# block at a time, each value the shortest round-trip repr of a float64.
TRAJECTORY_COLUMNS = ("t", "x", "u", "rho", "m")

# One row per snapshot; NaN where a diagnostic was not enabled.
IDENTITY_COLUMNS = (
    "t",
    "transport_dev",      # max |rho(t,phi) phi_x^(b-1) - rho_0|
    "mflow_dev",          # max deviation of the momentum balance along the flow
    "casimir",            # integral of |rho|^(1/(b-1))
    "supp_left",          # tracked support of rho
    "supp_right",
    "flow_left",          # transported initial support interval (with slack)
    "flow_right",
)

# One row per (snapshot); per-weight persistence monitor.
PERSISTENCE_COLUMNS = ("t", "W_1", "W_2", "W_inf", "M_running", "fit_residual")

# One row per snapshot; tail decay fits of |u| + |u_x| + |rho|.
DECAY_COLUMNS = ("t", "a_hat", "c_hat", "window_lo", "window_hi", "residual")

# One row per dyadic block of u(t_final), both cutoff styles.
BESOV_COLUMNS = ("style", "k", "block_norm", "weighted_term")

# Manifests and suite reports are strict JSON: a non-finite float (a norm
# exponent p = inf, a non-finite max_gradient of a blow-up) is written as
# the string "inf", "-inf" or "nan", as the CSV files write p = inf.  A
# suite report holds "suite", the suite's tables, "checks" (per check
# {status, value, tolerance, detail}, as a manifest's invariants) and
# "pass", true when every check passes.
MANIFEST_KEYS = (
    "schema_version",
    "code_version",
    "scenario",
    "outcome",        # "completed" or "blowup"
    "blowup",         # null or {t, max_gradient}
    "invariants",     # per-diagnostic {status, value, tolerance, detail}; an
                      # "error" adds error_type, a "skipped" has only its detail
    "outputs",        # file names written next to the manifest
    "wall_time_s",    # informational; not covered by determinism guarantees
)
