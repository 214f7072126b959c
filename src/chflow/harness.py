"""Scenario configuration, presets, diagnostics, suites, and result files.

A Scenario bundles everything a run needs: model constants, grid, step
control, named initial-data profiles, and the list of diagnostics to
evaluate.  run_scenario() executes it and writes CSV data plus a JSON
manifest (atomically: temp file then rename).  run_suite() orchestrates the
multi-run experiments (convergence, stability, persistence, friedrichs) and
writes a JSON report per suite.

Scenarios are deterministic: with a fixed build, re-running one reproduces
the numeric outputs byte for byte (manifest wall time excluded).
"""

import json
import math
import numbers
import os
import tempfile
import time
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import besov, characteristics, dynamics, floattext, weights
from .profiles import make_profile, profile_errors
from .schema import (
    BESOV_COLUMNS,
    DECAY_COLUMNS,
    IDENTITY_COLUMNS,
    PERSISTENCE_COLUMNS,
    SCHEMA_VERSION,
    TRAJECTORY_COLUMNS,
)
from .spectral import ConfigurationError, Grid, RealField, invert_inertia, operators

CODE_VERSION = "0.1.0"

# the weights and norm exponents the persistence diagnostic and suite monitor
WEIGHT_BATTERY = (
    weights.StandardWeight(c=1.0),
    weights.StandardWeight(c=2.0),
    weights.StandardWeight(c=3.0),
    weights.StandardWeight(a=0.25, b=1.0, side="right"),
    weights.StandardWeight(a=0.5, b=1.0, side="right"),
    weights.StandardWeight(a=0.9, b=1.0, side="right"),
)
NORM_PS = (1.0, 2.0, math.inf)


def name_errors(name):
    """The run name rule: every output file is named <name>_<what>, so the
    name must be a plain file-name stem, not empty, '.' or '..', and holding
    no path separator or NUL.  [] or the message saying why not."""
    seps = {"/", os.sep, os.altsep, "\0"} - {None}
    if isinstance(name, str) and name not in ("", ".", "..") and not any(c in name for c in seps):
        return []
    return [f"run.name must be a plain file-name stem (not empty, '.' or '..', and no "
            f"path separator or NUL), got {name!r}"]


@dataclass(frozen=True)
class Scenario:
    name: str = "custom"
    # model constants
    b: float = 2.0
    kappa: float = 1.0
    alpha: float = 0.0
    r: float = 1.0
    # grid
    L: float = 20.0
    n: int = 1024
    # step control
    cfl: float = 0.3
    dt_max: float = 0.01
    t_final: float = 1.0
    dealias: bool = True
    snapshots: int = 101
    gradient_ceiling: float = 1e6
    # initial data
    u0: tuple = (("profile", "zero"),)
    rho0: tuple = (("profile", "zero"),)
    u0_is_momentum: bool = False
    # diagnostics and outputs
    diagnostics: tuple = ("casimir", "transport", "formulation")
    decay_window: tuple = None        # None -> weights.fit_window's default

    def _models(self):
        """(section, constructor, keyword arguments) of the grid, the model
        constants and the step control.  Each constructor checks its own
        fields, which the scenario holds under the same names."""
        return [(section, model, {f.name: getattr(self, f.name) for f in fields(model)})
                for section, model in (("grid", Grid), ("params", dynamics.Params),
                                       ("control", dynamics.StepControl))]

    def validate(self):
        """Every reason this scenario cannot run, one message per field: the
        run name rule, the constructors' own messages prefixed with their
        section, then the rules that span objects (profiles, diagnostics)."""
        errors = name_errors(self.name)
        for section, model, kwargs in self._models():
            try:
                model(**kwargs)
            except ConfigurationError as exc:
                errors += [f"{section}.{e}" for e in exc.errors]
        snapshots_ok = isinstance(self.snapshots, numbers.Integral) and self.snapshots >= 2
        if not snapshots_ok:
            errors.append(f"control.snapshots must be an integer >= 2, got {self.snapshots!r}")
        for label, spec in (("u0", self.u0), ("rho0", self.rho0)):
            errors += [f"{label}.{e}" for e in profile_errors(spec)]
        errors += [f"decay_{e}" for e in weights.window_errors(self.decay_window)]
        for diag in self.diagnostics:
            if diag not in DIAGNOSTICS:
                errors.append(f"unknown diagnostic {diag!r}; choose from {sorted(DIAGNOSTICS)}")
        repeated = sorted({d for d in self.diagnostics if self.diagnostics.count(d) > 1})
        if repeated:
            errors.append(f"diagnostics name one more than once: {repeated}")
        if self.b == 1.0 and "casimir" in self.diagnostics:
            errors.append("diagnostic 'casimir' requires b != 1: the conserved "
                          "density |rho|^(1/(b-1)) is undefined for b = 1")
        flow_diags = [d for d in self.diagnostics if d in FLOW_DIAGNOSTICS]
        if (flow_diags and snapshots_ok and self.dt_max > 0
                and math.isfinite(self.t_final)):
            stride = self.t_final / (self.snapshots - 1)
            if characteristics.stride_too_coarse(stride, self.dt_max):
                steps = characteristics.MAX_STRIDE_STEPS
                errors.append(
                    f"control.snapshots: stride t_final/(snapshots-1) = {stride:.3g} "
                    f"exceeds {steps}x dt_max = {steps * self.dt_max:.3g}, the most the "
                    f"flow diagnostics {flow_diags} allow"
                )
        return errors

    def build(self):
        """Materialize (grid, params, ctrl, initial state)."""
        errors = self.validate()
        if errors:
            raise ConfigurationError(errors)
        grid, params, ctrl = (model(**kwargs) for _, model, kwargs in self._models())
        u0 = make_profile(grid, dict(self.u0))
        if self.u0_is_momentum:
            u0 = invert_inertia(u0, self.r)
        rho0 = make_profile(grid, dict(self.rho0))
        state0 = dynamics.State(0.0, u0, rho0)
        return grid, params, ctrl, state0

    def output_times(self):
        return np.linspace(0.0, self.t_final, self.snapshots)


PRESETS = {
    "zero": Scenario(
        name="zero", n=256, t_final=0.5, snapshots=26,
        diagnostics=("casimir", "transport", "formulation"),
    ),
    "2cch": Scenario(
        name="2cch", b=2.0, kappa=1.0, alpha=0.0, r=1.0,
        u0=(("profile", "gaussian"), ("amp", 0.7), ("width", 2.0)),
        rho0=(("profile", "gaussian"), ("amp", 0.5), ("width", 1.5)),
        diagnostics=("casimir", "transport", "mflow", "formulation", "besov"),
    ),
    "2cdp": Scenario(
        name="2cdp", b=3.0, kappa=1.0, alpha=0.0, r=1.0,
        u0=(("profile", "gaussian"), ("amp", 0.7), ("width", 2.0)),
        rho0=(("profile", "gaussian"), ("amp", 0.5), ("width", 1.5)),
        diagnostics=("casimir", "transport", "mflow", "formulation"),
    ),
    "chb": Scenario(
        name="chb", b=2.5, kappa=0.0, alpha=0.3, r=1.0, n=512,
        u0=(("profile", "gaussian"), ("amp", 0.5), ("width", 2.0)),
        diagnostics=("casimir", "transport", "formulation"),
    ),
    "hkmetric": Scenario(
        name="hkmetric", b=2.0, kappa=0.0, alpha=0.0, r=2.0, n=512,
        u0=(("profile", "gaussian"), ("amp", 0.4), ("width", 2.0)),
        diagnostics=("casimir", "transport", "mflow"),
    ),
    "hkmetric3": Scenario(
        name="hkmetric3", b=2.0, kappa=0.0, alpha=0.0, r=3.0, n=512,
        u0=(("profile", "gaussian"), ("amp", 0.4), ("width", 2.0)),
        diagnostics=("casimir", "transport", "mflow"),
    ),
    "highorder": Scenario(
        name="highorder", b=2.0, kappa=1.0, alpha=0.0, r=2.0, n=512,
        u0=(("profile", "gaussian"), ("amp", 0.4), ("width", 2.0)),
        rho0=(("profile", "gaussian"), ("amp", 0.3), ("width", 1.5)),
        diagnostics=("casimir", "transport", "mflow", "formulation"),
    ),
    "support": Scenario(
        name="support", b=2.0, kappa=1.0, alpha=0.0, r=1.0,
        u0=(("profile", "bump"), ("amp", 0.5), ("width", 2.0)),
        u0_is_momentum=True,
        rho0=(("profile", "bump"), ("amp", 0.5), ("width", 2.0)),
        diagnostics=("transport", "mflow", "support"),
    ),
    "decay": Scenario(
        name="decay", b=2.0, kappa=1.0, alpha=0.0, r=1.0, L=40.0, n=2048,
        u0=(("profile", "gaussian"), ("amp", 0.7), ("width", 2.5)),
        rho0=(("profile", "gaussian"), ("amp", 0.5), ("width", 2.0)),
        snapshots=11,
        # persistence has its own suite with exp-tailed seed data; Gaussian
        # data grows its tails through a transient that is not log-affine
        diagnostics=("decay",),
        # past the data bulk, above the t=0 float64 floor of the Gaussian
        decay_window=(9.0, 14.0),
    ),
}


# ---------------------------------------------------------------------------
# Config files: INI-style sections of key = value pairs
# ---------------------------------------------------------------------------

# the Scenario fields each section sets: the fields of the model it builds
# (see Scenario._models), and snapshots in [control]; [u0] and [rho0] hold
# free-form profile parameters, and [u0] the u0_is_momentum flag as `momentum`
_SECTION_FIELDS = {
    "params": tuple(f.name for f in fields(dynamics.Params)),
    "grid": tuple(f.name for f in fields(Grid)),
    "control": tuple(f.name for f in fields(dynamics.StepControl)) + ("snapshots",),
    "u0": None,
    "rho0": None,
    "run": ("name", "diagnostics"),
}


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def _parse_names(text):
    return tuple(x.strip() for x in text.split(",") if x.strip())


# the type each Scenario field declares, and the parser of each type that
# is not its own (float, int and str parse their text themselves)
_FIELD_TYPES = {f.name: f.type for f in fields(Scenario)}
_PARSERS = {bool: _parse_bool, tuple: _parse_names}


def parse_config(path, base: Scenario = None) -> Scenario:
    """Read a key = value config file into a Scenario (over a preset base)."""
    import configparser

    cp = configparser.ConfigParser()
    cp.optionxform = str          # keep key case (grid L vs l)
    try:
        read = cp.read(path)
        # items() interpolates, so a stray '%' fails here, not in the loop
        sections = {section: cp.items(section) for section in cp.sections()}
    except configparser.Error as exc:   # duplicates, lines without '=', ...
        raise ConfigurationError([str(exc)]) from None
    errors = []
    if not read:
        raise ConfigurationError([f"config file {path!r} not found or unreadable"])
    sc = base if base is not None else Scenario()
    updates = {}

    def convert(section, key, kind, text):
        """text parsed as kind; None, with the error listed, if it is not one."""
        try:
            return _PARSERS.get(kind, kind)(text)
        except ValueError:
            errors.append(f"[{section}] {key}: expected {kind.__name__}, got {text!r}")

    for section, items in sections.items():
        if section not in _SECTION_FIELDS:
            errors.append(f"unknown section [{section}]")
            continue
        keys = _SECTION_FIELDS[section]
        if keys is None:
            spec = {}
            for key, val in items:
                if key == "profile":
                    spec[key] = val.strip()
                elif key != "momentum":
                    spec[key] = convert(section, key, float, val)
                elif section == "u0":
                    updates["u0_is_momentum"] = convert(
                        section, key, _FIELD_TYPES["u0_is_momentum"], val)
                else:
                    errors.append("[rho0] momentum: only [u0] takes momentum")
            if spec:      # a section without profile keys keeps the base's profile
                updates[section] = tuple(sorted(spec.items()))
            continue
        for key, val in items:
            if key in keys:
                updates[key] = convert(section, key, _FIELD_TYPES[key], val)
            else:
                errors.append(f"unknown key {key!r} in section [{section}]")
    if errors:
        raise ConfigurationError(errors)
    sc = replace(sc, **updates)
    errors = sc.validate()
    if errors:
        raise ConfigurationError(errors)
    return sc


# ---------------------------------------------------------------------------
# Atomic file output
# ---------------------------------------------------------------------------


def _atomic_write(path, chunks):
    """Write the byte chunks to a temp file beside path, then rename it.
    The file gets the mode a plain open() would give it, 0o666 less the
    umask; mkstemp creates the temp file 0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        umask = os.umask(0)      # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _block_lines(block):
    """The CSV lines of one block of equal-length columns, as bytes.

    An 'S' array column holds cells already formatted.  Every other column
    is numeric: a float64 array, or a list of cells, where a str stands as
    is and None as "nan".  All numeric cells of the block go through one
    floattext.cells call, and the str cells are then written in place.
    """
    cells, numeric, words = list(block), [], {}
    for i, col in enumerate(cells):
        if isinstance(col, np.ndarray) and col.dtype.kind == "S":
            continue
        if not (isinstance(col, np.ndarray) and col.dtype == np.float64):
            col = list(col)
            words[i] = {row: v.encode() for row, v in enumerate(col) if isinstance(v, str)}
            cells[i] = [np.nan if v is None or isinstance(v, str) else float(v) for v in col]
        numeric.append(i)
    if len({len(col) for col in cells}) > 1:
        raise ValueError("the columns of a block differ in length")
    for i, text in zip(numeric, floattext.cells(np.array([cells[i] for i in numeric]))):
        if words.get(i):
            text = text.astype(f"S{max(text.itemsize, *map(len, words[i].values()))}")
            for row, word in words[i].items():
                text[row] = word
        cells[i] = text
    rows = len(cells[0])
    if rows == 0:
        return b""
    # each line as fixed-width NUL-padded cells and separators; then the NULs go
    table = np.zeros((rows, sum(text.itemsize + 1 for text in cells)), dtype=np.uint8)
    end = 0
    for text in cells:
        table[:, end:end + text.itemsize] = text.reshape(rows, 1).view(np.uint8)
        end += text.itemsize + 1
        table[:, end - 1] = ord(",")
    table[:, -1] = ord("\n")
    flat = table.reshape(-1)
    return flat[flat != 0].tobytes()


def write_csv(path, header, blocks):
    """Write a CSV streamed block by block.

    Each block is a sequence of equal-length columns, one per header name:
    a float64 array, a bytes ('S') array of formatted cells, or a list of
    cells (a str as is, None as "nan", anything else as repr(float(v))).
    Every number is written by floattext.cells, byte for byte its repr.
    The file is written one block at a time.
    """
    def chunks():
        yield (",".join(header) + "\n").encode()
        for block in blocks:
            yield _block_lines(block)

    _atomic_write(path, chunks())


def _jsonable(obj):
    """obj in plain JSON types; strict JSON has no token for a non-finite
    float, so one becomes the string "inf", "-inf" or "nan"."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def write_json(path, obj):
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False)
    _atomic_write(path, (text.encode(), b"\n"))


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


class _RunContext:
    """Lazily shared per-run artifacts: the flow, and the deviations of the
    flow identities along it, are computed once."""

    def __init__(self, scenario, grid, params, traj, completed):
        self.scenario = scenario
        self.grid = grid
        self.params = params
        self.traj = traj
        self.completed = completed
        self.identity_rows = {}

    def skip(self, diag):
        """Why diag is skipped: its first _SKIPS row that fails; None if none."""
        return next((detail for diags, holds, detail in _SKIPS
                     if diag in diags and not holds(self)), None)

    @cached_property
    def flow(self):
        return characteristics.evolve_flow(self.traj)

    @cached_property
    def flow_devs(self):
        # m is evaluated along the flow only for an mflow check that runs
        momentum = "mflow" in self.scenario.diagnostics and self.skip("mflow") is None
        return characteristics.check_flow_identities(*self.flow, self.traj, self.params,
                                                     momentum)


def _gate(value, tol, detail, ok=None):
    """Summary of a gated diagnostic: it passes when ok, by default if value < tol."""
    return {
        "status": "pass" if (value < tol if ok is None else ok) else "fail",
        "value": value,
        "tolerance": tol,
        "detail": detail,
    }


def _diag_casimir(ctx, out):
    # validate() rejects casimir with b = 1, where the density is undefined
    series = [characteristics.casimir(RealField(ctx.grid, rho), ctx.params.b)
              for rho in ctx.traj.rho]
    ctx.identity_rows["casimir"] = series
    base = abs(series[0])
    drift = max(abs(c - series[0]) for c in series) / max(base, 1e-300)
    if base == 0.0:
        drift = max(abs(c) for c in series)
    return _gate(drift, 1e-6, "max relative drift of the conserved density integral"), []


def _diag_transport(ctx, out):
    devs = ctx.flow_devs[0]
    ctx.identity_rows["transport_dev"] = devs
    return _gate(float(np.max(devs)), 1e-4, "max deviation of the density transport identity"), []


def _diag_mflow(ctx, out):
    devs = ctx.flow_devs[1]
    ctx.identity_rows["mflow_dev"] = devs
    detail = "max deviation of the momentum balance along the flow"
    return _gate(float(np.max(devs)), 1e-4, detail), []


def _diag_support(ctx, out):
    report = characteristics.check_support_containment(ctx.flow[0], ctx.traj, ctx.params)
    ctx.identity_rows.update(
        supp_left=[s.beta if s else np.nan for s in report.rho_support],
        supp_right=[s.gamma if s else np.nan for s in report.rho_support],
        flow_left=[iv[0] for iv in report.flow_interval_rho],
        flow_right=[iv[1] for iv in report.flow_interval_rho],
    )
    frac = float(np.mean(report.rho_ok & report.m_ok))
    detail = "fraction of snapshots with rho (and m) support contained"
    return _gate(frac, 1.0, detail, report.all_contained), []


def _diag_formulation(ctx, out):
    # five sampled snapshots as one stack through each RHS form, one rfft
    # in and one irfft out, as rhs_m_form evaluates one state
    traj, grid = ctx.traj, ctx.grid
    rows = np.linspace(0, len(traj.times) - 1, 5).astype(int)
    y_hat = np.fft.rfft(traj.y[rows])
    ops = operators(grid, ctx.params.r)
    a, b = (np.fft.irfft(rhs(ops, ctx.params, traj.times[rows, None, None], y_hat), grid.n)
            for rhs in (dynamics._m_form, dynamics._nonlocal))
    scale = np.maximum(np.abs(a).max(axis=-1), 1e-300)
    worst = float(np.max(np.abs(a - b).max(axis=-1) / scale))
    return _gate(worst, 1e-10, "relative sup difference of the two RHS formulations"), []


def _weight_tag(w):
    side = "R" if w.side == "right" else "B"
    return f"a{w.a}_b{w.b}_c{w.c}_d{w.d}_{side}".replace(".", "p")


def _diag_persistence(ctx, out):
    times = ctx.traj.times
    reports = weights.persistence_monitor(ctx.traj, WEIGHT_BATTERY, NORM_PS)
    # the sup norms depend on neither the weight nor p
    m_running = np.maximum.accumulate(reports[WEIGHT_BATTERY[0], math.inf].sup_norms)
    files = []
    for w in WEIGHT_BATTERY:
        reps = [reports[w, p] for p in NORM_PS]
        columns = (
            times,
            *(r.W for r in reps),
            m_running,
            [max(r.residual for r in reps)] * len(times),
        )
        name = f"{ctx.scenario.name}_persistence_{_weight_tag(w)}.csv"
        write_csv(os.path.join(out, name), PERSISTENCE_COLUMNS, [columns])
        files.append(name)
    worst_resid = max(r.residual for r in reports.values())
    ok = all(r.bound_ok for r in reports.values()) and worst_resid < weights.RESIDUAL_TOL
    detail = "worst affine-fit residual of log W_p over the weight battery"
    return _gate(worst_resid, weights.RESIDUAL_TOL, detail, ok), files


def _diag_decay(ctx, out):
    grid, traj = ctx.grid, ctx.traj
    (lo, hi), cols = weights.fit_window(grid, ctx.scenario.decay_window)
    # |u| + |u_x| + |rho| on the window columns only, in C order; u_x of
    # the whole run is dropped before the other columns are taken
    g = np.abs(np.compress(cols, operators(grid).dx(traj.u), axis=-1))
    g += np.abs(np.compress(cols, traj.u, axis=-1))
    g += np.abs(np.compress(cols, traj.rho, axis=-1))
    a_hat, c_hat, residual, _, _ = weights.decay_fits(np.abs(grid.x[cols]), g)
    # columns a_hat, c_hat, window_lo, window_hi, residual; NaN where no fit
    fitted = ~np.isnan(a_hat)
    if not fitted.any():
        raise weights.UndefinedFitError("no snapshot has two usable samples in the fit window")
    bounds = [np.where(fitted, v, np.nan) for v in (lo, hi)]
    name = f"{ctx.scenario.name}_decay.csv"
    write_csv(os.path.join(out, name), DECAY_COLUMNS,
              [(traj.times, a_hat, c_hat, *bounds, residual)])
    min_a = float(a_hat[fitted].min())
    detail = "minimum fitted exponential tail rate over snapshots"
    return _gate(min_a, 0.9, detail, min_a >= 0.9), [name]


def _diag_besov(ctx, out):
    # the blocks of both cutoff styles from one rfft of u(t_final) and one
    # irfft; each block's L2 norm takes its scalar square root, which can
    # round apart from the array power besov_norms takes
    grid = ctx.grid
    styles = ("sharp", "smooth")
    mults = [besov._block_multipliers(grid, style) for style in styles]
    blocks = np.fft.irfft(np.concatenate(mults) * np.fft.rfft(ctx.traj.u[-1]), grid.n)
    sums = grid.dx * np.sum(np.abs(blocks) ** 2.0, axis=-1)
    s = 2.0
    columns = ([], [], [], [])     # style, k, block_norm, weighted_term
    norms = {}
    rows = iter(sums)
    for style, m in zip(styles, mults):
        total = 0.0
        for k in range(-1, len(m) - 1):
            bn = float(next(rows) ** 0.5)
            term = 2.0 ** (k * s) * bn
            total += term**2
            for col, v in zip(columns, (style, k, bn, term)):
                col.append(v)
        norms[style] = math.sqrt(total)
    name = f"{ctx.scenario.name}_besov_u.csv"
    write_csv(os.path.join(out, name), BESOV_COLUMNS, [columns])
    disc = abs(norms["sharp"] - norms["smooth"]) / max(norms["sharp"], 1e-300)
    return {
        "status": "pass",
        "value": disc,
        "tolerance": None,
        "detail": "relative discrepancy between sharp and smooth cutoff norms",
    }, [name]


# name -> fn(ctx, out), looked up at call time: perfbench/spans.py and tests wrap entries
DIAGNOSTICS = {
    "casimir": _diag_casimir,
    "transport": _diag_transport,
    "mflow": _diag_mflow,
    "support": _diag_support,
    "formulation": _diag_formulation,
    "persistence": _diag_persistence,
    "decay": _diag_decay,
    "besov": _diag_besov,
}

# Diagnostics that evolve the flow map, which needs snapshots no coarser
# than four solver steps.
FLOW_DIAGNOSTICS = ("transport", "mflow", "support")

# Why a diagnostic is skipped: rows (diagnostics, holds(ctx), detail) checked in
# order.  An empty rho_0 is the one case check_support_containment raises for.
_SKIPS = (
    (set(DIAGNOSTICS) - {"casimir"}, lambda ctx: ctx.completed, "run ended in blow-up"),
    (("mflow",), lambda ctx: ctx.params.alpha_is_zero(), "requires alpha == 0"),
    (("formulation",), lambda ctx: ctx.params.r == 1.0, "requires r == 1"),
    (("support",), lambda ctx: np.any(ctx.traj.rho[0]),
     "rho_0 has empty support; nothing to contain"),
)


def run_scenario(scenario: Scenario, out_dir: str) -> dict:
    """Execute a scenario, write its data files, and return the manifest."""
    t_start = time.perf_counter()
    grid, params, ctrl, state0 = scenario.build()
    os.makedirs(out_dir, exist_ok=True)

    blowup = None
    outcome = "completed"
    try:
        traj = dynamics.integrate(state0, params, ctrl, scenario.output_times())
    except dynamics.BlowUpError as exc:
        outcome = "blowup"
        blowup = {"t": exc.t, "max_gradient": exc.max_gradient}
        traj = exc.partial if exc.partial is not None and len(exc.partial.times) else None

    files = []
    invariants = {}
    if traj is not None:
        name = f"{scenario.name}_trajectory.csv"
        _write_trajectory_csv(os.path.join(out_dir, name), traj)
        files.append(name)

        ctx = _RunContext(scenario, grid, params, traj, outcome == "completed")
        for diag in scenario.diagnostics:
            if detail := ctx.skip(diag):
                invariants[diag] = {"status": "skipped", "detail": detail}
                continue
            try:
                summary, extra = DIAGNOSTICS[diag](ctx, out_dir)
            except Exception as exc:  # diagnostic failure should not lose the run
                summary = {"status": "error", "error_type": type(exc).__name__,
                           "detail": str(exc)}
                extra = []
            invariants[diag] = summary
            files.extend(extra)

        if ctx.identity_rows:
            name = f"{scenario.name}_identities.csv"
            _write_identity_csv(os.path.join(out_dir, name), traj, ctx.identity_rows)
            files.append(name)

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "code_version": CODE_VERSION,
        "scenario": asdict(scenario),
        "outcome": outcome,
        "blowup": blowup,
        "invariants": invariants,
        "outputs": files,
        "wall_time_s": time.perf_counter() - t_start,
    }
    write_json(os.path.join(out_dir, f"{scenario.name}_manifest.json"), manifest)
    return manifest


def _write_trajectory_csv(path, traj):
    """One block per snapshot; x is formatted once, t once per snapshot."""
    n = traj.grid.n
    x_text = floattext.cells(traj.grid.x)
    blocks = ((np.broadcast_to(t, n), x_text, u, rho, m) for t, u, rho, m
              in zip(floattext.cells(traj.times), traj.u, traj.rho, traj.m))
    write_csv(path, TRAJECTORY_COLUMNS, blocks)


def _write_identity_csv(path, traj, columns):
    times = traj.times
    nan_col = np.full(len(times), np.nan)
    block = (times, *(columns.get(name, nan_col) for name in IDENTITY_COLUMNS[1:]))
    write_csv(path, IDENTITY_COLUMNS, [block])


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def _suite_report(out_dir, suite, checks, **tables):
    """Write and return a suite's report: its tables, its checks as _gate
    summaries, and pass when every check passes."""
    report = {"suite": suite, **tables, "checks": checks,
              "pass": all(c["status"] == "pass" for c in checks.values())}
    write_json(os.path.join(out_dir, f"{suite}_report.json"), report)
    return report


def _integrate(scenario, output_times):
    _, params, ctrl, state0 = scenario.build()
    return dynamics.integrate(state0, params, ctrl, output_times)


def convergence_suite(out_dir):
    """Spatial (grid doubling) and temporal (step halving) error tables."""
    base = replace(
        PRESETS["2cch"],
        name="convergence",
        u0=(("profile", "gaussian"), ("amp", 0.7), ("width", 1.0)),
        rho0=(("profile", "gaussian"), ("amp", 0.5), ("width", 1.0)),
        t_final=0.5,
        snapshots=2,
        diagnostics=(),    # integrated only; the flow diagnostics need snapshots
        dt_max=2e-3,
        cfl=1.0,           # fixed dt: identical steps at every resolution
    )
    out_times = np.array([0.0, base.t_final])

    # the n = 512 spatial run and the temporal runs (dts, then the dt/8
    # oracle) share grid, data and parameters: one ensemble, one dt_max each
    ns = (256, 512, 1024)
    dts = (4e-2, 2e-2, 1e-2)
    _, params, ctrl, state0 = replace(base, n=512).build()
    dt_max = (base.dt_max,) + dts + (dts[-1] / 8.0,)
    at512 = dynamics.integrate_ensemble([state0] * len(dt_max), params, ctrl,
                                        out_times, dt_max)
    trajs = [_integrate(replace(base, n=256), out_times), at512[0],
             _integrate(replace(base, n=1024), out_times)]
    fine = trajs[-1]
    spatial_errs = []
    for n, traj in zip(ns[:-1], trajs[:-1]):
        factor = ns[-1] // n
        err = float(np.max(np.abs(traj.u[-1] - fine.u[-1, ::factor])))
        spatial_errs.append(err)

    drops = [spatial_errs[i] / max(spatial_errs[i + 1], 1e-300)
             for i in range(len(spatial_errs) - 1)]
    # each doubling drops the error 10x, or the finer error is below the floor
    drop, floor = 10.0, 1e-11
    pairs = list(zip(drops, spatial_errs[1:]))
    shortfall = max(min(drop / d, e / floor) for d, e in pairs)
    spatial_ok = all(d >= drop or e < floor for d, e in pairs)

    oracle = at512[-1]
    terrs = [float(np.max(np.abs(traj.u[-1] - oracle.u[-1]))) for traj in at512[1:-1]]
    orders = [math.log2(terrs[i] / terrs[i + 1]) for i in range(len(terrs) - 1)]
    order_dev, order_tol = float(np.max(np.abs(np.subtract(orders, 4.0)))), 0.3

    write_csv(os.path.join(out_dir, "convergence_spatial.csv"), ("n", "sup_error"),
              [(ns[:-1], spatial_errs)])
    write_csv(os.path.join(out_dir, "convergence_temporal.csv"), ("dt", "sup_error"),
              [(dts, terrs)])
    checks = {
        "spatial": _gate(shortfall, 1.0, "worst doubling's min(10/drop, error/1e-11)",
                         spatial_ok),
        "temporal": _gate(order_dev, order_tol, "max |temporal order - 4|",
                          order_dev <= order_tol),
    }
    return _suite_report(
        out_dir, "convergence", checks,
        spatial={"n": list(ns[:-1]), "sup_error": spatial_errs, "drops": drops},
        temporal={"dt": list(dts), "sup_error": terrs, "orders": orders},
    )


def _stability_dataset(grid, seed):
    from .profiles import band_limited_noise, gaussian

    if seed == 0:
        return gaussian(grid, 0.6, 2.0), gaussian(grid, 0.4, 1.5)
    if seed == 1:
        u = RealField(grid, gaussian(grid, 0.5, 1.5, -3.0).samples
                      + gaussian(grid, 0.4, 2.0, 3.0).samples)
        return u, gaussian(grid, 0.4, 2.0, 1.0)
    return (
        band_limited_noise(grid, seed=seed, kmax_frac=0.08, amp=0.5),
        band_limited_noise(grid, seed=seed + 100, kmax_frac=0.08, amp=0.3),
    )


def stability_suite(out_dir):
    """Paired-run continuous dependence: linearity in eps and a shared C."""
    eps_list, s = (1e-2, 1e-3, 1e-4), 3.0
    grid = Grid(20.0, 256)
    params = dynamics.Params(b=2.0, kappa=1.0, alpha=0.0, r=1.0)
    ctrl = dynamics.StepControl(cfl=1.0, dt_max=2e-3, t_final=0.3)
    out_times = np.linspace(0.0, ctrl.t_final, 16)
    pert = RealField(grid, np.cos(3 * np.pi * grid.x / grid.L))
    nrm = besov.besov_norm(pert, besov.BesovIndex(s - 1.0))
    pert = RealField(grid, pert.samples / nrm)

    datasets = [_stability_dataset(grid, seed) for seed in (0, 1, 2)]
    results = dynamics.stability_pairs(
        datasets, pert, eps_list, params, ctrl, s=s, output_times=out_times
    )

    fit_res = results[0]
    ratios = fit_res.sup_du / fit_res.eps
    spread, spread_tol = float(np.max(ratios) / np.min(ratios)) - 1.0, 0.2

    def growth(res):
        """(du(t)/du(0), Gamma(t)) at each t > 0 of each series with du(0) > 0."""
        gi = res.gamma_integral()
        return [(series[i] / series[0], gi[i]) for series in res.du_series
                for i in range(1, len(series)) if series[0] > 0]

    # Fit the growth constant on dataset 0, with a 1.5 margin; validate the
    # exponential bound on the held-out datasets with the same constant.
    c_hat = max([0.0] + [math.log(q) / g for q, g in growth(fit_res) if g > 0]) * 1.5
    held_out = [pair for res in results[1:] for pair in growth(res)]
    validated = all(q <= math.exp(c_hat * g) for q, g in held_out)
    share = max(math.log(q) / g for q, g in held_out if g > 0) / c_hat

    write_csv(os.path.join(out_dir, "stability_table.csv"), ("eps", "sup_du", "sup_drho"),
              [(fit_res.eps, fit_res.sup_du, fit_res.sup_drho)])
    checks = {
        "linearity": _gate(spread, spread_tol, "max/min - 1 of sup_du/eps",
                           spread <= spread_tol),
        "heldout": _gate(share, 1.0, "worst held-out log(du(t)/du(0))/Gamma(t) over C_hat",
                         validated),
    }
    return _suite_report(out_dir, "stability", checks, eps=list(map(float, fit_res.eps)),
                         sup_du=fit_res.sup_du.tolist(),
                         linearity_ratios=(ratios / ratios[0]).tolist(), C_hat=c_hat)


def persistence_suite(out_dir):
    """Weight battery persistence with an L-doubling truncation control."""
    # sech data: its exp(-|x|) tails match what the dynamics sustains, so
    # the weighted norms evolve smoothly instead of through a data transient.
    sc = replace(
        PRESETS["2cch"],
        name="persistence",
        L=80.0, n=4096,
        u0=(("profile", "sech"), ("amp", 0.6), ("width", 1.2)),
        rho0=(("profile", "gaussian"), ("amp", 0.4), ("width", 2.0)),
        snapshots=11,
        diagnostics=("persistence",),
    )
    sc2 = replace(sc, name="persistence_Lx2", L=160.0, n=8192)
    traj, traj2 = (_integrate(s, s.output_times()) for s in (sc, sc2))

    shift_tol = 0.01    # the relative W_p shift allowed when L and n double
    # weight, p, C_hat, fit_residual, L_doubling_shift, status
    columns = ([], [], [], [], [], [])
    reports, reports2 = (weights.persistence_monitor(t, WEIGHT_BATTERY, NORM_PS)
                         for t in (traj, traj2))
    for (w, p), rep in reports.items():
        rep2 = reports2[w, p]
        with np.errstate(divide="ignore", invalid="ignore"):
            shift = float(np.max(np.abs(rep.W - rep2.W)
                                 / np.maximum(np.abs(rep.W), 1e-300)))
        ok = rep.bound_ok and rep.residual < weights.RESIDUAL_TOL and shift <= shift_tol
        row = (_weight_tag(w), "inf" if math.isinf(p) else p,
               rep.C_hat, rep.residual, shift, "pass" if ok else "fail")
        for col, v in zip(columns, row):
            col.append(v)
    write_csv(
        os.path.join(out_dir, "persistence_battery.csv"),
        ("weight", "p", "C_hat", "fit_residual", "L_doubling_shift", "status"),
        [columns],
    )
    bound_ok = [rep.bound_ok for rep in reports.values()]
    worst_resid, worst_lshift = (float(np.max(col)) for col in columns[3:5])
    checks = {
        "bound": _gate(float(np.mean(bound_ok)), 1.0,
                       "fraction of (weight, p) pairs within the growth bound", all(bound_ok)),
        "residual": _gate(worst_resid, weights.RESIDUAL_TOL,
                          "worst affine-fit residual of log W_p over the battery"),
        "L_doubling": _gate(worst_lshift, shift_tol,
                            "worst relative W_p shift when L and n double",
                            worst_lshift <= shift_tol),
    }
    return _suite_report(out_dir, "persistence", checks, worst_fit_residual=worst_resid,
                         worst_L_doubling_shift=worst_lshift)


def friedrichs_suite(out_dir):
    """Geometric convergence of the linear-transport iteration."""
    K, s = 6, 3.0
    grid = Grid(20.0, 256)
    from .profiles import gaussian

    u0 = gaussian(grid, 0.6, 1.5)
    rho0 = gaussian(grid, 0.4, 1.5)
    params = dynamics.Params(b=2.0, kappa=1.0, alpha=0.0, r=1.0)
    ctrl = dynamics.StepControl(cfl=1.0, dt_max=5e-4, t_final=0.1)
    iterates = dynamics.friedrichs_iterate(u0, rho0, params, K, ctrl)
    direct = dynamics.integrate(
        dynamics.State(0.0, u0, rho0), params, ctrl, output_times=iterates[1].times,
    )
    idx = besov.BesovIndex(s - 1.0)
    errs = []
    chunk = 16   # rows per norm call and per difference; all rows at once cost memory
    for k in range(1, K + 1):
        u = iterates[k].u
        errs.append(max(
            float(besov.besov_norms(grid, u[i:i + chunk] - direct.u[i:i + chunk], idx).max())
            for i in range(0, len(u), chunk)
        ))
    ratios = [errs[k] / errs[k - 1] for k in range(1, len(errs))]
    write_csv(os.path.join(out_dir, "friedrichs_errors.csv"), ("k", "error"),
              [(range(1, K + 1), errs)])
    checks = {"contraction": _gate(float(np.max(ratios[1:])), 0.8,
                                   "max error ratio between iterates 2..K")}
    return _suite_report(out_dir, "friedrichs", checks, errors=errs, ratios=ratios)


SUITES = {
    "convergence": convergence_suite,
    "stability": stability_suite,
    "persistence": persistence_suite,
    "friedrichs": friedrichs_suite,
}


def run_suite(name: str, out_dir: str, workers=1) -> dict:
    """Run a named suite in this process.  ``workers`` accepts only 1; it is
    kept for callers that still pass it."""
    if name not in SUITES:
        raise ConfigurationError(
            [f"unknown suite {name!r}; choose from {sorted(SUITES)}"]
        )
    if workers != 1:
        raise ConfigurationError(
            [f"suites run in one process: workers must be 1, got {workers!r}"]
        )
    return SUITES[name](out_dir)
