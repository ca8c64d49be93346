"""Batch front end: config-driven pipelines emitting CSV artifacts.

Config files are line-oriented ``section.key = value`` text with ``#``
comments; unknown sections or keys are rejected.  ``_KEYS`` gives each key
its type, its default and any range of its own; ``RunConfig.validate``
checks every key against its range, naming the key, then makes the checks
that join keys or read the model.  Every run either
completes all its artifacts or removes the partial ones, and failures
print a single machine-parsable line (CONFIG_INVALID, IO_ERROR,
TOLERANCE_EXCEEDED, AUDIT_VIOLATIONS, RUNTIME_FAILURE) to stderr.
Outputs carry no timestamps and print floats via repr, so reruns with the
same config and seed are bit-identical.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

import numpy as np

from .core import Quadrature, QuadratureError, audit_conditions
from .kou import GaussianBump, KouSpec, LinearKouTriplet, _axis_resolution, build_field, fourier_reference
from .pide import SpatialGrid, _landings, _preflight, _step, restart, solve
from .simulate import CHUNK, mc_lower_bound
from .transform import exponential_tails, power_tails, quantile_k, verify_transport

__all__ = ["RunConfig", "entry", "main", "parse_config"]

# Largest Monte Carlo run accepted, in paths x Euler steps: 100x the default
# run, so a mistyped mc.dt or mc.paths fails at once instead of after days.
# Paths count as at least one simulate.CHUNK: the simulator keeps tables per
# step whatever the path count, so few paths do not buy unbounded steps.
MC_PATH_STEPS_MAX = 10**9

# Largest PIDE march accepted, in (steps + 1) x nx node-steps: solve's march at
# pide.cfl_safety, counted with dpp-check's landing at T/2, and dpp-check's
# restart at dpp.restart_safety are each held to it.  The nx=3201 march (27.4M)
# fits, and the default run has 290,763.
MARCH_NODE_STEPS_MAX = 3 * 10**7

# Largest control grid accepted.  Its cost grows with the controls: at 1,000,
# validate takes 0.2-0.3 s at the default audit budget and about 1 s at the
# audit-table cap, and simulate (10 values an axis, 400 paths, dt 0.01)
# 0.38-0.51 s on 2 cores; at 1e6, the audit alone ran for 4 minutes.
CONTROLS_MAX = 1000

# Largest share of the jump mass the window [-pide.z_cut, pide.z_cut] may miss.
# The march drops the jumps outside it, so a window that holds almost none of
# the mass gives a value far off (u(T, 0) = 0.911 at z_cut = 1e-300 against
# 0.451 at the default 10, which misses 4.5e-5): every z_cut below 9.21 misses
# more than this on the config's double-exponential law.
WINDOW_TAIL_MAX = 1e-4

# Largest audit table accepted, in audit.sample_budget x pide.nz entries.  It
# bounds the audit table and, through pide.nz, the jump quadrature too, whose
# Simpson rule forms arrays of nz nodes.  The config's constant bounds give
# state-free jump tables, which the audit checks on one row each.  Peak resident
# sizes of the process: at the cap with the default nz (9,975 x 401) the validate
# subcommand peaks at 37 MiB with 1 or 1,000 controls (36 MiB at the default
# 64 x 401).  At 1 x 4e6, the same product, the quadrature dominates:
# RunConfig.field() alone peaks at 233 MiB, RunConfig.validate at 245 MiB and
# the validate subcommand, with its audit, at 372 MiB.  A state-dependent table,
# which the API accepts, forms (budget, nodes) arrays: about 250 MiB at the cap.
AUDIT_TABLE_MAX = 4 * 10**6

# Largest PIDE envelope accepted, in the entries pide._preflight counts from the
# coefficient reads before the envelope is built: the drift, ca and jump rows, the
# compensator rows its build forms (the envelope holds none), the conv block, each
# gather table's three (nx, nz) arrays, the three rows the policy march picks with
# and the step's bound calls, counted for every subcommand.
# Peak resident sizes at 3e7 entries, a fifth of the cap, less the 36-46 MiB a
# process holds without the envelope: solve and simulate took up to 2.5 B per
# entry with 1,000 drift values, 6.6 B with 1,000 intensities, 7.8 B with 1,000
# variance values and 5.3 B on a 10 x 10 x 10 grid.  With one control
# (nx = 1,152,000) simulate took 8.2 B and solve 12-14 B, most of it u.csv's
# text while its writer held a whole row's (about 210 B a node); the writer holds
# one chunk's now, and solve's figure has not been taken again.
ENVELOPE_ENTRIES_MAX = 15 * 10**7

# Largest fourier.n_xi accepted: fourier-check holds about 79 B per frequency,
# 100 MiB at the cap (31 MiB at the default 4,097).
FOURIER_N_XI_MAX = 10**6

# Largest transform.n_points accepted: each point pays for two quantile
# bisections: the transform run takes 0.3-0.6 s at the cap (default 41).
TRANSFORM_POINTS_MAX = 10**4


class ConfigError(ValueError):
    """Config text failed parsing or semantic validation."""


def _floats(raw: str):
    return tuple(float(v) for v in raw.split(",") if v.strip() != "")


_POSITIVE = (lambda v: v > 0, "> 0")
_UNIT = (lambda v: 0 < v <= 1, "in (0, 1]")


def _closed(lo, hi=math.inf):
    """The (test, wording) pair of the range [lo, hi]."""
    return (lambda v: lo <= v <= hi), (f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]")


# a seed reaches numpy's SeedSequence, which takes no negative entropy
_SEED = _closed(0)

# each key's type (a converter, or the tuple of allowed strings), its default and,
# for a key with a range of its own, that range as a (test, wording) pair
_KEYS = {
    "model": {
        "b_lo": (float, 0.05), "b_hi": (float, 0.05), "a_lo": (float, 0.2), "a_hi": (float, 0.2),
        "lam_lo": (float, 1.5), "lam_hi": (float, 1.5), "lam_star": (float, 1.5),
        "lam_floor": (float, 0.5),
    },
    "control": {"resolution": (int, 2, _closed(1))},
    "pide": {
        "x_min": (float, -10.0), "x_max": (float, 10.0), "nx": (int, 801, _closed(3)),
        "t_horizon": (float, 1.0, _POSITIVE), "cfl_safety": (float, 0.9, _UNIT),
        "z_cut": (float, 10.0, _POSITIVE), "nz": (int, 401, _closed(3)),
    },
    "psi": {"kind": (("gaussian", "tanh", "constant"), "gaussian"), "amplitude": (float, 1.0),
            "center": (float, 0.0), "width": (float, 1.0, _POSITIVE)},
    "mc": {"paths": (int, 10000, _closed(2)), "dt": (float, 1e-3, _POSITIVE),
           "seed": (int, 12345, _SEED), "tolerance": (float, 1e-2, _POSITIVE)},
    "fourier": {"check_points": (_floats, (-1.0, 0.0, 1.0), (bool, "a nonempty list")),
                "tolerance": (float, 1e-2, _POSITIVE),
                "n_xi": (int, 4097, _closed(3, FOURIER_N_XI_MAX)),
                "xi_max": (float, 0.0, _closed(0))},
    "dpp": {"tolerance": (float, 2e-2, _POSITIVE), "restart_safety": (float, 0.45, _UNIT),
            "inner_fraction": (float, 0.6, _UNIT)},
    "transform": {
        "family": (("exponential", "power"), "exponential"), "lam": (float, 1.0),
        "lam_star": (float, 2.0), "alpha": (float, 1.5), "c_target": (float, 1.0),
        "c_reference": (float, 2.0), "y_abs_min": (float, 0.05, _POSITIVE),
        "y_abs_max": (float, 4.0), "n_points": (int, 41, _closed(1, TRANSFORM_POINTS_MAX)),
        "tol": (float, 1e-9, _POSITIVE),
        "thresholds": (_floats, (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0),
                       (lambda v: bool(v) and all(v), "a nonempty list of nonzero values")),
        "tolerance": (float, 1e-6, _POSITIVE), "z_max": (float, 1e6, _POSITIVE),
    },
    "audit": {"sample_budget": (int, 64, _closed(1)), "seed": (int, 0, _SEED)},
    "output": {"directory": (str, "out")},
}


class RunConfig:
    """Validated, typed view of the config sections."""

    def __init__(self, values: dict):
        self.values = values

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    def set_entry(self, section: str, key: str, raw: str) -> None:
        if section not in _KEYS:
            raise ConfigError(f"unknown section {section!r}")
        if key not in _KEYS[section]:
            raise ConfigError(f"unknown key {section}.{key}")
        conv = _KEYS[section][key][0]
        value = raw
        if isinstance(conv, tuple):
            if raw not in conv:
                raise ConfigError(f"{section}.{key} must be one of {conv}, got {raw!r}")
        elif conv is not str:
            try:
                value = conv(raw)
            except (ValueError, TypeError) as e:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from e
            values = value if isinstance(value, tuple) else (value,)
            # nan passes every `x > tol` gate as False, so it must not get in
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{section}.{key} must be finite, got {raw!r}")
        self.values[section][key] = value

    def validate(self) -> None:
        for section, keys in _KEYS.items():
            for key, (_, _, *accepted) in keys.items():
                value = self[section][key]
                for test, wording in accepted:
                    if not test(value):
                        raise ConfigError(f"{section}.{key} must be {wording}, got {value!r}")
        p = self["pide"]
        if not p["x_min"] < p["x_max"]:
            raise ConfigError("pide.x_min must be below pide.x_max")
        # the field's controls, counted before it is built
        n_controls = math.prod(_axis_resolution(self.kou_spec(), self["control"]["resolution"]))
        if n_controls > CONTROLS_MAX:
            raise ConfigError(f"control.resolution gives {n_controls} controls, over {CONTROLS_MAX}; "
                              "lower it or collapse a model interval")
        m = self["mc"]
        # the simulator's step count is max(1, round(T/dt)); a tiny dt overflows the round
        steps = p["t_horizon"] / m["dt"]
        paths = max(m["paths"], CHUNK)
        if steps > MC_PATH_STEPS_MAX or paths * max(1, round(steps)) > MC_PATH_STEPS_MAX:
            raise ConfigError(f"max(mc.paths, {CHUNK}) x Euler steps exceeds {MC_PATH_STEPS_MAX:.0e}")
        t = self["transform"]
        if not t["y_abs_min"] < t["y_abs_max"]:
            raise ConfigError("transform.y_abs_min must be below transform.y_abs_max")
        if t["family"] == "exponential" and not 0 < t["lam"] <= t["lam_star"]:
            raise ConfigError("need 0 < transform.lam <= transform.lam_star")
        if t["family"] == "power":
            if not min(t["alpha"], t["c_target"], t["c_reference"]) > 0:
                raise ConfigError("transform.alpha, c_target and c_reference must be positive")
            # z**-alpha and c * z**-alpha must stay finite floats at the smallest
            # argument a run evaluates: the quantile probe, a mark or a threshold
            z = min(t["tol"], 1e-9, t["y_abs_min"], *map(abs, t["thresholds"]))
            log_c = max(0.0, math.log(t["c_target"]), math.log(t["c_reference"]))
            if log_c - t["alpha"] * math.log(z) >= math.log(sys.float_info.max):
                raise ConfigError(f"power-law tails c * |z|**-alpha overflow at z = {z!r}")
        if self["audit"]["sample_budget"] * p["nz"] > AUDIT_TABLE_MAX:
            raise ConfigError(f"audit.sample_budget x pide.nz exceeds {AUDIT_TABLE_MAX:.0e}; lower either")
        try:
            # builds the field, so the spec is checked, then reads the march's CFL
            # denominator and the envelope's size once, its reads checking the jump
            # quadrature first, building no envelope, for the CFL steps of its marches:
            # solve's, landing at T/2 as dpp-check's direct solve does (never fewer steps
            # than without), and dpp-check's restart over the second half of the horizon
            field = self.field()
            # the config's jump rate is positive, so is its mass
            missed = field.reference.tail_mass_outside_window() / field.reference.total_mass
            if missed > WINDOW_TAIL_MAX:
                raise ConfigError(f"pide.z_cut must hold all but {WINDOW_TAIL_MAX:g} of the jump mass, got "
                                  f"{p['z_cut']!r}, which misses {missed:.3g} of it")
            denom, entries, _ = _preflight(field, self.grid())
            T = p["t_horizon"]
            marches = [  # (name, horizon, checkpoints, its safety key, its CFL step)
                (name, horizon, stops, key, _step(denom, value, 1.0))
                for name, horizon, stops, key, value in (
                    ("the march", T, (0.5 * T,), "pide.cfl_safety", p["cfl_safety"]),
                    ("dpp-check's restart march", 0.5 * T, (), "dpp.restart_safety",
                     self["dpp"]["restart_safety"]),
                )
            ]
        except (ValueError, QuadratureError) as e:
            raise ConfigError(str(e)) from e
        if entries > ENVELOPE_ENTRIES_MAX:
            raise ConfigError(f"the PIDE envelope would hold {entries} entries, over {ENVELOPE_ENTRIES_MAX:.2g}; "
                              "lower pide.nx, pide.nz or control.resolution")
        for name, horizon, stops, key, dt in marches:
            # solve's step count; a horizon over the cap in steps is rejected before
            # the count, whose ceil would overflow at an infinite ratio
            if (horizon / dt > MARCH_NODE_STEPS_MAX
                    or (sum(n for _, n in _landings(horizon, stops, dt)) + 1) * p["nx"]
                    > MARCH_NODE_STEPS_MAX):
                raise ConfigError(f"{name} exceeds {MARCH_NODE_STEPS_MAX:.0e} node-steps, (steps + 1) x "
                                  f"pide.nx; lower pide.nx or pide.t_horizon, or raise {key}")

    def kou_spec(self) -> KouSpec:
        m = self["model"]
        return KouSpec(
            b_lo=m["b_lo"], b_hi=m["b_hi"], a_lo=m["a_lo"], a_hi=m["a_hi"],
            lam_lo=m["lam_lo"], lam_hi=m["lam_hi"],
            lam_star=m["lam_star"], lam_floor=m["lam_floor"],
        )

    def field(self):
        p = self["pide"]
        return build_field(
            self.kou_spec(),
            self["control"]["resolution"],
            z_cut=p["z_cut"],
            nz=p["nz"],
            state_box=(p["x_min"], p["x_max"]),
        )

    def grid(self) -> SpatialGrid:
        p = self["pide"]
        return SpatialGrid(x_min=p["x_min"], x_max=p["x_max"], nx=p["nx"])

    def psi(self):
        s = self["psi"]
        if s["kind"] == "gaussian":
            return GaussianBump(s["amplitude"], s["center"], s["width"]).value
        if s["kind"] == "tanh":
            amp, c, w = s["amplitude"], s["center"], s["width"]
            return lambda x: amp * np.tanh((np.asarray(x, dtype=float) - c) / w)
        amp = s["amplitude"]
        return lambda x: amp + 0.0 * np.asarray(x, dtype=float)


def _apply_entry(cfg: RunConfig, entry: str, where: str) -> None:
    """Apply one ``section.key = value`` entry; errors name ``where`` it came from."""
    lhs, eq, rhs = (part.strip() for part in entry.partition("="))
    section, dot, key = lhs.partition(".")
    try:
        if not eq:
            raise ConfigError(f"expected 'section.key = value', got {entry!r}")
        if not dot:
            raise ConfigError(f"key {lhs!r} missing section prefix")
        cfg.set_entry(section.strip(), key.strip(), rhs)
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}") from e


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig({s: {k: spec[1] for k, spec in keys.items()} for s, keys in _KEYS.items()})
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if line:
            _apply_entry(cfg, line, f"line {lineno}")
    return cfg


class _Artifacts:
    """Tracks written files so failed runs can remove partial output."""

    def __init__(self, outdir: str | None):
        self.outdir = outdir
        self.written: list = []

    def path(self, name: str) -> str:
        """Register an artifact before anything is written to it."""
        path = os.path.join(self.outdir, name)
        self.written.append(path)
        return path

    def write(self, name: str, content: str) -> str:
        path = self.path(name)
        with open(path, "w") as fh:
            fh.write(content)
        return path

    def cleanup(self) -> None:
        for path in self.written:
            try:
                os.unlink(path)
            except OSError:
                pass


def _csv(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _meta_text(metadata: dict) -> str:
    lines = []
    for key in sorted(metadata):
        val = metadata[key]
        if isinstance(val, float):
            val = repr(val)
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def _run_solve(cfg: RunConfig, art: _Artifacts):
    p = cfg["pide"]
    fieldU = solve(cfg.field(), cfg.psi(), p["t_horizon"], cfg.grid(), p["cfl_safety"])
    fieldU.write_csv(art.path("u.csv"))
    art.write("meta.txt", _meta_text(fieldU.metadata))
    return 0, None


def _run_simulate(cfg: RunConfig, art: _Artifacts):
    p, m = cfg["pide"], cfg["mc"]
    T = p["t_horizon"]
    field = cfg.field()
    psi = cfg.psi()
    fieldU = solve(field, psi, T, cfg.grid(), p["cfl_safety"], policy=True)
    mean, stderr, pide_value = mc_lower_bound(
        field, fieldU, psi, 0.5 * (p["x_min"] + p["x_max"]), T,
        m["dt"], m["paths"], m["seed"],
    )
    art.write("mc.csv", _csv("mean,stderr,pide_value", [(mean, stderr, pide_value)]))
    # the worst-case model map: each control's share of the march's (t, x) cells
    rows = zip(field.control_grid.points, fieldU.policy.shares.tolist())
    art.write("policy.csv", "control,f_b,f_a,f_lam,share\n" + "".join(
        f"{i},{','.join(map(repr, f))},{share!r}\n" for i, (f, share) in enumerate(rows)))
    slack = 3.0 * stderr + m["tolerance"]
    if mean > pide_value + slack:
        return 1, f"TOLERANCE_EXCEEDED: mc mean {mean!r} above pide {pide_value!r} + {slack!r}"
    if cfg.kou_spec().degenerate and abs(mean - pide_value) > slack:
        return 1, f"TOLERANCE_EXCEEDED: degenerate mc mean {mean!r} vs pide {pide_value!r}"
    return 0, None


def _run_validate(cfg: RunConfig, art: _Artifacts):
    a = cfg["audit"]
    audit = audit_conditions(cfg.field(), a["sample_budget"], a["seed"])
    lines = [
        f"passed = {audit.passed}",
        f"lipschitz_constant_estimate = {audit.lipschitz_constant_estimate!r}",
        f"sup_drift_dispersion = {audit.sup_drift_dispersion!r}",
        f"sup_jump_moment = {audit.sup_jump_moment!r}",
        f"coefficient_bound = {audit.coefficient_bound!r}",
        f"n_violations = {len(audit.violations)}",
    ]
    for kind, witness in audit.violations:
        lines.append(f"violation = {kind} {witness}")
    art.write("audit.txt", "\n".join(lines) + "\n")
    if not audit.passed:
        return 1, f"AUDIT_VIOLATIONS: n={len(audit.violations)}"
    return 0, None


def _run_fourier_check(cfg: RunConfig, art: _Artifacts):
    spec = cfg.kou_spec()
    if not spec.degenerate:
        raise ConfigError("fourier-check needs a degenerate model (collapsed intervals)")
    if cfg["psi"]["kind"] != "gaussian":
        raise ConfigError("fourier-check needs psi.kind = gaussian")
    p, f = cfg["pide"], cfg["fourier"]
    T = p["t_horizon"]
    s = cfg["psi"]
    bump = GaussianBump(s["amplitude"], s["center"], s["width"])
    field = cfg.field()
    fieldU = solve(field, bump.value, T, cfg.grid(), p["cfl_safety"])
    triplet = LinearKouTriplet(b=cfg["model"]["b_lo"], a=cfg["model"]["a_lo"],
                               lam=cfg["model"]["lam_lo"])
    xi_max = f["xi_max"] if f["xi_max"] > 0 else None
    rows = []
    worst = 0.0
    for x0 in f["check_points"]:
        pv = float(fieldU.terminal_value(x0))
        fv = fourier_reference(triplet, bump, T, x0, xi_max=xi_max, n_xi=f["n_xi"])
        rows.append((x0, pv, fv, pv - fv))
        worst = max(worst, abs(pv - fv))
    art.write("fourier.csv", _csv("x0,pide,fourier,diff", rows))
    if worst > f["tolerance"]:
        return 1, f"TOLERANCE_EXCEEDED: fourier diff {worst!r} > {f['tolerance']!r}"
    return 0, None


def _run_transform(cfg: RunConfig, art: _Artifacts):
    t = cfg["transform"]
    if t["family"] == "exponential":
        tails = exponential_tails(t["lam"], t["lam_star"])
    else:
        tails = power_tails(t["alpha"], t["c_target"], t["c_reference"])
    ys_pos = np.geomspace(t["y_abs_min"], t["y_abs_max"], t["n_points"])
    ys = np.concatenate([-ys_pos[::-1], ys_pos])
    rows = [(y, quantile_k(tails, float(y), t["tol"], z_max=t["z_max"])) for y in ys]
    art.write("k.csv", _csv("y,k", rows))
    quad = Quadrature(nodes=ys, weights=np.zeros_like(ys), z_cut=float(t["y_abs_max"]))
    err = verify_transport(tails, quad, t["thresholds"], tol=t["tol"], z_max=t["z_max"])
    if err > t["tolerance"]:
        return 1, f"TOLERANCE_EXCEEDED: transport error {err!r} > {t['tolerance']!r}"
    return 0, None


def _run_dpp_check(cfg: RunConfig, art: _Artifacts):
    p, d = cfg["pide"], cfg["dpp"]
    T = p["t_horizon"]
    field = cfg.field()
    grid = cfg.grid()
    direct = solve(field, cfg.psi(), T, grid, p["cfl_safety"], checkpoints=(0.5 * T,))
    two_step = restart(direct, field, 0.5 * T, 0.5 * T, safety=d["restart_safety"])
    mask = grid.inner_mask(d["inner_fraction"])
    xs = grid.xs()[mask]
    u_direct = direct.values[-1][mask]
    u_restart = two_step.values[-1][mask]
    rows = list(zip(xs, u_direct, u_restart, u_direct - u_restart))
    art.write("dpp.csv", _csv("x,u_direct,u_restart,diff", rows))
    worst = float(np.max(np.abs(u_direct - u_restart)))
    if worst > d["tolerance"]:
        return 1, f"TOLERANCE_EXCEEDED: dpp gap {worst!r} > {d['tolerance']!r}"
    return 0, None


_RUNNERS = {
    "solve": _run_solve,
    "simulate": _run_simulate,
    "validate": _run_validate,
    "fourier-check": _run_fourier_check,
    "transform": _run_transform,
    "dpp-check": _run_dpp_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sublevy",
        description="Robust jump-diffusion semigroup pipelines (solve, simulate, checks).",
    )
    parser.add_argument("subcommand", choices=_RUNNERS)
    parser.add_argument("--config", default=None, help="path to a section.key = value config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override section.key=value (repeatable)")
    parser.add_argument("--out", default=None, help="output directory (overrides output.directory)")
    parser.add_argument("--seed", type=int, default=None, help="override mc.seed and audit.seed")
    args = parser.parse_args(argv)

    art = _Artifacts(args.out)
    try:
        text = ""
        if args.config is not None:
            with open(args.config) as fh:
                text = fh.read()
        cfg = parse_config(text)
        for item in args.overrides:
            _apply_entry(cfg, item, "--set")
        if args.seed is not None:
            cfg["mc"]["seed"] = cfg["audit"]["seed"] = args.seed
        cfg.validate()
        if art.outdir is None:
            art.outdir = cfg["output"]["directory"]
        os.makedirs(art.outdir, exist_ok=True)
        code, message = _RUNNERS[args.subcommand](cfg, art)
    except Exception as e:
        art.cleanup()
        if isinstance(e, ConfigError):
            tag, code = "CONFIG_INVALID", 2
        elif isinstance(e, OSError):
            tag, code = "IO_ERROR", 2
        else:
            tag, code = f"RUNTIME_FAILURE: {type(e).__name__}", 3
        print(f"{tag}: {e}", file=sys.stderr)
        return code
    if code != 0:
        print(message, file=sys.stderr)
        return code
    for path in art.written:
        print(f"wrote {path}")
    return 0


def entry() -> None:
    """Process entry of ``python -m sublevy.cli`` and the ``sublevy`` script.

    Runs ``main`` and exits with its code.  ``gc.freeze()`` first moves every
    live object out of the collector's reach, so the exit skips a last sweep
    over numpy's and argparse's objects (about 30 ms).  ``main`` itself never
    freezes, as tests and library callers run it in-process.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
