"""Flat dotted-key configuration: `key = value` lines, arrays in
brackets, `#` comments. Unknown keys are rejected with the line number."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cost import BarrierSpec, CostSpec
from .critic import LearnerGains
from .errors import ConfigError
from .integrate import _edge
from .model import CircularSafeSet, SystemModel, single_integrator
from .qpsolve import QpParams
from .sim import SimConfig, check_start
from .staf import StaFConfig

DEFAULTS = {
    "system.kind": "single_integrator",
    "system.A": None,
    "system.B": None,
    "safeset.center": [2.0, 2.0],
    "safeset.radius": 1.0,
    "cost.Q": [1.0, 0.0, 0.0, 1.0],
    "cost.r_diag": [10.0, 10.0],
    "cost.u_max": 0.5,
    "barrier.k_p": 15.0,
    "staf.offsets": [[0.0, -1.0], [0.866, -0.5], [-0.866, -0.5]],
    "gains.kc1": 0.05,
    "gains.kc2": 0.75,
    "gains.ka1": 0.75,
    "gains.nu": 1.0,
    "gains.beta": 0.001,
    "gains.N": 1,
    "gains.seed": 0,
    "qp.p": 2.0,
    "qp.dt": 0.01,
    "qp.alpha_scale": 1.0,
    "qp.gamma_scale": 10.0,
    "sim.t_final": 25.0,
    "sim.x0": [3.0, 3.5],
    "sim.tol": 1e-6,
    "sim.dt_out": 0.01,
    "sim.controller": "adp",
}


def parse_config(path):
    """Read a config file into a key -> value dict (defaults applied)."""
    values = dict(DEFAULTS)
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse_value(val, key, path, lineno)
    return values


def _parse_value(val, key, path, lineno):
    try:
        return ast.literal_eval(val)
    except (ValueError, SyntaxError):
        if isinstance(DEFAULTS[key], str) and all(c.isalnum() or c in "._-" for c in val):
            return val
        raise ConfigError(f"{path}:{lineno}: cannot parse value for {key!r}: {val!r}")


def _holds_bool(val):
    """Whether val is a boolean or holds one at any depth."""
    if isinstance(val, np.ndarray):
        val = val.tolist()
    if isinstance(val, (list, tuple)):
        return any(map(_holds_bool, val))
    return isinstance(val, (bool, np.bool_))


def _coerce(key, val):
    """Convert val to the type of the key's default; lists become float
    arrays, and so does a value other than None of a key whose default is
    None (system.A and system.B). A boolean, alone or in an array, is not
    a number, and a number that is not finite (nan, inf, or a literal such
    as 1e999) is rejected."""
    default = DEFAULTS[key]
    if default is None and val is None:
        return None
    kind = list if default is None else type(default)
    if kind is not str and _holds_bool(val):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {val!r}: "
                          "a boolean is not a number")
    try:
        out = np.asarray(val, float) if kind is list else kind(val)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {val!r}") from None
    if kind is int and out != val:
        raise ConfigError(f"{key}: expected an integer, got {val!r}")
    # system.A and system.B are checked for finite entries by SystemModel
    if default is not None and kind in (float, list) and not np.isfinite(out).all():
        raise ConfigError(f"{key}: expected finite values, got {val!r}")
    return out


@dataclass
class Scenario:
    """Everything one episode needs, assembled from a config dict."""

    system: SystemModel
    safeset: CircularSafeSet
    cost: CostSpec
    barrier: BarrierSpec
    staf: StaFConfig
    gains: LearnerGains
    qp: QpParams
    sim: SimConfig


def _system(kind, A, B):
    if kind == "linear":
        if A is None or B is None:
            raise ConfigError("system.kind = linear requires system.A and system.B")
        return SystemModel(A, B)
    if kind != "single_integrator":
        raise ConfigError(f"unknown system.kind {kind!r}")
    if A is not None or B is not None:
        raise ConfigError(f"system.A and system.B need system.kind = linear, not {kind!r}")
    return single_integrator()


def _fit_to_system(sections, n, m):
    """Check the config arrays against the system's n states and m inputs,
    raising a ConfigError that names the first key that disagrees. A flat
    cost.Q of n * n entries is read row by row."""
    Q = sections["cost"]["Q"]
    if Q.shape == (n * n,):
        sections["cost"]["Q"] = Q.reshape(n, n)
    for key, dims in (("cost.Q", (n, n)), ("cost.r_diag", (m,)), ("staf.offsets", (n,)),
                      ("safeset.center", (n,)), ("sim.x0", (n,))):
        section, _, name = key.partition(".")
        shape = np.shape(sections[section][name])
        if shape[-len(dims):] != dims:
            raise ConfigError(f"{key}: shape {shape} does not fit the system "
                              f"(n = {n} states, m = {m} inputs)")


def _sim(safeset, **section):
    sim = SimConfig(**section)
    check_start(safeset, sim.x0)
    return sim


def build_scenario(values=None, **overrides):
    """Construct a Scenario from a config dict plus keyword overrides
    (dotted keys with `.` replaced by `__`, e.g. sim__controller).

    Each section `name.*` of the config supplies the keyword arguments of
    one component; a value the component rejects is a ConfigError naming
    the section, and an array sized for another system than the one built
    is a ConfigError naming its key."""
    given = {**(values or {}), **{key.replace("__", "."): val for key, val in overrides.items()}}
    unknown = set(given) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    sections = {}
    for key, val in {**DEFAULTS, **given}.items():
        section, _, name = key.partition(".")
        sections.setdefault(section, {})[name] = _coerce(key, val)

    def build(section, make):
        try:
            return make(**sections[section])
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from None

    system = build("system", _system)
    _fit_to_system(sections, system.n, system.m)
    safeset = build("safeset", CircularSafeSet)
    scn = Scenario(system=system, safeset=safeset, cost=build("cost", CostSpec),
                   barrier=build("barrier", partial(BarrierSpec, safeset)),
                   staf=build("staf", StaFConfig), gains=build("gains", LearnerGains),
                   qp=build("qp", QpParams), sim=build("sim", partial(_sim, safeset)))
    # a step at most twice the landing tolerance at t_final can put two of
    # its grid points, or one and t_final, within the tolerance of each
    # other, and the integrator would drop a hold the QP waits for
    min_step = 2.0 * _edge(scn.sim.t_final)
    for key, dt in (("sim.dt_out", scn.sim.dt_out), ("qp.dt", scn.qp.dt)):
        if dt <= min_step:
            raise ConfigError(f"{key}: no time grid of step {dt!r} up to t_final: the step must "
                              f"exceed twice the landing tolerance at t_final, {min_step:g}")
    return scn
