"""Run configuration: YAML parsing, validation, and scenario resolution.

Configs are YAML mappings with nested sections.  Validation reports every
problem at once rather than stopping at the first; `serialize_config`
produces a canonical document whose re-parse compares equal, which keeps
configs usable as byte-stable experiment records.

Coefficient fields in configs come from the builtin catalog or from
constant / affine-in-x matrix literals; anything more exotic is added in
code, not in configs.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field, replace
from typing import Any

import numpy as np
import yaml

from .catalog import CatalogEntry, _instantiate, build_scenario, catalog
from .errors import AsymmetricFieldError, BetaSelectionError, ConfigError
from .fields import MatrixField, Scenario, SymMatrixField
from .hypotheses import check_hypotheses, select_beta

EXPERIMENTS = ("hypotheses", "solve", "carleman-scan", "observability",
               "energy", "identities")

INITIAL_KINDS = ("sine", "random", "bump")


@dataclass(frozen=True)
class InitialSpec:
    """Initial data recipe for solve / observability / energy runs."""

    kind: str = "sine"
    mode: int = 1                   # sine
    modes: int = 3                  # random
    decay: float = 2.0              # random
    support: tuple[float, float] = (0.0, 0.4)  # bump
    amplitude: float = 1.0          # bump


@dataclass(frozen=True)
class RunConfig:
    experiment: str = "hypotheses"
    scenario: Any = "transport"     # catalog name or inline mapping
    nx: int = 201
    nt: int | None = None           # None: derived from the Courant bound
    t_final: float | None = None    # None: catalog default
    domain: tuple[float, float] = (0.0, 1.0)
    cfl_factor: float = 0.5
    eta: tuple[float, float] = (1.0, 0.0)   # linear slope, offset
    beta: Any = None                # number | "auto" | None (catalog default)
    s_grid: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)
    ensemble: int = 20
    modes: int = 4
    decay: float = 2.0
    seed: int = 0
    out_dir: str = "out"
    initial: InitialSpec = field(default_factory=InitialSpec)


def _is_number(v) -> bool:
    """A finite int or float: bools, nan, inf and ints past the float range
    are refused."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_int(v) -> bool:
    """An int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _matrix_literal(spec, tag: str, errors: list[str]):
    arr = None
    try:
        arr = np.asarray(spec, dtype=float)
    except (TypeError, ValueError):
        errors.append(f"{tag}: malformed matrix literal {spec!r}")
        return None
    if arr.ndim == 0:
        arr = arr[None, None]
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        errors.append(f"{tag}: matrix literal must be square "
                      f"(got shape {arr.shape})")
        return None
    return arr


def _field_spec(spec, tag: str, symmetric: bool, errors: list[str]):
    """Build a MatrixField from {constant: M} or {affine: {base, slope}}."""
    cls = SymMatrixField if symmetric else MatrixField
    if not isinstance(spec, dict) or len(spec) != 1:
        errors.append(f"{tag}: expected a one-key mapping "
                      f"{{constant: ...}} or {{affine: ...}}, got {spec!r}")
        return None
    kind, body = next(iter(spec.items()))
    try:
        if kind == "constant":
            mat = _matrix_literal(body, tag, errors)
            return None if mat is None else cls.constant(mat, label=tag)
        if kind == "affine":
            if not isinstance(body, dict) or set(body) != {"base", "slope"}:
                errors.append(f"{tag}: affine spec needs base and slope")
                return None
            base = _matrix_literal(body["base"], f"{tag}.base", errors)
            slope = _matrix_literal(body["slope"], f"{tag}.slope", errors)
            if base is None or slope is None:
                return None
            return cls.affine(base, slope, label=tag)
    except AsymmetricFieldError as exc:
        errors.append(f"{tag}: {exc}")
        return None
    errors.append(f"{tag}: unknown field kind {kind!r} "
                  f"(use constant or affine)")
    return None


def _parse_initial(node, errors: list[str]) -> InitialSpec:
    if node is None:
        return InitialSpec()
    if not isinstance(node, dict):
        errors.append(f"initial: expected a mapping, got {node!r}")
        return InitialSpec()
    kind = node.get("kind", "sine")
    if kind not in INITIAL_KINDS:
        errors.append(f"initial.kind must be one of {INITIAL_KINDS} "
                      f"(got {kind!r})")
        kind = "sine"
    spec = InitialSpec(kind=kind)
    if "mode" in node:
        if not _is_int(node["mode"]) or node["mode"] < 1:
            errors.append("initial.mode must be a positive integer")
        else:
            spec = replace(spec, mode=node["mode"])
    if "modes" in node:
        if not _is_int(node["modes"]) or node["modes"] < 1:
            errors.append("initial.modes must be a positive integer")
        else:
            spec = replace(spec, modes=node["modes"])
    if "decay" in node:
        if not _is_number(node["decay"]):
            errors.append("initial.decay must be a number")
        else:
            spec = replace(spec, decay=float(node["decay"]))
    if "support" in node:
        sup = node["support"]
        if (not isinstance(sup, (list, tuple)) or len(sup) != 2
                or not all(_is_number(v) for v in sup) or sup[0] >= sup[1]):
            errors.append("initial.support must be [lo, hi] with lo < hi")
        else:
            spec = replace(spec, support=(float(sup[0]), float(sup[1])))
    if "amplitude" in node:
        if not _is_number(node["amplitude"]):
            errors.append("initial.amplitude must be a number")
        else:
            spec = replace(spec, amplitude=float(node["amplitude"]))
    unknown = set(node) - {"kind", "mode", "modes", "decay", "support",
                           "amplitude"}
    for key in sorted(unknown):
        errors.append(f"initial: unknown key {key!r}")
    return spec


_TOP_KEYS = {"experiment", "scenario", "grid", "T", "domain", "cfl_factor",
             "weight", "s_grid", "ensemble", "seed", "out_dir", "initial"}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML config; raises ConfigError with every issue."""
    errors: list[str] = []
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"invalid YAML: {exc}"]) from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError([f"config must be a mapping, got {type(doc).__name__}"])

    for key in sorted(set(doc) - _TOP_KEYS):
        errors.append(f"unknown key {key!r}")

    cfg = RunConfig()

    experiment = doc.get("experiment", cfg.experiment)
    if experiment not in EXPERIMENTS:
        errors.append(f"experiment must be one of {EXPERIMENTS} "
                      f"(got {experiment!r})")
    else:
        cfg = replace(cfg, experiment=experiment)

    scenario = doc.get("scenario", cfg.scenario)
    if isinstance(scenario, str):
        if scenario not in catalog():
            errors.append(f"unknown scenario {scenario!r}; known: "
                          f"{', '.join(sorted(catalog()))}")
        cfg = replace(cfg, scenario=scenario)
    elif isinstance(scenario, dict):
        cfg = replace(cfg, scenario=_validate_inline(scenario, doc, errors))
    else:
        errors.append(f"scenario must be a catalog name or a mapping "
                      f"(got {scenario!r})")

    grid_node = doc.get("grid", {})
    if not isinstance(grid_node, dict):
        errors.append(f"grid must be a mapping (got {grid_node!r})")
        grid_node = {}
    nx = grid_node.get("nx", cfg.nx)
    if not _is_int(nx) or nx < 3:
        errors.append(f"grid.nx must be an integer >= 3 (got {nx!r})")
    else:
        cfg = replace(cfg, nx=nx)
    nt = grid_node.get("nt", "auto")
    if nt == "auto" or nt is None:
        cfg = replace(cfg, nt=None)
    elif _is_int(nt) and nt >= 2:
        cfg = replace(cfg, nt=nt)
    else:
        errors.append(f"grid.nt must be an integer >= 2 or 'auto' (got {nt!r})")
    for key in sorted(set(grid_node) - {"nx", "nt"}):
        errors.append(f"grid: unknown key {key!r}")

    if "T" in doc:
        if not _is_number(doc["T"]) or doc["T"] <= 0:
            errors.append(f"T must be a positive number (got {doc['T']!r})")
        else:
            cfg = replace(cfg, t_final=float(doc["T"]))

    if "domain" in doc:
        dom = doc["domain"]
        if (not isinstance(dom, (list, tuple)) or len(dom) != 2
                or not all(_is_number(v) for v in dom) or dom[0] >= dom[1]):
            errors.append(f"domain must be [x_lo, x_hi] with x_lo < x_hi "
                          f"(got {dom!r})")
        else:
            cfg = replace(cfg, domain=(float(dom[0]), float(dom[1])))

    if "cfl_factor" in doc:
        cf = doc["cfl_factor"]
        if not _is_number(cf) or not 0 < cf <= 1:
            errors.append(f"cfl_factor must lie in (0, 1] (got {cf!r})")
        else:
            cfg = replace(cfg, cfl_factor=float(cf))

    weight = doc.get("weight", {})
    if not isinstance(weight, dict):
        errors.append(f"weight must be a mapping (got {weight!r})")
        weight = {}
    if "eta" in weight:
        eta_node = weight["eta"]
        ok = (isinstance(eta_node, dict) and set(eta_node) == {"linear"}
              and isinstance(eta_node["linear"], dict)
              and set(eta_node["linear"]) <= {"a", "b"}
              and all(_is_number(v) for v in eta_node["linear"].values()))
        if not ok:
            errors.append(f"weight.eta must be {{linear: {{a: ..., b: ...}}}} "
                          f"(got {eta_node!r})")
        else:
            lin = eta_node["linear"]
            cfg = replace(cfg, eta=(float(lin.get("a", 1.0)),
                                    float(lin.get("b", 0.0))))
    if "beta" in weight:
        b = weight["beta"]
        if b == "auto":
            cfg = replace(cfg, beta="auto")
        elif _is_number(b) and b > 0:
            cfg = replace(cfg, beta=float(b))
        else:
            errors.append(f"weight.beta must be a positive number or 'auto' "
                          f"(got {b!r})")
    for key in sorted(set(weight) - {"eta", "beta"}):
        errors.append(f"weight: unknown key {key!r}")

    if "s_grid" in doc:
        sg = doc["s_grid"]
        if (not isinstance(sg, (list, tuple)) or not sg
                or not all(_is_number(v) and v > 0 for v in sg)):
            errors.append(f"s_grid must be a non-empty list of positive "
                          f"numbers (got {sg!r})")
        else:
            cfg = replace(cfg, s_grid=tuple(float(v) for v in sg))

    ens = doc.get("ensemble", None)
    if ens is not None:
        if _is_int(ens) and ens >= 1:
            cfg = replace(cfg, ensemble=ens)
        elif isinstance(ens, dict) and set(ens) <= {"size", "modes", "decay"}:
            size = ens.get("size", cfg.ensemble)
            modes = ens.get("modes", cfg.modes)
            decay = ens.get("decay", cfg.decay)
            if not _is_int(size) or size < 1:
                errors.append(f"ensemble.size must be a positive integer "
                              f"(got {size!r})")
            elif not _is_int(modes) or modes < 1:
                errors.append(f"ensemble.modes must be a positive integer "
                              f"(got {modes!r})")
            elif not _is_number(decay):
                errors.append(f"ensemble.decay must be a number (got {decay!r})")
            else:
                cfg = replace(cfg, ensemble=size, modes=modes,
                              decay=float(decay))
        else:
            errors.append(f"ensemble must be a positive integer or a mapping "
                          f"with size/modes/decay (got {ens!r})")

    if "seed" in doc:
        if not _is_int(doc["seed"]) or doc["seed"] < 0:
            errors.append(f"seed must be a non-negative integer "
                          f"(got {doc['seed']!r})")
        else:
            cfg = replace(cfg, seed=doc["seed"])

    if "out_dir" in doc:
        if not isinstance(doc["out_dir"], str) or not doc["out_dir"]:
            errors.append(f"out_dir must be a non-empty string "
                          f"(got {doc['out_dir']!r})")
        else:
            cfg = replace(cfg, out_dir=doc["out_dir"])

    cfg = replace(cfg, initial=_parse_initial(doc.get("initial"), errors))

    if errors:
        raise ConfigError(errors)
    return cfg


def _validate_inline(node: dict, doc: dict, errors: list[str]) -> dict:
    """Vet an inline scenario mapping; returns a canonical copy."""
    known = {"name", "n", "h0", "h1", "p"}
    for key in sorted(set(node) - known):
        errors.append(f"scenario: unknown key {key!r}")
    n = node.get("n")
    if not _is_int(n) or n < 1:
        errors.append(f"scenario.n must be a positive integer (got {n!r})")
        n = 1
    out = {"name": str(node.get("name", "inline")), "n": n}
    for tag, symmetric in (("h0", True), ("h1", True), ("p", False)):
        if tag in node:
            fld = _field_spec(node[tag], f"scenario.{tag}", symmetric, errors)
            if fld is not None and fld.n_comp != n:
                errors.append(f"scenario.{tag}: size {fld.n_comp} does not "
                              f"match n={n}")
            out[tag] = node[tag]
        elif tag != "p":
            errors.append(f"scenario.{tag} is required for inline scenarios")
    if "T" not in doc:
        errors.append("T is required for inline scenarios")
    weight = doc.get("weight")
    if not (isinstance(weight, dict) and weight.get("beta") is not None):
        errors.append("weight.beta is required for inline scenarios "
                      "(a number or 'auto')")
    return out


def serialize_config(cfg: RunConfig) -> str:
    """Canonical YAML rendering; parse_config(serialize_config(c)) == c."""
    doc: dict[str, Any] = {
        "experiment": cfg.experiment,
        "scenario": cfg.scenario if isinstance(cfg.scenario, str)
        else dict(cfg.scenario),
        "grid": {"nx": cfg.nx, "nt": "auto" if cfg.nt is None else cfg.nt},
        "domain": list(cfg.domain),
        "cfl_factor": cfg.cfl_factor,
        "weight": {"eta": {"linear": {"a": cfg.eta[0], "b": cfg.eta[1]}}},
        "s_grid": list(cfg.s_grid),
        "ensemble": {"size": cfg.ensemble, "modes": cfg.modes,
                     "decay": cfg.decay},
        "seed": cfg.seed,
        "out_dir": cfg.out_dir,
        "initial": {k: (list(v) if isinstance(v, tuple) else v)
                    for k, v in asdict(cfg.initial).items()},
    }
    if cfg.t_final is not None:
        doc["T"] = cfg.t_final
    if cfg.beta is not None:
        doc["weight"]["beta"] = cfg.beta
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=False)


# ---------------------------------------------------------------------------
# resolution to a concrete scenario
# ---------------------------------------------------------------------------

def resolve_scenario(cfg: RunConfig) -> tuple[Scenario, dict]:
    """Build the fully concrete Scenario a run executes on.

    Returns (scenario, info) where info records how beta and nt were
    resolved; beta="auto" is replaced through the admissible-window midpoint
    and recorded.  Raises ConfigError when resolution is impossible.
    """
    info: dict[str, Any] = {}
    auto_beta = cfg.beta == "auto"

    if isinstance(cfg.scenario, str):
        scenario = build_scenario(
            cfg.scenario, nx=cfg.nx, nt=cfg.nt, t_final=cfg.t_final,
            beta=None if auto_beta else cfg.beta, eta=cfg.eta,
            domain=cfg.domain, cfl_factor=cfg.cfl_factor)
        info["beta_source"] = "catalog-default" if cfg.beta is None else \
            ("auto" if auto_beta else "config")
    else:
        errors: list[str] = []
        spec = cfg.scenario
        h0 = _field_spec(spec["h0"], "scenario.h0", True, errors)
        h1 = _field_spec(spec["h1"], "scenario.h1", True, errors)
        p = _field_spec(spec["p"], "scenario.p", False, errors) \
            if "p" in spec else None
        if errors or h0 is None or h1 is None:
            raise ConfigError(errors or ["scenario fields failed to build"])
        if cfg.t_final is None:
            raise ConfigError(["T is required for inline scenarios"])
        beta0 = 1.0 if auto_beta else cfg.beta
        if beta0 is None:
            raise ConfigError(["weight.beta is required for inline scenarios"])
        entry = CatalogEntry(
            name=spec["name"], description="inline scenario", n_comp=spec["n"],
            h0=h0, h1=h1, default_beta=float(beta0),
            default_t_final=cfg.t_final, p=p)
        scenario = _instantiate(entry, cfg.nx, cfg.nt, None, None, cfg.eta,
                                cfg.domain, cfg.cfl_factor)
        info["beta_source"] = "auto" if auto_beta else "config"

    if auto_beta:
        report = check_hypotheses(scenario)
        if not (report.verdicts["eta_coercivity"]
                and report.verdicts["h0_bounds"]):
            raise ConfigError(
                ["weight.beta='auto' needs the directional and h0 bounds "
                 f"to hold (delta0={report.delta0!r}, "
                 f"delta1={report.delta1!r})"])
        try:
            selection = select_beta(report.delta0, report.M, scenario.eta,
                                    scenario.grid)
        except BetaSelectionError as exc:
            raise ConfigError([f"weight.beta='auto' failed: {exc}"]) from exc
        scenario = replace(scenario, beta=selection.beta)
        info["beta_selection"] = selection

    info["beta"] = scenario.beta
    info["nx"] = scenario.grid.nx
    info["nt"] = scenario.grid.nt
    return scenario, info
