"""Run configuration: YAML parsing, validation, and scenario resolution.

Configs are YAML mappings with nested sections.  Each leaf is one row of
`_LEAVES`: the field it sets, the rule its value must meet and how the
value converts.  One loop checks every leaf and reports every problem at
once rather than stopping at the first: a refused leaf reads
"<section.key> <rule> (got <value>)", an unknown key
"<section>: unknown key <key>".  Command-line flags are overrides of the
keys they set, so each meets that key's rule.  A scenario is a catalog name
or an inline mapping; `_inline_entry` builds an inline one, both to
validate it and to run it.  `serialize_config` produces a canonical
document whose re-parse compares equal, which keeps configs usable as
byte-stable experiment records.

Coefficient fields in configs come from the builtin catalog or from
constant / affine-in-x matrix literals; anything more exotic is added in
code, not in configs.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .catalog import CatalogEntry, build_scenario, catalog
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
    except OverflowError:  # an int past the float range, refused below
        arr = np.array(np.inf)
    if arr.ndim == 0:
        arr = arr[None, None]
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        errors.append(f"{tag}: matrix literal must be square "
                      f"(got shape {arr.shape})")
        return None
    if not np.all(np.isfinite(arr)):
        errors.append(f"{tag}: matrix literal entries must be finite "
                      f"(got {spec!r})")
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


def _positive(v) -> bool:
    return _is_number(v) and v > 0


def _positive_int(v) -> bool:
    return _is_int(v) and v >= 1


def _interval(v) -> bool:
    """[lo, hi] of finite numbers with lo < hi."""
    return (isinstance(v, (list, tuple)) and len(v) == 2
            and all(map(_is_number, v)) and v[0] < v[1])


def _is_eta(v) -> bool:
    return (isinstance(v, dict) and set(v) == {"linear"}
            and isinstance(v["linear"], dict) and set(v["linear"]) <= {"a", "b"}
            and all(map(_is_number, v["linear"].values())))


def _floats(v) -> tuple[float, ...]:
    return tuple(map(float, v))


def _scenario_copy(spec):
    """A catalog name as it is; an inline mapping as its canonical copy."""
    if isinstance(spec, str):
        return spec
    return {"name": str(spec.get("name", "inline")), "n": spec["n"],
            **{tag: spec[tag] for tag in ("h0", "h1", "p") if tag in spec}}


#: every config leaf: (section, key, target field, accepts, rule text,
#: convert); section None is the top level, and the leaves of "initial" set
#: InitialSpec fields.  A leaf that is absent keeps its field's default; one
#: that `accepts` refuses reads "<section.key> <rule> (got <value>)".
#: Messages follow this order, a section's unknown keys after its leaves.
_LEAVES = (
    (None, "experiment", "experiment", lambda v: v in EXPERIMENTS,
     f"must be one of {EXPERIMENTS}", None),
    (None, "scenario", "scenario", lambda v: isinstance(v, (str, dict)),
     "must be a catalog name or a mapping", _scenario_copy),
    ("grid", "nx", "nx", lambda v: _is_int(v) and v >= 3,
     "must be an integer >= 3", None),
    ("grid", "nt", "nt",
     lambda v: v in ("auto", None) or _is_int(v) and v >= 2,
     "must be an integer >= 2 or 'auto'", lambda v: None if v == "auto" else v),
    (None, "T", "t_final", _positive, "must be a positive number", float),
    (None, "domain", "domain", _interval,
     "must be [x_lo, x_hi] with x_lo < x_hi", _floats),
    (None, "cfl_factor", "cfl_factor", lambda v: _is_number(v) and 0 < v <= 1,
     "must lie in (0, 1]", float),
    ("weight", "eta", "eta", _is_eta, "must be {linear: {a: ..., b: ...}}",
     lambda v: (float(v["linear"].get("a", 1.0)),
                float(v["linear"].get("b", 0.0)))),
    ("weight", "beta", "beta", lambda v: v == "auto" or _positive(v),
     "must be a positive number or 'auto'",
     lambda v: v if v == "auto" else float(v)),
    (None, "s_grid", "s_grid",
     lambda v: isinstance(v, (list, tuple)) and v and all(map(_positive, v)),
     "must be a non-empty list of positive numbers",
     lambda v: tuple(sorted(set(_floats(v))))),
    ("ensemble", "size", "ensemble", _positive_int,
     "must be a positive integer", None),
    ("ensemble", "modes", "modes", _positive_int,
     "must be a positive integer", None),
    ("ensemble", "decay", "decay", _is_number, "must be a number", float),
    (None, "seed", "seed", lambda v: _is_int(v) and v >= 0,
     "must be a non-negative integer", None),
    (None, "out_dir", "out_dir", lambda v: isinstance(v, str) and v != "",
     "must be a non-empty string", None),
    ("initial", "kind", "kind", lambda v: v in INITIAL_KINDS,
     f"must be one of {INITIAL_KINDS}", None),
    ("initial", "mode", "mode", _positive_int,
     "must be a positive integer", None),
    ("initial", "modes", "modes", _positive_int,
     "must be a positive integer", None),
    ("initial", "decay", "decay", _is_number, "must be a number", float),
    ("initial", "support", "support", _interval,
     "must be [lo, hi] with lo < hi", _floats),
    ("initial", "amplitude", "amplitude", _is_number, "must be a number",
     float),
)


def _section(doc: dict, section: str, errors: list[str]) -> dict:
    """The mapping of a config section; {} when absent, null or refused."""
    node = doc.get(section)
    if node is None:
        return {}
    if section == "ensemble" and _is_int(node):
        node = {"size": node}  # `ensemble: n` is shorthand for {size: n}
    if not isinstance(node, dict):
        errors.append(f"{section} must be a mapping (got {node!r})")
        return {}
    return node


#: exponent forms that YAML 1.1 reads as strings (1e3, 1.0e3, 5e-1): only
#: a dotted mantissa with a signed exponent (1.0e+3) is a float there
_EXPONENT_FLOAT = re.compile(
    r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$")


def _exponent_floats(base):
    """A subclass of PyYAML's SafeLoader or SafeDumper `base` that resolves
    exponent forms as floats, as YAML 1.2 does, so that a loader reads them
    as numbers and a dumper quotes the strings that look like them."""
    cls = type(base.__name__, (base,), {})
    cls.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT,
                              list("-+0123456789."))
    return cls


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a YAML config; raises ConfigError with every issue.

    `overrides` maps a key path ("seed", "grid.nx", ...) to a value that
    replaces the document's before validation, so it meets the key's rule;
    a None value leaves the document's.
    """
    import yaml  # here, so that `import symhyp` does not load PyYAML

    try:
        doc = yaml.load(text, Loader=_exponent_floats(yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError([f"invalid YAML: {exc}"]) from exc
    except (ValueError, AttributeError, KeyError) as exc:
        # what PyYAML's safe constructors raise on a tagged value that does
        # not parse: !!int x, !!float x, !!bool x, !!timestamp x
        raise ConfigError([f"invalid YAML: a tagged value does not parse "
                           f"({type(exc).__name__}: {exc})"]) from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError([f"config must be a mapping, got {type(doc).__name__}"])
    for path, value in (overrides or {}).items():
        if value is None:
            continue
        section, _, key = path.rpartition(".")
        if section and doc.get(section) is None:
            doc[section] = {}  # a null section is an empty one
        node = doc[section] if section else doc
        if isinstance(node, dict):
            node[key] = value

    top_keys = {section or key for section, key, *_ in _LEAVES}
    errors = [f"unknown key {key!r}"
              for key in sorted(set(doc) - top_keys, key=str)]
    weight = doc.get("weight")
    beta = weight.get("beta") if isinstance(weight, dict) else None
    fields: dict[str, Any] = {}
    initial: dict[str, Any] = {}
    for section, group in itertools.groupby(_LEAVES, key=lambda leaf: leaf[0]):
        leaves = list(group)
        node = doc if section is None else _section(doc, section, errors)
        for _, key, target, accepts, rule, convert in leaves:
            if key not in node:
                continue
            value = node[key]
            if not accepts(value):
                name = f"{section}.{key}" if section else key
                errors.append(f"{name} {rule} (got {value!r})")
            # a scenario must also name an entry or build an inline one
            elif key != "scenario" or _entry(value, doc.get("T"), beta,
                                            errors):
                (initial if section == "initial" else fields)[target] = \
                    value if convert is None else convert(value)
        if section is not None:
            known = {leaf[1] for leaf in leaves}
            errors.extend(f"{section}: unknown key {key!r}"
                          for key in sorted(set(node) - known, key=str))
    if errors:
        raise ConfigError(errors)
    return RunConfig(**fields, initial=InitialSpec(**initial))


def _inline_entry(spec: dict, t_final, beta,
                  errors: list[str]) -> CatalogEntry | None:
    """The entry of an inline scenario mapping, run with horizon `t_final`
    and weight rate `beta` (a number or "auto"); None, with every reason
    appended to `errors`, when the mapping or those two do not make one."""
    first_error = len(errors)
    for key in sorted(set(spec) - {"name", "n", "h0", "h1", "p"}, key=str):
        errors.append(f"scenario: unknown key {key!r}")
    n = spec.get("n")
    if not _positive_int(n):
        errors.append(f"scenario.n must be a positive integer (got {n!r})")
        n = 1
    built = {}
    for tag, symmetric in (("h0", True), ("h1", True), ("p", False)):
        if tag in spec:
            built[tag] = _field_spec(spec[tag], f"scenario.{tag}", symmetric,
                                     errors)
            if built[tag] is not None and built[tag].n_comp != n:
                errors.append(f"scenario.{tag}: size {built[tag].n_comp} "
                              f"does not match n={n}")
        elif tag != "p":
            errors.append(f"scenario.{tag} is required for inline scenarios")
    if t_final is None:
        errors.append("T is required for inline scenarios")
    if beta is None:
        errors.append("weight.beta is required for inline scenarios "
                      "(a number or 'auto')")
    if len(errors) > first_error:
        return None
    # an "auto" beta is selected after instantiation; 1.0 stands in
    return CatalogEntry(
        name=str(spec.get("name", "inline")), description="inline scenario",
        n_comp=n, h0=built["h0"], h1=built["h1"],
        default_beta=1.0 if beta == "auto" else beta,
        default_t_final=t_final, p=built.get("p"))


def _entry(spec, t_final, beta, errors: list[str]) -> CatalogEntry | None:
    """The catalog entry a scenario name gives, or an inline mapping's."""
    if isinstance(spec, dict):
        return _inline_entry(spec, t_final, beta, errors)
    entries = catalog()
    if spec not in entries:
        errors.append(f"unknown scenario {spec!r}; known: "
                      f"{', '.join(sorted(entries))}")
        return None
    return entries[spec]


def serialize_config(cfg: RunConfig) -> str:
    """Canonical YAML rendering; parse_config(serialize_config(c)) == c.

    Each leaf of `_LEAVES` is written where parse_config reads it."""
    import yaml

    doc: dict[str, Any] = {}
    for section, key, target, *_ in _LEAVES:
        value = getattr(cfg.initial if section == "initial" else cfg, target)
        if key == "nt" and value is None:
            value = "auto"
        elif key == "eta":
            value = {"linear": {"a": value[0], "b": value[1]}}
        elif value is None:
            continue
        elif isinstance(value, tuple):
            value = list(value)
        (doc.setdefault(section, {}) if section else doc)[key] = value
    return yaml.dump(doc, Dumper=_exponent_floats(yaml.SafeDumper),
                     sort_keys=True, default_flow_style=False)


# ---------------------------------------------------------------------------
# resolution to a concrete scenario
# ---------------------------------------------------------------------------

def resolve_scenario(cfg: RunConfig) -> tuple[Scenario, dict]:
    """Build the fully concrete Scenario a run executes on.

    Returns (scenario, info) where info records how beta and nt were
    resolved; beta="auto" is replaced through the admissible-window midpoint
    and recorded.  The returned scenario's coefficient samples are built
    here, whatever grid.nt is.  Raises ConfigError when resolution is
    impossible, and sample_field's error when sampling fails.
    """
    auto_beta = cfg.beta == "auto"
    errors: list[str] = []
    entry = _entry(cfg.scenario, cfg.t_final, cfg.beta, errors)
    if entry is None:
        raise ConfigError(errors)
    scenario = build_scenario(entry, cfg.nx, cfg.nt, cfg.t_final,
                              None if auto_beta else cfg.beta, cfg.eta,
                              cfg.domain, cfg.cfl_factor)
    info: dict[str, Any] = {"beta_source": "catalog-default"
                            if cfg.beta is None else
                            "auto" if auto_beta else "config"}

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

    scenario.samples  # so that sampling fails here, whatever grid.nt is
    info["beta"] = scenario.beta
    info["nx"] = scenario.grid.nx
    info["nt"] = scenario.grid.nt
    return scenario, info
