"""Builtin scenario catalog.

Four desk-scale systems with analytically known constants, used by the CLI,
the test suite, and as templates for inline configurations:

  transport        scalar advection, every hypothesis holds (delta0 = M = 1)
  coupled-spd      2x2 system with equal SPD coefficients (delta0 = 1, M = 3)
  coupled-varying  affine-in-x flux matrix, hypotheses hold on (0, 1)
  wave-type        indefinite flux matrix, the canonical hypothesis failure
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .fields import (MatrixField, Scenario, SpaceTimeGrid, SpatialWeight,
                     SymMatrixField)
from .hypotheses import check_hypotheses
from .solver import CFL_DEFAULT, auto_time_nodes


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    n_comp: int
    h0: SymMatrixField
    h1: SymMatrixField
    default_beta: float
    default_t_final: float
    p: MatrixField | None = None


def catalog() -> dict[str, CatalogEntry]:
    return {e.name: e for e in (
        CatalogEntry(
            name="transport",
            description="scalar advection at unit speed; all hypotheses hold",
            n_comp=1,
            h0=SymMatrixField.constant([[1.0]], label="h0=1"),
            h1=SymMatrixField.constant([[1.0]], label="h1=1"),
            default_beta=0.75,
            default_t_final=2.0,
        ),
        CatalogEntry(
            name="coupled-spd",
            description="2x2 system, h0 = h1 = [[2,1],[1,2]]; weighted-"
                        "estimate fixture at beta=0.5",
            n_comp=2,
            h0=SymMatrixField.constant([[2.0, 1.0], [1.0, 2.0]], label="h0"),
            h1=SymMatrixField.constant([[2.0, 1.0], [1.0, 2.0]], label="h1"),
            default_beta=0.5,
            default_t_final=2.0,
        ),
        CatalogEntry(
            name="coupled-varying",
            description="identity h0 with affine flux h1 = [[2+x,1],[1,2]]",
            n_comp=2,
            h0=SymMatrixField.constant([[1.0, 0.0], [0.0, 1.0]], label="h0=I"),
            h1=SymMatrixField.affine([[2.0, 1.0], [1.0, 2.0]],
                                     [[1.0, 0.0], [0.0, 0.0]], label="h1"),
            default_beta=0.5,
            default_t_final=2.0,
        ),
        CatalogEntry(
            name="wave-type",
            description="indefinite flux h1 = [[0,1],[1,0]]; expected "
                        "hypothesis failure",
            n_comp=2,
            h0=SymMatrixField.constant([[1.0, 0.0], [0.0, 1.0]], label="h0=I"),
            h1=SymMatrixField.constant([[0.0, 1.0], [1.0, 0.0]], label="h1"),
            default_beta=0.5,
            default_t_final=2.0,
        ),
    )}


def build_scenario(name: str | CatalogEntry, nx: int = 201,
                   nt: int | None = None, t_final: float | None = None,
                   beta: float | None = None,
                   eta: tuple[float, float] = (1.0, 0.0),
                   domain: tuple[float, float] = (0.0, 1.0),
                   cfl_factor: float = CFL_DEFAULT) -> Scenario:
    """Instantiate a catalog entry, by name or as an entry, on a grid.

    nt=None derives the time resolution from the Courant bound at
    `cfl_factor`; beta/t_final default to the entry's values; eta is the
    linear profile slope*x + offset.
    """
    entry = name if isinstance(name, CatalogEntry) else catalog().get(name)
    if entry is None:
        known = ", ".join(sorted(catalog()))
        raise ConfigError([f"unknown scenario {name!r}; known: {known}"])
    t_fin = entry.default_t_final if t_final is None else float(t_final)
    b = entry.default_beta if beta is None else float(beta)
    grid = SpaceTimeGrid(domain[0], domain[1], t_fin, nx,
                         2 if nt is None else nt)
    scenario = Scenario(name=entry.name, grid=grid, n_comp=entry.n_comp,
                        h0=entry.h0, h1=entry.h1,
                        eta=SpatialWeight.linear(*eta), beta=b, p=entry.p)
    return auto_time_nodes(scenario, cfl_factor) if nt is None else scenario


def scenario_status(name: str, nx: int = 51) -> str:
    """One-line hypothesis status for the catalog listing."""
    scenario = build_scenario(name, nx=nx)
    report = check_hypotheses(scenario)
    failed = sorted(k for k, ok in report.verdicts.items() if not ok)
    consts = (f"delta={report.delta:.6g}, delta0={report.delta0:.6g}, "
              f"delta1={report.delta1:.6g}, M={report.M:.6g}, "
              f"T_min={report.T_min:.6g}")
    if not failed:
        return f"OK ({consts})"
    return f"FAILS[{','.join(failed)}] ({consts})"
