"""Config parsing/round-trip, scenario resolution, CLI runs and artifacts."""

import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import symhyp
from symhyp import (
    ConfigError,
    Scenario,
    SeparableGridFunction,
    SpaceTimeGrid,
    SpatialWeight,
    SymMatrixField,
    build_scenario,
    catalog,
    parse_config,
    resolve_scenario,
    serialize_config,
)
from symhyp.cli import _run_identities, list_scenarios, main, run
from symhyp.config import _LEAVES, EXPERIMENTS, INITIAL_KINDS, RunConfig

MINIMAL = "scenario: transport\n"

RICH = """\
experiment: carleman-scan
scenario: coupled-spd
grid: {nx: 31, nt: 101}
T: 2.0
domain: [0.0, 1.0]
cfl_factor: 0.5
weight:
  eta: {linear: {a: 1.0, b: 0.0}}
  beta: 0.5
s_grid: [1, 2]
ensemble: {size: 3, modes: 3, decay: 2.0}
seed: 11
out_dir: out
initial: {kind: random, modes: 2}
"""

INLINE = """\
experiment: hypotheses
scenario:
  name: my-system
  n: 2
  h0: {constant: [[2, 1], [1, 2]]}
  h1: {affine: {base: [[2, 1], [1, 2]], slope: [[1, 0], [0, 0]]}}
T: 2.0
grid: {nx: 31}
weight: {beta: 0.5}
"""

# a YAML line per number-valued config key, with one slot for the value
NON_FINITE_SLOTS = {
    "T": "T: {}\n",
    "domain": "domain: [0.0, {}]\n",
    "weight.beta": "weight: {{beta: {}}}\n",
    "s_grid": "s_grid: [{}]\n",
    "ensemble.decay": "ensemble: {{decay: {}}}\n",
    "initial.amplitude": "initial: {{amplitude: {}}}\n",
}


class TestParseConfig:
    def test_minimal_defaults_filled(self):
        cfg = parse_config(MINIMAL)
        assert cfg.scenario == "transport"
        assert cfg.experiment == "hypotheses"
        assert cfg.nx == 201 and cfg.nt is None
        assert cfg.s_grid == (1.0, 2.0, 4.0, 8.0, 16.0)
        assert cfg.ensemble == 20 and cfg.seed == 0

    def test_beta_auto_resolves_and_is_recorded(self):
        cfg = parse_config("scenario: transport\nT: 2.0\n"
                           "grid: {nx: 31}\nweight: {beta: auto}\n")
        scenario, info = resolve_scenario(cfg)
        assert info["beta_source"] == "auto"
        assert info["beta"] == pytest.approx(0.75)
        assert scenario.beta == pytest.approx(0.75)

    def test_nx_too_small(self):
        with pytest.raises(ConfigError) as err:
            parse_config("scenario: transport\ngrid: {nx: 2}\n")
        assert any("nx" in m and ">= 3" in m for m in err.value.messages)

    def test_all_errors_collected(self):
        text = ("scenario: nosuch\ngrid: {nx: 2}\nT: -1\n"
                "weight: {beta: -3}\nbogus: 1\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        msgs = err.value.messages
        assert len(msgs) >= 5
        assert any("unknown scenario" in m for m in msgs)
        assert any("bogus" in m for m in msgs)

    def test_malformed_matrix_literal(self):
        text = ("scenario:\n  n: 2\n  h0: {constant: [[0, 1], [1]]}\n"
                "  h1: {constant: [[1, 0], [0, 1]]}\nT: 1.0\n"
                "weight: {beta: 0.5}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("matrix literal" in m for m in err.value.messages)

    def test_asymmetric_literal_rejected(self):
        text = ("scenario:\n  n: 2\n  h0: {constant: [[0, 1], [0, 0]]}\n"
                "  h1: {constant: [[1, 0], [0, 1]]}\nT: 1.0\n"
                "weight: {beta: 0.5}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("symmetry defect" in m for m in err.value.messages)

    def test_inline_requires_horizon_and_beta(self):
        text = ("scenario:\n  n: 1\n  h0: {constant: [[1]]}\n"
                "  h1: {constant: [[1]]}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        msgs = " ".join(err.value.messages)
        assert "T is required" in msgs
        assert "weight.beta is required" in msgs

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    @pytest.mark.parametrize("key", list(NON_FINITE_SLOTS))
    def test_non_finite_number_refused(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + NON_FINITE_SLOTS[key].format(value))
        assert any(m.startswith(key) for m in err.value.messages)

    @pytest.mark.parametrize("key, value", [
        ("seed", "-3"), ("seed", "true"), ("ensemble", "true"),
        ("ensemble.size", "true"), ("ensemble.modes", "true"),
        ("initial.mode", "true"), ("initial.modes", "true"),
    ])
    def test_bad_integer_refused(self, key, value):
        section, _, leaf = key.partition(".")
        line = (f"{section}: {{{leaf}: {value}}}\n" if leaf
                else f"{section}: {value}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + line)
        assert any(m.startswith(key) for m in err.value.messages)

    def test_every_bad_ensemble_leaf_reported(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "ensemble: {size: 0, modes: 0, decay: x}\n")
        assert [m.partition(" ")[0] for m in err.value.messages] == [
            "ensemble.size", "ensemble.modes", "ensemble.decay"]

    def test_beta_auto_needs_the_bounds(self, tmp_path, capsys):
        text = "scenario: wave-type\ngrid: {nx: 21}\nweight: {beta: auto}\n"
        with pytest.raises(ConfigError) as err:
            resolve_scenario(parse_config(text))
        assert "delta0=" in str(err.value) and "delta1=" in str(err.value)
        assert main(["check", "--config", _cfg_file(tmp_path, text)]) == 2
        assert "config error: weight.beta='auto'" in capsys.readouterr().err

    def test_beta_auto_below_critical_time(self):
        cfg = parse_config("scenario: transport\nT: 0.5\ngrid: {nx: 21}\n"
                           "weight: {beta: auto}\n")
        with pytest.raises(ConfigError) as err:
            resolve_scenario(cfg)
        assert "weight.beta='auto' failed: no admissible beta" in str(err.value)

    @pytest.mark.parametrize("text", [
        MINIMAL, RICH, INLINE,
        "scenario: transport\ninitial: {kind: bump, support: [0.1, 0.6]}\n",
        "domain: [-1, 2]\ncfl_factor: 0.25\nseed: 3\n"
        + INLINE.replace("beta: 0.5", "beta: auto")])
    def test_round_trip(self, text):
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("line, key, value", [
        ("T: 1e3\n", "t_final", 1000.0), ("T: 1.0e3\n", "t_final", 1000.0),
        ("T: 1e-3\n", "t_final", 0.001),
        ("weight: {beta: 5e-1}\n", "beta", 0.5),
        ("s_grid: [1e0, 4e0]\n", "s_grid", (1.0, 4.0))])
    def test_exponent_numbers_load_as_numbers(self, line, key, value):
        cfg = parse_config(MINIMAL + line)
        assert getattr(cfg, key) == value
        assert parse_config(serialize_config(cfg)) == cfg

    def test_exponent_number_refused_by_its_rule(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "T: -2E+1\n")
        assert err.value.messages == ["T must be a positive number (got -20.0)"]

    def test_exponent_loader_keeps_integers_and_strings(self):
        cfg = parse_config(MINIMAL + "seed: 3\ngrid: {nx: 21}\n"
                           "out_dir: '1e3'\n")
        assert (type(cfg.seed), type(cfg.nx)) == (int, int)
        assert cfg.out_dir == "1e3"
        # a string that reads as an exponent number is quoted on the way out
        assert parse_config(serialize_config(cfg)) == cfg
        # PyYAML's own safe loader is not changed
        assert yaml.safe_load("T: 1e3") == {"T": "1e3"}

    @pytest.mark.parametrize("field, message", [
        ("t_final", "T is required"), ("beta", "weight.beta is required")])
    def test_inline_resolution_needs_horizon_and_beta(self, field, message):
        cfg = replace(parse_config(INLINE), **{field: None})
        with pytest.raises(ConfigError) as err:
            resolve_scenario(cfg)
        assert any(m.startswith(message) for m in err.value.messages)

    def test_inline_resolution_builds_scenario(self):
        cfg = parse_config(INLINE)
        scenario, info = resolve_scenario(cfg)
        assert scenario.n_comp == 2
        assert scenario.name == "my-system"
        assert info["nt"] >= 2


class TestCatalogListing:
    def test_catalog_contents(self):
        text = list_scenarios()
        assert text.count("status:") >= 4
        assert "transport" in text
        assert "wave-type" in text

    def test_wave_type_flagged_failing(self):
        text = list_scenarios()
        wave_block = text[text.index("wave-type"):]
        assert "FAILS[" in wave_block
        assert "weight_coercivity" in wave_block
        assert "eta_coercivity" in wave_block

    def test_transport_flagged_ok_with_constants(self):
        text = list_scenarios()
        block = text[text.index("transport"):text.index("coupled-spd")]
        assert "OK" in block
        assert "delta0=1" in block and "M=1" in block and "T_min=1" in block

    def test_build_scenario_takes_an_entry(self):
        # an entry outside the catalog, as config builds an inline one
        entry = replace(catalog()["coupled-varying"], name="renamed",
                        default_beta=0.25)
        got = build_scenario(entry, nx=31)
        want = build_scenario("coupled-varying", nx=31, beta=0.25)
        assert (got.name, got.grid, got.beta) == ("renamed", want.grid, 0.25)
        assert np.array_equal(got.samples.h1, want.samples.h1)
        with pytest.raises(ConfigError, match="unknown scenario 'nope'"):
            build_scenario("nope")


def _cfg_file(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCliRuns:
    def test_check_wave_type_signals_failure(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, "scenario: wave-type\ngrid: {nx: 31}\n"
                                  f"out_dir: {tmp_path}/out\n")
        code = main(["check", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 1
        assert "verdict.weight_coercivity=FAIL" in out
        assert (tmp_path / "out" / "hypotheses.txt").exists()
        assert (tmp_path / "out" / "boundary_classification.csv").exists()

    def test_check_transport_passes(self, tmp_path):
        cfg = _cfg_file(tmp_path, "scenario: transport\ngrid: {nx: 31}\n"
                                  f"out_dir: {tmp_path}/out\n")
        assert main(["check", "--config", cfg]) == 0

    def test_carleman_refused_on_wave_type(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, "scenario: wave-type\ngrid: {nx: 31}\n"
                                  f"out_dir: {tmp_path}/out\n")
        code = main(["carleman", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 1
        assert "refused" in out
        assert "lambda_min" in out

    def test_carleman_csv_row_count(self, tmp_path):
        cfg = _cfg_file(
            tmp_path,
            "scenario: coupled-spd\ngrid: {nx: 31}\ns_grid: [1, 2, 4]\n"
            f"ensemble: 5\nout_dir: {tmp_path}/out\n")
        assert main(["carleman", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "carleman_scan.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 5  # header + |s_grid| * ensemble
        assert lines[0].startswith("scenario,member,s,lhs_initial")
        assert lines[1].startswith("coupled-spd,0,1.0,")

    def test_solve_artifacts(self, tmp_path):
        cfg = _cfg_file(tmp_path, "scenario: transport\ngrid: {nx: 21}\n"
                                  f"T: 0.5\nout_dir: {tmp_path}/out\n")
        assert main(["solve", "--config", cfg]) == 0
        sol = (tmp_path / "out" / "solution.csv").read_text().splitlines()
        traces = (tmp_path / "out" / "traces.csv").read_text().splitlines()
        nt = len(traces[1:]) // 2
        assert len(sol) == 1 + 21 * nt
        assert sol[0] == "i,n,x,t,u_1"

    def test_solve_csv_cells_are_plain_numbers(self, tmp_path):
        cfg = _cfg_file(tmp_path, "scenario: coupled-varying\n"
                                  "grid: {nx: 11}\nT: 0.2\n"
                                  f"out_dir: {tmp_path}/out\n")
        assert main(["solve", "--config", cfg]) == 0
        for name in ("solution.csv", "traces.csv"):
            with open(tmp_path / "out" / name, newline="") as fh:
                header, *body = list(csv.reader(fh))
            assert body
            for row in body:
                for col, cell in zip(header, row):
                    if col == "side":
                        assert cell in ("x_lo", "x_hi")
                    else:
                        float(cell)  # raises on "np.float64(...)"

    def test_observe_counterexample_block(self, tmp_path, capsys):
        cfg = _cfg_file(
            tmp_path,
            "scenario: transport\ngrid: {nx: 101}\nT: 0.5\nensemble: 1\n"
            "initial: {kind: bump, support: [0.0, 0.4]}\n"
            f"out_dir: {tmp_path}/out\n")
        code = main(["observe", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 0  # a counterexample study is not a failed check
        assert "COUNTEREXAMPLE" in out
        assert "warning" in out
        assert (tmp_path / "out" / "observability.csv").exists()

    def test_observe_bump_is_one_member(self, tmp_path):
        cfg = _cfg_file(tmp_path, "scenario: transport\ngrid: {nx: 51}\n"
                                  "T: 0.5\nensemble: 3\n"
                                  "initial: {kind: bump}\n"
                                  f"out_dir: {tmp_path}/out\n")
        assert main(["observe", "--config", cfg]) == 0
        rows = (tmp_path / "out" / "observability.csv").read_text()
        # the header and the one bump member, whatever the ensemble size
        assert len(rows.splitlines()) == 2
        assert rows.splitlines()[1].startswith("transport,0,")

    def test_observe_all_degenerate_is_inconclusive(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, "scenario: transport\ngrid: {nx: 21}\n"
                                  "initial: {kind: bump, amplitude: 0}\n"
                                  f"out_dir: {tmp_path}/out\n")
        assert main(["observe", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "\n  verdict: INCONCLUSIVE\n" in out
        assert "degenerate=1" in out
        assert "C_obs=" not in out and "COUNTEREXAMPLE" not in out

    @pytest.mark.parametrize("kind", ["random", "bump"])
    def test_energy_names_its_members(self, kind, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, "scenario: transport\ngrid: {nx: 21}\n"
                                  f"ensemble: 2\ninitial: {{kind: {kind}, "
                                  "modes: 2, decay: 1.5}\n"
                                  f"out_dir: {tmp_path}/out\n")
        assert main(["energy", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = next(i for i, line in enumerate(lines)
                  if line.startswith("energy: "))
        assert lines[at + 1] == "  members=random modes=2 decay=1.5"
        note = (f"  note: initial.kind={kind} is for solve and observe; "
                "energy runs the seeded random ensemble")
        assert (lines[at + 2] == note) == (kind != "random")
        assert lines[at + 2 + (kind != "random")].startswith("  C_energy=")

    @pytest.mark.filterwarnings("error")
    def test_huge_flux_is_classified(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, "scenario:\n  n: 2\n"
                        "  h0: {constant: [[1, 0], [0, 1]]}\n"
                        "  h1: {constant: [[1.0e300, 0], [0, 2.0e300]]}\n"
                        "grid: {nx: 21, nt: 50}\nT: 1\nweight: {beta: 1}\n"
                        f"out_dir: {tmp_path}/out\n")
        assert main(["check", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "overall=pass" in captured.out
        with open(tmp_path / "out" / "boundary_classification.csv",
                  newline="") as fh:
            labels = {(row["side"], row["label"])
                      for row in csv.DictReader(fh)}
        assert labels == {("x_lo", "MINUS"), ("x_hi", "PLUS")}

    # members whose squared norms overflow: random initial rows near 1e190
    # for the solve studies, seeded members near 1e240 for the scan
    @pytest.mark.parametrize("verb, text", [
        ("observe", "initial: {kind: random, decay: -400}\nensemble: 2\n"),
        ("energy", "initial: {kind: random, decay: -400}\nensemble: 2\n"),
        ("carleman", "ensemble: {size: 2, decay: -200}\ns_grid: [1, 2]\n")],
        ids=["observe", "energy", "carleman"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_members_refused(self, verb, text, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, "scenario: transport\ngrid: {nx: 21}\n"
                                  + text + f"out_dir: {tmp_path}/out\n")
        assert main([verb, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: non-finite member norms "), \
            captured.err
        assert len(captured.err.splitlines()) == 1, captured.err
        assert "degenerate=" not in captured.out
        assert "VIOLATION" not in captured.out

    def test_infinite_speed_refused_without_a_warning(self, tmp_path):
        # h1 / h0 overflows to an infinite speed: solve refuses it in one
        # error line, and numpy prints no RuntimeWarning on the way
        cfg = _cfg_file(tmp_path, "scenario:\n  n: 1\n"
                                  "  h0: {constant: [[1e-300]]}\n"
                                  "  h1: {constant: [[1e300]]}\n"
                                  "grid: {nx: 41, nt: 41}\nT: 1.0\n"
                                  "weight: {beta: 1.0}\n")
        src = str(Path(symhyp.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-m", "symhyp", "solve", "--config", cfg,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert out.returncode == 1
        assert out.stderr.startswith("error: time step ht=0.025 violates "
                                     "the Courant bound"), out.stderr
        assert len(out.stderr.splitlines()) == 1, out.stderr

    def test_import_does_not_load_yaml(self):
        src = str(Path(symhyp.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); import symhyp; "
             "print('yaml' in sys.modules)", src],
            capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_energy_run(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, "scenario: transport\ngrid: {nx: 51}\n"
                                  f"ensemble: 2\nout_dir: {tmp_path}/out\n")
        assert main(["energy", "--config", cfg]) == 0
        assert "C_energy=" in capsys.readouterr().out
        assert (tmp_path / "out" / "energy.csv").exists()

    def test_identities_run(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, "scenario: transport\ngrid: {nx: 101}\n"
                                  f"s_grid: [1, 4]\nout_dir: {tmp_path}/out\n")
        assert main(["identities", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") >= 4
        assert (tmp_path / "out" / "identities.csv").exists()

    def test_identities_s_grid_is_a_set(self, tmp_path):
        # --s 4,1,4 is the grid {1, 4}, as for the scan: one row per s
        cfg = _cfg_file(tmp_path, "scenario: coupled-spd\ngrid: {nx: 41}\n")
        for flag in ("4,1,4", "1,4"):
            main(["identities", "--config", cfg, "--s", flag,
                  "--out", str(tmp_path / flag)])
        assert (tmp_path / "4,1,4" / "identities.csv").read_bytes() == \
            (tmp_path / "1,4" / "identities.csv").read_bytes()

    @pytest.mark.filterwarnings("error")
    def test_identities_at_large_s_are_finite(self, tmp_path, capsys):
        # s (max phi - min phi) = 1000 here, past where exp(s phi)
        # overflows; both conjugation defects FAIL to shrink on nx 21
        cfg = _cfg_file(tmp_path, "scenario: transport\ngrid: {nx: 21}\n"
                        f"s_grid: [1, 400]\nout_dir: {tmp_path}/out\n")
        assert main(["identities", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.count("FAIL") == 2
        for text in (captured.out,
                     (tmp_path / "out" / "identities.csv").read_text()):
            assert "nan" not in text

    def test_identities_hold_one_member_at_a_time(self, tmp_path,
                                                  monkeypatch):
        made, alive_at_make = [], []
        materialize = SeparableGridFunction.materialize

        def tracked(self):
            alive_at_make.append([ref() is not None for ref in made])
            member = materialize(self)
            made.append(weakref.ref(member))
            return member

        monkeypatch.setattr(SeparableGridFunction, "materialize", tracked)
        cfg = _cfg_file(tmp_path, "scenario: transport\ngrid: {nx: 21}\n"
                                  f"s_grid: [1]\nout_dir: {tmp_path}/out\n")
        main(["identities", "--config", cfg])
        # the coarse member is gone when the fine one is made
        assert alive_at_make == [[], [False]]

    def test_identities_sample_each_coefficient_once_per_grid(self,
                                                            tmp_path):
        # every full-row evaluation of h0 or h1 is a sampling of it
        sampled = {"h0": [], "h1": []}

        def counting(tag, base):
            def fn(x, t):
                if np.ndim(x) == 2:
                    sampled[tag].append(np.shape(x)[1])
                return base + x[..., None, None] * np.diag([1.0, 0.0])
            return SymMatrixField(2, fn, label=tag, time_independent=True)

        sc = Scenario(
            name="counting", grid=SpaceTimeGrid(0.0, 1.0, 2.0, 11, 41),
            n_comp=2, h0=counting("h0", np.eye(2)),
            h1=counting("h1", np.array([[2.0, 1.0], [1.0, 2.0]])),
            eta=SpatialWeight.linear(1.0), beta=0.5)
        _run_identities(RunConfig(s_grid=(1.0,)), sc, tmp_path)
        assert sampled == {"h0": [11, 21], "h1": [11, 21]}

    def test_byte_identical_reruns(self, tmp_path):
        body = ("scenario: coupled-spd\ngrid: {nx: 31}\ns_grid: [1, 2]\n"
                "ensemble: 3\nseed: 9\n")
        cfg_a = _cfg_file(tmp_path, body + f"out_dir: {tmp_path}/a\n", "a.yaml")
        cfg_b = _cfg_file(tmp_path, body + f"out_dir: {tmp_path}/b\n", "b.yaml")
        assert main(["carleman", "--config", cfg_a]) == 0
        assert main(["carleman", "--config", cfg_b]) == 0
        for name in ("carleman_scan.csv", "carleman_scan_refined.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_flag_overrides(self, tmp_path):
        cfg = _cfg_file(tmp_path, "scenario: coupled-spd\ngrid: {nx: 31}\n"
                                  "ensemble: 2\nout_dir: unused\n")
        out = str(tmp_path / "flagged")
        assert main(["carleman", "--config", cfg, "--out", out,
                     "--seed", "3", "--s", "1,2", "--nx", "21"]) == 0
        lines = (tmp_path / "flagged" / "carleman_scan.csv").read_text()
        assert lines.count("\n") == 1 + 2 * 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, "scenario: nosuch\n")
        assert main(["check", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_flag_replaces_invalid_file_value(self, tmp_path):
        cfg = _cfg_file(tmp_path, "scenario: transport\ngrid: {nx: 2}\n"
                                  f"out_dir: {tmp_path}/out\n")
        assert main(["check", "--config", cfg, "--nx", "21"]) == 0

    def test_bad_s_flag_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where an empty --out would write
        cfg = _cfg_file(tmp_path, MINIMAL)
        # each flag is refused with the message of the key it sets
        for flags, line in ((["--s", "1,-2"], "s_grid: [1, -2]"),
                            (["--s", "nan,1"], "s_grid: [.nan, 1]"),
                            (["--s", "inf"], "s_grid: [.inf]"),
                            (["--seed", "-1"], "seed: -1"),
                            (["--nx", "2"], "grid: {nx: 2}"),
                            (["--out", ""], "out_dir: ''")):
            assert main(["carleman", "--config", cfg, *flags]) == 2
            by_flag = capsys.readouterr().err
            keyed = _cfg_file(tmp_path, f"{MINIMAL}{line}\n", "keyed.yaml")
            assert main(["carleman", "--config", keyed]) == 2
            by_key = capsys.readouterr().err
            assert by_flag.partition(" (got")[0] == by_key.partition(" (got")[0]

    def test_scenarios_verb(self, capsys):
        assert main(["scenarios"]) == 0
        assert "transport" in capsys.readouterr().out

    def test_verb_overrides_config_experiment(self, tmp_path, capsys):
        # config says carleman-scan; the verb picks the experiment
        cfg = _cfg_file(tmp_path, "experiment: carleman-scan\n"
                                  "scenario: transport\ngrid: {nx: 31}\n"
                                  f"out_dir: {tmp_path}/out\n")
        assert main(["check", "--config", cfg]) == 0
        assert "experiment=hypotheses" in capsys.readouterr().out


def _scalar_inline(h0, h1):
    return ("scenario:\n  n: 1\n"
            f"  h0: {{constant: {h0}}}\n  h1: {h1}\n"
            "T: 1.0\nweight: {beta: 0.5}\n")


#: configs that once ended in a traceback, each with a stderr line it is
#: now refused with: mixed key types once broke the sorting of unknown
#: keys, and the last three only fail when the scenario is sampled; then
#: the refusals of malformed field specs and documents
REFUSED_CONFIGS = {
    "mixed-top-keys": (MINIMAL + "1: x\nbogus: 2\n",
                       "config error: unknown key 'bogus'"),
    "mixed-grid-keys": (MINIMAL + "grid: {5: 1, a: 2}\n",
                        "config error: grid: unknown key 'a'"),
    "mixed-inline-keys": (
        "scenario: {n: 1, 5: x, a: y, h0: {constant: [[1]]}, "
        "h1: {constant: [[1]]}}\nT: 1.0\nweight: {beta: 0.5}\n",
        "config error: scenario: unknown key 'a'"),
    "nan-literal": (_scalar_inline("[[1]]", "{constant: [[.nan]]}"),
                    "config error: scenario.h1: matrix literal entries must "
                    "be finite (got [[nan]])"),
    "huge-integer-literal": (
        _scalar_inline("[[1]]", f"{{constant: [[{10**400}]]}}"),
        "config error: scenario.h1: matrix literal entries must be finite"),
    "overflowing-samples": (
        _scalar_inline("[[1]]", "{affine: {base: [[1e308]], "
                                "slope: [[1e308]]}}"),
        "config error: scenario: field scenario.h1 non-finite at node"),
    "h0-not-positive": (_scalar_inline("[[-1]]", "{constant: [[1]]}"),
                        "config error: scenario: h0 is not positive definite "
                        "at x=0.0, t=0.0 (lambda_min=-1.0)"),
    "infinite-courant-bound": (
        _scalar_inline("[[1]]", "{constant: [[1e308]]}"),
        "config error: scenario: the Courant bound at speed 1e+308"),
    "non-square-literal": (
        _scalar_inline("[[1]]", "{constant: [[1, 2]]}"),
        "config error: scenario.h1: matrix literal must be square "
        "(got shape (1, 2))"),
    "affine-without-slope": (
        _scalar_inline("[[1]]", "{affine: {base: [[1]]}}"),
        "config error: scenario.h1: affine spec needs base and slope"),
    "unknown-field-kind": (
        _scalar_inline("[[1]]", "{quadratic: [[1]]}"),
        "config error: scenario.h1: unknown field kind 'quadratic' "
        "(use constant or affine)"),
    "list-document": ("- scenario: transport\n",
                      "config error: config must be a mapping, got list"),
    "size-mismatch": (
        "scenario:\n  n: 2\n  h0: {constant: [[1]]}\n"
        "  h1: {constant: [[1, 0], [0, 1]]}\nT: 1.0\nweight: {beta: 0.5}\n",
        "config error: scenario.h0: size 1 does not match n=2"),
    # tagged values whose safe constructor raises a plain error, not a
    # YAMLError; the timestamp one names no value, so only its type is read
    **{f"tagged-{tag}": (
        MINIMAL + f"seed: !!{tag} x\n",
        "config error: invalid YAML: a tagged value does not parse "
        f"({error}") for tag, error in (
            ("int", "ValueError: invalid literal for int() with base 10: 'x'"),
            ("float", "ValueError: could not convert string to float: 'x'"),
            ("bool", "KeyError: 'x'"),
            ("timestamp", "AttributeError: "))},
}


class TestNullSections:
    """A section given with no value is an empty one."""

    def test_flags_land_in_null_sections(self, tmp_path, capsys):
        texts = {"null": MINIMAL + "grid:\nweight:\n", "plain": MINIMAL}
        outs = []
        for name, text in texts.items():
            cfg = _cfg_file(tmp_path, text, f"{name}.yaml")
            out = tmp_path / name
            assert main(["check", "--config", cfg, "--nx", "21",
                         "--out", str(out)]) == 0
            outs.append(capsys.readouterr().out.replace(str(out), "OUT"))
            outs.append((out / "hypotheses.txt").read_bytes())
        assert " nx=21 " in outs[0]
        assert outs[:2] == outs[2:]

    def test_inline_scenario_with_null_weight(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, _scalar_inline("[[1]]", "{constant: [[1]]}")
                        .replace("weight: {beta: 0.5}", "weight:"))
        assert main(["check", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: weight.beta is required for inline scenarios "
            "(a number or 'auto')\n")


class TestRefusedConfigs:
    @pytest.mark.parametrize("name", list(REFUSED_CONFIGS))
    def test_exits_2_with_config_error(self, name, tmp_path, capsys):
        text, line = REFUSED_CONFIGS[name]
        cfg = _cfg_file(tmp_path, text)
        assert main(["check", "--config", cfg, "--nx", "21",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert line in err, err
        assert all(m.startswith("config error: ")
                   for m in err.splitlines()), err


    def test_invalid_yaml(self, tmp_path, capsys):
        # PyYAML's message carries its problem mark on the lines after the
        # first, so this refusal is not a row of REFUSED_CONFIGS
        cfg = _cfg_file(tmp_path, "scenario: [transport\n")
        assert main(["check", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid YAML: while parsing a "
                              "flow sequence\n"), err
        assert "expected ',' or ']', but got '<stream end>'" in err

    @pytest.mark.filterwarnings("error")
    def test_sampling_refusal_does_not_depend_on_nt(self, tmp_path, capsys):
        text = REFUSED_CONFIGS["overflowing-samples"][0]
        errs = []
        for nt in ("auto", "50"):
            cfg = _cfg_file(tmp_path, text + f"grid: {{nt: {nt}}}\n")
            assert main(["check", "--config", cfg, "--nx", "21",
                         "--out", str(tmp_path / "out")]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("config error: scenario: field "
                                  "scenario.h1 non-finite at node")

    def test_check_with_fixed_nt_reports_h0_as_failed(self, tmp_path, capsys):
        # only the node speeds refuse an h0 that is not positive definite,
        # and a fixed nt needs none
        cfg = _cfg_file(tmp_path, _scalar_inline("[[-1]]", "{constant: [[1]]}")
                        + "grid: {nt: 50}\n")
        assert main(["check", "--config", cfg, "--nx", "21",
                     "--out", str(tmp_path / "out")]) == 1
        assert "verdict.h0_bounds=FAIL" in capsys.readouterr().out


# Every config leaf drawn as valid, invalid, absent or of the wrong type,
# with extra keys of mixed types and matrix literals that are not finite or
# are huge.  Valid values are small, so that no drawn run is slow.
LITERALS = st.sampled_from([0, 1, -1, 2, 0.5, math.nan, math.inf, -math.inf,
                            1e300, 1e308, -1e308, 10**400])
KEYS = st.one_of(st.integers(-3, 3), st.text("abnT", max_size=2),
                 st.booleans(), st.none())
WRONG_TYPE = st.sampled_from([None, True, "text", [1, 2], {"k": 1}, 1.5, -7])


def _matrix(n):
    return st.lists(st.lists(LITERALS, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(
        lambda rows: [[rows[min(i, j)][max(i, j)] for j in range(n)]
                      for i in range(n)])


def _field(n):
    return st.one_of(
        st.builds(lambda m: {"constant": m}, _matrix(n)),
        st.builds(lambda b, s: {"affine": {"base": b, "slope": s}},
                  _matrix(n), _matrix(n)),
        WRONG_TYPE)


def _inline(n):
    return st.fixed_dictionaries(
        {"n": st.just(n), "h0": _field(n), "h1": _field(n)},
        optional={"p": _field(n), "name": st.text("xy", max_size=3)})


LEAF_VALUES = {
    "experiment": (st.sampled_from(EXPERIMENTS), st.just("nosuch")),
    "scenario": (st.one_of(st.sampled_from(["transport", "coupled-varying",
                                            "wave-type"]),
                           st.integers(1, 2).flatmap(_inline)),
                 st.sampled_from(["nosuch", {"n": 0}])),
    "grid.nx": (st.sampled_from([3, 21]), st.sampled_from([2, -1])),
    "grid.nt": (st.sampled_from(["auto", None, 50]), st.just(1)),
    "T": (st.sampled_from([0.5, 2.0]), st.sampled_from([0, -1, math.nan])),
    "domain": (st.sampled_from([[0.0, 1.0], [-1.0, 2.0]]),
               st.sampled_from([[1.0, 0.0], [0.0, math.inf]])),
    "cfl_factor": (st.sampled_from([0.5, 1.0]), st.sampled_from([0, 1.5])),
    "weight.eta": (st.sampled_from([{"linear": {"a": 1.0}},
                                    {"linear": {"a": -1.0, "b": 2}}]),
                   st.sampled_from([{"linear": {"c": 1}}, {"quad": {}}])),
    "weight.beta": (st.sampled_from(["auto", 0.5]), st.sampled_from([0, -1])),
    "s_grid": (st.just([1, 2]), st.sampled_from([[], [0]])),
    "ensemble.size": (st.just(2), st.just(0)),
    "ensemble.modes": (st.just(2), st.just(0)),
    "ensemble.decay": (st.just(2.0), st.just(math.nan)),
    "seed": (st.just(3), st.just(-1)),
    "out_dir": (st.just("out"), st.just("")),
    "initial.kind": (st.sampled_from(INITIAL_KINDS), st.just("nosuch")),
    "initial.mode": (st.just(1), st.just(0)),
    "initial.modes": (st.just(2), st.just(0)),
    "initial.decay": (st.just(2.0), st.just(math.inf)),
    "initial.support": (st.just([0.0, 0.4]), st.just([0.4, 0.0])),
    "initial.amplitude": (st.just(1.0), st.just(-math.inf)),
}


def _leaf_name(leaf):
    return f"{leaf[0]}.{leaf[1]}" if leaf[0] else leaf[1]


@st.composite
def documents(draw):
    """A YAML config; half of them have only valid or absent leaves, so
    that runs, and not only refusals, are drawn."""
    clean = draw(st.booleans())
    kinds = ("absent", "valid") + (() if clean else ("invalid", "wrong"))
    doc = {}
    for leaf in _LEAVES:
        valid, invalid = LEAF_VALUES[_leaf_name(leaf)]
        kind = draw(st.sampled_from(kinds))
        if kind != "absent":
            node = doc.setdefault(leaf[0], {}) if leaf[0] else doc
            node[leaf[1]] = draw({"valid": valid, "invalid": invalid,
                                  "wrong": WRONG_TYPE}[kind])
    if not clean:
        for node in [doc] + [v for v in doc.values() if isinstance(v, dict)]:
            for key in draw(st.lists(KEYS, max_size=2)):
                node.setdefault(key, draw(LITERALS))
        if draw(st.booleans()):  # a whole section of the wrong type
            doc[draw(st.sampled_from(["grid", "weight", "initial"]))] = \
                draw(WRONG_TYPE)
    return yaml.safe_dump(doc, sort_keys=False)


class TestConfigProperty:
    def test_every_leaf_has_values(self):
        assert set(LEAF_VALUES) == set(map(_leaf_name, _LEAVES))

    @settings(deadline=None, max_examples=30)
    @given(text=documents())
    def test_refusal_or_run_never_a_traceback(self, text, tmp_path_factory):
        try:
            assert isinstance(parse_config(text), RunConfig)
        except ConfigError:
            pass
        work = tmp_path_factory.mktemp("prop")
        cfg = _cfg_file(work, text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["check", "--config", cfg, "--nx", "21",
                         "--out", str(work / "out")])
        assert code in (0, 1, 2), text
        if code == 2:
            assert err.getvalue().startswith("config error: "), text
