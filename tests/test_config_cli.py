"""Config parsing/round-trip, scenario resolution, CLI runs and artifacts."""

import csv
import weakref
from dataclasses import replace

import pytest

from symhyp import cli
from symhyp import ConfigError, parse_config, resolve_scenario, serialize_config
from symhyp.cli import list_scenarios, main, run

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

    @pytest.mark.parametrize("text", [MINIMAL, RICH, INLINE])
    def test_round_trip(self, text):
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg

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

    def test_identities_hold_one_member_at_a_time(self, tmp_path,
                                                  monkeypatch):
        made, alive_at_make = [], []
        make = cli.random_smooth_gridfunction

        def tracked(*args, **kwargs):
            alive_at_make.append([ref() is not None for ref in made])
            member = make(*args, **kwargs)
            made.append(weakref.ref(member))
            return member

        monkeypatch.setattr(cli, "random_smooth_gridfunction", tracked)
        cfg = _cfg_file(tmp_path, "scenario: transport\ngrid: {nx: 21}\n"
                                  f"s_grid: [1]\nout_dir: {tmp_path}/out\n")
        main(["identities", "--config", cfg])
        # the coarse member is gone when the fine one is made
        assert alive_at_make == [[], [False]]

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
