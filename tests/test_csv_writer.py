"""The column-wise CSV writer against the row-at-a-time writer it replaced.

`_row_writer` below is the old emission loop (one `csv.writer.writerow` per
row, one formatting call per cell), kept here only as the oracle: every
CSV the command line writes must keep its bytes.
"""

import csv
import io
import math
import os
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symhyp import cli, parse_config, resolve_scenario, solve
from symhyp.fields import SIDES


def _old_fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _row_writer(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_old_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# property: any table of mixed column types keeps its bytes
# ---------------------------------------------------------------------------

EDGE_FLOATS = (-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-05, 1e16,
               0.1 + 0.2)
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\n\r-_.')), max_size=6)

#: one strategy per column type: (row count) -> column of that length
CELLS = {
    "float": FLOATS,
    "np.float64": FLOATS.map(np.float64),
    "np.int64": INT64.map(np.int64),
    "int": st.integers(),
    "bool": st.booleans(),
    "str": TEXT,
    "mixed": st.one_of(FLOATS, FLOATS.map(np.float64), st.integers(), TEXT),
}


@st.composite
def tables(draw):
    """(header, columns): 1-6 columns of 0-12 cells, a column per type;
    a float column is sometimes a float ndarray, as `solve` hands over."""
    n_rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1,
                          max_size=6))
    columns = []
    for kind in kinds:
        col = draw(st.lists(CELLS[kind], min_size=n_rows, max_size=n_rows))
        if kind == "float" and draw(st.booleans()):
            col = np.array(col, dtype=float)
        columns.append(col)
    header = [f"c{k}" for k in range(len(columns))]
    return header, columns


def _read(path) -> bytes:
    return Path(path).read_bytes()


class TestWriterMatchesRowWriter:
    @settings(deadline=None, max_examples=200)
    @given(table=tables(), cut=st.integers(0, 12))
    def test_same_bytes(self, table, cut):
        header, columns = table
        rows = list(zip(*columns))
        with tempfile.TemporaryDirectory() as tmp:
            old, whole, streamed = (Path(tmp) / n for n in "abc")
            _row_writer(old, header, rows)
            cli._write_csv(whole, header, cli._table(rows))
            # the same rows cut into two blocks of pre-formatted columns
            text = [cli._column(c) for c in columns]
            cli._write_csv(streamed, header,
                           iter([[c[:cut] for c in text],
                                 [c[cut:] for c in text]]))
            expected = _read(old)
            assert _read(whole) == expected
            assert _read(streamed) == expected
            assert b"np." not in expected

    def test_numpy_scalars_read_as_plain_numbers(self):
        col = [np.float64(0.1), np.float64(-0.0), np.float64(math.nan)]
        assert cli._column(col) == ["0.1", "-0.0", "nan"]
        assert cli._column([np.int64(-7), True]) == ["-7", "True"]
        assert cli._column(np.array([0.1 + 0.2, 1e16])) == \
            ["0.30000000000000004", "1e+16"]

    def test_ragged_block_refused(self, tmp_path):
        # a short column must not silently truncate the block
        with pytest.raises(ValueError):
            cli._write_csv(tmp_path / "x.csv", ("a", "b"),
                           [[["1", "2"], ["3"]]])


# ---------------------------------------------------------------------------
# the solve verb: the same files, and no full-grid table held in memory
# ---------------------------------------------------------------------------

def _solve_setup(tmp_path, body):
    cfg = replace(parse_config(body), experiment="solve",
                  out_dir=str(tmp_path / "out"))
    scenario, _ = resolve_scenario(cfg)
    return cfg, scenario


def _reference_files(cfg, scenario, out: Path) -> None:
    """solution.csv and traces.csv as the row loop wrote them."""
    result = solve(scenario, cli._initial_data(cfg, scenario),
                   cfl_factor=cfg.cfl_factor)
    grid = scenario.grid
    comp_cols = [f"u_{j + 1}" for j in range(scenario.n_comp)]
    xs, ts = grid.x.tolist(), grid.t.tolist()
    rows = []
    for n, tv in enumerate(ts):
        for i, (xv, uv) in enumerate(zip(xs, result.u.values[n].tolist())):
            rows.append((i, n, xv, tv, *uv))
    _row_writer(out / "solution.csv", ("i", "n", "x", "t", *comp_cols), rows)
    trows = []
    for side, trace in zip(SIDES, result.traces.tolist()):
        for tv, uv in zip(ts, trace):
            trows.append((side, tv, *uv))
    _row_writer(out / "traces.csv", ("side", "t", *comp_cols), trows)


def _check_solve(tmp_path, body) -> int:
    """Run the solve verb and compare with the row writer; returns nt."""
    cfg, scenario = _solve_setup(tmp_path, body)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(body)
    assert cli.main(["solve", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0
    ref = tmp_path / "ref"
    ref.mkdir()
    _reference_files(cfg, scenario, ref)
    for name in ("solution.csv", "traces.csv"):
        assert (tmp_path / "out" / name).read_bytes() == \
            (ref / name).read_bytes(), name
    return scenario.grid.nt


TRANSPORT = ("scenario: transport\ngrid: {nx: 21}\n"
             "initial: {kind: random, modes: 3}\n")
COUPLED = "scenario: coupled-varying\ngrid: {nx: 11}\nT: 0.5\n"
#: no catalog entry has three components
THREE_COMPONENTS = """\
scenario:
  name: inline-3
  n: 3
  h0: {constant: [[2, 1, 0], [1, 2, 0], [0, 0, 1]]}
  h1: {affine: {base: [[2, 1, 0], [1, 2, 0], [0, 0, 3]],
                slope: [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}}
grid: {nx: 9}
T: 0.5
weight: {beta: 0.5}
"""
#: two time rows, fewer than three processes
TWO_ROWS = "scenario: transport\ngrid: {nx: 5, nt: 2}\nT: 0.01\n"


def _force_processes(monkeypatch, procs: int) -> list[int]:
    """Let the writer use `procs` processes on any table; returns the list
    that collects the pid of every worker it forks."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: procs)
    monkeypatch.setattr(cli, "MIN_CELLS_PER_PROCESS", 1)
    forked, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


class TestSolveOutputs:
    def test_transport_single_component(self, tmp_path):
        _check_solve(tmp_path, TRANSPORT)

    def test_coupled_varying_two_components(self, tmp_path):
        _check_solve(tmp_path, COUPLED)

    @pytest.mark.parametrize("procs", [1, 2, 3])
    @pytest.mark.parametrize("body", [TRANSPORT, COUPLED, THREE_COMPONENTS,
                                      TWO_ROWS],
                             ids=["n1", "n2", "n3", "n1-two-rows"])
    def test_split_across_processes_keeps_bytes(self, tmp_path, monkeypatch,
                                                procs, body):
        forked = _force_processes(monkeypatch, procs)
        # Python >= 3.12 warns when it forks a process with threads; the
        # warning is recorded, not raised, since it comes after the fork
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            nt = _check_solve(tmp_path, body)
        assert [str(w.message) for w in seen] == []
        assert len(forked) == min(procs, nt) - 1

    def test_failed_worker_is_an_io_failure(self, tmp_path, monkeypatch,
                                            capfd):
        forked = _force_processes(monkeypatch, 3)
        parent, column = os.getpid(), cli._column

        def column_failing_in_workers(values):
            if os.getpid() != parent:
                raise RuntimeError("column failed in a worker")
            return column(values)

        monkeypatch.setattr(cli, "_column", column_failing_in_workers)
        cfg_path, out = tmp_path / "cfg.yaml", tmp_path / "out"
        cfg_path.write_text(COUPLED)
        assert cli.main(["solve", "--config", str(cfg_path),
                         "--out", str(out)]) == 1
        err = capfd.readouterr().err
        assert f"I/O failure at {out / 'solution.csv'}:" in err
        assert "RuntimeError: column failed in a worker" in err
        assert len(forked) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.listdir(out) == ["solution.csv"]

    def test_only_text_cells_are_quoted(self, tmp_path, monkeypatch):
        # floats are reprs and integers digits, so no numeric cell reaches
        # the quoting: only each header name and each side label, once
        seen, text = [], cli._text

        def counting(cell):
            seen.append(cell)
            return text(cell)

        monkeypatch.setattr(cli, "_text", counting)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        _check_solve(tmp_path, COUPLED)
        assert sorted(seen) == sorted(["i", "n", "x", "t", "u_1", "u_2",
                                       "side", "t", "u_1", "u_2", *SIDES])

    def test_writer_holds_less_than_the_solution(self, tmp_path):
        cfg, scenario = _solve_setup(
            tmp_path, "scenario: coupled-varying\ngrid: {nx: 101}\nT: 0.5\n"
                      "initial: {kind: random, modes: 3}\n")
        out = Path(cfg.out_dir)
        out.mkdir()
        u0 = cli._initial_data(cfg, scenario)
        solve(scenario, u0, cfl_factor=cfg.cfl_factor)  # fill sample caches

        def peak(fn):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            value = fn()
            return tracemalloc.get_traced_memory()[1] - base, value

        tracemalloc.start()
        try:
            solve_peak, result = peak(
                lambda: solve(scenario, u0, cfl_factor=cfg.cfl_factor))
            u_bytes = result.u.values.nbytes
            del result
            run_peak, code = peak(lambda: cli._run_solve(cfg, scenario, out))
        finally:
            tracemalloc.stop()
        assert code == 0
        assert run_peak - solve_peak < u_bytes, (run_peak, solve_peak, u_bytes)


# ---------------------------------------------------------------------------
# text from the config: a scenario name that csv.writer must quote
# ---------------------------------------------------------------------------

ODD_NAME = 'my,"odd" sys'
ODD_SCENARIO = """\
scenario:
  name: 'my,"odd" sys'
  n: 2
  h0: {constant: [[2, 1], [1, 2]]}
  h1: {affine: {base: [[2, 1], [1, 2]], slope: [[1, 0], [0, 0]]}}
grid: {nx: 21}
T: 4.0
weight: {beta: auto}
ensemble: {size: 3}
"""


def test_quoted_scenario_name_in_every_study(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(ODD_SCENARIO)
    for verb in ("check", "carleman", "observe", "energy"):
        assert cli.main([verb, "--config", str(cfg),
                         "--out", str(tmp_path / verb)]) == 0
    named = []
    for path in sorted(tmp_path.glob("*/*.csv")):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, *body = rows
        if "scenario" in header:
            k = header.index("scenario")
            assert body and {row[k] for row in body} == {ODD_NAME}, path
            named.append(path.name)
        fh = io.StringIO()
        csv.writer(fh, lineterminator="\n").writerows(rows)
        assert path.read_bytes() == fh.getvalue().encode(), path
    assert sorted(named) == ["carleman_scan.csv", "carleman_scan_refined.csv",
                             "energy.csv", "observability.csv"]
