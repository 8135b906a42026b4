import csv
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import darkfloquet
from darkfloquet import (ConfigError, DrivenSystem, bessel_j0, min_p1_sweep,
                         propagate)
from darkfloquet import effective, floquet, harness
from darkfloquet.cli import _parse_ratio_grid, main
from darkfloquet.harness import (ExperimentConfig, run_dynamics,
                                 run_effective_compare, run_floquet_sweep,
                                 run_min_pop_sweep, run_properties)

from oracles import csv_text, j0_first_zero_oracle


def read_csv(path):
    comments, rows = [], []
    with open(path) as fh:
        reader = csv.reader(line for line in fh if line.strip())
        header = None
        for line in open(path):
            if line.startswith("#"):
                comments.append(line.rstrip())
        for row in reader:
            if row[0].startswith("#"):
                continue
            if header is None:
                header = row
            else:
                rows.append([float(x) for x in row])
    return comments, header, np.array(rows)


class TestDynamics:
    def test_undriven_curve_reaches_zero(self, tmp_path):
        config = ExperimentConfig(experiment="dynamics", n=3, amplitude=0.0,
                                  periods=20,
                                  out=tmp_path / "dyn.csv", timestamp=False)
        run_dynamics(config)
        comments, header, data = read_csv(config.out)
        assert header == ["t", "P1", "P2", "P3"]
        assert data[:, 1].min() <= 1e-3
        assert any("steps_per_period=2000" in c for c in comments)

    def test_suppressed_curve_near_bessel_zero(self, tmp_path):
        config = ExperimentConfig(experiment="dynamics", n=3, amplitude=24.0,
                                  periods=20,
                                  out=tmp_path / "dyn.csv", timestamp=False)
        run_dynamics(config)
        _, _, data = read_csv(config.out)
        assert data[:, 1].min() >= 0.98

    def test_decoupled_two_level_constant(self, tmp_path):
        config = ExperimentConfig(experiment="dynamics", n=2, v=0.0,
                                  amplitude=10.0, out=tmp_path / "dyn.csv",
                                  timestamp=False)
        run_dynamics(config)
        _, _, data = read_csv(config.out)
        assert np.allclose(data[:, 1], 1.0, atol=1e-10)


class TestMinPopSweep:
    def test_three_level_wide_suppression(self, tmp_path):
        grid = np.linspace(0.0, 5.0, 26)
        config = ExperimentConfig(experiment="sweep-min-pop", n=3,
                                  ratio_grid=grid, out=tmp_path / "m.csv",
                                  timestamp=False)
        run_min_pop_sweep(config)
        _, header, data = read_csv(config.out)
        assert header == ["ratio", "min_P1", "min_P1_effective"]
        mask = data[:, 0] > 0.05
        assert np.all(data[mask, 1] > 0.0)

    def test_two_level_cdt_peak_is_narrow(self, tmp_path):
        # at finite frequency the two-level crossing sits slightly below the
        # Bessel root, so scan a fine window rather than one exact ratio
        root = j0_first_zero_oracle()
        grid = np.sort(np.concatenate([np.linspace(0.5, 5, 19),
                                       np.linspace(root - 0.05, root + 0.05, 51)]))
        config = ExperimentConfig(experiment="sweep-min-pop", n=2,
                                  ratio_grid=grid, out=tmp_path / "m.csv",
                                  timestamp=False)
        run_min_pop_sweep(config)
        _, _, data = read_csv(config.out)
        near = data[np.abs(data[:, 0] - root) <= 0.05]
        assert near[:, 1].max() >= 0.95
        assert abs(near[np.argmax(near[:, 1]), 0] - root) <= 0.02
        away = data[np.abs(data[:, 0] - root) > 0.4, 1]
        assert np.all(away <= 0.05)
        # peak half width well under 0.01 in the drive ratio
        above = near[near[:, 1] >= 0.5 * near[:, 1].max(), 0]
        assert above.max() - above.min() <= 0.02

    def test_four_level_isolated_window(self, tmp_path):
        root = j0_first_zero_oracle()
        grid = np.linspace(1.5, 3.5, 41)
        config = ExperimentConfig(experiment="sweep-min-pop", n=4,
                                  ratio_grid=grid, out=tmp_path / "m.csv",
                                  timestamp=False)
        run_min_pop_sweep(config)
        _, _, data = read_csv(config.out)
        above = data[data[:, 1] >= 0.5 * data[:, 1].max(), 0]
        assert above.max() - above.min() < 0.2
        assert abs(data[np.argmax(data[:, 1]), 0] - root) <= 0.1


class TestFloquetSweep:
    def test_zero_branch_in_output(self, tmp_path):
        grid = np.linspace(0.0, 5.0, 21)
        config = ExperimentConfig(experiment="floquet-sweep", n=3,
                                  ratio_grid=grid, out=tmp_path / "f.csv",
                                  timestamp=False)
        run_floquet_sweep(config)
        _, header, data = read_csv(config.out)
        assert header[:3] == ["ratio", "branch", "quasi_energy"]
        for branch in range(3):
            rows = data[data[:, 1] == branch]
            assert len(rows) == len(grid)
        zero_ok = [np.all(np.abs(data[data[:, 1] == b, 2]) <= 1e-5)
                   for b in range(3)]
        assert any(zero_ok)

    def test_five_level_dark_branch_populations(self, tmp_path):
        grid = np.linspace(0.0, 5.0, 11)
        config = ExperimentConfig(experiment="floquet-sweep", n=5,
                                  ratio_grid=grid, out=tmp_path / "f.csv",
                                  timestamp=False)
        run_floquet_sweep(config)
        _, _, data = read_csv(config.out)
        darkish = []
        for b in range(5):
            rows = data[data[:, 1] == b]
            if np.all(np.abs(rows[:, 2]) <= 1e-5):
                darkish.append(rows)
        assert darkish
        rows = darkish[0]
        assert np.all(rows[:, 4] <= 0.02)   # avg P2
        assert np.all(rows[:, 6] <= 0.02)   # avg P4


class TestEffectiveCompare:
    def test_agreement_at_omega_ten(self, tmp_path):
        grid = np.linspace(0.0, 5.0, 21)
        config = ExperimentConfig(experiment="effective-compare", n=3,
                                  ratio_grid=grid, out=tmp_path / "e.csv",
                                  timestamp=False)
        run_effective_compare(config)
        comments, _, data = read_csv(config.out)
        assert np.max(data[:, 4]) <= 0.05
        assert any("max_abs_deviation" in c for c in comments)

    def test_undriven_point_is_exact(self, tmp_path):
        config = ExperimentConfig(experiment="effective-compare", n=3,
                                  ratio_grid=np.array([0.0]),
                                  out=tmp_path / "e.csv", timestamp=False)
        run_effective_compare(config)
        _, _, data = read_csv(config.out)
        assert np.max(data[:, 4]) <= 1e-6


    @pytest.mark.parametrize("n", [3, 11])
    def test_reads_no_period_averages(self, n, tmp_path, monkeypatch):
        # the comparison reads quasi-energies and eigenvectors only, so it
        # never sums the Q_j of the averaging loop
        def refuse(*args, **kwargs):
            raise AssertionError("effective-compare summed Q_j")
        monkeypatch.setattr(floquet, "propagator_averages", refuse)
        config = ExperimentConfig(experiment="effective-compare", n=n,
                                  ratio_grid=np.linspace(0.0, 5.0, 11),
                                  out=tmp_path / "e.csv", timestamp=False)
        run_effective_compare(config)
        _, _, data = read_csv(config.out)
        assert data.shape == (11 * n, 5)
        assert np.max(data[:, 4]) <= 0.05

    @pytest.mark.parametrize("n", [2, 4])
    def test_even_chains_pair_through_the_gauge(self, n, tmp_path):
        # the Floquet mode of an effective eigenvector w is g w, g =
        # diag(e^{iA/omega}, 1, ...); paired by w alone, n = 2 swaps its two
        # modes for A/omega in (pi/2, 3 pi/2) and deviated by 0.958
        config = ExperimentConfig(experiment="effective-compare", n=n,
                                  out=tmp_path / "e.csv", timestamp=False)
        run_effective_compare(config)
        _, _, data = read_csv(config.out)
        assert data.shape == (201 * n, 5)
        assert np.max(data[:, 4]) <= 0.05

    def test_deviation_is_measured_on_the_quasi_energy_circle(self, tmp_path):
        # at omega = 3 the n = 4 eigenvalues +-1.618 lie past omega/2, so
        # their quasi-energies fold to -+1.382, omega away from them
        config = ExperimentConfig(experiment="effective-compare", n=4,
                                  omega=3.0, ratio_grid=np.linspace(0, 1, 5),
                                  out=tmp_path / "e.csv", timestamp=False)
        run_effective_compare(config)
        _, _, data = read_csv(config.out)
        assert np.max(np.abs(data[:, 2] - data[:, 3])) > 1.5
        assert np.max(data[data[:, 0] == 0.0, 4]) <= 1e-9  # undriven: exact
        assert np.max(data[:, 4]) <= 0.2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_overlap_pairing_is_the_nearest_eigenvalue(self, n, tmp_path):
        # at omega = 40 the effective model is good to about 1e-3, far below
        # the eigenvalue gaps on [0, 2], short of the J0 root at 2.405
        config = ExperimentConfig(experiment="effective-compare", n=n,
                                  omega=40.0, ratio_grid=np.linspace(0, 2, 21),
                                  out=tmp_path / "e.csv", timestamp=False)
        run_effective_compare(config)
        _, _, data = read_csv(config.out)
        for block in data.reshape(21, n, 5):
            eps, lam = block[:, 2], block[:, 3]
            nearest = lam[np.argmin(np.abs(eps[:, None] - lam), axis=1)]
            assert np.array_equal(nearest, lam)


class TestProperties:
    def test_clean_run_writes_reports(self, tmp_path):
        config = ExperimentConfig(experiment="properties",
                                  property_n_range=(2, 3, 4, 5),
                                  property_trials=10, seed=3,
                                  out=tmp_path / "props.json")
        assert run_properties(config) == 0
        report = json.loads((tmp_path / "props.json").read_text())
        assert report["n_violations"] == 0
        assert "all properties hold" in (tmp_path / "props.txt").read_text()

    def test_negative_control(self, tmp_path, monkeypatch):
        effective_matrices = effective._effective_matrices

        def corrupt(n, v_eff, v):
            m = effective_matrices(n, v_eff, v)
            if n >= 3:
                m[:, 0, 2] = m[:, 2, 0] = 0.2
            return m
        monkeypatch.setattr(effective, "_effective_matrices", corrupt)
        config = ExperimentConfig(experiment="properties",
                                  property_n_range=(5,), property_trials=3,
                                  seed=0, out=tmp_path / "props.json")
        assert run_properties(config) == 1


class TestConfigValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="nope")

    def test_unsorted_grid(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="sweep-min-pop",
                             ratio_grid=np.array([1.0, 0.5]))

    def test_short_horizon(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="sweep-min-pop", periods=5)

    @pytest.mark.parametrize("command", ["sweep-min-pop", "floquet-sweep",
                                         "effective-compare"])
    def test_sweeps_refuse_empty_and_non_finite_grids(self, capsys, command):
        # the config checks only the order; each sweep checks the rest of
        # its grid before it integrates
        assert main([command, "--ratio-grid", "0:5:0"]) == 2
        assert "non-empty" in capsys.readouterr().err
        run = {"sweep-min-pop": run_min_pop_sweep,
               "floquet-sweep": run_floquet_sweep,
               "effective-compare": run_effective_compare}[command]
        with pytest.raises(ConfigError, match="finite"):
            run(ExperimentConfig(command, ratio_grid=np.array([0.0, np.nan])))

    def test_periods_default_and_provenance(self, tmp_path):
        assert ExperimentConfig(experiment="dynamics").periods == 20
        assert ExperimentConfig(experiment="sweep-min-pop").periods == 400
        # every run is given every flag; provenance names only what it read:
        # the amplitude for dynamics, the grid for the sweeps, no seed
        shared = ["--ratio-grid", "0:1:2", "--amplitude", "7", "--seed", "5",
                  "--no-timestamp"]
        runs = {"dynamics": ["--periods", "2"],
                "sweep-min-pop": ["--periods", "10"],
                "floquet-sweep": ["--periods", "10"],
                "effective-compare": ["--periods", "10"]}
        for command, extra in runs.items():
            out = tmp_path / f"{command}.csv"
            assert main([command, "--out", str(out), *extra, *shared]) == 0
            comments, _, _ = read_csv(out)
            printed = [c for c in comments if "periods=" in c]
            if command in ("floquet-sweep", "effective-compare"):
                assert printed == []
            else:
                assert len(printed) == 1
                assert printed[0].endswith(f" periods={extra[1]}")
            assert not any("seed=" in c for c in comments)
            amplitude = [c for c in comments if c.startswith("# amplitude=")]
            grid = [c for c in comments if c.startswith("# ratio_grid=")]
            if command == "dynamics":
                assert amplitude == ["# amplitude=7.0"] and grid == []
            else:
                assert amplitude == []
                assert grid == ["# ratio_grid=[0.0..1.0] points=2"]
        # a flag left out is a default the run read, and is named as well
        for command, extra in runs.items():
            out = tmp_path / f"default-{command}.csv"
            assert main([command, "--out", str(out), *extra,
                         "--steps-per-period", "400", "--no-timestamp"]) == 0
            comments, _, _ = read_csv(out)
            named = [c for c in comments
                     if c.startswith(("# amplitude=", "# ratio_grid="))]
            assert named == (["# amplitude=0.0"] if command == "dynamics" else
                             ["# ratio_grid=[0.0..5.0] points=201"])


class TestDeterminism:
    def test_byte_identical_without_timestamp(self, tmp_path):
        grid = np.linspace(0.0, 2.0, 6)
        paths = []
        for name in ("a.csv", "b.csv"):
            config = ExperimentConfig(experiment="sweep-min-pop", n=3,
                                      ratio_grid=grid, out=tmp_path / name,
                                      timestamp=False)
            run_min_pop_sweep(config)
            paths.append(tmp_path / name)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("argv", [
        ["sweep-min-pop", "--n", "5", "--ratio-grid", "0:5:31"],
        ["floquet-sweep", "--n", "11", "--ratio-grid", "0:5:41"],
    ], ids=["sweep-min-pop", "floquet-sweep"])
    def test_byte_identical_across_blas_threads(self, tmp_path, argv):
        # no product sums across grid points, and one or two BLAS threads
        # round every point's products alike
        src = str(Path(darkfloquet.__file__).parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.csv"
            run = subprocess.run(
                [sys.executable, "-m", "darkfloquet.cli", *argv,
                 "--no-timestamp", "--out", str(out)],
                capture_output=True, text=True, cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": src,
                     "OPENBLAS_NUM_THREADS": threads})
            assert run.returncode == 0, run.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


# finite doubles over every exponent, drawn as bit patterns
_BITS_DOUBLES = st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.uint64(bits).view(np.float64))).filter(np.isfinite)
_POWERS = 10.0 ** np.arange(-25, 40)
# values whose '%.12g' sits at an edge of the block formatter
_EDGE_FLOATS = np.concatenate([
    [0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308,
     2.2250738585072009e-308],
    _POWERS, np.nextafter(_POWERS, 0), np.nextafter(_POWERS, np.inf),
    # around the switches to and from exponent form
    [9.99999999999e-6, 9.999999999995e-6, 1.00000000001e-5, 9.9999999999995e-5,
     9.99999999999949e-5, 1.00000000000001e-4, 99999999999.95, 99999999999.5,
     999999999999.4, 999999999999.5, 999999999999.6, 1000000000000.5],
    # exact decimal ties and their neighbours
    [123456789012.5, 0.1000000000005, 1.0000000000005, 2.5, 0.5,
     1234567890125.0, 1234567890135.0, 0.30000000000000004],
    # below 1e-11 and from 1e34 on
    [9.99e-12, 1.234e-12, 1e-300, 1.5e34, 1e300, 1.7976931348623157e308]])
# integers print as '%.12g' of their float64 value, which from 10**12 on is
# not their '%d'
_EDGE_INTS = np.array([0, 1, -1, 7, -7, 10**11, 10**12 - 1, 10**12, -10**12,
                       -(10**12 - 1), 2**53 + 1, 2**63 - 1, -2**63])


class TestCsvWriter:
    # the block writer must print the bytes of the row-by-row formatter
    @staticmethod
    def _assert_matches_oracle(path, columns):
        comments = ["# a comment", "# another=1"]
        header = [f"c{j}" for j in range(len(columns))]
        harness._write_csv(path, comments, header, columns)
        rows = zip(*(np.asarray(c).tolist() for c in columns))
        assert path.read_bytes() == csv_text(comments, header, rows).encode()

    def test_special_values_and_integer_column(self, tmp_path):
        floats = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5,
                           0.1, 1.0 / 3.0, -123456789012.5, 2.0, 1e300])
        ints = np.array([-3, 0, 7, 2**40, 1, 2, 3, 4, 5, 6, 10, 11])
        self._assert_matches_oracle(tmp_path / "t.csv",
                                    [floats, ints, floats[::-1]])

    @pytest.mark.parametrize("rows", [1, 3, 4, 5])
    def test_rows_around_the_block_size(self, tmp_path, monkeypatch, rows):
        monkeypatch.setattr(harness, "WRITE_BLOCK_ROWS", 4)
        rng = np.random.default_rng(rows)
        self._assert_matches_oracle(
            tmp_path / "t.csv", [rng.normal(size=rows) * 1e3,
                                 np.arange(rows), rng.random(rows)])

    @pytest.mark.parametrize("n", [3, 11])
    def test_propagated_trajectory(self, tmp_path, n):
        system = DrivenSystem(n, 1.0, 24.0, 10.0)
        traj = propagate(system, np.eye(n, dtype=complex)[0], 3)
        self._assert_matches_oracle(tmp_path / "t.csv",
                                    [traj.times, *traj.populations.T])

    @given(st.lists(st.tuples(st.one_of(st.floats(), _BITS_DOUBLES),
                              _BITS_DOUBLES, st.integers(-2**63, 2**63 - 1)),
                    min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_percent_formatting(self, rows):
        columns = [np.array(c, dtype=d)
                   for c, d in zip(zip(*rows), [float, float, np.int64])]
        with tempfile.TemporaryDirectory() as tmp:
            self._assert_matches_oracle(Path(tmp) / "t.csv", columns)

    def test_edges(self, tmp_path):
        floats = np.concatenate([_EDGE_FLOATS, -_EDGE_FLOATS])
        ints = np.resize(np.concatenate([_EDGE_INTS, -_EDGE_INTS[1:-1]]),
                         len(floats))
        self._assert_matches_oracle(tmp_path / "t.csv",
                                    [floats, ints, floats[::-1]])

    @pytest.mark.parametrize("toward", [-np.inf, np.inf])
    def test_log10_off_by_an_ulp(self, tmp_path, monkeypatch, toward):
        # a decimal exponent one too small or too large at a power of ten
        # must send the value to '%', not print wrong digits
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), toward))
        self.test_edges(tmp_path)

    def test_benchmark_trajectory(self, tmp_path):
        # the benchmark's dynamics run: 80001 rows over 20 blocks, of which
        # the vectorised path formats all but a few cells
        system = DrivenSystem(3, 1.0, 24.0, 10.0)
        traj = propagate(system, np.eye(3, dtype=complex)[0], 40)
        columns = [traj.times, *traj.populations.T]
        assert len(traj.times) == 80001
        self._assert_matches_oracle(tmp_path / "t.csv", columns)
        fallbacks = []
        block = np.column_stack(columns)
        harness._csv_text(block, lambda row, col:
                          fallbacks.append(1) or "%.12g" % block[row, col])
        assert len(fallbacks) < 1e-3 * block.size

    @pytest.mark.parametrize("argv, column", [
        (["floquet-sweep", "--n", "4"], "avgP4"),
        (["effective-compare", "--n", "5"], "abs_deviation"),
        (["sweep-min-pop", "--n", "3"], "min_P1_effective"),
    ], ids=["floquet-sweep", "effective-compare", "sweep-min-pop"])
    def test_cli_tables(self, tmp_path, monkeypatch, argv, column):
        # the CLI's own columns, negative values and integer branch columns
        # among them, over many blocks
        monkeypatch.setattr(harness, "WRITE_BLOCK_ROWS", 64)
        tables, write = [], harness._write_csv
        monkeypatch.setattr(harness, "_write_csv", lambda *table: (
            tables.append(table), write(*table)))
        out = tmp_path / "t.csv"
        assert main([*argv, "--out", str(out), "--no-timestamp"]) == 0
        (_, comments, header, columns), = tables
        assert column in header and len(columns[0]) > 64
        rows = zip(*(c.tolist() for c in columns))
        assert out.read_bytes() == csv_text(comments, header, rows).encode()

    def test_tables_are_built_on_the_first_write(self, tmp_path):
        # a fresh process: neither the import nor a run that writes no CSV
        # builds the formatter's tables, and two CSV writes build them once
        script = (
            "from darkfloquet import harness\n"
            "from darkfloquet.cli import main\n"
            "built = harness._format_tables.cache_info\n"
            "print(built().misses)\n"
            "main(['properties', '--n-list', '3', '--trials', '2'])\n"
            "print(built().misses)\n"
            "for out in ('a.csv', 'b.csv'):\n"
            "    main(['dynamics', '--periods', '1', '--out', out])\n"
            "    print(built().misses)\n")
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            cwd=tmp_path, check=True, env={
                **os.environ,
                "PYTHONPATH": str(Path(darkfloquet.__file__).parents[1])})
        assert [line for line in run.stdout.splitlines()
                if line.isdigit()] == ["0", "0", "1", "1"]
        assert (tmp_path / "b.csv").exists()


class TestCli:
    def test_dynamics_roundtrip(self, tmp_path):
        out = tmp_path / "dyn.csv"
        code = main(["dynamics", "--n", "3", "--amplitude", "24",
                     "--periods", "5", "--out", str(out), "--no-timestamp"])
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("argv, series, title", [
        (["dynamics", "--amplitude", "0", "--periods", "5"], 3,
         "populations, n=3, A/w=0"),
        (["sweep-min-pop", "--periods", "10", "--ratio-grid", "0:2:3"], 2,
         "minimum P1, n=3"),
        (["floquet-sweep", "--ratio-grid", "0:2:3"], 3, "quasi-energies, n=3"),
        (["effective-compare", "--ratio-grid", "0:2:3"], 3,
         "effective-model deviation, n=3"),
        # one point, one series: the x and the y range are single values
        (["sweep-min-pop", "--n", "4", "--periods", "10",
          "--ratio-grid", "1:1:1"], 1, "minimum P1, n=4"),
    ], ids=["dynamics", "sweep-min-pop", "floquet-sweep", "effective-compare",
            "one-point"])
    def test_svg_written(self, tmp_path, argv, series, title):
        # every table goes through the one writer: CSV, then its plot
        out = tmp_path / "t.csv"
        assert main([*argv, "--out", str(out), "--svg", "--no-timestamp"]) == 0
        svg = out.with_suffix(".svg").read_text()
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<polyline") == series
        assert all(re.fullmatch(r"(-?\d+\.\d\d,-?\d+\.\d\d ?)+", pts)
                   for pts in re.findall(r'points="([^"]*)"', svg))
        assert f">{title}</text>" in svg

    @pytest.mark.parametrize("command, runner", [
        ("dynamics", "run_dynamics"), ("sweep-min-pop", "run_min_pop_sweep"),
        ("floquet-sweep", "run_floquet_sweep"),
        ("effective-compare", "run_effective_compare")])
    def test_main_calls_the_runner_bound_at_call_time(
            self, monkeypatch, tmp_path, capsys, command, runner):
        # bench/tracing.py rebinds cli.run_* after import: main must look
        # each runner up when it runs, not hold the one bound at import
        calls = []
        monkeypatch.setattr(f"darkfloquet.cli.{runner}",
                            lambda config: calls.append(config) or tmp_path)
        assert main([command]) == 0
        assert [c.experiment for c in calls] == [command]
        assert capsys.readouterr().out == f"wrote {tmp_path}\n"

    def test_ratio_grid_flag(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(["sweep-min-pop", "--ratio-grid", "0:2:5",
                     "--out", str(out), "--no-timestamp"])
        assert code == 0
        _, _, data = read_csv(out)
        assert np.allclose(data[:, 0], np.linspace(0, 2, 5))

    def test_invalid_config_exit_code(self, capsys):
        assert main(["dynamics", "--n", "1"]) == 2
        assert main(["sweep-min-pop", "--ratio-grid", "bogus"]) == 2
        for flag in ("--amplitude", "--v", "--omega"):
            for value in ("nan", "inf"):
                assert main(["dynamics", flag, value]) == 2
        assert main(["properties", "--n-list", "0,3"]) == 2
        assert main(["properties", "--n-list", "2,x"]) == 2
        # these crashed with a traceback (exit 1) or printed numpy warnings
        assert main(["dynamics", "--periods", "100000000"]) == 2
        assert main(["dynamics", "--periods", "10000"]) == 2
        # the half-period propagator needs T/2 to be a whole number of steps
        assert main(["dynamics", "--steps-per-period", "2001"]) == 2
        assert "must be even" in capsys.readouterr().err
        for command, extra in (("sweep-min-pop", "--periods"),
                               ("floquet-sweep", "--steps-per-period")):
            assert main([command, "--ratio-grid", "0:1:2",
                         extra, "1000000000000"]) == 2
        assert main(["floquet-sweep", "--ratio-grid", "0:1:2", "--n", "-1"]) == 2
        assert main(["properties", "--seed", "-1", "--trials", "1"]) == 2
        assert main(["sweep-min-pop", "--ratio-grid", "0:inf:2"]) == 2
        assert main(["sweep-min-pop", "--omega", "1e300",
                     "--ratio-grid", "1e300:1e300:1"]) == 2
        # properties holds one stack of its largest matrices and nothing else
        assert main(["properties", "--n-list", "100000"]) == 2
        assert "an effective matrix" in capsys.readouterr().err
        # linspace was asked for 8 GB and raised MemoryError
        assert main(["sweep-min-pop", "--ratio-grid", "0:5:1000000000"]) == 2
        capsys.readouterr()
        # J0 refuses A/omega > 1e4 before any integration, which at this
        # step size would end in a numerical-quality failure (exit 3)
        for command in ("effective-compare", "sweep-min-pop"):
            assert main([command, "--n", "3", "--ratio-grid", "20000:20000:1",
                         "--steps-per-period", "100"]) == 2
            assert "|x| <= 1e4" in capsys.readouterr().err

    def test_unresolved_quasi_energies_exit_code(self, tmp_path, capsys):
        # eps_mach * omega above |v|: U(T) cannot resolve the spectrum, and
        # at omega = 1e300 it rounds to the identity, so the run stops
        # before integrating; the default omega = 10 stays silent
        out = ["--out", str(tmp_path / "out.csv")]
        for command in ("effective-compare", "floquet-sweep"):
            for omega in ("1e16", "1e300"):
                assert main([command, "--n", "3", "--ratio-grid", "0:1:3",
                             "--omega", omega, *out]) == 3
                assert "eps*omega" in capsys.readouterr().err
            assert main([command, "--n", "3", "--ratio-grid", "0:1:3",
                         "--steps-per-period", "100", *out]) == 0
            assert capsys.readouterr().err == ""
        # at v = 0 the zero spectrum is exact
        assert main(["floquet-sweep", "--n", "3", "--v", "0", "--omega",
                     "1e300", "--ratio-grid", "0:1:3", "--steps-per-period",
                     "100", *out]) == 0

    def test_oversized_run_exit_code(self, capsys):
        # the library function that would allocate refuses the run
        assert main(["dynamics", "--n", "250", "--periods", "1"]) == 2
        assert re.search(r"would hold 62562500 values .*U\(s\)",
                         capsys.readouterr().err)
        # the settings refuse 2·10^8 steps, past their ceiling of 10^8
        for command in ("floquet-sweep", "effective-compare"):
            assert main([command, "--n", "11",
                         "--steps-per-period", "200000000"]) == 2

    def test_ratio_grid_count_is_charged(self, charged):
        charged(lambda: _parse_ratio_grid("0:1:7"), 7)

    def test_numerical_blowup_exit_code(self, tmp_path):
        # RK4 overflows to NaN at this step size; the guards must trip on it,
        # and stderr carries their one message, with no numpy warning
        coarse = ["--omega", "1", "--steps-per-period", "100",
                  "--out", str(tmp_path / "out.csv")]
        src = str(Path(darkfloquet.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        # A/omega = 5000 stays inside the range of the effective model's J0
        for args in (["effective-compare", "--ratio-grid", "5000:5001:2"],
                     ["dynamics", "--amplitude", "20000", "--periods", "1"]):
            run = subprocess.run(
                [sys.executable, "-m", "darkfloquet.cli", *args, *coarse],
                capture_output=True, text=True, env=env, cwd=tmp_path)
            assert run.returncode == 3
            lines = run.stderr.splitlines()
            assert len(lines) == 1, run.stderr
            assert lines[0].startswith("numerical-quality failure: ")
        assert not (tmp_path / "out.csv").exists()

    def test_overflowed_monodromy_exit_code(self, tmp_path):
        # U(T) overflows at this step size: the unitarity guard trips with
        # its one message, and no numpy warning comes before it
        out = tmp_path / "out.csv"
        src = str(Path(darkfloquet.__file__).parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "darkfloquet.cli", "sweep-min-pop",
             "--periods", "10", "--ratio-grid", "0:1:3",
             "--steps-per-period", "100", "--v", "1e3", "--out", str(out)],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 3
        assert "RuntimeWarning" not in run.stderr
        lines = run.stderr.splitlines()
        assert len(lines) == 1, run.stderr
        assert lines[0].startswith("numerical-quality failure: ")
        assert not out.exists()

    def test_non_finite_min_p1_exit_code(self, tmp_path, monkeypatch, capsys):
        # a NaN sample once left min P1 at inf, written with exit 0
        site1 = floquet.propagator_site1

        def poisoned(systems, settings):
            rows, ws = site1(systems, settings)
            rows[1, 17, 0] = np.nan
            return rows, ws

        monkeypatch.setattr(floquet, "propagator_site1", poisoned)
        out = tmp_path / "min_pop.csv"
        assert main(["sweep-min-pop", "--ratio-grid", "0.5:1:2", "--periods",
                     "150", "--out", str(out)]) == 3
        assert "min P1 is nan" in capsys.readouterr().err
        assert not out.exists()

    def test_coarse_monodromy_exit_code(self, tmp_path):
        # a U(T) unitarity defect above UNITARITY_TOL must trip the
        # integrator's guard, not reach the Floquet eigensolve
        out = tmp_path / "out.csv"
        assert main(["sweep-min-pop", "--n", "2", "--steps-per-period", "100",
                     "--ratio-grid", "0:2:2", "--out", str(out)]) == 3
        assert not out.exists()

    def test_one_coarse_point_in_grid_exit_code(self, tmp_path):
        # the grid is integrated in one loop, and the guard still reads every
        # point: here only the last, A/omega = 1.5, is too coarse at 100 steps
        out = tmp_path / "out.csv"
        src = str(Path(darkfloquet.__file__).parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "darkfloquet.cli", "sweep-min-pop",
             "--n", "2", "--steps-per-period", "100",
             "--ratio-grid", "0:1.5:4", "--out", str(out)],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 3
        lines = run.stderr.splitlines()
        assert len(lines) == 1, run.stderr
        assert lines[0].startswith("numerical-quality failure: ")
        assert "A/omega=1.5 " in lines[0]
        assert not out.exists()

    def test_unwritable_out_exit_code(self, tmp_path):
        # a path that cannot be written is a configuration error: exit 2
        # with one line on stderr, not a traceback
        blocker = tmp_path / "file"
        blocker.write_text("")
        src = str(Path(darkfloquet.__file__).parents[1])
        for args in (["dynamics", "--out", str(tmp_path)],
                     ["dynamics", "--out", str(blocker / "x.csv")],
                     ["properties", "--trials", "1", "--n-list", "2",
                      "--out", str(blocker / "x.json")],
                     ["dynamics", "--out", str(tmp_path / ("x" * 300))]):
            run = subprocess.run(
                [sys.executable, "-m", "darkfloquet.cli", *args,
                 "--periods", "1"],
                capture_output=True, text=True, cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": src})
            assert run.returncode == 2, args
            lines = run.stderr.splitlines()
            assert len(lines) == 1, run.stderr
            assert lines[0].startswith("error: ")

    def test_long_min_pop_horizon_fits(self, tmp_path):
        # sweep-min-pop holds U(s) and one site-1 amplitude per sample,
        # (steps + 1) periods values, not the n of a dynamics trajectory
        out = tmp_path / "m.csv"
        assert main(["sweep-min-pop", "--n", "3", "--periods", "10000",
                     "--ratio-grid", "0:1:2", "--out", str(out)]) == 0
        _, _, data = read_csv(out)
        assert data.shape == (2, 3)

    def test_properties_exit_code(self, tmp_path):
        out = tmp_path / "props.json"
        code = main(["properties", "--trials", "3", "--n-list", "2,3",
                     "--out", str(out)])
        assert code == 0
        assert out.exists() and out.with_suffix(".txt").exists()
        # flags that size integration do not charge the property suite
        for extra in ([], ["--steps-per-period", "100000000"]):
            assert main(["properties", "--n", "400", "--trials", "1",
                         "--n-list", "2", "--out", str(out), *extra]) == 0


def test_min_p1_measured_matches_direct_propagation():
    # the period-map evaluation must agree with plain RK4 over every step
    from oracles import rk4_states
    system = DrivenSystem(3, 1.0, 20.0, 10.0)
    fast = min_p1_sweep(3, 1.0, 10.0, [system.ratio], 12)[0]
    c0 = np.zeros(3, dtype=complex)
    c0[0] = 1.0
    direct = (np.abs(rk4_states(system, c0, 12, 2000)[:, 0]) ** 2).min()
    assert fast == pytest.approx(direct, abs=1e-9)



def _mostly(valid, invalid):
    # three draws in four valid, so that most vectors get past the checks
    return st.one_of(valid, valid, valid, invalid)


_FLOATS = _mostly(st.floats(0.5, 30.0), st.floats(-5.0, 0.5) | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), 1e300, -1e300]))
_SIZES = _mostly(st.integers(2, 5), st.integers(-1, 1))
_PERIODS = _mostly(st.integers(1, 25), st.sampled_from([0, -1, 10**8, 10**12]))
_STEPS = _mostly(st.integers(50, 100).map(lambda half: 2 * half),
                 st.sampled_from([0, -1, -100, 50, 99, 101, 10**12]))
_GRID = _mostly(
    st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 3.0), st.integers(1, 3)).map(
        lambda g: (g[0], g[0] + g[1], g[2])),
    st.tuples(_FLOATS, _FLOATS, st.integers(-1, 3))).map(
    lambda g: f"{g[0]!r}:{g[1]!r}:{g[2]}")


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["dynamics", "sweep-min-pop", "floquet-sweep",
                                "effective-compare", "properties"]),
       n=_SIZES,
       floats=st.fixed_dictionaries({}, optional={
           "--v": _FLOATS, "--amplitude": _FLOATS, "--omega": _FLOATS}),
       periods=st.none() | _PERIODS, steps=_STEPS, grid=_GRID,
       seed=_mostly(st.integers(0, 3), st.integers(-2, -1)),
       n_list=st.lists(_SIZES, min_size=1, max_size=2),
       trials=_mostly(st.integers(1, 2), st.integers(-1, 0)))
def test_cli_exit_code_over_arguments(command, n, floats, periods, steps,
                                      grid, seed, n_list, trials):
    # any argument vector ends in a documented exit code, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        # --flag=value, so that argparse takes "-1e+300" as a value
        argv = [command, f"--n={n}", f"--steps-per-period={steps}",
                f"--seed={seed}", f"--out={Path(tmp) / 'out.csv'}"]
        for flag, value in floats.items():
            argv.append(f"{flag}={value!r}")
        if periods is not None:
            argv.append(f"--periods={periods}")
        if command in ("sweep-min-pop", "floquet-sweep", "effective-compare"):
            argv.append(f"--ratio-grid={grid}")
        if command == "properties":
            argv += [f"--n-list={','.join(map(str, n_list))}",
                     f"--trials={trials}"]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the vector
            code = exc.code
        assert code in (0, 1, 2, 3), argv
        if code == 0 and command != "properties":
            # the header, then data rows of len(header) non-empty fields
            with open(Path(tmp) / "out.csv") as fh:
                header, *rows = csv.reader(
                    line for line in fh if not line.startswith("#"))
            assert rows, argv
            assert all(len(row) == len(header) and all(row) for row in rows), argv
