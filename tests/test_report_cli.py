"""Tests for report serialization and the command-line entry points."""

import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projqm
from projqm import report
from projqm.cli import _finish, main, parse_two_slit_config
from projqm.interference import TwoSlitConfig
from projqm.report import Report, ReportEntry, digest_inputs, write_csv


class TestDigest:
    def test_deterministic(self):
        a = digest_inputs(x=1.5, label="abc", vec=np.arange(4.0))
        b = digest_inputs(x=1.5, label="abc", vec=np.arange(4.0))
        assert a == b

    def test_kwarg_order_irrelevant(self):
        assert digest_inputs(x=1, y=2) == digest_inputs(y=2, x=1)

    def test_value_sensitivity(self):
        assert digest_inputs(x=1.0) != digest_inputs(x=1.0 + 1e-12)

    def test_complex_values_supported(self):
        assert digest_inputs(z=1 + 2j) != digest_inputs(z=1 - 2j)


class TestReport:
    def test_entry_pass_semantics(self):
        ok = ReportEntry(check_name="c", inputs_digest="d",
                         residual=1e-13, tolerance=1e-12)
        bad = ReportEntry(check_name="c", inputs_digest="d",
                          residual=2e-12, tolerance=1e-12)
        named = ReportEntry(check_name="c", inputs_digest="d", residual=1e-13,
                            tolerance=1e-12, failure="did not converge")
        assert ok.passed and not bad.passed and not named.passed
        assert ok.to_dict()["pass"] is True
        assert "failure" not in ok.to_dict()
        assert named.to_dict()["failure"] == "did not converge"

    def test_json_shape(self, tmp_path):
        rep = Report(command="demo", metadata={"k": 1})
        rep.add("check_a", 0.0, 1e-12, x=1.0)
        rep.add("check_b", 5.0, 1e-12, x=2.0)
        path = tmp_path / "out.json"
        rep.write(str(path))
        text = path.read_text()
        assert text.endswith("\n")
        data = json.loads(text)
        assert data["command"] == "demo"
        assert data["all_pass"] is False
        assert [e["check_name"] for e in data["entries"]] == ["check_a", "check_b"]
        assert not rep.all_passed

    def test_serialization_is_reproducible(self, tmp_path):
        def build():
            rep = Report(command="demo", metadata={"seed": 3})
            rep.add("c", 1e-14, 1e-12, arr=np.linspace(0, 1, 7), z=0.5 + 0.25j)
            return rep.to_json()

        assert build() == build()


@given(st.lists(st.tuples(*[st.floats(allow_nan=False)] * 3), max_size=8))
@settings(max_examples=200, deadline=None)
def test_write_csv_reads_back_bit_exact(rows):
    """Every finite or infinite value, signed zeros and subnormals included,
    reads back from the CSV as the same binary64 bits."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_csv(os.path.join(tmp, "t.csv"), ["a", "b", "c"], rows)
        lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "a,b,c"
    back = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(back.reshape(len(rows), 3).view(np.uint64),
                          np.array(rows, dtype=np.float64).reshape(len(rows), 3).view(np.uint64))


def test_write_csv_roundtrip(tmp_path):
    path = write_csv(str(tmp_path / "t.csv"), ["a", "b"],
                     [[1.0, 0.5], [2.0, 1.0 / 3.0]])
    lines = pathlib.Path(path).read_text().splitlines()
    assert lines[0] == "a,b"
    assert float(lines[2].split(",")[1]) == 1.0 / 3.0


class TestWriteCsvBytes:
    """``write_csv`` writes exactly the bytes of a per-value ``f"{v:.17g}"``
    join, one line per row."""

    AWKWARD = [[-0.0, 5e-324, 1e-320, 1.7e308], [-1.7e308, 1.0 / 3.0, 0, -7],
               [2.0**53 + 1, 1e-300, 0.1, np.nextafter(1.0, 2.0)],
               [float("nan"), float("inf"), -float("inf"), 10**22]]

    @staticmethod
    def _expected(header, rows):
        lines = [",".join(header)] + [",".join(f"{float(v):.17g}" for v in row) for row in rows]
        return ("\n".join(lines) + "\n").encode("utf-8")

    @pytest.mark.parametrize("as_array", [False, True])
    def test_awkward_values(self, tmp_path, as_array):
        header = ["a", "b", "c", "d"]
        rows = np.array(self.AWKWARD) if as_array else self.AWKWARD
        path = write_csv(str(tmp_path / "t.csv"), header, rows)
        assert pathlib.Path(path).read_bytes() == self._expected(header, self.AWKWARD)

    @pytest.mark.parametrize("rows", [[], np.empty((0, 3))])
    def test_zero_rows_give_the_header_line_only(self, tmp_path, rows):
        path = write_csv(str(tmp_path / "t.csv"), ["x", "y", "z"], rows)
        assert pathlib.Path(path).read_bytes() == b"x,y,z\n"

    def test_one_row_trajectory(self, tmp_path):
        traj = projqm.flow_integrate(projqm.sigma_z(), [0.6, 0.8j], 0.0, 1e-3,
                                     track=[("x", projqm.sigma_x())])
        header, rows = projqm.trajectory_rows(traj)
        assert rows.shape == (1, len(header))
        path = write_csv(str(tmp_path / "t.csv"), header, rows)
        assert pathlib.Path(path).read_bytes() == self._expected(header, rows.tolist())

    @pytest.mark.parametrize("n_rows", [0, 1, 3, 2000])
    def test_one_format_operation_matches_per_row_formatting(self, tmp_path, n_rows):
        """The whole-table format gives the bytes of one ``%`` per row."""
        awkward = [-0.0, 1e-300, 5e-324, -5e-324, 1.7e308, 0.1, float("nan"), -float("inf")]
        values = np.concatenate([awkward, np.random.default_rng(n_rows).standard_normal(3 * n_rows)])
        rows = np.resize(values, (n_rows, 3))
        fmt = ",".join(["%.17g"] * 3)
        expected = "\n".join(["a,b,c"] + [fmt % tuple(row) for row in rows.tolist()]) + "\n"
        path = write_csv(str(tmp_path / "t.csv"), ["a", "b", "c"], rows)
        assert pathlib.Path(path).read_bytes() == expected.encode("utf-8")

    @given(st.lists(st.floats(), min_size=1, max_size=60), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_any_float_matches_percent(self, values, ncol):
        """NaN, infinities, signed zeros and subnormals included."""
        rows = np.resize(np.array(values), (-(-len(values) // ncol), ncol))
        with tempfile.TemporaryDirectory() as tmp:
            _assert_percent_bytes(os.path.join(tmp, "t.csv"), ["h"] * ncol, rows)

    def test_random_bit_patterns_match_percent(self, tmp_path):
        bits = np.random.default_rng(20261019).integers(0, 2**64, size=200_000, dtype=np.uint64)
        _assert_percent_bytes(str(tmp_path / "t.csv"), list("abcde"),
                              bits.view(np.float64).reshape(-1, 5))

    @pytest.mark.parametrize("ncol", [1, 3])
    def test_edge_values_match_percent(self, tmp_path, ncol):
        values = _edge_values()
        _assert_percent_bytes(str(tmp_path / "t.csv"), ["v"] * ncol,
                              np.resize(values, (len(values) // ncol, ncol)))

    @pytest.mark.parametrize("shape", [(0, 4), (1, 4), (1, 1), (5, 1)])
    def test_small_tables_match_percent(self, tmp_path, shape):
        rows = np.random.default_rng(1).standard_normal(shape) * 1e-5
        _assert_percent_bytes(str(tmp_path / "t.csv"), ["h"] * shape[1], rows)

    @pytest.mark.parametrize("fill", ["nan", "inf", "zero", "subnormal", "special_column"])
    def test_uniform_tables_match_percent(self, tmp_path, fill):
        """NaN, infinities and other values outside 1e-280 ... 1e280 are
        holes that ``%`` fills, however many of them a block holds, and
        zeros are laid out in the block."""
        mixed = np.random.default_rng(3).standard_normal((4096, 5))
        mixed[:, -1] = np.resize([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e300], 4096)
        rows = {"nan": np.full((4096, 5), np.nan), "inf": np.full((4096, 5), np.inf),
                "zero": np.zeros((4096, 5)),
                "subnormal": np.random.default_rng(2).random((4096, 5)) * 2.2e-308,
                "special_column": mixed}[fill]
        _assert_percent_bytes(str(tmp_path / "t.csv"), list("abcde"), rows)

    def test_rows_must_match_the_header(self, tmp_path):
        with pytest.raises(ValueError, match="rows of 2 values"):
            write_csv(str(tmp_path / "t.csv"), ["a", "b"], [[1.0, 2.0, 3.0]])


class TestWriteCsvKeptBuffers:
    """Each thread's formatter keeps its block buffers from call to call."""

    @staticmethod
    def _table(shape, seed):
        """Values of every decade from 1e-30 to 1e30, with zeros and holes."""
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 31, size=shape)
        rows.ravel()[::97] = [0.0, np.nan, 5e-324, -np.inf][seed % 4]
        return rows

    def test_consecutive_calls_of_every_width_and_length(self, tmp_path):
        path = str(tmp_path / "t.csv")
        shapes = [(r, c) for c in (1, 5, 19) for r in (0, 1, 4096)] + [(0, 5000), (1, 5000),
                                                                      (3, 5000), (4096, 5)]
        for seed, shape in enumerate(shapes):
            _assert_percent_bytes(path, [f"c{i}" for i in range(shape[1])],
                                  self._table(shape, seed))
        _assert_percent_bytes(path, list("abcde"), np.full((4096, 5), np.nan))
        _assert_percent_bytes(path, ["a"], self._table((5, 1), 1))

    def test_threads_writing_at_once_each_match(self, tmp_path):
        tables = [self._table((1500, 3 + k), k) for k in range(4)]  # more threads than cores
        written = {}

        def write(k):
            path = str(tmp_path / f"t{k}.csv")
            written[k] = [pathlib.Path(write_csv(path, ["h"] * (3 + k), tables[k])).read_bytes()
                          for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k, rows in enumerate(tables):
            assert written[k] == [_percent_bytes(["h"] * (3 + k), rows)] * 5

    def test_a_warm_call_allocates_no_more_for_more_blocks(self, tmp_path):
        """The peak of a warm call stays within one block's output bytes
        (at most _WIDTH a value) of a call with a tenth of its blocks, and
        the kept buffers total at most 1 MiB."""
        path = str(tmp_path / "t.csv")
        peaks = []
        for rows in (report._BLOCK_VALUES // 5 * 2, report._BLOCK_VALUES // 5 * 20):
            table = self._table((rows, 5), 0)
            write_csv(path, list("abcde"), table)
            formatter = report._formatter()
            tracemalloc.start()
            try:
                write_csv(path, list("abcde"), table)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report._formatter() is formatter
        assert peaks[1] <= peaks[0] + report._BLOCK_VALUES * report._WIDTH
        arrays = [a for a in vars(formatter).values() if isinstance(a, np.ndarray)]
        kept = {id(b): b.nbytes for b in (a if a.base is None else a.base for a in arrays)}
        assert sum(kept.values()) <= 2**20

    def test_a_table_is_cut_into_equal_blocks(self, tmp_path, monkeypatch):
        sizes = []
        write = report._BlockFormatter.write

        def spy(self, fh, v, first, ncol):
            sizes.append(v.size)
            write(self, fh, v, first, ncol)

        monkeypatch.setattr(report._BlockFormatter, "write", spy)
        rows = self._table((4096, 5), 2)
        _assert_percent_bytes(str(tmp_path / "t.csv"), list("abcde"), rows)
        assert sizes == [4096] * 5


def _percent_bytes(header, rows):
    """The oracle for the checks below: one ``'%.17g' % v`` per value."""
    lines = [",".join(header)]
    lines += [",".join("%.17g" % v for v in row) for row in np.asarray(rows, dtype=np.float64).tolist()]
    return ("\n".join(lines) + "\n").encode("ascii")


def _assert_percent_bytes(path, header, rows):
    assert pathlib.Path(write_csv(path, header, rows)).read_bytes() == _percent_bytes(header, rows)


def _edge_values():
    """Values where the vector formatter changes course."""
    values = []
    for k in range(-7, 20):  # every layout boundary of %g, and its neighbours
        p = float(f"1e{k}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    for cut in (1e-280, 1e280):  # the ends of the range formatted without ``%``
        values += [cut, np.nextafter(cut, 0.0), np.nextafter(cut, np.inf)]
    # 17-digit rounding carries into the next decade: the doubles nearest
    # 1e-14, 1e-70, 1e98, 1e129 and 1e-305 all lie just below it
    values += [9.99999999999999999e22, np.nextafter(1e17, 0.0), 99999999999999999.0,
               1e-14, 1e-70, 1e98, 1e129, 1e-305]
    # exact ties at the 17th digit: 18 - j integer digits and j binary
    # fraction digits give 18 significant digits, the last a 5
    for j in range(2, 13):
        for r in (1, 3, 2**j - 1):
            values += [10.0**(17 - j) + 7 + r / 2**j, 10.0**(17 - j) + 8 + r / 2**j]
    values += [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               np.inf, np.nan]
    values = np.array(values)
    return np.concatenate([values, -values])


class TestCliExitCodes:
    def test_pass_run_exits_zero(self, tmp_path):
        code = main(["kahler-audit", "--dims", "2", "--trials", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "kahler-audit.json").read_text())
        assert data["all_pass"] is True

    def test_failed_check_exits_one(self, tmp_path):
        code = main(["kahler-audit", "--dims", "2", "--trials", "2",
                     "--tolerance-scale", "1e-9", "--out", str(tmp_path)])
        assert code == 1
        data = json.loads((tmp_path / "kahler-audit.json").read_text())
        assert data["all_pass"] is False

    def test_zero_tolerance_scale_demands_exact_residuals(self, tmp_path):
        code = main(["kahler-audit", "--dims", "2", "--trials", "2",
                     "--tolerance-scale", "0", "--out", str(tmp_path)])
        assert code == 1
        data = json.loads((tmp_path / "kahler-audit.json").read_text())
        assert data["all_pass"] is False

    def test_defect_after_input_handling_is_not_a_usage_error(self, tmp_path,
                                                              monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")
        monkeypatch.setattr("projqm.cli.phase_invariance_check", broken)
        with pytest.raises(ValueError, match="broadcast"):
            main(["two-slit", "--out", str(tmp_path)])

    def test_unconverged_certificate_fails_in_strict_json(self, tmp_path, monkeypatch):
        """A certificate out of Brent iterations records its finite miss and
        fails by name; the report has no ``Infinity`` or ``NaN`` token."""
        monkeypatch.setattr("projqm.geodesics._BRENT_MAXITER", 1)
        code = main(["geodesic-verify", "--ambient-dims", "3", "--pairs", "2",
                     "--certificates", "1", "--out", str(tmp_path)])
        assert code == 1

        def reject(token):
            raise ValueError(f"not strict JSON: {token}")

        text = (tmp_path / "geodesic-verify.json").read_text()
        entries = json.loads(text, parse_constant=reject)["entries"]
        arrival = [e for e in entries if e["check_name"] == "certificate_arrival"]
        assert len(arrival) == 1
        assert arrival[0]["pass"] is False
        assert arrival[0]["failure"] == "shooting did not converge"
        assert math.isfinite(arrival[0]["residual"])
        assert all("failure" not in e for e in entries if e["check_name"] != "certificate_arrival")

    def test_usage_error_exits_two(self, tmp_path, capsys):
        assert main(["kahler-audit", "--dims", "1", "--out", str(tmp_path)]) == 2
        assert main(["evolve", "--hamiltonian", "nope", "--start", "plus",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown operator" in err

    def test_parser_is_reused_across_calls(self, tmp_path, capsys):
        """``main`` parses with one parser per process: a usage error leaves
        it unchanged, and later runs write the bytes of a fresh process."""
        run = ["evolve", "--hamiltonian", "sigma_z", "--start", "plus",
               "--t-end", "0.05", "--track", "sigma_x", "--out"]
        with pytest.raises(SystemExit) as exit_info:
            main(["evolve", "--hamiltonian", "sigma_z", "--start", "plus", "--dt", "nan",
                  "--out", str(tmp_path / "bad")])
        assert exit_info.value.code == 2
        for name in ("first", "second"):
            assert main(run + [str(tmp_path / name)]) == 0
        src = os.path.dirname(os.path.dirname(os.path.abspath(projqm.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        subprocess.run([sys.executable, "-m", "projqm.cli", *run, str(tmp_path / "fresh")],
                       env=env, capture_output=True, timeout=120, check=True)
        for name in ("trajectory.csv", "evolve.json"):
            fresh = (tmp_path / "fresh" / name).read_bytes()
            assert (tmp_path / "first" / name).read_bytes() == fresh
            assert (tmp_path / "second" / name).read_bytes() == fresh
        capsys.readouterr()

    def test_config_errors_carry_line_numbers(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("# comment\nwavelength = nonsense\n")
        code = main(["two-slit", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert ":2:" in capsys.readouterr().err

    def test_non_hermitian_json_rejected(self, tmp_path, capsys):
        op = tmp_path / "h.json"
        op.write_text("[[[1,0],[0,0]],[[2,0],[1,0]]]")
        code = main(["evolve", "--hamiltonian", str(op), "--start", "plus",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "Hermitian" in capsys.readouterr().err


def test_config_sets_every_field(tmp_path):
    """A config that sets every key parses to the ``TwoSlitConfig`` with
    those values; the key ``input`` sets ``input_profile``."""
    cfg = tmp_path / "all.cfg"
    cfg.write_text("wavelength = 6e-7\ndistance = 2.0\nslit_centers = -1e-4, 0, 1e-4\n"
                   "slit_width = 1e-5\nwall_halfwidth = 3e-4\nn_wall = 1024\n"
                   "screen_halfwidth = 3e-2\nn_screen = 512\ninput = gaussian\n"
                   "waist = 4e-5\n")
    want = TwoSlitConfig(wavelength=6e-7, distance=2.0, slit_centers=(-1e-4, 0.0, 1e-4),
                         slit_width=1e-5, wall_halfwidth=3e-4, n_wall=1024,
                         screen_halfwidth=3e-2, n_screen=512, input_profile="gaussian",
                         waist=4e-5)
    default = TwoSlitConfig()
    names = [f.name for f in dataclasses.fields(TwoSlitConfig)]
    assert all(getattr(want, name) != getattr(default, name) for name in names)
    got = parse_two_slit_config(str(cfg))
    assert got == want
    assert type(got.n_wall) is int and type(got.n_screen) is int


def _write_inputs(tmp_path):
    (tmp_path / "zero.json").write_text("[[0,0],[0,0]]")
    (tmp_path / "ragged.json").write_text("[[1,0],[0]]")
    (tmp_path / "eye3.json").write_text(
        "[[[1,0],[0,0],[0,0]],[[0,0],[1,0],[0,0]],[[0,0],[0,0],[1,0]]]")
    # finite, but the RK4 step overflows at any usable dt
    (tmp_path / "huge.json").write_text("[[[1e300,0],[0,0]],[[0,0],[-1e300,0]]]")
    for name, line in (("nan_wavelength", "wavelength = nan"),
                       ("inf_distance", "distance = inf"),
                       ("nan_center", "slit_centers = -5e-5, nan")):
        (tmp_path / f"{name}.cfg").write_text(f"# bad float\n{line}\n")
    # too narrow a screen for four fringe zeros
    (tmp_path / "narrow_screen.cfg").write_text("screen_halfwidth = 4e-3\n")
    # a beam that samples to zero on the 195-nm cells, and one whose waist**2 overflows
    for name, waist in (("tiny_waist", "1e-9"), ("huge_waist", "1e300")):
        (tmp_path / f"{name}.cfg").write_text(f"input = gaussian\nwaist = {waist}\n")


@pytest.mark.parametrize("argv", [
    ["evolve", "--hamiltonian", "sigma_z", "--start", "plus", "--t-end", "inf"],
    ["evolve", "--hamiltonian", "sigma_z", "--start", "plus", "--t-end", "nan"],
    ["evolve", "--hamiltonian", "sigma_z", "--start", "plus", "--t-end", "-1"],
    ["evolve", "--hamiltonian", "sigma_z", "--start", "plus", "--dt", "0"],
    ["evolve", "--hamiltonian", "sigma_z", "--start", "plus", "--dt", "nan"],
    ["evolve", "--hamiltonian", "sigma_z", "--start", "plus", "--dt=-inf"],
    ["evolve", "--hamiltonian", "sigma_z", "--start", "plus", "--t-end", "1e308"],
    ["evolve", "--hamiltonian", "sigma_z", "--start", "plus", "--t-end", "1e300"],
    ["evolve", "--hamiltonian", "sigma_z", "--start", "plus", "--t-end", "1e6"],  # 1e9 steps
    ["demo-spin", "--dt", "-1e-3"],
    ["demo-spin", "--dt", "inf"],
    ["demo-spin", "--dt", "0.5"],  # RK4 norm drift
    ["geodesic-verify", "--dt", "nan", "--pairs", "1"],
    ["geodesic-verify", "--dt", "0", "--pairs", "1"],
    ["kahler-audit", "--dims", "2", "--tolerance-scale", "-1"],
    ["kahler-audit", "--dims", "2", "--tolerance-scale", "nan"],
    ["kahler-audit", "--dims", "2", "--tolerance-scale", "inf"],
    ["kahler-audit", "--dims", ""],
    ["kahler-audit", "--dims", ","],
    ["geodesic-verify", "--ambient-dims", ""],
    ["geodesic-verify", "--ambient-dims", ","],
    ["kahler-audit", "--dims", "2,a"],
    ["kahler-audit", "--dims", "2", "--trials", "-3"],
    ["kahler-audit", "--dims", "2", "--seed", "-1"],
    ["kahler-audit", "--dims", "2", "--seeds", "-5"],
    ["kahler-audit", "--dims", "2", "--seeds", "0,-1"],
    ["geodesic-verify", "--ambient-dims", "3", "--pairs", "-1"],
    ["geodesic-verify", "--ambient-dims", "3", "--pairs", "2", "--certificates", "-1"],
    ["geodesic-verify", "--ambient-dims", "2", "--pairs", "1", "--seed", "-1"],
    ["geodesic-verify", "--ambient-dims", "2", "--pairs", "1", "--dt", "1e160"],
    ["geodesic-verify", "--ambient-dims", "2", "--pairs", "1", "--dt", "1.5"],
    ["geodesic-verify", "--ambient-dims", "2", "--pairs", "1", "--dt", "1e-320"],
    ["geodesic-verify", "--ambient-dims", "3", "--pairs", "1", "--dt", "1e-9"],  # ~1.5e9 steps
    ["evolve", "--hamiltonian", "sigma_z", "--start", "{dir}/zero.json"],
    ["evolve", "--hamiltonian", "sigma_z", "--start", "{dir}/ragged.json"],
    ["evolve", "--hamiltonian", "sigma_z", "--start", "plus", "--track",
     "sigma_x,{dir}/eye3.json"],
    ["evolve", "--hamiltonian", "{dir}/huge.json", "--start", "plus"],
    ["two-slit", "--config", "{dir}/nan_wavelength.cfg"],
    ["two-slit", "--config", "{dir}/inf_distance.cfg"],
    ["two-slit", "--config", "{dir}/nan_center.cfg"],
    ["two-slit", "--config", "{dir}/narrow_screen.cfg"],
    ["two-slit", "--config", "{dir}/tiny_waist.cfg"],
    ["two-slit", "--config", "{dir}/huge_waist.cfg"],
], ids=lambda argv: " ".join(argv).replace("{dir}/", ""))
def test_bad_inputs_exit_two_with_one_line(tmp_path, capsys, argv):
    _write_inputs(tmp_path)
    out = tmp_path / "out"
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv] + ["--out", str(out)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects at parse time this way
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error: " in err.strip().splitlines()[-1]
    assert not out.exists()
    if argv[0] == "two-slit" and pathlib.Path(argv[2]).read_text().startswith("# bad float"):
        assert ":2:" in err


@pytest.mark.parametrize("config", ["slit_width = 1e-6\n",
                                    "n_wall = 65536\nslit_width = 2e-6\n"],
                         ids=["6-cell-slits", "328-cell-slits-65536"])
def test_narrow_slits_pass_the_projector_checks(tmp_path, config):
    """Slits of a few microns: the projector checks run on the pattern's own
    wall, so every slit that covers a cell of it passes them."""
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(config)
    assert main(["two-slit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "two-slit.json").read_text())
    entries = {e["check_name"]: e for e in report["entries"]}
    for name in ("projector_poisson_disjoint", "projector_poisson_mixing_control_nonzero"):
        assert entries[name]["pass"]
    assert entries["projector_poisson_disjoint"]["residual"] == 0.0


@pytest.mark.parametrize("argv", [
    ["kahler-audit", "--dims", "2", "--trials", "1"],
    ["geodesic-verify", "--ambient-dims", "2", "--pairs", "2", "--certificates", "0"],
    ["two-slit"],
    ["evolve", "--hamiltonian", "sigma_z", "--start", "plus", "--t-end", "0.1"],
    ["demo-spin", "--dt", "1e-2"],
], ids=lambda argv: argv[0])
def test_one_wrote_line_names_every_output(tmp_path, capsys, argv):
    out = tmp_path / "new" / "out"  # created by the command, parents included
    assert main(argv + ["--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("wrote ")
    named = lines[0][len("wrote "):].split(": ")[0].split(" and ")
    assert sorted(named) == sorted(str(p) for p in out.iterdir())
    assert named[-1] == str(out / f"{argv[0]}.json")


@pytest.mark.parametrize("dt, seed", [("0.1", "0"), ("0.2", "0"), ("0.2", "6")],
                         ids=["0.1", "0.2", "0.2-seed6"])
def test_geodesic_coarse_dt_passes(tmp_path, dt, seed):
    """``--dt`` is the one engine step, for the sweep and the certificates;
    up to 0.2 it meets the tolerances every step is graded at."""
    assert main(["geodesic-verify", "--seed", seed, "--dt", dt, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv", [["--seed", "0", "--dt", "0.5"],
                                  ["--seed", "6", "--dt", "0.5"],
                                  ["--ambient-dims", "3", "--pairs", "1", "--certificates", "1",
                                   "--dt", "1"]],
                         ids=["0.5", "0.5-seed6", "1"])
def test_geodesic_too_coarse_dt_fails_the_strict_checks(tmp_path, capsys, argv):
    """A step too coarse for the tolerances fails the integrated distance and
    the certificate's length, graded as at any step, with finite residuals
    and nothing on stderr.  At seed 6 a dim-3 pair is 0.16 apart, so its
    certificate shots (0.31 long) are shorter than a step of 0.5, and they
    still arrive.  Each failing entry gets one stdout line after the summary,
    naming its check, residual, tolerance and inputs digest."""
    assert main(["geodesic-verify", *argv, "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    data = json.loads((tmp_path / "geodesic-verify.json").read_text())
    summary, *lines = captured.out.splitlines()
    assert summary.endswith("checks, FAILURES")
    assert lines == [f"  failed {e['check_name']}: residual {e['residual']!r}, tolerance "
                     f"{e['tolerance']!r}, inputs {e['inputs_digest']}"
                     for e in data["entries"] if not e["pass"]]
    assert sorted(data["metadata"]) == ["ambient_dims", "dt", "pairs", "seed",
                                        "tolerance_scale", "version"]
    entries = data["entries"]
    assert {e["check_name"] for e in entries if not e["pass"]} == {
        "certificate_length_match", "integrated_distance_vs_overlap"}
    assert all(math.isfinite(e["residual"]) for e in entries)
    tolerances = {e["check_name"]: e["tolerance"] for e in entries}
    assert tolerances["integrated_distance_vs_overlap"] == 1e-8
    assert tolerances["certificate_length_match"] == 1e-6
    assert tolerances["certificate_arrival"] == 1e-8


def test_failed_checks_are_named_on_stdout(tmp_path, capsys):
    """Exit 1 prints one line per failing entry, ``failure`` text included,
    after the summary line."""
    rep = Report(command="demo")
    fine = rep.add("fine", 1e-14, 1e-12, x=1)
    loose = rep.add("loose", 2e-6, 1e-8, x=2)
    stuck = rep.add("stuck", 1e-14, 1e-12, failure="did not converge", x=3)
    assert _finish(rep, str(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and fine.passed
    assert captured.out.splitlines()[1:] == [
        f"  failed loose: residual 2e-06, tolerance 1e-08, inputs {loose.inputs_digest}",
        f"  failed stuck: residual 1e-14, tolerance 1e-12, did not converge, "
        f"inputs {stuck.inputs_digest}"]


class TestCliOutputs:
    def test_kahler_audit_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["kahler-audit", "--dims", "2,3", "--trials", "3",
                         "--seed", "5", "--out", str(out)]) == 0
        assert ((out1 / "kahler-audit.json").read_bytes()
                == (out2 / "kahler-audit.json").read_bytes())

    def test_zero_trials_yields_empty_passing_report(self, tmp_path):
        assert main(["kahler-audit", "--dims", "2", "--trials", "0",
                     "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "kahler-audit.json").read_text())
        assert data["entries"] == []
        assert data["all_pass"] is True

    def test_geodesic_verify_small_run(self, tmp_path):
        code = main(["geodesic-verify", "--ambient-dims", "2", "--pairs", "4",
                     "--certificates", "0", "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "geodesic-verify.json").read_text())
        names = {e["check_name"] for e in data["entries"]}
        assert "closed_form_distance_vs_overlap" in names
        assert "sphere_area_statistical_pi" in names

    def test_geodesic_verify_integrates_one_great_circle(self, tmp_path, monkeypatch):
        sweeps = []
        original = projqm.geodesics._march

        def counting(*args):
            sweeps.append(args)
            return original(*args)

        monkeypatch.setattr(projqm.geodesics, "_march", counting)
        code = main(["geodesic-verify", "--ambient-dims", "2,3,4", "--pairs", "4",
                     "--certificates", "0", "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "geodesic-verify.json").read_text())
        checks = [e["check_name"] for e in data["entries"]]
        assert checks.count("integrated_distance_vs_overlap") == 3
        assert len(sweeps) == 1

    def test_two_slit_writes_pattern_and_report(self, tmp_path):
        assert main(["two-slit", "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "two-slit.json").read_text())
        assert data["all_pass"] is True
        header = (tmp_path / "pattern.csv").read_text().splitlines()[0]
        assert header.split(",")[0] == "x"

    def test_evolve_with_json_operator(self, tmp_path):
        op = tmp_path / "h.json"
        op.write_text("[[[1,0],[0,-1]],[[0,1],[0,0]]]")  # [[1, -i], [i, 0]]
        state = tmp_path / "s.json"
        state.write_text("[[1,0],[0,0]]")
        code = main(["evolve", "--hamiltonian", str(op), "--start", str(state),
                     "--t-end", "0.3", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert rows[0].startswith("time,psi0_re")

    def test_evolve_ehrenfest_passes_at_a_large_hamiltonian(self, tmp_path):
        """H = diag(5, -5): the flow is exact, and the Ehrenfest law holds to
        rounding.  A central difference at eps = 1e-4 read 1.04e-7 here,
        above the 2e-8 tolerance."""
        op = tmp_path / "h.json"
        op.write_text("[[[5,0],[0,0]],[[0,0],[-5,0]]]")
        code = main(["evolve", "--hamiltonian", str(op), "--start", "plus",
                     "--t-end", "0.1", "--dt", "1e-5", "--out", str(tmp_path)])
        assert code == 0
        entries = json.loads((tmp_path / "evolve.json").read_text())["entries"]
        ehrenfest = [e for e in entries if e["check_name"] == "ehrenfest_residual"]
        assert len(ehrenfest) == 1 and ehrenfest[0]["residual"] <= 1e-14

    def test_evolve_zero_duration_single_row(self, tmp_path):
        code = main(["evolve", "--hamiltonian", "sigma_z", "--start", "plus",
                     "--t-end", "0", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 2

    def test_demo_spin(self, tmp_path):
        assert main(["demo-spin", "--dt", "1e-3", "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "demo-spin.json").read_text())
        names = [e["check_name"] for e in data["entries"]]
        assert "precession_cosine" in names
        assert "period_return" in names
        assert data["all_pass"] is True


def test_import_loads_no_scipy():
    """scipy is a test-only dependency; importing it costs most of start-up."""
    script = ("import sys, projqm, projqm.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(projqm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_import_loads_no_exact_arithmetic_and_builds_no_csv_table():
    """The CSV formatter's exact tables come from plain ints, and its tables
    and block buffers are built at first use."""
    script = ("import sys, projqm.cli, projqm.report; "
              "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules), "
              "projqm.report._tables.cache_info().currsize, vars(projqm.report._local))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(projqm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[] 0 {}"


@pytest.mark.parametrize("args", [["--dt", "0"], ["--dt", "nan"], ["--dt", "-1"],
                                  ["--dt", "0.5"],  # RK4 norm drift
                                  ["--turns", "1e307"]])  # t_end / dt overflows
def test_spin_precession_script_bad_dt_exits_two(tmp_path, args):
    out = tmp_path / "spin.csv"
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scripts", "spin_precession.py")
    done = subprocess.run([sys.executable, script, *args, "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "error: " in done.stderr.strip().splitlines()[-1]
    assert not out.exists()


@pytest.mark.parametrize("args", [["--separations", "abc"], ["--separations", "nan"],
                                  ["--separations", "0"], ["--separations=-1e-4"],
                                  ["--separations", "1e-9"]])  # 1e-9: the slits overlap
def test_fringe_scan_script_bad_separation_exits_two(tmp_path, args):
    out = tmp_path / "fringes.csv"
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scripts", "fringe_scan.py")
    done = subprocess.run([sys.executable, script, *args, "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "error: " in done.stderr.strip().splitlines()[-1]
    assert not out.exists()
