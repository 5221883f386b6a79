import os
import shlex
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import spinpulse
from spinpulse import cli
from spinpulse.cli import main
from spinpulse.corrections import nogo_diagnostics
from spinpulse.design import _Parameterization
from spinpulse.bath import preset_bath
from spinpulse.fileio import fmt, format_bath, parse_problem
from spinpulse.sampling import pi_close_ntrajectory, random_fourier_shape, random_ntrajectory
from spinpulse.trajectory import integrate_axis_angle, n_trajectory

PI = "3.14159265358979312"

PULSE_CONSTANT_PI = f"""schema_version = 1
kind = pulse
representation = fourier
tau_p = 1.0
tau_s = 0.5
theta = {PI}
fourier_order = 0
coeff.y.a.0 = -1.57079632679489656
"""

BATH_DYNAMIC = """schema_version = 1
kind = bath
preset = spin-dynamic
lambda = 1.0
omega_b = 1.0
"""

PROBLEM_S = f"""schema_version = 1
kind = problem
theta = {PI}
tau_s = 0.5
fourier_order = 2
components = y
targets = r1
symmetric = true
endpoint_zero_derivatives = 1
restarts = 8
"""


PULSE_SAMPLED_PI = """schema_version = 1
kind = pulse
representation = axis_angle_samples
tau_p = 1
tau_s = 0.5
theta = 3.141592653589793
sample.0 = 0 0 1 0 0
sample.1 = 0.5 0 1 0 1.5707963267948966
sample.2 = 1 0 1 0 3.141592653589793
"""

BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"
TEST_DATA = Path(__file__).resolve().parent / "data"
OVERFLOW_MESSAGE = ("trajectory frames must be unit quaternions, but an RK4 step is "
                    "not finite: the amplitude overflows the step products")

PULSE_PIECEWISE = f"""schema_version = 1
kind = pulse
representation = piecewise_constant
tau_p = 1
tau_s = 0.5
theta = {PI}
boundaries = 0 1
segment.0 = 0 {PI} 0
"""

# v = (0, 2, 0) on [0, 0.5), (3, 0, 0) on [0.5, 1]: q' jumps at the breakpoint
PULSE_TWO_SEGMENTS = f"""schema_version = 1
kind = pulse
representation = piecewise_constant
tau_p = 1
tau_s = 0.5
theta = {PI}
boundaries = 0 0.5 1
segment.0 = 0 2 0
segment.1 = 3 0 0
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "pi.pulse").write_text(PULSE_CONSTANT_PI)
    (tmp_path / "frame.pulse").write_text(PULSE_SAMPLED_PI)
    (tmp_path / "two.pulse").write_text(PULSE_TWO_SEGMENTS)
    (tmp_path / "dyn.bath").write_text(BATH_DYNAMIC)
    (tmp_path / "s.problem").write_text(PROBLEM_S)
    return tmp_path


class TestConvert:
    def test_trajectory_csv(self, workdir):
        out = workdir / "traj.csv"
        code = main(["convert", str(workdir / "pi.pulse"), "--grid", "128",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1].startswith("# manifest_sha256=")
        assert lines[2] == "t,ax,ay,az,psi,nx,ny,nz"
        first = [float(x) for x in lines[3].split(",")]
        assert first[0] == 0.0
        # angle sweep of a pi pulse: psi(tau_p) - psi(0) = -pi for the pinned mean
        last = [float(x) for x in lines[-1].split(",")]
        assert last[4] - first[4] == pytest.approx(np.pi, abs=1e-8)

    def test_amplitude_output_satisfies_projection(self, workdir, capsys):
        out = workdir / "amp.csv"
        code = main(["convert", str(workdir / "pi.pulse"), "--to", "amplitude",
                     "--grid", "128", "--out", str(out)])
        assert code == 0
        rows = np.loadtxt(out.read_text().splitlines()[3:], delimiter=",")
        assert np.abs(rows[:, 2] + np.pi / 2).max() < 1e-7

    @pytest.mark.parametrize("grid", [256, 1024, 8192])
    def test_piecewise_round_trip(self, workdir, capsys, grid):
        """Each span between breakpoints is differentiated on its own, so a
        piecewise pulse round-trips, and the breakpoint node reads the right
        segment's v, as the amplitude is right-continuous."""
        out = workdir / "amp.csv"
        assert main(["convert", str(workdir / "two.pulse"), "--to", "amplitude",
                     "--grid", str(grid), "--out", str(out)]) == 0
        assert float(capsys.readouterr().err.split("round-trip defect = ")[1]) <= 1e-6
        rows = np.loadtxt(out.read_text().splitlines()[3:], delimiter=",")
        at_boundary = rows[rows[:, 0] == 0.5, 1:]
        assert len(at_boundary) == 1
        assert np.abs(at_boundary[0] - [3.0, 0.0, 0.0]).max() <= 3e-6

    def test_segment_below_the_merge_tolerance_is_no_span(self, workdir, capsys):
        """A segment shorter than the grid's 1e-12 tau_p merge tolerance is no
        cut of the grid, so it leaves no one-node span: the merged breakpoint
        node reads the span to its right and every other node its segment.  The
        printed defect compares each node with the v its RK4 step read, so the
        sliver's own v, which no step reads, does not enter it."""
        src = workdir / "sliver.pulse"
        src.write_text(PULSE_TWO_SEGMENTS.replace(
            "boundaries = 0 0.5 1", "boundaries = 0 0.5 0.5000000000001 1").replace(
            "segment.1 = 3 0 0", "segment.1 = 1 1 1\nsegment.2 = 3 0 0"))
        out = workdir / "amp.csv"
        assert main(["convert", str(src), "--to", "amplitude", "--grid", "256",
                     "--out", str(out)]) == 0
        assert float(capsys.readouterr().err.split("round-trip defect = ")[1]) <= 1e-6
        rows = np.loadtxt(out.read_text().splitlines()[3:], delimiter=",")
        expected = np.where(rows[:, :1] < 0.5, [0.0, 2.0, 0.0], [3.0, 0.0, 0.0])
        assert np.abs(rows[:, 1:] - expected).max() <= 3e-6

    def test_malformed_exits_2(self, workdir, capsys):
        bad = workdir / "bad.pulse"
        bad.write_text("schema_version = 1\nkind = pulse\nbroken\n")
        assert main(["convert", str(bad)]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("index", ["01", "+1", "1_0"])
    def test_non_canonical_harmonic_index_exits_2(self, workdir, capsys, index):
        """Only str(k) names harmonic k, so a second spelling of a_1 is no
        silent overwrite of the first."""
        bad = workdir / "bad_index.pulse"
        bad.write_text("schema_version = 1\nkind = pulse\nrepresentation = fourier\n"
                       "tau_p = 1\ntau_s = 0.5\ntheta = 0\nfourier_order = 10\n"
                       f"coeff.y.a.1 = 1.0\ncoeff.y.a.{index} = 5.0\n")
        assert main(["convert", str(bad), "--out", str(workdir / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert "line 9" in err and f"bad harmonic index in 'coeff.y.a.{index}'" in err
        assert not (workdir / "out.csv").exists()

    def test_invariant_violation_exits_3(self, workdir):
        bad = workdir / "bad_axis.pulse"
        bad.write_text(
            "schema_version = 1\nkind = pulse\nrepresentation = axis_angle_samples\n"
            f"tau_p = 1\ntau_s = 0.5\ntheta = {PI}\n"
            "sample.0 = 0 0 2 0 0\nsample.1 = 1 0 1 0 1\n")
        assert main(["convert", str(bad)]) == 3

    def test_missing_file_exits_2(self, workdir):
        assert main(["convert", str(workdir / "nope.pulse")]) == 2


class TestCorrections:
    def test_uncorrected_pulse_fails_threshold(self, workdir, capsys):
        out = workdir / "report.txt"
        code = main(["corrections", str(workdir / "pi.pulse"), "--out", str(out)])
        assert code == 1
        text = out.read_text()
        fields = dict(line.split(" = ") for line in text.strip().splitlines())
        assert float(fields["r1_normalized"]) == pytest.approx(2 / np.pi, abs=1e-6)
        assert fields["pi_pulse"] == "true"

    def test_no_pulse_passes(self, workdir):
        quiet = workdir / "zero.pulse"
        quiet.write_text("schema_version = 1\nkind = pulse\nrepresentation = fourier\n"
                         "tau_p = 1.0\ntau_s = 1.0\ntheta = 0\nfourier_order = 0\n")
        assert main(["corrections", str(quiet), "--targets", "r1,r2a,r2b"]) == 0

    def test_unknown_target_exits_2_before_writing(self, workdir, capsys):
        out = workdir / "report.txt"
        code = main(["corrections", str(workdir / "pi.pulse"), "--targets", "r1,bogus",
                     "--out", str(out)])
        assert code == 2
        assert "'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_target_exits_2_before_writing(self, workdir, capsys):
        """A repeated target is refused, as a problem file's targets are."""
        out = workdir / "report.txt"
        code = main(["corrections", str(workdir / "pi.pulse"), "--targets", "r1,r1",
                     "--out", str(out)])
        assert code == 2
        assert "--targets must be distinct" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["nan", "-1", "inf"])
    def test_bad_threshold_exits_2_before_writing(self, workdir, capsys, threshold):
        out = workdir / "report.txt"
        code = main(["corrections", str(workdir / "pi.pulse"), "--threshold", threshold,
                     "--out", str(out)])
        assert code == 2
        assert "--threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_threshold_override(self, workdir):
        code = main(["corrections", str(workdir / "pi.pulse"), "--threshold", "10.0"])
        assert code == 0

    def test_tau_s_override_anchors_the_frame_there(self, tmp_path):
        """--tau-s T reports what the same pulse written with tau_s = T reports."""
        text = (BENCH_DATA / "q_reference.txt").read_text()
        assert "tau_s = 0.5\n" in text
        rewritten = tmp_path / "q_03.txt"
        rewritten.write_text(text.replace("tau_s = 0.5\n", "tau_s = 0.3\n"))
        records = []
        for argv in ([str(BENCH_DATA / "q_reference.txt"), "--tau-s", "0.3"], [str(rewritten)]):
            out = tmp_path / f"report{len(records)}.txt"
            main(["corrections", *argv, "--out", str(out)])
            records.append([line for line in out.read_text().splitlines()
                            if not line.startswith("manifest_sha256 = ")])
        assert "tau_s = 0.29999999999999999" in records[0]
        assert records[0] == records[1]

    @pytest.mark.parametrize("tau_s", ["-0.1", "1.5", "nan"])
    def test_tau_s_override_outside_the_pulse_exits_3(self, workdir, capsys, tau_s):
        out = workdir / "report.txt"
        assert main(["corrections", str(workdir / "pi.pulse"), "--tau-s", tau_s,
                     "--out", str(out)]) == 3
        assert "tau_s must lie in [0, tau_p]" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_changes_the_manifest_digest(self, workdir):
        digests = []
        for grid in ("256", "1024"):
            out = workdir / f"report-{grid}.txt"
            main(["corrections", str(workdir / "pi.pulse"), "--grid", grid,
                  "--out", str(out)])
            fields = dict(line.split(" = ") for line in out.read_text().strip().splitlines())
            digests.append(fields["manifest_sha256"])
        assert digests[0] != digests[1]


class TestLibraryErrors:
    @pytest.mark.parametrize("command", ["corrections", "convert"])
    @pytest.mark.parametrize("coeffs, flags, message", [
        ("coeff.y.a.0 = -3000\n", ["--grid", "64"],
         "trajectory frames must be unit quaternions"),
        ("coeff.y.a.0 = 1e308\ncoeff.y.a.1 = 1e308\n", [],
         "pulse amplitude is not finite"),
        ("coeff.y.a.0 = -1e100\ncoeff.x.a.1 = 1e100\n", ["--grid", "64"],
         OVERFLOW_MESSAGE),
    ], ids=["under-resolved", "non-finite", "non-finite-frames"])
    @pytest.mark.filterwarnings("error")
    def test_value_error_after_parsing_exits_3(self, tmp_path, capsys, command, coeffs,
                                               flags, message):
        pulse = tmp_path / "strong.pulse"
        pulse.write_text("schema_version = 1\nkind = pulse\nrepresentation = fourier\n"
                         f"tau_p = 1.0\ntau_s = 0.5\ntheta = {PI}\nfourier_order = 1\n"
                         + coeffs)
        out = tmp_path / "out.txt"
        assert main([command, str(pulse), *flags, "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_fourier_order_exits_3_naming_it(self, tmp_path, capsys):
        pulse = tmp_path / "negative.pulse"
        pulse.write_text("schema_version = 1\nkind = pulse\nrepresentation = fourier\n"
                         f"tau_p = 1.0\ntau_s = 0.5\ntheta = {PI}\nfourier_order = -1\n")
        out = tmp_path / "out.txt"
        assert main(["corrections", str(pulse), "--out", str(out)]) == 3
        assert "fourier_order must not be negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_verify_overflowing_amplitude_exits_3(self, tmp_path, capsys):
        """Rescaled to tau_p ~ 1e-300, the Q pulse's amplitude (~1e301) is finite
        but its RK4 step products overflow on any grid: exit 3, blaming the
        amplitude, not the grid."""
        bath = tmp_path / "ising.bath"
        bath.write_text(format_bath(preset_bath("spin-ising", coupling=1.0)))
        out = tmp_path / "out.txt"
        assert main(["verify", str(BENCH_DATA / "q_reference.txt"), str(bath),
                     "--sweep", "1e-300:1e-299:4", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert OVERFLOW_MESSAGE in err and "does not resolve" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid", ["64", "256"])
    def test_under_resolved_grid_exits_3_without_warnings(self, tmp_path, capsys, grid):
        """RK4 steps that drift from unit norm are rejected before the frame
        product: exit 3, and no numpy warning on the way."""
        pulse = tmp_path / "fast.pulse"
        pulse.write_text("schema_version = 1\nkind = pulse\nrepresentation = fourier\n"
                         f"tau_p = 1.0\ntau_s = 0.5\ntheta = {PI}\nfourier_order = 1\n"
                         "coeff.y.a.0 = -300\n")
        out = tmp_path / "out.txt"
        assert main(["corrections", str(pulse), "--grid", grid, "--out", str(out)]) == 3
        assert "the grid does not resolve the pulse" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, old, new, field", [
        ("verify", "lambda = 1.0", "lambda = nan", "lambda"),
        ("verify", "lambda = 1.0", "lambda = inf", "lambda"),
        ("verify", "omega_b = 1.0", "omega_b = nan", "omega_b"),
        ("verify", "preset = spin-dynamic\nlambda = 1.0\nomega_b = 1.0\n",
         "lambda = 1.0\ndim_b = 1\nh_b.0.0 = nan 0\na.0.0 = 1 0\n", "h_b"),
        ("verify", "preset = spin-dynamic\nlambda = 1.0\nomega_b = 1.0\n",
         "lambda = 1.0\ndim_b = 1\na.0.0 = inf 0\n", "a must be finite"),
        ("corrections", "tau_p = 1.0", "tau_p = inf", "tau_p"),
        ("convert", f"theta = {PI}", "theta = nan", "theta"),
        ("verify", f"theta = {PI}", "theta = inf", "theta"),
        ("convert", "sample.1 = 0.5 0", "sample.1 = 0.5 nan", "sample axes must be finite"),
        ("corrections", "0 1 0 1.5707963267948966", "0 1 0 nan",
         "sample angles must be finite"),
        ("verify", "sample.1 = 0.5", "sample.1 = inf", "sample times must be finite"),
    ], ids=["lambda-nan", "lambda-inf", "omega_b-nan", "h_b-nan", "a-inf", "tau_p-inf",
            "theta-nan", "theta-inf", "sample-axis-nan", "sample-angle-nan",
            "sample-time-inf"])
    def test_non_finite_field_exits_3(self, workdir, capsys, command, old, new, field):
        """A non-finite bath or pulse field is an invariant violation that
        names the field, before any numerical work and with no numpy warning.
        The sampled pulse's cases fail before any spline is built."""
        bath = workdir / "dyn.bath"
        edited = [path for path in (workdir / "pi.pulse", workdir / "frame.pulse", bath)
                  if old in path.read_text()]
        assert len(edited) == 1
        edited[0].write_text(edited[0].read_text().replace(old, new))
        pulse = workdir / "pi.pulse" if edited[0] == bath else edited[0]
        out = workdir / "out.txt"
        files = [str(pulse), str(bath)] if command == "verify" else [str(pulse)]
        assert main([command, *files, "--out", str(out)]) == 3
        assert field in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("old, new, field", [
        ("lambda = 1.0", "lambda = 1e200", "lambda"),
        ("omega_b = 1.0", "omega_b = 1e200", "omega_b"),
    ], ids=["lambda-squared", "omega_b-norm"])
    def test_overflowing_bath_scale_exits_3(self, workdir, capsys, old, new, field):
        """A finite bath field whose square or norm overflows is an invariant
        violation that names the field, with no traceback and no numpy warning."""
        bath = workdir / "dyn.bath"
        bath.write_text(bath.read_text().replace(old, new))
        out = workdir / "out.txt"
        assert main(["verify", str(workdir / "pi.pulse"), str(bath), "--out", str(out)]) == 3
        assert field in capsys.readouterr().err
        assert not out.exists()


class TestSolveAndVerify:
    def test_solve_writes_reverifiable_solution(self, workdir):
        out = workdir / "solution.pulse"
        assert main(["solve", str(workdir / "s.problem"), "--seed", "1",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "solution.converged = true" in text
        assert "manifest_sha256 = " in text
        # the solution file is itself a valid pulse file passing the r1 gate
        assert main(["corrections", str(out)]) == 0

    def test_unverified_solve_names_the_failed_checks(self, workdir, capsys):
        """At grid 64 LM converges, but the doubled-grid re-check fails: stderr
        names each check that failed, and only those."""
        problem = workdir / "s.problem"
        problem.write_text(PROBLEM_S + "grid = 64\n")
        assert main(["solve", str(problem), "--seed", "0", "--out", str(workdir / "s.out")]) == 1
        err = capsys.readouterr().err
        failed = [line.split(" = ")[0] for line in err.splitlines()
                  if line.startswith("failed check: ")]
        assert failed == ["failed check: r1_normalized", "failed check: rotation_violation"]
        assert "on the doubled grid, bound 1e-07" in err

    def test_verify_first_order_band(self, workdir):
        sol = workdir / "solution.pulse"
        main(["solve", str(workdir / "s.problem"), "--seed", "1", "--out", str(sol)])
        out = workdir / "sweep.csv"
        code = main(["verify", str(sol), str(workdir / "dyn.bath"),
                     "--sweep", "1e-2:1e-1:4", "--regime", "first-order",
                     "--out", str(out)])
        assert code == 0
        trailer = [l for l in out.read_text().splitlines() if l.startswith("#")]
        assert any("uf_slope=" in l for l in trailer)

    def test_verify_wrong_band_fails(self, workdir):
        out = workdir / "sweep.csv"
        code = main(["verify", str(workdir / "pi.pulse"), str(workdir / "dyn.bath"),
                     "--sweep", "1e-2:1e-1:4", "--regime", "first-order",
                     "--out", str(out)])
        assert code == 1   # an uncorrected pulse has slope ~1

    def test_bad_sweep_spec(self, workdir):
        assert main(["verify", str(workdir / "pi.pulse"), str(workdir / "dyn.bath"),
                     "--sweep", "nope"]) == 2

    @pytest.mark.parametrize("sweep", ["1e-3:inf:6", "nan:1e-1:6", "1e-3:nan:6"])
    def test_non_finite_sweep_exits_2(self, workdir, capsys, sweep):
        out = workdir / "sweep.csv"
        assert main(["verify", str(workdir / "pi.pulse"), str(workdir / "dyn.bath"),
                     "--sweep", sweep, "--out", str(out)]) == 2
        assert "sweep" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("band", ["abc", "5", "1:2:3", "nan:3", "1:inf", "2:1", "2:2"],
                             ids=["word", "one-number", "three-numbers", "nan", "inf",
                                  "reversed", "empty"])
    def test_bad_band_exits_2_before_the_sweep(self, workdir, capsys, band):
        out = workdir / "sweep.csv"
        assert main(["verify", str(workdir / "pi.pulse"), str(workdir / "dyn.bath"),
                     "--band", band, "--out", str(out)]) == 2
        assert "band" in capsys.readouterr().err
        assert not out.exists()


class TestNogo:
    def test_end_split_gaps_nonnegative(self, workdir):
        out = workdir / "gaps.csv"
        code = main(["nogo", "ts-eq-tp", "--samples", "20", "--grid", "128",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[2] == "sample,tau_s,gap"
        gaps = [float(l.split(",")[2]) for l in lines[3:] if not l.startswith("#")]
        assert min(gaps) >= -1e-9

    def test_unknown_check(self):
        assert main(["nogo", "bogus", "--samples", "5"]) == 2

    def test_zero_samples(self):
        assert main(["nogo", "ts-eq-tp", "--samples", "0"]) == 2

    @pytest.mark.parametrize("grid, samples, chunks", [
        (256, 17, [8, 8, 1]), (4096, 2, [1, 1]),
    ], ids=["grid-256", "grid-4096"])
    def test_lane_chunks_equal_lone_samples(self, workdir, monkeypatch, grid, samples, chunks):
        """Samples run in chunks of 2048 // grid lanes, and every row equals its
        sample drawn, integrated, pi-closed and measured on its own."""
        drawn = []

        def counted(rng, lanes, steps):
            drawn.append(lanes)
            return random_ntrajectory(rng, lanes, steps)

        monkeypatch.setattr(cli, "random_ntrajectory", counted)
        out = workdir / "pi.csv"
        assert main(["nogo", "pi-second-order", "--samples", str(samples),
                     "--grid", str(grid), "--seed", "7", "--out", str(out)]) == 0
        assert drawn == chunks
        rng = np.random.default_rng(7)
        expected = []
        for i in range(samples):
            shape = random_fourier_shape(rng)
            closed = pi_close_ntrajectory(n_trajectory(integrate_axis_angle(shape, grid)))
            gap = nogo_diagnostics(closed, shape.tau_s).pi2_gap
            expected.append(",".join(fmt(x) for x in (i, shape.tau_s, gap)))
        rows = [line for line in out.read_text().splitlines()[3:] if not line.startswith("#")]
        assert rows == expected

    @pytest.mark.parametrize("check", ["pi-second-order", "ts-eq-tp"])
    def test_csv_does_not_depend_on_the_lane_budget(self, workdir, monkeypatch, check):
        """With 1, 8 and 32 lanes per chunk, 37 samples (a multiple of no chunk
        but the first) give the same CSV bytes."""
        documents = []
        for lane_steps in (256, 2048, 8192):
            monkeypatch.setattr(cli, "LANE_STEPS", lane_steps)
            out = workdir / f"{check}-{lane_steps}.csv"
            assert main(["nogo", check, "--samples", "37", "--grid", "256", "--seed", "5",
                         "--out", str(out)]) == 0
            documents.append(out.read_bytes())
        assert documents[0] == documents[1] == documents[2]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["corrections", "{pulse}", "--grid", "8"],
        ["nogo", "ts-eq-tp", "--grid", "8", "--samples", "2"],
        ["convert", "{pulse}", "--grid", "8"],
        ["verify", "{pulse}", "{bath}", "--steps", "2"],
    ], ids=["corrections-grid", "nogo-grid", "convert-grid", "verify-steps"])
    def test_too_coarse_grid_exits_2(self, workdir, capsys, argv):
        argv = [a.format(pulse=workdir / "pi.pulse", bath=workdir / "dyn.bath")
                for a in argv]
        assert main(argv) == 2
        assert "must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize("restarts", ["-1", "0"])
    def test_restarts_below_one_exits_2(self, workdir, capsys, restarts):
        assert main(["solve", str(workdir / "s.problem"), "--restarts", restarts]) == 2
        assert "--restarts must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["convert", "{pulse}", "--grid", "63"], "--grid must be at least 64"),
        (["verify", "{pulse}", "{bath}", "--steps", "31"], "--steps must be at least 32"),
        (["solve", "{problem}", "--restarts", "0"], "--restarts must be at least 1"),
        (["nogo", "ts-eq-tp", "--samples", "0"], "--samples must be at least 1"),
    ], ids=["grid", "verify-steps", "restarts", "samples"])
    def test_count_flag_below_its_floor_exits_2(self, workdir, capsys, argv, message):
        """One below each count flag's floor names the flag and the floor."""
        out = workdir / "out"
        argv = [a.format(pulse=workdir / "pi.pulse", bath=workdir / "dyn.bath",
                         problem=workdir / "s.problem") for a in argv]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_problem_file_without_restarts_exits_3(self, workdir, capsys):
        prob = workdir / "none.problem"
        prob.write_text(PROBLEM_S.replace("restarts = 8", "restarts = 0"))
        assert main(["solve", str(prob)]) == 3
        assert "restarts must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("body, flags, message", [
        ("theta = 1.5707963267948966\ntau_s = free\nfourier_order = 1\n"
         "components = x y\ntargets = r1 r2a r2b\nsymmetric = false\n", [],
         "7 free coefficients cannot honor 9 target equations"),
        ("theta = 3.14159265358979312\nfourier_order = 1\n"
         "endpoint_zero_derivatives = 2\n", [],
         "endpoint-derivative constraints leave no free coefficients"),
        ("theta = 3.14159265358979312\nfourier_order = 1\n"
         "endpoint_zero_derivatives = 2\n", ["--probe"],
         "endpoint-derivative constraints leave no free coefficients"),
        ("theta = 3.14159265358979312\nansatz = piecewise\nsegments = 1\n", [],
         "a fixed axis pins the mean amplitude, which fixes a lone segment"),
    ], ids=["overdetermined", "no-free-coefficients", "no-free-coefficients-probe",
            "piecewise-lone-segment"])
    def test_ill_posed_problem_exits_3(self, workdir, capsys, body, flags, message):
        prob = workdir / "ill.problem"
        prob.write_text("schema_version = 1\nkind = problem\n" + body)
        out = workdir / "ill.pulse"
        assert main(["solve", str(prob), *flags, "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old, new, field", [
        ("restarts = 8", "restarts = 8\namplitude_bound = nan", "amplitude_bound"),
        ("restarts = 8", "restarts = 8\namplitude_bound = 0", "amplitude_bound"),
        ("restarts = 8", "restarts = 8\npower_weight = nan", "power_weight"),
        ("restarts = 8", "restarts = 8\npower_weight = -1", "power_weight"),
        (f"theta = {PI}", "theta = nan", "theta"),
        ("restarts = 8", "restarts = 8\nansatz = piecewise\nsegments = 0", "segments"),
        ("endpoint_zero_derivatives = 1", "endpoint_zero_derivatives = -1",
         "endpoint_zero_derivatives"),
        ("components = y", "components = y y", "components"),
        ("components = y", "components = x", "components"),
        ("components = y", "components = z", "components"),
        ("targets = r1", "targets =", "targets"),
        ("components = y\ntargets = r1", "components = x y\ntargets =", "targets"),
        ("targets = r1", "targets = r1 r1", "targets must be distinct"),
        ("restarts = 8", "restarts = 8\nansatz = piecewise", "endpoint_zero_derivatives"),
    ], ids=["bound-nan", "bound-zero", "power-nan", "power-negative", "theta-nan",
            "no-segments", "negative-derivatives", "repeated-component", "fixed-x-axis",
            "fixed-z-axis", "no-targets", "no-targets-general", "repeated-target",
            "piecewise-derivatives"])
    def test_invalid_problem_field_exits_3(self, workdir, capsys, old, new, field):
        prob = workdir / "bad.problem"
        prob.write_text(PROBLEM_S.replace(old, new))
        out = workdir / "bad.pulse"
        assert main(["solve", str(prob), "--out", str(out)]) == 3
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_tau_s_exits_2_with_its_line(self, workdir, capsys):
        prob = workdir / "bad.problem"
        prob.write_text(PROBLEM_S.replace("tau_s = 0.5", "tau_s = abc"))
        out = workdir / "bad.pulse"
        assert main(["solve", str(prob), "--out", str(out)]) == 2
        line = PROBLEM_S.splitlines().index("tau_s = 0.5") + 1
        assert f"line {line}," in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, old, new, line, message", [
        ("problem", f"theta = {PI}\n", "", 0, "missing required key 'theta'"),
        ("pulse", "tau_p = 1\n", "", 0, "missing required key 'tau_p'"),
        ("problem", f"theta = {PI}", "theta = pi", 3, "theta: not a number: 'pi'"),
        ("pulse", "tau_s = 0.5", "tau_s = half", 5, "tau_s: not a number: 'half'"),
        ("problem", "fourier_order = 2", "fourier_order = 2.5", 5,
         "fourier_order: not an integer: '2.5'"),
        ("problem", "symmetric = true", "symmetric = Maybe", 8,
         "symmetric: not a boolean: 'maybe'"),
        ("pulse", "boundaries = 0 1", "boundaries = 0 x 1", 7,
         "boundaries: not a number list: '0 x 1'"),
    ], ids=["missing-problem-key", "missing-pulse-key", "bad-number-problem",
            "bad-number-pulse", "bad-integer", "bad-boolean", "bad-number-list"])
    def test_bad_field_exits_2_with_its_position(self, workdir, capsys, kind, old, new,
                                                line, message):
        """A typed field error names the key and the value at the key's line,
        column 1; a missing key has no position."""
        path = workdir / f"bad.{kind}"
        path.write_text((PROBLEM_S if kind == "problem" else PULSE_PIECEWISE).replace(old, new))
        out = workdir / "bad.out"
        command = "solve" if kind == "problem" else "corrections"
        assert main([command, str(path), "--out", str(out)]) == 2
        where = f"line {line}, column 1: " if line else ""
        assert capsys.readouterr().err == f"error: {where}{message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind, text, extra, key", [
        ("problem", PROBLEM_S, "symetric = false", "symetric"),
        ("problem", PROBLEM_S, "restart = 2", "restart"),
        ("pulse", PULSE_PIECEWISE, "segment.5 = 0 1 0", "segment.5"),
        ("bath", "schema_version = 1\nkind = bath\nlambda = 1.0\ndim_b = 1\na.0.0 = 1 0\n",
         "h_b.9.9 = 1 0", "h_b.9.9"),
        ("bath", BATH_DYNAMIC, "dim_b = 2", "dim_b"),
        ("pulse", PULSE_PIECEWISE, "manifest_sha256 = 0\nsolution.x = 1\nsolution_x = 1",
         "solution_x"),
    ], ids=["misspelled-key", "misspelled-count", "stray-segment", "entry-beyond-dim",
            "dim-beside-preset", "near-metadata"])
    def test_unknown_key_exits_2_with_its_line(self, workdir, capsys, kind, text, extra, key):
        """A key the parser does not read is named at its line, not ignored;
        a pulse file's solution metadata is read as such."""
        path = workdir / f"bad.{kind}"
        path.write_text(f"{text}{extra}\n")
        out = workdir / "bad.out"
        argv = {"problem": ["solve", str(path)], "pulse": ["corrections", str(path)],
                "bath": ["verify", str(workdir / "pi.pulse"), str(path)]}[kind]
        assert main([*argv, "--out", str(out)]) == 2
        line = len(f"{text}{extra}".splitlines())
        assert capsys.readouterr().err == f"error: line {line}, column 1: unknown key {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("dim", ["1000000", "0", "-1"])
    def test_bath_dimension_out_of_range_exits_3_at_once(self, workdir, capsys, dim):
        """The dimension is checked before any dim x dim table is built."""
        bath = workdir / "big.bath"
        bath.write_text("schema_version = 1\nkind = bath\nlambda = 1.0\n"
                        f"dim_b = {dim}\na.0.0 = 1 0\n")
        out = workdir / "out.csv"
        start = time.perf_counter()
        assert main(["verify", str(workdir / "pi.pulse"), str(bath), "--out", str(out)]) == 3
        assert time.perf_counter() - start < 1.0
        assert "bath dimension must be in 1..16" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["nogo", "ts-eq-tp", "--samples", "3", "--grid", "1000000000000000"],
        ["verify", "{pulse}", "{bath}", "--sweep", "1e-3:1e-1:1000000000000000"],
    ], ids=["nogo-grid", "verify-sweep"])
    def test_size_numpy_refuses_exits_3_at_once(self, workdir, capsys, argv):
        """A grid or sweep of petabytes: numpy refuses it before allocating anything."""
        out = workdir / "out.csv"
        argv = [a.format(pulse=workdir / "pi.pulse", bath=workdir / "dyn.bath")
                for a in argv] + ["--out", str(out)]
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 1.0
        assert "invariant violation: input too large" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_input_exits_2(self, workdir, capsys):
        """An input file that is not UTF-8 cannot be parsed: exit 2, nothing written."""
        bad, out = workdir / "bad.pulse", workdir / "out"
        bad.write_bytes(b"schema_version = 1\nkind = pulse\n\xff\xfe\n")
        assert main(["corrections", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff "
            "in position 32: invalid start byte\n")
        assert not out.exists()


class _ManifestMade(Exception):
    pass


class TestDeterminism:
    # each command's base arguments, then every option its manifest records
    # with the arguments that give that option a non-default value
    RECORDED = {
        "convert": (["convert", "{pulse}"], {
            "to": ["--to", "amplitude"], "grid": ["--grid", "512"]}),
        "corrections": (["corrections", "{pulse}"], {
            "tau_s": ["--tau-s", "0.25"], "grid": ["--grid", "512"],
            "threshold": ["--threshold", "1e-3"], "targets": ["--targets", "r1,r2a"]}),
        "verify": (["verify", "{pulse}", "{bath}"], {
            "sweep": ["--sweep", "1e-3:1e-1:5"], "regime": ["--regime", "first-order"],
            "band": ["--band", "0.5:1.5"], "steps": ["--steps", "1024"]}),
        "solve": (["solve", "{problem}"], {
            "restarts": ["--restarts", "3"], "probe": ["--probe"]}),
        "nogo": (["nogo", "ts-eq-tp"], {
            "check": ["pi-second-order"], "samples": ["--samples", "7"],
            "grid": ["--grid", "128"]}),
    }

    @staticmethod
    def argv(workdir, argv):
        paths = {"pulse": workdir / "pi.pulse", "bath": workdir / "dyn.bath",
                 "problem": workdir / "s.problem"}
        return [a.format(**paths) for a in argv]

    def manifest(self, workdir, monkeypatch, argv):
        """The run manifest a command makes, captured before any computation."""
        made = []
        original = cli.make_manifest

        def capture(*args, **kwargs):
            made.append(original(*args, **kwargs))
            raise _ManifestMade

        monkeypatch.setattr(cli, "make_manifest", capture)
        with pytest.raises(_ManifestMade):
            main(self.argv(workdir, argv))
        monkeypatch.setattr(cli, "make_manifest", original)
        return made[0]

    @pytest.mark.parametrize("command", list(RECORDED))
    def test_every_recorded_option_changes_the_manifest_digest(self, workdir, monkeypatch,
                                                               command):
        base_argv, recorded = self.RECORDED[command]
        base = self.manifest(workdir, monkeypatch, base_argv)
        assert sorted(base.options) == sorted(recorded)
        for name, extra in recorded.items():
            argv = base_argv[:1] + extra + base_argv[2:] if name == "check" else base_argv + extra
            changed = self.manifest(workdir, monkeypatch, argv)
            assert changed.options[name] != base.options[name]
            assert changed.digest() != base.digest(), name

    @pytest.mark.parametrize("command", ["convert", "corrections", "verify"])
    def test_commands_that_draw_nothing_take_no_seed(self, workdir, monkeypatch, command):
        base_argv = self.RECORDED[command][0]
        assert self.manifest(workdir, monkeypatch, base_argv).seed is None
        with pytest.raises(SystemExit) as exc:
            main(self.argv(workdir, [*base_argv, "--seed", "1"]))
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["solve", "nogo"])
    def test_seeded_commands_record_their_seed(self, workdir, monkeypatch, command):
        base_argv = self.RECORDED[command][0]
        base = self.manifest(workdir, monkeypatch, base_argv)
        seeded = self.manifest(workdir, monkeypatch, [*base_argv, "--seed", "5"])
        assert (base.seed, seeded.seed) == (0, 5)
        assert seeded.digest() != base.digest()

    @pytest.mark.parametrize("value", ["nogo_tolerance=1e-3", "bogus=1"],
                             ids=["valid", "malformed"])
    @pytest.mark.parametrize("argv", [
        ["corrections", "{pulse}", "--targets", "r1,r2b"],
        ["nogo", "pi-second-order", "--samples", "10", "--grid", "128"],
    ], ids=["corrections", "nogo"])
    def test_environment_changes_no_output(self, workdir, monkeypatch, capsys, argv, value):
        """The tolerances are constants: the former override variable, well formed
        or not, leaves the exit code, the output bytes and stderr as they are."""
        runs = []
        for env in (None, value):
            if env is None:
                monkeypatch.delenv("SPINPULSE_NUMERIC_POLICY", raising=False)
            else:
                monkeypatch.setenv("SPINPULSE_NUMERIC_POLICY", env)
            out = workdir / f"out{len(runs)}"
            code = main([*self.argv(workdir, argv), "--out", str(out)])
            runs.append((code, out.read_bytes(), capsys.readouterr().err))
        assert runs[0] == runs[1]

    def test_identical_manifest_identical_bytes(self, workdir):
        out1, out2 = workdir / "a.csv", workdir / "b.csv"
        for out in (out1, out2):
            main(["nogo", "pi-second-order", "--samples", "10", "--grid", "128",
                  "--seed", "11", "--out", str(out)])
        assert out1.read_bytes() == out2.read_bytes()
        out3 = workdir / "c.csv"
        main(["nogo", "pi-second-order", "--samples", "10", "--grid", "128",
              "--seed", "12", "--out", str(out3)])
        assert out1.read_bytes() != out3.read_bytes()

    def test_convert_deterministic(self, workdir):
        outs = []
        for name in ("x.csv", "y.csv"):
            out = workdir / name
            main(["convert", str(workdir / "pi.pulse"), "--grid", "256",
                  "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def _readme_block(section: str, language: str) -> str:
    """The first ``language`` code block under README's ``## section`` heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(f"## {section}\n", 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_command_lines_parse():
    """Every spinpulse line of the README's command-line block is a valid invocation."""
    block = _readme_block("Command line", "sh")
    lines = [line for line in block.splitlines() if line.startswith("spinpulse ")]
    assert len(lines) >= 5
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_readme_library_block_runs_as_written(capsys):
    """README's library example runs unchanged and gives what its comments say."""
    names = {}
    exec(_readme_block("Library entry points", "python"), names)
    assert len(capsys.readouterr().out.splitlines()) >= 3
    assert abs(names["report"].normalized[0] - 2.0 / np.pi) <= 1e-9
    lo, hi = cli.SLOPE_BANDS["uncorrected"]
    assert lo <= names["sweep"].slopes["uf_defect"][0] <= hi
    assert names["sol"].converged


class TestColdImport:
    # runs each argv (fields split on "|") in one interpreter, reporting after
    # the import and after each command whether scipy has been loaded
    SCRIPT = textwrap.dedent("""
        import sys
        import spinpulse, spinpulse.cli
        print("import", "scipy" in sys.modules)
        for arg in sys.argv[1:]:
            argv = arg.split("|")
            code = spinpulse.cli.main(argv)
            print(argv[0], code, "scipy" in sys.modules)
    """)

    def test_only_the_spline_paths_load_scipy(self, workdir):
        """Importing spinpulse and running corrections, nogo, a solve through the
        null space, verify and convert on a Fourier or a piecewise pulse load no
        scipy module; convert on an axis_angle_samples pulse, which splines its
        samples, does."""
        pulse, out = str(workdir / "pi.pulse"), str(workdir / "out")
        # the sine terms keep the endpoint row, so its basis is a proper null space
        problem = PROBLEM_S.replace("symmetric = true", "symmetric = false")
        basis = _Parameterization(parse_problem(problem)).basis
        assert basis.shape[1] < basis.shape[0]
        (workdir / "a.problem").write_text(problem)
        runs = [["corrections", pulse, "--out", out],
                ["nogo", "ts-eq-tp", "--samples", "4", "--out", out],
                ["solve", str(workdir / "a.problem"), "--restarts", "1", "--out", out],
                ["verify", pulse, str(workdir / "dyn.bath"), "--sweep", "1e-2:1e-1:4",
                 "--out", out],
                ["convert", pulse, "--grid", "128", "--out", out],
                ["convert", str(workdir / "two.pulse"), "--to", "amplitude", "--out", out],
                ["convert", str(workdir / "frame.pulse"), "--grid", "128", "--out", out]]
        src = str(Path(spinpulse.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, *("|".join(r) for r in runs)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        lines = [line.split() for line in proc.stdout.splitlines()]
        assert lines[0] == ["import", "False"]
        assert [line[0] for line in lines[1:]] == [r[0] for r in runs]
        for (command, code, loaded), run in zip(lines[1:], runs):
            assert code in ("0", "1"), (command, proc.stderr)
            assert loaded == ("True" if "frame.pulse" in run[1] else "False"), run


class TestAxisAngleInput:
    def test_sampled_input_to_amplitude_passes_projection_check(self, tmp_path):
        t = np.linspace(0.0, 1.0, 65)
        lines = ["schema_version = 1", "kind = pulse",
                 "representation = axis_angle_samples",
                 "tau_p = 1.0", "tau_s = 0.0", f"theta = {PI}"]
        for i, ti in enumerate(t):
            lines.append(f"sample.{i} = {ti} 0 1 0 {np.pi * ti}")
        src = tmp_path / "frame.pulse"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "amp.csv"
        assert main(["convert", str(src), "--to", "amplitude", "--grid", "256",
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out.read_text().splitlines()[3:], delimiter=",")
        # v . a = psi'/2 with a = y and psi' = pi
        assert np.abs(rows[:, 2] - np.pi / 2).max() < 1e-6


class TestProbeCommand:
    def test_pi_second_order_problem_probes_automatically(self, tmp_path, capsys):
        prob = tmp_path / "pi2.problem"
        prob.write_text(
            f"schema_version = 1\nkind = problem\ntheta = {PI}\ntau_s = free\n"
            "fourier_order = 1\ncomponents = x y\ntargets = r1 r2a r2b\n"
            "symmetric = false\ngrid = 256\n")
        out = tmp_path / "probe.pulse"
        code = main(["solve", str(prob), "--restarts", "2", "--seed", "3",
                     "--out", str(out)])
        assert code == 0                      # certificate holds
        text = out.read_text()
        assert "solution.converged = false" in text
        assert "probe regime=pi-second-order" in text

    def test_open_problem_probe_exits_on_convergence(self, tmp_path, capsys):
        """An open regime has no gap bound: exit 0 iff the design converged."""
        prob = tmp_path / "open.problem"
        prob.write_text(
            "schema_version = 1\nkind = problem\ntheta = 1.5707963267948966\n"
            "components = y\ntargets = r1\nfourier_order = 2\nsymmetric = true\n"
            "grid = 256\n")
        out = tmp_path / "open.pulse"
        code = main(["solve", str(prob), "--probe", "--restarts", "4", "--seed", "0",
                     "--out", str(out)])
        text = out.read_text()
        assert "probe regime=open" in text
        assert "solution.converged = true" in text
        assert code == 0
        assert "infeasibility certificate" not in capsys.readouterr().err

    def test_probe_runs_the_problem_restarts(self, tmp_path):
        prob = tmp_path / "end.problem"
        prob.write_text(
            f"schema_version = 1\nkind = problem\ntheta = {PI}\ntau_s = 1\n"
            "fourier_order = 2\ncomponents = y\ntargets = r1\nrestarts = 1\n")
        out = tmp_path / "end.pulse"
        assert main(["solve", str(prob), "--seed", "2", "--out", str(out)]) == 0
        text = out.read_text()
        assert "probe regime=end-split" in text
        assert "solution.restarts_used = 1\n" in text


class TestVerifyDegenerate:
    def test_zero_coupling_bath_exits_4(self, workdir):
        free_bath = workdir / "free.bath"
        free_bath.write_text("schema_version = 1\nkind = bath\n"
                             "preset = spin-dynamic\nlambda = 0.0\n")
        code = main(["verify", str(workdir / "pi.pulse"), str(free_bath),
                     "--sweep", "1e-2:1e-1:4"])
        assert code == 4


class TestCorpseReference:
    """CORPSE for theta = pi (Cummins, Llewellyn & Jones, PRA 67, 042308 (2003)),
    built from its closed-form angles and not by the design loop, cancels a
    static sigma_z error to first order: the paper's first-order condition at
    tau_s = tau_p / 2, checked by the residuals and by the exact oracle."""

    PULSE = TEST_DATA / "corpse_pi.txt"

    def test_first_order_residual_vanishes_at_half_tau_p(self, tmp_path):
        out = tmp_path / "corpse.rep"
        assert main(["corrections", str(self.PULSE), "--targets", "r1",
                     "--threshold", "1e-10", "--out", str(out)]) == 0
        fields = dict(line.split(" = ") for line in out.read_text().splitlines())
        assert float(fields["tau_s"]) == 0.5 * float(fields["tau_p"])
        assert float(fields["r1_normalized"]) <= 1e-10

    def test_dephasing_verify_slope_is_first_order(self, workdir):
        """Its two cuts fall inside a chunk, so the oracle's end-stage tables are
        patched there; a rectangular pi pulse split at the same instant is not
        first order."""
        bath = workdir / "dephasing.bath"
        bath.write_text("schema_version = 1\nkind = bath\npreset = spin-dephasing\n"
                        "lambda = 1.0\n")
        out = workdir / "corpse.csv"
        assert main(["verify", str(self.PULSE), str(bath), "--regime", "first-order",
                     "--out", str(out)]) == 0
        trailer = next(line for line in out.read_text().splitlines() if "uf_slope=" in line)
        slope = float(trailer.split()[1].split("=")[1])
        lo, hi = cli.SLOPE_BANDS["first-order"]
        assert lo <= slope <= hi
        assert main(["verify", str(workdir / "pi.pulse"), str(bath), "--regime", "first-order",
                     "--out", str(workdir / "pi.csv")]) == 1
