from pathlib import Path

import numpy as np
import pytest

from spinpulse import fileio
from spinpulse.corrections import evaluate_corrections
from spinpulse.design import DesignSolution
from spinpulse.fileio import (SchemaError, format_bath, format_pulse, format_solution,
                              make_manifest, parse_bath, parse_flat, parse_problem,
                              parse_pulse)
from spinpulse.pulses import PulseShape, fourier_pulse
from spinpulse.trajectory import integrate_axis_angle, n_trajectory

BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


def test_flat_parser_basics():
    fields = parse_flat("# comment\nfoo = 1\nbar = a b c  # trailing\n")
    assert fields["foo"] == ("1", 2)
    assert fields["bar"] == ("a b c", 3)


def test_flat_parser_positions_errors():
    with pytest.raises(SchemaError) as err:
        parse_flat("ok = 1\nbroken line\n")
    assert err.value.line == 2
    with pytest.raises(SchemaError):
        parse_flat("dup = 1\ndup = 2\n")


def test_fourier_pulse_round_trip():
    shape = fourier_pulse(1.5, 0.6, np.pi, {"y": [-1.0, 0.25], "x": [0.0, 0.1]},
                          {"z": [0.05]})
    text = format_pulse(shape)
    back = parse_pulse(text)
    assert back.tau_p == shape.tau_p
    assert back.tau_s == shape.tau_s
    assert np.array_equal(back.fourier.cos, shape.fourier.cos)
    assert np.array_equal(back.fourier.sin, shape.fourier.sin)


def test_piecewise_pulse_round_trip():
    shape = PulseShape(2.0, 0.5, np.pi, "piecewise_constant",
                       boundaries=np.array([0.0, 0.8, 2.0]),
                       values=np.array([[0.7, 0.0, 0.0], [0.0, 0.5, 0.2]]))
    back = parse_pulse(format_pulse(shape))
    assert np.array_equal(back.boundaries, shape.boundaries)
    assert np.array_equal(back.values, shape.values)


def test_sampled_pulse_round_trip():
    t = np.linspace(0.0, 1.0, 33)
    shape = PulseShape(1.0, 0.0, np.pi, "axis_angle_samples",
                       sample_times=t,
                       sample_axes=np.tile([0.0, 1.0, 0.0], (len(t), 1)),
                       sample_angles=np.pi * t)
    back = parse_pulse(format_pulse(shape))
    assert np.array_equal(back.sample_times, shape.sample_times)
    assert np.array_equal(back.sample_angles, shape.sample_angles)


def _written_files() -> dict[str, str]:
    """A solution file and the benchmark's data files; the round-trip tests
    above parse what format_pulse and format_bath write."""
    shape = fourier_pulse(1.0, 0.5, np.pi, {"y": [-np.pi / 2, 0.3]}, {"x": [0.1]})
    report = evaluate_corrections(n_trajectory(integrate_axis_angle(shape, 256)), shape.tau_s)
    solution = DesignSolution(shape=shape, report=report, objective=1e-20, converged=True,
                              restarts_used=4, best_restart=2, rotation_violation=1e-10)
    files = {"solution": format_solution(solution, "0" * 64)}
    files.update((path.name, path.read_text()) for path in sorted(BENCH_DATA.glob("*.txt")))
    return files


WRITTEN_FILES = _written_files()


@pytest.mark.parametrize("name", list(WRITTEN_FILES))
def test_written_files_parse(name):
    """Every key the program writes, solution metadata included, is read."""
    text = WRITTEN_FILES[name]
    parse = {"pulse": parse_pulse, "bath": parse_bath, "problem": parse_problem}
    parse[parse_flat(text)["kind"][0]](text)


def test_pulse_schema_errors():
    with pytest.raises(SchemaError):
        parse_pulse("schema_version = 1\nkind = bath\n")
    with pytest.raises(SchemaError):
        parse_pulse("schema_version = 2\nkind = pulse\n")
    with pytest.raises(SchemaError):
        parse_pulse("schema_version = 1\nkind = pulse\nrepresentation = wavelet\n"
                    "tau_p = 1\ntau_s = 0\ntheta = 3\n")


def test_pulse_invariant_violation():
    text = ("schema_version = 1\nkind = pulse\nrepresentation = axis_angle_samples\n"
            "tau_p = 1\ntau_s = 0.5\ntheta = 3.14\n"
            "sample.0 = 0 0 2 0 0\nsample.1 = 1 0 1 0 1\n")
    with pytest.raises(ValueError) as err:
        parse_pulse(text)
    assert not isinstance(err.value, SchemaError)


def test_bath_round_trip_and_presets():
    bath = parse_bath("schema_version = 1\nkind = bath\npreset = spin-dynamic\n"
                      "lambda = 0.25\nomega_b = 2.0\n")
    assert bath.coupling == 0.25
    assert np.linalg.norm(bath.commutator) > 1e-12
    back = parse_bath(format_bath(bath))
    assert np.allclose(back.h_b, bath.h_b)
    assert np.allclose(back.a, bath.a)
    with pytest.raises(ValueError) as err:
        # not normalized
        parse_bath("schema_version = 1\nkind = bath\nlambda = 0.1\ndim_b = 1\n"
                   "a.0.0 = 2 0\n")
    assert not isinstance(err.value, SchemaError)


def test_problem_parsing():
    problem = parse_problem(
        "schema_version = 1\nkind = problem\ntheta = 3.141592653589793\n"
        "tau_s = free\nfourier_order = 3\ncomponents = x y\ntargets = r1 r2b\n"
        "symmetric = false\n")
    assert problem.tau_s == "free"
    assert problem.components == ("x", "y")
    assert problem.targets == ("r1", "r2b")
    with pytest.raises(ValueError) as err:
        parse_problem("schema_version = 1\nkind = problem\ntheta = 3\n"
                      "targets = r9\n")
    assert not isinstance(err.value, SchemaError)


def test_manifest_digest_stability():
    m1 = make_manifest("convert", {"pulse": "abc"}, seed=7)
    m2 = make_manifest("convert", {"pulse": "abc"}, seed=7)
    assert m1.digest() == m2.digest()
    m3 = make_manifest("convert", {"pulse": "abcd"}, seed=7)
    assert m1.digest() != m3.digest()
    m4 = make_manifest("convert", {"pulse": "abc"}, seed=8)
    assert m1.digest() != m4.digest()


def test_float_formatting_round_trips():
    values = [np.pi, 1e-17, -2.0 / 3.0, 0.1 + 2e-17]
    for v in values:
        assert float(fileio.fmt(v)) == v


def test_bath_dynamics_flag():
    from spinpulse.bath import preset_bath
    assert np.linalg.norm(preset_bath("spin-dynamic", 0.1).commutator) > 1e-12
    assert np.linalg.norm(preset_bath("spin-ising", 0.1).commutator) <= 1e-12
    assert np.linalg.norm(preset_bath("spin-dephasing", 0.1).commutator) <= 1e-12
