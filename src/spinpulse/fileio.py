"""Flat text schemas and CSV export.

All inputs are hand-editable ``key = value`` files with ``#`` comments and a
``schema_version`` field.  A malformed file, including one with a key its
parser does not read, raises :class:`SchemaError`; the values of a well-formed
one go to the model, whose ``ValueError`` passes through.  All outputs embed
the digest of the run manifest so identical manifests reproduce byte-identical
files.  Floats are written with 17 significant digits for exact round trips.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bath import DIM_CAP, BathModel, preset_bath
from .corrections import CorrectionReport, NoGoDiagnostics
from .design import FREE, DesignProblem, DesignSolution
from .pulses import COMPONENTS, FourierCoefficients, PulseShape

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Malformed input file; carries the offending line.  Every error is about
    a whole ``key = value`` line, so the message names column 1."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}, column 1: {message}" if line else message)
        self.line = line


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def fmt_vec(values) -> str:
    return " ".join(fmt(v) for v in np.atleast_1d(values))


# ----------------------------------------------------------------------
# flat key-value layer

_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def parse_flat(text: str) -> dict[str, tuple[str, int]]:
    """{key: (raw value, line number)} from a flat key-value document."""
    out: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise SchemaError("empty key", lineno)
        if key in out:
            raise SchemaError(f"duplicate key {key!r}", lineno)
        out[key] = (value, lineno)
    return out


class _Record:
    """Typed access to a parsed flat file with positioned errors; records the
    keys the getters read."""

    def __init__(self, fields: dict[str, tuple[str, int]]):
        self.fields = fields
        self.read: set[str] = set()

    def has(self, key: str) -> bool:
        return key in self.fields

    def line(self, key: str) -> int:
        return self.fields[key][1]

    def _read(self, key: str, default, convert, noun: str, fold=str):
        """``convert(fold(value))`` of ``key``, or ``default`` if it is absent; a
        value ``convert`` refuses is a SchemaError at its line, quoted as folded."""
        if key not in self.fields:
            if default is not None:
                return default
            raise SchemaError(f"missing required key {key!r}")
        self.read.add(key)
        value = fold(self.fields[key][0])
        try:
            return convert(value)
        except (ValueError, KeyError):
            raise SchemaError(f"{key}: not {noun}: {value!r}", self.line(key)) from None

    def string(self, key: str, default: str | None = None) -> str:
        return self._read(key, default, str, "a string")

    def number(self, key: str, default: float | None = None) -> float:
        return self._read(key, default, float, "a number")

    def integer(self, key: str, default: int | None = None) -> int:
        return self._read(key, default, int, "an integer")

    def boolean(self, key: str, default: bool | None = None) -> bool:
        return self._read(key, default, _BOOLEANS.__getitem__, "a boolean", str.lower)

    def numbers(self, key: str) -> list[float]:
        return self._read(key, None, lambda value: [float(tok) for tok in value.split()],
                          "a number list")

    def check_all_read(self, accept=lambda key: False):
        """SchemaError at the first key, in line order, that no getter read and
        ``accept`` does not pass: a misspelled or stray key is never ignored."""
        for key, (_, line) in self.fields.items():
            if key not in self.read and not accept(key):
                raise SchemaError(f"unknown key {key!r}", line)

    def check_version(self):
        version = self.integer("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaError(f"unsupported schema_version {version}",
                              self.line("schema_version"))


# ----------------------------------------------------------------------
# pulse files


def parse_pulse(text: str) -> PulseShape:
    rec = _Record(parse_flat(text))
    rec.check_version()
    kind = rec.string("kind")
    if kind != "pulse":
        raise SchemaError(f"expected kind = pulse, got {kind!r}", rec.line("kind"))
    rep = rec.string("representation")
    tau_p = rec.number("tau_p")
    tau_s = rec.number("tau_s")
    theta = rec.number("theta")
    if rep == "fourier":
        order = rec.integer("fourier_order")
        coeff = FourierCoefficients.zeros(order)
        for key in rec.fields:
            if not key.startswith("coeff."):
                continue
            parts = key.split(".")
            if (len(parts) != 4 or parts[1] not in COMPONENTS
                    or parts[2] not in ("a", "b")):
                raise SchemaError(f"bad coefficient key {key!r}", rec.line(key))
            i = COMPONENTS.index(parts[1])
            try:
                k = int(parts[3])
            except ValueError:
                raise SchemaError(f"bad harmonic index in {key!r}", rec.line(key)) from None
            value = rec.number(key)
            if parts[2] == "a" and 0 <= k <= order:
                coeff.cos[i, k] = value
            elif parts[2] == "b" and 1 <= k <= order:
                coeff.sin[i, k - 1] = value
            else:
                raise SchemaError(f"harmonic index out of range in {key!r}", rec.line(key))
        data = {"fourier": coeff}
    elif rep == "piecewise_constant":
        bounds = rec.numbers("boundaries")
        values = []
        for i in range(len(bounds) - 1):
            row = rec.numbers(f"segment.{i}")
            if len(row) != 3:
                raise SchemaError(f"segment.{i}: need 3 amplitudes",
                                  rec.line(f"segment.{i}"))
            values.append(row)
        data = {"boundaries": np.array(bounds), "values": np.array(values)}
    elif rep == "axis_angle_samples":
        times, axes, angles = [], [], []
        i = 0
        while rec.has(f"sample.{i}"):
            row = rec.numbers(f"sample.{i}")
            if len(row) != 5:
                raise SchemaError(f"sample.{i}: need t ax ay az psi",
                                  rec.line(f"sample.{i}"))
            times.append(row[0])
            axes.append(row[1:4])
            angles.append(row[4])
            i += 1
        if not times:
            raise SchemaError("axis_angle_samples needs sample.<i> rows")
        data = {"sample_times": np.array(times), "sample_axes": np.array(axes),
                "sample_angles": np.array(angles)}
    else:
        raise SchemaError(f"unknown representation {rep!r}", rec.line("representation"))
    # a solution file is a pulse file plus the metadata format_solution writes
    rec.check_all_read(lambda key: key.startswith("solution.") or key == "manifest_sha256")
    return PulseShape(tau_p, tau_s, theta, rep, **data)


def format_pulse(shape: PulseShape, extra: dict | None = None) -> str:
    lines = [f"schema_version = {SCHEMA_VERSION}", "kind = pulse",
             f"representation = {shape.representation}",
             f"tau_p = {fmt(shape.tau_p)}", f"tau_s = {fmt(shape.tau_s)}",
             f"theta = {fmt(shape.theta)}"]
    if shape.representation == "fourier":
        order = shape.fourier.order
        lines.append(f"fourier_order = {order}")
        for i, comp in enumerate(COMPONENTS):
            for k in range(order + 1):
                if shape.fourier.cos[i, k] != 0.0:
                    lines.append(f"coeff.{comp}.a.{k} = {fmt(shape.fourier.cos[i, k])}")
            for k in range(1, order + 1):
                if shape.fourier.sin[i, k - 1] != 0.0:
                    lines.append(f"coeff.{comp}.b.{k} = {fmt(shape.fourier.sin[i, k - 1])}")
    elif shape.representation == "piecewise_constant":
        lines.append(f"boundaries = {fmt_vec(shape.boundaries)}")
        for i, row in enumerate(shape.values):
            lines.append(f"segment.{i} = {fmt_vec(row)}")
    else:
        for i in range(len(shape.sample_times)):
            row = [shape.sample_times[i], *shape.sample_axes[i], shape.sample_angles[i]]
            lines.append(f"sample.{i} = {fmt_vec(row)}")
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# bath files


def parse_bath(text: str) -> BathModel:
    rec = _Record(parse_flat(text))
    rec.check_version()
    kind = rec.string("kind")
    if kind != "bath":
        raise SchemaError(f"expected kind = bath, got {kind!r}", rec.line("kind"))
    coupling = rec.number("lambda")
    if rec.has("preset"):
        preset, omega_b = rec.string("preset"), rec.number("omega_b", 1.0)
        rec.check_all_read()
        return preset_bath(preset, coupling=coupling, omega_b=omega_b)
    dim = rec.integer("dim_b")
    if not 1 <= dim <= DIM_CAP:     # before the dim x dim tables are built
        raise ValueError(f"bath dimension must be in 1..{DIM_CAP}")
    h_b = np.zeros((dim, dim), dtype=complex)
    a = np.zeros((dim, dim), dtype=complex)
    for name, target in (("h_b", h_b), ("a", a)):
        for i in range(dim):
            for j in range(dim):
                key = f"{name}.{i}.{j}"
                if rec.has(key):
                    row = rec.numbers(key)
                    if len(row) != 2:
                        raise SchemaError(f"{key}: need 're im'", rec.line(key))
                    target[i, j] = row[0] + 1.0j * row[1]
    rec.check_all_read()
    return BathModel(h_b, a, coupling)


def format_bath(bath: BathModel) -> str:
    lines = [f"schema_version = {SCHEMA_VERSION}", "kind = bath",
             f"lambda = {fmt(bath.coupling)}", f"dim_b = {bath.dim_b}"]
    for name, m in (("h_b", bath.h_b), ("a", bath.a)):
        for i in range(bath.dim_b):
            for j in range(bath.dim_b):
                if m[i, j] != 0:
                    lines.append(f"{name}.{i}.{j} = {fmt(m[i, j].real)} {fmt(m[i, j].imag)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# design problem and solution files


def parse_problem(text: str) -> DesignProblem:
    rec = _Record(parse_flat(text))
    rec.check_version()
    kind = rec.string("kind")
    if kind != "problem":
        raise SchemaError(f"expected kind = problem, got {kind!r}", rec.line("kind"))
    tau_s_raw = rec.string("tau_s", "0.5")
    tau_s: float | str = FREE if tau_s_raw == FREE else rec.number("tau_s", 0.5)
    fields = dict(
        theta=rec.number("theta"),
        tau_s=tau_s,
        fourier_order=rec.integer("fourier_order", 2),
        components=tuple(rec.string("components", "y").split()),
        targets=tuple(rec.string("targets", "r1").split()),
        symmetric=rec.boolean("symmetric", True),
        endpoint_derivatives=rec.integer("endpoint_zero_derivatives", 0),
        amplitude_bound=(rec.number("amplitude_bound")
                         if rec.has("amplitude_bound") else None),
        power_weight=rec.number("power_weight", 0.0),
        ansatz=rec.string("ansatz", "fourier"),
        segments=rec.integer("segments", 8),
        grid_steps=rec.integer("grid", 512),
        restarts=rec.integer("restarts", 32),
    )
    rec.check_all_read()
    return DesignProblem(**fields)


def format_solution(solution: DesignSolution, manifest_digest: str) -> str:
    """A solution file is a valid pulse file plus solution.* metadata."""
    norms = solution.report.normalized
    extra = {
        "solution.objective": fmt(solution.objective),
        "solution.converged": str(solution.converged).lower(),
        "solution.restarts_used": str(solution.restarts_used),
        "solution.best_restart": str(solution.best_restart),
        "solution.rotation_violation": fmt(solution.rotation_violation),
        "solution.r1_normalized": fmt(norms[0]),
        "solution.r2a_normalized": fmt(norms[1]),
        "solution.r2b_normalized": fmt(norms[2]),
        "manifest_sha256": manifest_digest,
    }
    return format_pulse(solution.shape, extra=extra)


# ----------------------------------------------------------------------
# report records and CSV documents


def format_report(report: CorrectionReport, diag: NoGoDiagnostics,
                  manifest_digest: str, threshold: float,
                  targets: tuple[str, ...]) -> str:
    norms = report.norms
    normalized = report.normalized
    lines = [
        f"schema_version = {SCHEMA_VERSION}",
        "kind = correction_report",
        f"tau_p = {fmt(report.tau_p)}",
        f"tau_s = {fmt(report.tau_s)}",
        f"r1 = {fmt_vec(report.r1)}",
        f"r2a = {fmt_vec(report.r2a)}",
        f"r2b = {fmt_vec(report.r2b)}",
        f"r1_norm = {fmt(norms[0])}",
        f"r2a_norm = {fmt(norms[1])}",
        f"r2b_norm = {fmt(norms[2])}",
        f"r1_normalized = {fmt(normalized[0])}",
        f"r2a_normalized = {fmt(normalized[1])}",
        f"r2b_normalized = {fmt(normalized[2])}",
        f"quad_err = {fmt_vec(report.quad_err)}",
        f"r2b_valid = {str(report.r2b_valid).lower()}",
        f"unconverged = {str(report.unconverged).lower()}",
        f"tsp_gap = {fmt(diag.tsp_gap)}",
        f"pi2_gap = {fmt(diag.pi2_gap)}",
        f"pi_pulse = {str(diag.is_pi_pulse).lower()}",
        f"threshold = {fmt(threshold)}",
        f"targets = {' '.join(targets)}",
        f"manifest_sha256 = {manifest_digest}",
    ]
    return "\n".join(lines) + "\n"


def csv_document(header: str, rows, manifest_digest: str,
                 trailer: list[str] | None = None) -> str:
    lines = [f"# schema_version={SCHEMA_VERSION}",
             f"# manifest_sha256={manifest_digest}", header]
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    for line in trailer or ():
        lines.append(f"# {line}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# run manifest


@dataclass(frozen=True)
class RunManifest:
    command: str
    input_digests: dict
    seed: int | None        # None: the command draws nothing
    options: dict           # every command-line option that can change the output

    def canonical(self) -> str:
        payload = {
            "command": self.command,
            "inputs": dict(sorted(self.input_digests.items())),
            "seed": self.seed,
            "options": self.options,
            "version": __version__,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def make_manifest(command: str, input_texts: dict, seed: int | None = None,
                  options: dict | None = None) -> RunManifest:
    digests = {name: digest_text(text) for name, text in input_texts.items()}
    return RunManifest(command=command, input_digests=digests, seed=seed,
                       options=dict(options or {}))
