"""Command-line front end.

Three subcommands: spectrum (bound energies as CSV), wavefunction (sample
one state along a coordinate grid by any route), validate (run the three
continuum routes against each other on a xi grid).  Output is deterministic
CSV, so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .contour_eval import ROUTES, ContourConfig, Method, MethodRegimeMismatch, sample_wavefunction
from .potential_catalog import (
    BOUND_KINDS,
    DomainError,
    InvalidQuantumNumbers,
    Kind,
    NotBoundProblem,
    ProblemSpec,
    SPEC_FIELDS,
    RegimeMismatch,
    n_start,
)
from .validation import cross_method_report, spectrum_table

Cell = Union[int, float, str]


class ConfigError(ValueError):
    """Rejected before any evaluation starts; maps to exit code 2."""


class EvaluationFailure(RuntimeError):
    """A grid point could not be evaluated; maps to exit code 3."""


_METHOD_FLAGS = {
    "residue": Method.RESIDUE,
    "real": Method.REAL_INTEGRAL,
    "circle": Method.CIRCLE,
    "series": Method.SERIES,
    "morse": Method.MORSE_RAY,
}

# rejected inputs raised below the CLI; like ConfigError they exit 2
_INPUT_ERRORS = (RegimeMismatch, NotBoundProblem, InvalidQuantumNumbers, DomainError,
                 MethodRegimeMismatch)

_INT_PARAMS = {"n", "m", "l", "n_max"}
_FLOAT_PARAMS = {"E", "V0", "a", "a0", "omega", "mu"}
_PARAM_KEYS = _INT_PARAMS | _FLOAT_PARAMS
# problem keys and the ProblemSpec fields they set; E, n and n_max are state keys
_PROBLEM_KEYS = {"mu": "mu", "omega": "omega", "a0": "a0", "a": "morse_a", "V0": "morse_v0",
                 "m": "m_quantum", "l": "l_quantum"}
_FILE_KEYS = {"kind", "method", "grid", "radius", "out"} | _PARAM_KEYS


@dataclass(frozen=True)
class RunConfig:
    command: str
    kind: Kind
    params: Dict[str, float]
    method: Optional[Method] = None
    grid: Optional[Tuple[float, float, int]] = None
    radius: Optional[float] = None  # None: no ContourConfig, the circle's default radius
    out: Optional[str] = None

    def validate(self) -> None:
        ignored = {"spectrum": ("method", "radius", "grid"), "validate": ("method",),
                   "wavefunction": () if self.method is Method.CIRCLE else ("radius",)}
        for name in ignored[self.command]:
            if getattr(self, name) is not None:
                where = " without --method circle" if self.command == "wavefunction" else ""
                raise ConfigError(f"{self.command} does not use --{name}{where}")
        unused = {"spectrum": ("E", "n"), "validate": ("n", "n_max"),
                  "wavefunction": ("E" if self.kind in BOUND_KINDS else "n", "n_max")}
        unread = [key for key, field in _PROBLEM_KEYS.items()
                  if field not in SPEC_FIELDS[self.kind]]
        for key in (*unused[self.command], *unread):
            if key in self.params:
                raise ConfigError(
                    f"{self.command} does not use --param {key} for {self.kind.value}")
        if self.command in ("wavefunction", "validate"):
            if self.grid is None:
                raise ConfigError(f"{self.command} needs --grid min,max,count")
            lo, hi, count = self.grid
            if count < 2:
                raise ConfigError("grid count must be at least 2")
            if not lo < hi:
                raise ConfigError("grid min must be below grid max")

    def problem(self) -> ProblemSpec:
        fields = {field: self.params[key] for key, field in _PROBLEM_KEYS.items()
                  if key in self.params}
        try:
            return ProblemSpec(kind=self.kind, **fields)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def contour(self) -> Optional[ContourConfig]:
        try:
            return None if self.radius is None else ContourConfig(self.radius)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# CSV rendering and reading


def _cell_format(cell_type: type) -> str:
    """The % format of a cell: str as is, integers in full, anything else as a float."""
    if issubclass(cell_type, str):
        return "%s"
    if issubclass(cell_type, (int, np.integer)):
        return "%d"
    return "%.12e"


@lru_cache(maxsize=64)
def _row_format(cell_types: Tuple[type, ...]) -> str:
    return ",".join(map(_cell_format, cell_types))


def render_csv(
    header: Sequence[str],
    rows: Sequence[Sequence[Cell]],
    footers: Sequence[str] = (),
) -> str:
    """CSV text: one line per row, each cell formatted by _cell_format's rule."""
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        lines.append(_row_format(tuple(map(type, row))) % row)
    for note in footers:
        lines.append("# " + note)
    return "\n".join(lines) + "\n"


def _parse_cell(text: str) -> Cell:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(text: str) -> Tuple[List[str], List[List[Cell]], List[str]]:
    """Parse a CSV document produced by this module.

    Returns (header fields, data rows with numeric cells parsed, footer
    comment lines without their '# ' prefix).  render_csv(read_csv(s)) is
    byte-identical to s for any s this module wrote.
    """
    lines = text.splitlines()
    if not lines:
        raise ConfigError("empty CSV document")
    header = lines[0].split(",")
    rows: List[List[Cell]] = []
    footers: List[str] = []
    for line in lines[1:]:
        if not line:
            continue
        if line.startswith("#"):
            footers.append(line[1:].lstrip())
        else:
            rows.append([_parse_cell(c) for c in line.split(",")])
    return header, rows, footers


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands


def cmd_spectrum(cfg: RunConfig) -> str:
    spec = cfg.problem()
    n_max = int(cfg.params.get("n_max", 5))
    rows = [
        (qn.n, qn.N, energy)
        for qn, energy in spectrum_table(spec, n_max)
    ]
    return render_csv(["n", "N", "E"], rows)


def cmd_wavefunction(cfg: RunConfig) -> str:
    spec = cfg.problem()
    method = cfg.method or ROUTES[cfg.kind][0]
    lo, hi, count = cfg.grid
    if cfg.kind in BOUND_KINDS:
        state: Union[int, float] = int(cfg.params.get("n", n_start(spec)))
    else:
        if "E" not in cfg.params:
            raise ConfigError("continuum kinds need --param E=<energy>")
        state = float(cfg.params["E"])

    coords = np.linspace(lo, hi, count)
    contour = cfg.contour()
    try:
        grid = sample_wavefunction(spec, state, coords, method, contour)
    except _INPUT_ERRORS:
        raise
    except Exception as exc:
        i = getattr(exc, "point", 0)  # an error of the whole grid names point 0
        raise EvaluationFailure(
            f"evaluation failed at point {i} (coordinate={coords[i]:.6g}): {exc}"
        ) from exc
    columns = [grid.coordinates, grid.xi, grid.phi.real, grid.phi.imag, grid.psi.real,
               grid.psi.imag]
    rows = [row + (method.value,) for row in zip(*(c.tolist() for c in columns))]
    return render_csv(
        ["coordinate", "xi", "re_phi", "im_phi", "re_psi", "im_psi", "method"], rows
    )


def cmd_validate(cfg: RunConfig) -> str:
    spec = cfg.problem()
    if "E" not in cfg.params:
        raise ConfigError("validate needs --param E=<energy>")
    energy = float(cfg.params["E"])
    lo, hi, count = cfg.grid
    grid = np.linspace(lo, hi, count)
    report = cross_method_report(spec, energy, grid, cfg.contour())

    methods = tuple(report.values)
    for m in methods:
        if not np.any(np.isfinite(report.values[m])):
            raise EvaluationFailure(f"method {m.value} failed at every grid point")

    header = ["xi"]
    for m in methods:
        header += [f"re_{m.value}", f"im_{m.value}"]
    header += [f"dev_{a.value}_{b.value}" for a, b in report.pairwise_rel_dev]

    columns: List[List[float]] = [list(report.grid)]
    for m in methods:
        columns += [report.values[m].real.tolist(), report.values[m].imag.tolist()]
    columns += [dev.tolist() for dev in report.pairwise_rel_dev.values()]
    rows = list(zip(*columns))

    footers = [f"pairwise_max_rel_dev = {report.pairwise_max_rel_dev:.6e}"]
    for m in methods:
        onset = report.failure_onset_xi.get(m)
        footers.append(
            f"failure_onset_{m.value} = "
            + ("none" if onset is None else "%.6g" % onset)
        )
    return render_csv(header, rows, footers)


# ---------------------------------------------------------------------------
# Argument and config-file handling


def _parse_grid(text: str) -> Tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError("grid must be min,max,count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"bad grid {text!r}: bounds must be finite")
    return lo, hi, count


def _parse_param(key: str, value: str) -> Tuple[str, float]:
    if key not in _PARAM_KEYS:
        raise ConfigError(
            f"unknown parameter {key!r}; known: {', '.join(sorted(_PARAM_KEYS))}"
        )
    try:
        parsed = int(value) if key in _INT_PARAMS else float(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc
    if not math.isfinite(parsed):
        raise ConfigError(f"bad value for {key}: {value!r} is not finite")
    return key, parsed


def _config_flags(path: str) -> List[str]:
    """The flags a key=value config file stands for, one token each, in file order."""
    flags: List[str] = []
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, value = (part.strip() for part in line.partition("="))
                if key not in _FILE_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                flags.append(("--param=" if key in _PARAM_KEYS else "--") + f"{key}={value}")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return flags


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parse_args leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="laplaceqm",
        description="Schrodinger solver built on contour integrals in the Laplace plane",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("spectrum", "bound-state energies as CSV"),
        ("wavefunction", "sample one state along a coordinate grid"),
        ("validate", "compare the continuum routes on a xi grid"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--kind", help="problem kind, e.g. coulomb3d or morse_cont")
        p.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="k=v",
            help="problem or run parameter; repeatable "
            "(E, n, m, l, n_max, V0, a, a0, omega, mu)",
        )
        p.add_argument("--grid", help="min,max,count (coordinate space for "
                       "wavefunction, xi space for validate)")
        p.add_argument("--method", choices=sorted(_METHOD_FLAGS))
        p.add_argument("--radius", type=float, help="circle contour radius (> 1)")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--config", help="key=value file; flags override it")
    return parser


def _build_config(ns: argparse.Namespace) -> RunConfig:
    if ns.kind is None:
        raise ConfigError("--kind is required (or kind= in the config file)")
    try:
        kind = Kind(ns.kind)
    except ValueError:
        raise ConfigError(
            f"unknown kind {ns.kind!r}; known: "
            + ", ".join(k.value for k in Kind)
        ) from None

    params: Dict[str, float] = {}
    for item in ns.param:
        if "=" not in item:
            raise ConfigError(f"--param needs k=v, got {item!r}")
        key, _, value = item.partition("=")
        k, v = _parse_param(key.strip(), value.strip())
        params[k] = v

    cfg = RunConfig(
        command=ns.command,
        kind=kind,
        params=params,
        method=_METHOD_FLAGS[ns.method] if ns.method else None,
        grid=_parse_grid(ns.grid) if ns.grid is not None else None,
        radius=ns.radius,
        out=ns.out,
    )
    cfg.validate()
    return cfg


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "wavefunction": cmd_wavefunction,
    "validate": cmd_validate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.config:  # the file's flags go first, so the command line's win
            ns = parser.parse_args([ns.command, *_config_flags(ns.config), *argv[1:]])
        cfg = _build_config(ns)
        _emit(_COMMANDS[cfg.command](cfg), cfg.out)
    except SystemExit as exc:  # argparse has printed its usage error, or --help
        return int(exc.code or 0)
    except (ConfigError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvaluationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
