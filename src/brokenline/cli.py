"""Command-line front end: CSV data in, deterministic JSON/CSV out, optional SVG.

Exit codes: 0 success, 1 internal failure, 2 malformed input, 3 verification
failure. Floats are serialized with 17 significant digits and fixed field
order, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from .core import (
    BrokenLine,
    DataSet,
    PNorm,
    PositionKind,
    classify_knots,
    spike_fixture,
)
from .regularize import regularize
from .solver import FitResult, best_fit, grid_oracle
from .structure import check_structure


class InputError(ValueError):
    """Malformed file or argument; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _dumps(obj) -> str:
    """Compact JSON with insertion-ordered fields and 17-digit floats."""
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_dumps(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dumps(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return json.dumps(obj)


def spline_obj(s: BrokenLine) -> dict:
    return {"breakpoints": [{"t": float(t), "v": float(v)} for t, v in zip(s.t, s.v)]}


def fit_result_obj(result: FitResult, p: PNorm, k: int) -> dict:
    obj = spline_obj(result.spline)
    obj["error"] = float(result.error)
    obj["p"] = p.label()
    obj["k"] = k
    obj["proper_knots"] = result.proper_knot_count
    obj["config"] = [
        {"kind": j.kind, "q": j.q, "t": float(t)}
        for j, t in zip(result.config.junctions, result.spline.knots)
    ]
    return obj


def _emit(cfg: argparse.Namespace, obj: dict, rows: list[tuple]) -> None:
    """Write ``obj`` as JSON, or ``rows`` through one csv writer under ``--format csv``."""
    buf = io.StringIO()
    if getattr(cfg, "format", "json") == "csv":
        csv.writer(buf, lineterminator="\n").writerows(rows)  # quotes fields that hold commas
    else:
        buf.write(_dumps(obj) + "\n")
    if cfg.out is None:
        sys.stdout.write(buf.getvalue())
    else:
        cfg.out.write_text(buf.getvalue(), encoding="utf-8")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_pnorm(text: str) -> PNorm:
    try:
        return PNorm(float(text))
    except ValueError as exc:
        raise InputError(f"bad norm {text!r}: {exc}") from exc


def load_dataset(path: Path) -> DataSet:
    """Two-column x,f CSV, rows sorted; blank lines skipped, the first other row may be a header."""
    xs: list[float] = []
    fs: list[float] = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            numbered = enumerate(csv.reader(fh), start=1)
            filled = ((n, row) for n, row in numbered if len(row) > 1 or "".join(row).strip())
            for i, (row_no, row) in enumerate(filled):
                if len(row) != 2:
                    raise InputError(f"{path}:{row_no}: expected two columns, got {len(row)}")
                try:
                    x, f = float(row[0]), float(row[1])
                except ValueError:
                    if i == 0:
                        continue  # header
                    raise InputError(f"{path}:{row_no}: cannot parse {row!r}")
                xs.append(x)
                fs.append(f)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return DataSet(np.array(xs), np.array(fs))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_spline(path: Path) -> BrokenLine:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        bps = obj["breakpoints"]
        ts = np.array([float(bp["t"]) for bp in bps])
        vs = np.array([float(bp["v"]) for bp in bps])
        return BrokenLine(ts, vs)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: not a valid spline JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def render_svg(data: DataSet, s: BrokenLine, path: Path) -> None:
    """Static plot: data dots, fitted polyline, knot markers, axis ticks.

    Data knots are drawn as single circles, knots strictly inside a gap as
    double circles.
    """
    width, height, margin = 640.0, 400.0, 40.0
    ys = np.concatenate([data.f, s.v])
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    x_lo, x_hi = data.a, data.b

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<line x1="{margin:.2f}" y1="{height - margin:.2f}" x2="{width - margin:.2f}" '
        f'y2="{height - margin:.2f}" stroke="black"/>',
        f'<line x1="{margin:.2f}" y1="{margin:.2f}" x2="{margin:.2f}" '
        f'y2="{height - margin:.2f}" stroke="black"/>',
    ]
    for x in data.x:
        parts.append(
            f'<line class="tick" x1="{sx(float(x)):.2f}" y1="{height - margin:.2f}" '
            f'x2="{sx(float(x)):.2f}" y2="{height - margin + 5:.2f}" stroke="black"/>'
        )
    for y in (y_lo, 0.5 * (y_lo + y_hi), y_hi):
        parts.append(
            f'<line class="tick" x1="{margin - 5:.2f}" y1="{sy(y):.2f}" '
            f'x2="{margin:.2f}" y2="{sy(y):.2f}" stroke="black"/>'
        )
    pts = " ".join(f"{sx(float(t)):.2f},{sy(float(v)):.2f}" for t, v in zip(s.t, s.v))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="2"/>')
    for x, f in zip(data.x, data.f):
        parts.append(
            f'<circle class="data-point" cx="{sx(float(x)):.2f}" cy="{sy(float(f)):.2f}" '
            f'r="2.5" fill="black"/>'
        )
    for lab in classify_knots(s, data):
        cx, cy = sx(lab.position), sy(float(s.v[lab.index]))
        if lab.kind is PositionKind.DATA:
            parts.append(
                f'<circle class="knot-data" cx="{cx:.2f}" cy="{cy:.2f}" r="5" '
                f'fill="none" stroke="crimson"/>'
            )
        else:
            parts.append(
                f'<g class="knot-interior">'
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="none" stroke="crimson"/>'
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="6" fill="none" stroke="crimson"/>'
                f"</g>"
            )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _point_rows(s: BrokenLine) -> list[tuple]:
    return [("t", "v"), *((_fmt(t), _fmt(v)) for t, v in zip(s.t, s.v))]


def cmd_fit(cfg: argparse.Namespace) -> int:
    data = load_dataset(cfg.input)
    result = best_fit(data, cfg.k, cfg.p)
    meta = {"error": _fmt(result.error), "p": cfg.p.label(), "k": cfg.k}
    meta["proper_knots"] = result.proper_knot_count
    rows = [(f"# {key}={value}",) for key, value in meta.items()] + _point_rows(result.spline)
    _emit(cfg, fit_result_obj(result, cfg.p, cfg.k), rows)
    if cfg.emit_svg is not None:
        render_svg(data, result.spline, cfg.emit_svg)
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    data = load_dataset(cfg.input)
    s = load_spline(cfg.spline)
    report = check_structure(data, s, cfg.p)
    rows = [(name, chk.status.value, chk.witness or "") for name, chk in report.items()]
    obj = {"properties": report.as_dict(), "all_pass": report.all_pass}
    _emit(cfg, obj, [("property", "status", "witness"), *rows])
    return 0 if report.all_pass else 3


def cmd_regularize(cfg: argparse.Namespace) -> int:
    data = load_dataset(cfg.input)
    s = load_spline(cfg.spline)
    out = regularize(data, s)
    _emit(cfg, spline_obj(out), _point_rows(out))
    return 0


def cmd_oracle(cfg: argparse.Namespace) -> int:
    data = load_dataset(cfg.input)
    err = grid_oracle(data, cfg.k, cfg.p, cfg.grid)
    obj = {"error": err, "p": cfg.p.label(), "k": cfg.k, "grid_per_gap": cfg.grid}
    _emit(cfg, obj, [tuple(obj), (_fmt(err), cfg.p.label(), cfg.k, cfg.grid)])
    return 0


def cmd_fixture(cfg: argparse.Namespace) -> int:
    s = spike_fixture(cfg.i)
    _emit(cfg, spline_obj(s), [])  # JSON only: fixture has no --format
    if cfg.data_out is not None:
        rows = ["x,f", "-1,1", "0,1", "1,1"]
        Path(cfg.data_out).write_text("\n".join(rows) + "\n", encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brokenline",
        description="Globally optimal broken-line fits to discrete data "
        "with at most k free knots under any discrete l_p norm.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, norm=True):
        sp.add_argument("--input", type=Path, required=True, help="two-column x,f CSV")
        if norm:
            sp.add_argument("--p", default="2", help="norm: 1, 2, inf, or a decimal >= 1")
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--out", type=Path, default=None, help="write output here instead of stdout")

    fit = sub.add_parser("fit", help="globally best fit with at most k knots")
    common(fit)
    fit.add_argument("--k", type=int, required=True, help="maximum number of free knots")
    fit.add_argument("--emit-svg", type=Path, default=None)

    verify = sub.add_parser("verify", help="check the structural optimality properties")
    common(verify)
    verify.add_argument("--spline", type=Path, required=True, help="spline JSON")

    reg = sub.add_parser("regularize", help="slope-bounding rebuild preserving sampled values")
    common(reg, norm=False)
    reg.add_argument("--spline", type=Path, required=True, help="spline JSON")

    oracle = sub.add_parser("oracle", help="brute-force gridded upper bound on the optimum")
    common(oracle)
    oracle.add_argument("--k", type=int, required=True)
    oracle.add_argument("--grid", type=int, default=16, help="grid points per gap")

    fixture = sub.add_parser("fixture", help="write built-in fixtures")
    fixture.add_argument("name", choices=["spike"], help="fixture name")
    fixture.add_argument("--i", type=int, default=10, help="spike steepness index (>= 2)")
    fixture.add_argument("--out", type=Path, default=None)
    fixture.add_argument("--data-out", type=Path, default=None, help="also write the 3-point dataset CSV")
    return parser


_COMMANDS = {
    "fit": cmd_fit,
    "verify": cmd_verify,
    "regularize": cmd_regularize,
    "oracle": cmd_oracle,
    "fixture": cmd_fixture,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        cfg = parser.parse_args(argv)
        if "p" in cfg:
            cfg.p = parse_pnorm(cfg.p)
        return _COMMANDS[cfg.command](cfg)
    except SystemExit as exc:  # argparse errors -> malformed input
        return 2 if exc.code not in (0, None) else 0
    except ValueError as exc:  # includes InputError and DomainError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
