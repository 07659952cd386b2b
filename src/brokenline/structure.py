"""Structural verifier: eight position/properness properties of an optimal fit.

A globally best broken-line fit can always be chosen so that (a)-(h) below
hold. The checker measures one concrete polyline: a Fail on an arbitrary
spline (even an optimal one) therefore does not refute optimality, it only
means this particular representative lacks the normalized structure. Only
proper knots participate in (a)-(g); (h) inspects every knot lying strictly
inside a gap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    BrokenLine,
    DataSet,
    PNorm,
    PositionKind,
    classify_knots,
    evaluate,
)


class CheckStatus(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class PropertyCheck:
    status: CheckStatus
    witness: str | None = None


@dataclass(frozen=True)
class StructureReport:
    a: PropertyCheck
    b: PropertyCheck
    c: PropertyCheck
    d: PropertyCheck
    e: PropertyCheck
    f: PropertyCheck
    g: PropertyCheck
    h: PropertyCheck

    def items(self) -> list[tuple[str, PropertyCheck]]:
        return [(name, getattr(self, name)) for name in "abcdefgh"]

    @property
    def all_pass(self) -> bool:
        """True when no applicable property fails."""
        return all(chk.status is not CheckStatus.FAIL for _, chk in self.items())

    def as_dict(self) -> dict:
        out = {}
        for name, chk in self.items():
            entry: dict = {"status": chk.status.value}
            if chk.witness is not None:
                entry["witness"] = chk.witness
            out[name] = entry
        return out


def _first(witnesses: Iterator[str]) -> PropertyCheck:
    """FAIL with the first violation's witness, or PASS when there is none."""
    witness = next(witnesses, None)
    return PropertyCheck(CheckStatus.PASS if witness is None else CheckStatus.FAIL, witness)


def check_structure(data: DataSet, s: BrokenLine, p: PNorm) -> StructureReport:
    """Report which of the eight optimal-structure properties hold for ``s``.

    (a) no proper knots in the boundary gaps; (b) abscissae flanking an
    interior knot are not knots; (c) two non-knot abscissae between any two
    interior knots; (d) two abscissae on or between neighboring knots
    (boundary knots included); (e) an interior knot's flanking abscissae
    bound no other knot; (f) a non-knot abscissa exists on each side of an
    interior knot; (g) for p < inf, a single abscissa between an interior
    knot and a neighboring data knot is reproduced exactly; (h) every knot
    strictly inside a gap is proper. A failing property reports its first
    violation in knot order as its witness.

    Both thresholds are relative to the data: a knot is proper when its slope
    change exceeds 1e-9 * max|slope| (``classify_knots``), and (g) counts an
    abscissa as reproduced when its residual is at most 1e-8 * max|f|.
    """
    labels = classify_knots(s, data)
    tau_interp = 1e-8 * float(np.max(np.abs(data.f)))

    xs = data.x.tolist()
    mu = data.mu
    proper = [lab for lab in labels if lab.proper]  # knot order, so by position
    proper_pos = {lab.position for lab in proper}
    interior = [lab for lab in proper if lab.kind is PositionKind.INTERIOR]
    interior_pos = [lab.position for lab in interior]
    free = [xv for xv in xs[1 : mu + 1] if xv not in proper_pos]

    # (a) boundary regions are knot-free: x_1 <= t <= x_mu for proper knots
    a = _first(
        f"knot {lab.position!r} outside [x_1, x_mu] = [{xs[1]!r}, {xs[mu]!r}]"
        for lab in proper
        if not xs[1] <= lab.position <= xs[mu]
    )

    # (b) neighbors of an interior knot are not knots
    b = _first(
        f"abscissa x_{side} adjoins interior knot {lab.position!r} and is a knot"
        for lab in interior
        for side in (lab.q, lab.q + 1)
        if xs[side] in proper_pos
    )

    # (c) two non-knot abscissae between any two interior knots. The abscissae
    # between u and a later interior knot include those between u and its
    # right neighbor, so only neighbors need checking.
    c = _first(
        f"interior knots {u!r} and {w!r} enclose {n} non-knot abscissae"
        for u, w in zip(interior_pos, interior_pos[1:])
        if (n := sum(u < xv < w and xv not in proper_pos for xv in xs)) < 2
    )

    # (d) on or between neighboring knots lie at least two data abscissae
    seq = [data.a] + sorted(proper_pos) + [data.b]
    d = _first(
        f"knot interval [{u!r}, {w!r}] covers {n} abscissae"
        for u, w in zip(seq, seq[1:])
        if (n := sum(u <= xv <= w for xv in xs)) < 2
    )

    # (e) the gap hosting an interior knot contains no other knot
    e = _first(
        f"gap [x_{lab.q}, x_{lab.q + 1}] of interior knot {lab.position!r}"
        f" also holds knot {others[0]!r}"
        for lab in interior
        if (others := [
            t for t in proper_pos if xs[lab.q] <= t <= xs[lab.q + 1] and t != lab.position
        ])
    )

    # (f) a non-knot abscissa from {x_1..x_mu} on each side of an interior knot
    f = _first(
        f"interior knot {lab.position!r} lacks a free abscissa on one side"
        for lab in interior
        if not (free and min(free) < lab.position < max(free))
    )

    # (g) single abscissa between an interior knot and a neighboring data knot
    # is reproduced (p < inf only)
    def g_witnesses() -> Iterator[str]:
        for lab1, lab2 in zip(proper, proper[1:]):
            if {lab1.kind, lab2.kind} != {PositionKind.INTERIOR, PositionKind.DATA}:
                continue
            inside = [q for q, xv in enumerate(xs) if lab1.position < xv < lab2.position]
            if not inside:
                yield f"no abscissa between knots {lab1.position!r} and {lab2.position!r}"
            elif len(inside) == 1:
                q = inside[0]
                gap = abs(evaluate(s, xs[q]) - float(data.f[q]))
                if gap > tau_interp:
                    yield (
                        f"abscissa x_{q} between knots {lab1.position!r} and"
                        f" {lab2.position!r} not reproduced (|residual| = {gap:.3e})"
                    )

    g = PropertyCheck(CheckStatus.NOT_APPLICABLE) if p.is_infinity else _first(g_witnesses())

    # (h) every knot strictly inside a gap is proper
    h = _first(
        f"improper knot {lab.position!r} strictly inside gap {lab.q}"
        for lab in labels
        if lab.kind is PositionKind.INTERIOR and not lab.proper
    )

    return StructureReport(a, b, c, d, e, f, g, h)
