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

import numpy as np

from .core import (
    BrokenLine,
    DataSet,
    DomainError,
    KnotLabel,
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

    @classmethod
    def ok(cls) -> "PropertyCheck":
        return cls(CheckStatus.PASS)

    @classmethod
    def fail(cls, witness: str) -> "PropertyCheck":
        return cls(CheckStatus.FAIL, witness)


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


def _abscissae_strictly_between(x: np.ndarray, u: float, w: float) -> list[int]:
    return [int(i) for i in np.flatnonzero((u < x) & (x < w))]


def check_structure(data: DataSet, s: BrokenLine, p: PNorm) -> StructureReport:
    """Report which of the eight optimal-structure properties hold for ``s``.

    (a) no proper knots in the boundary gaps; (b) abscissae flanking an
    interior knot are not knots; (c) two non-knot abscissae between any two
    interior knots; (d) two abscissae on or between neighboring knots
    (boundary knots included); (e) an interior knot's flanking abscissae
    bound no other knot; (f) a non-knot abscissa exists on each side of an
    interior knot; (g) for p < inf, a single abscissa between an interior
    knot and a neighboring data knot is reproduced exactly; (h) every knot
    strictly inside a gap is proper.

    Both thresholds are relative to the data: a knot is proper when its slope
    change exceeds 1e-9 * max|slope| (``classify_knots``), and (g) counts an
    abscissa as reproduced when its residual is at most 1e-8 * max|f|.
    """
    labels = classify_knots(s, data)
    tau_interp = 1e-8 * float(np.max(np.abs(data.f)))

    x = data.x
    mu = data.mu
    proper = [lab for lab in labels if lab.proper]
    proper_pos = {lab.position for lab in proper}
    interior = [lab for lab in proper if lab.kind is PositionKind.INTERIOR]

    # (a) boundary regions are knot-free: x_1 <= t <= x_mu for proper knots
    a_check = PropertyCheck.ok()
    for lab in proper:
        if not (x[1] <= lab.position <= x[mu]):
            a_check = PropertyCheck.fail(
                f"knot {lab.position!r} outside [x_1, x_mu] = [{x[1]!r}, {x[mu]!r}]"
            )
            break

    # (b) neighbors of an interior knot are not knots
    b_check = PropertyCheck.ok()
    for lab in interior:
        for side in (lab.q, lab.q + 1):
            if 0 <= side <= mu + 1 and float(x[side]) in proper_pos:
                b_check = PropertyCheck.fail(
                    f"abscissa x_{side} adjoins interior knot {lab.position!r} and is a knot"
                )
                break
        if b_check.status is CheckStatus.FAIL:
            break

    # (c) two non-knot abscissae between any two interior knots
    c_check = PropertyCheck.ok()
    for i in range(len(interior)):
        for j in range(i + 1, len(interior)):
            u, w = interior[i].position, interior[j].position
            between = [
                q for q in _abscissae_strictly_between(x, u, w)
                if float(x[q]) not in proper_pos
            ]
            if len(between) < 2:
                c_check = PropertyCheck.fail(
                    f"interior knots {u!r} and {w!r} enclose {len(between)} non-knot abscissae"
                )
                break
        if c_check.status is CheckStatus.FAIL:
            break

    # (d) on or between neighboring knots lie at least two data abscissae
    d_check = PropertyCheck.ok()
    seq = [data.a] + sorted(proper_pos) + [data.b]
    for u, w in zip(seq, seq[1:]):
        covered = int(np.sum((u <= x) & (x <= w)))
        if covered < 2:
            d_check = PropertyCheck.fail(
                f"knot interval [{u!r}, {w!r}] covers {covered} abscissae"
            )
            break

    # (e) the gap hosting an interior knot contains no other knot
    e_check = PropertyCheck.ok()
    for lab in interior:
        lo, hi = float(x[lab.q]), float(x[lab.q + 1])
        others = [
            pos for pos in proper_pos if lo <= pos <= hi and pos != lab.position
        ]
        if others:
            e_check = PropertyCheck.fail(
                f"gap [x_{lab.q}, x_{lab.q + 1}] of interior knot {lab.position!r}"
                f" also holds knot {others[0]!r}"
            )
            break

    # (f) a non-knot abscissa from {x_1..x_mu} on each side of an interior knot
    f_check = PropertyCheck.ok()
    inner = [float(xv) for xv in x[1 : mu + 1]]
    for lab in interior:
        left = any(xv < lab.position and xv not in proper_pos for xv in inner)
        right = any(xv > lab.position and xv not in proper_pos for xv in inner)
        if not (left and right):
            f_check = PropertyCheck.fail(
                f"interior knot {lab.position!r} lacks a free abscissa on one side"
            )
            break

    # (g) single abscissa between an interior knot and a neighboring data knot
    # is reproduced (p < inf only)
    if p.is_infinity:
        g_check = PropertyCheck(CheckStatus.NOT_APPLICABLE)
    else:
        g_check = PropertyCheck.ok()
        by_pos = sorted(proper, key=lambda lab: lab.position)
        for lab1, lab2 in zip(by_pos, by_pos[1:]):
            kinds = {lab1.kind, lab2.kind}
            if kinds != {PositionKind.INTERIOR, PositionKind.DATA}:
                continue
            between = _abscissae_strictly_between(x, lab1.position, lab2.position)
            if len(between) >= 2:
                continue
            if len(between) == 0:
                g_check = PropertyCheck.fail(
                    f"no abscissa between knots {lab1.position!r} and {lab2.position!r}"
                )
                break
            q = between[0]
            gap = abs(evaluate(s, float(x[q])) - float(data.f[q]))
            if gap > tau_interp:
                g_check = PropertyCheck.fail(
                    f"abscissa x_{q} between knots {lab1.position!r} and"
                    f" {lab2.position!r} not reproduced (|residual| = {gap:.3e})"
                )
                break

    # (h) every knot strictly inside a gap is proper
    h_check = PropertyCheck.ok()
    for lab in labels:
        if lab.kind is PositionKind.INTERIOR and not lab.proper:
            h_check = PropertyCheck.fail(
                f"improper knot {lab.position!r} strictly inside gap {lab.q}"
            )
            break

    return StructureReport(
        a_check, b_check, c_check, d_check, e_check, f_check, g_check, h_check
    )
