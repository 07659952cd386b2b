"""Globally best broken-line approximation with at most k free knots.

The search enumerates every knot configuration that a normalized optimum can
use (junctions at data abscissae or one per gap, no junctions in the boundary
gaps, every piece covering two data abscissae), solves each configuration by
decoupled chain fits, and checks the free gap knots by intersecting the two
adjacent chain-boundary lines. Configurations whose intersection leaves the
open gap are dominated by data-knot configurations, which the enumeration
covers, so discarding them never loses the optimum. Among fits within the
search's margin 1e-9*max|f| the fewest junctions win, then the
lexicographically smallest. So ``best_fit`` first walks, in that order, the
configurations whose line-fit lower bound could admit such a fit
(``_configs_by_key``), and stops at the first that does. Otherwise it streams
the rest lazily in nondecreasing bound order (``_configs_by_bound``). Each
configuration is offered once, and fitted and assembled only when it can
still beat or tie the incumbent.

A brute-force grid oracle provides an independent upper bound on the minimum
for cross-checking; its inner fits run on separate batched machinery (normal
equations and a vectorized Dantzig-rule simplex) so the two routes share as
little code as possible.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from collections.abc import Callable, Generator, Iterator
from dataclasses import dataclass
from typing import Literal, NamedTuple, TypeVar

import numpy as np

from .core import BrokenLine, DataSet, PNorm, coincident, default_slope_tolerance, proper_mask
from .core import classify_knots  # noqa: F401  (perfbench/tracing.py wraps solver.classify_knots)
from .fixed_knot import ChainProblem, _newton_fit, fit_chain
from .norms import error_norm, pow2_above, residual_norm


@dataclass(frozen=True)
class Junction:
    """One knot slot: a data knot at x_q or a free knot inside gap (x_q, x_{q+1})."""

    kind: Literal["data", "gap"]
    q: int

    def __post_init__(self) -> None:
        if self.kind not in ("data", "gap"):
            raise ValueError(f"unknown junction kind {self.kind!r}")

    @property
    def code(self) -> int:
        """Total position order: x_q before gap q before x_{q+1}."""
        return 2 * self.q + (1 if self.kind == "gap" else 0)

    def __str__(self) -> str:
        return f"{self.kind[0]}{self.q}"


@dataclass(frozen=True)
class KnotConfig:
    """An ordered combinatorial placement of junctions."""

    junctions: tuple[Junction, ...] = ()

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.junctions), tuple(j.code for j in self.junctions))

    def validate(self, mu: int) -> None:
        """Raise ValueError unless every chain on mu inner abscissae is a valid ChainProblem."""
        self.chains(mu)

    def chains(self, mu: int) -> list[ChainProblem]:
        """Maximal runs of pieces coupled by continuity at data knots."""
        out = []
        lo, knots = 0, []
        for j in self.junctions:
            if j.kind == "data":
                knots.append(j.q)
            else:
                out.append(ChainProblem(lo, j.q, tuple(knots)))
                lo, knots = j.q + 1, []
        out.append(ChainProblem(lo, mu + 1, tuple(knots)))
        return out

    def __str__(self) -> str:
        return "+".join(str(j) for j in self.junctions) or "[]"


@dataclass(frozen=True)
class Infeasible:
    """A configuration whose free gap knot cannot sit strictly inside its gap."""

    config: KnotConfig
    reason: Literal["improper", "parallel", "outside-gap"]


@dataclass(frozen=True)
class FitResult:
    """A configuration's assembled polyline and its discrete p-norm error."""

    spline: BrokenLine
    error: float
    config: KnotConfig

    @property
    def proper_knot_count(self) -> int:
        """Proper knots of ``spline``, by the same mask ``classify_knots`` applies."""
        return int(np.count_nonzero(proper_mask(self.spline, default_slope_tolerance(self.spline))))


def _junction(code: int) -> Junction:
    return Junction("gap" if code % 2 else "data", code // 2)


def enumerate_configs(mu: int, k: int) -> list[KnotConfig]:
    """All junction placements with 0..k junctions surviving the pruning rules.

    Ordered lexicographically by (junction count, positions). The rules are:
    junctions strictly increasing with none in the boundary gaps, and every
    piece covering at least two data abscissae counting shared data-knot
    endpoints.
    """
    if mu < 1 or k < 0:
        raise ValueError("need mu >= 1 and k >= 0")
    slots = [_junction(code) for code in range(2 * mu + 1)]
    results: list[KnotConfig] = []

    def rec(seq: list[Junction], start: int, r: int) -> None:
        if len(seq) == r:
            results.append(KnotConfig(tuple(seq)))
            return
        # Codes from 2*start + 2 put the junction at q >= start + 1, so the
        # piece before it covers two abscissae and codes increase; codes up to
        # 2*mu stop at the data knot x_mu, keeping out of the boundary gap.
        # The next piece starts at x_q after a data knot, x_{q+1} after a gap.
        for code in range(2 * start + 2, 2 * mu + 1):
            seq.append(slots[code])
            rec(seq, (code + 1) // 2, r)
            seq.pop()

    for r in range(k + 1):
        rec([], 0, r)
    return results


def solve_config(
    data: DataSet,
    config: KnotConfig,
    p: PNorm,
    fits: list[tuple[BrokenLine, float]] | None = None,
) -> FitResult | Infeasible:
    """Solve one configuration: decoupled chain fits plus gap feasibility.

    ``fits`` are the ``(polyline, error)`` pairs of ``config.chains(data.mu)``,
    in order, as ``fit_chain`` returns them; without them each chain is fitted
    here. Each free gap knot must be the intersection of the two flanking
    chain lines, strictly inside its open gap (within the relative margin
    tau_gap). Identical flanking lines mean the junction is improper and the
    merged configuration (enumerated separately) covers it.
    """
    fits = fits or [fit_chain(data, chain, p) for chain in config.chains(data.mu)]
    splines = [spline for spline, _ in fits]
    gaps = [j.q for j in config.junctions if j.kind == "gap"]

    # A chain's breakpoints are data.x[chain.breakpoint_indices()], so the
    # polyline is the chains' breakpoints in order, with the two chain ends
    # at each gap replaced by the intersection of the flanking end pieces.
    ts, vs = [splines[0].t[:-1]], [splines[0].v[:-1]]
    for q, left, right in zip(gaps, splines, splines[1:]):
        ml = (left.v[-1] - left.v[-2]) / (left.t[-1] - left.t[-2])
        mr = (right.v[1] - right.v[0]) / (right.t[1] - right.t[0])
        lo, hi = float(data.x[q]), float(data.x[q + 1])
        mid = 0.5 * (lo + hi)
        vl = left.v[-1] + (mid - left.t[-1]) * ml
        vr = right.v[0] + (mid - right.t[0]) * mr
        if coincident(ml, mr):
            if coincident(vl, vr):
                return Infeasible(config, "improper")
            return Infeasible(config, "parallel")
        xi = (vr - vl) / (ml - mr) + mid
        tau_gap = 1e-12 * (hi - lo)
        if not (lo + tau_gap < xi < hi - tau_gap):
            return Infeasible(config, "outside-gap")
        ts += [[xi], right.t[1:-1]]
        vs += [[left.v[-1] + (xi - left.t[-1]) * ml], right.v[1:-1]]
    ts.append(splines[-1].t[-1:])
    vs.append(splines[-1].v[-1:])

    spline = BrokenLine(np.concatenate(ts), np.concatenate(vs))
    return FitResult(spline, error_norm(data, spline, p), config)


def _lower_bound(data: DataSet, config: KnotConfig, p: PNorm, line_error) -> float:
    """Lower bound on the p-norm of the chain errors of ``config``.

    A chain polyline restricted to the points of one piece is a line, so the
    piece is at least as bad as the best line on those points (Bellman & Roth,
    JASA 1969). For p < inf a point shared at a data knot is counted in one
    block only, so the blocks are disjoint: [lo, k1], [k1+1, k2], ...,
    [km+1, hi]. For p = inf the blocks are the whole pieces. Each line error
    is ``line_error(a, b)``, the error of the no-knot chain fit of block
    [a, b]; a block of one or two points counts 0, since a line passes
    through it.
    """
    starts, ends = [0], []
    for j in config.junctions:
        ends.append(j.q)
        starts.append(j.q if p.is_infinity and j.kind == "data" else j.q + 1)
    ends.append(data.mu + 1)
    errs = [line_error(a, b) if b > a + 1 else 0.0 for a, b in zip(starts, ends)]
    return residual_norm(np.array(errs), p)


_PAIR_CHUNK = 1 << 20  # misses a line table holds at once, which bounds its memory


def _p2_line_errors(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Least-squares line errors of all blocks: E[a, b] for points a..b.

    Pass L = 1 .. n-1 adds point a+L to every block a..a+L-1 at once, a
    rank-one update of the block's 2x2 QR factor of [1, x] and its rotated
    f (Golub & Van Loan, *Matrix Computations*, sec. 6.5). The first Givens
    rotation, with cosine sqrt(L/(L+1)) and sine 1/sqrt(L+1), is Welford's
    update of the means of x - x_a and f - f_a (held as one complex number),
    and leaves the new point (u, w) centred on the old means. The second, by
    (c, s), rotates u into the factor's last diagonal entry r and w into its
    rotated f entry z. What it leaves over, V[a, a+L], is the new point's
    share of the block's residual, so E is the root of a running sum of V^2
    along each row and does not cancel: a block that a line fits exactly
    stays at rounding level even at an offset such as x ~ 1.7e9, where sums
    of x, x^2, f and xf would lift it above the search's margin. Blocks of
    one or two points get 0, since a line passes through them. x and f are
    first divided by powers of two, which is exact, so that no sum of
    squares over- or underflows at extreme scales.
    """
    n, scale = len(x), pow2_above(f)
    pts = x / pow2_above(x) + 1j * (f / scale)
    V, mean, r, z = np.zeros((n, n)), np.zeros(n, complex), *np.zeros((2, n))
    for L in range(1, n):
        m = n - L  # blocks a..a+L-1 that take point a+L
        d = pts[L:] - pts[:m] - mean[:m]
        mean = mean[:m] + d * (1.0 / (L + 1))
        d *= math.sqrt(L / (L + 1))
        u, w = d.real, d.imag
        r2 = np.hypot(r[:m], u)
        c, s = r[:m] / r2, u / r2
        V.reshape(-1)[L : L + m * (n + 1) : n + 1] = c * w - s * z[:m]  # entries (a, a+L)
        r, z = r2, c * z[:m] + s * w
    return scale * np.sqrt(np.cumsum(V * V, axis=1))


def _pairs(n: int, gap: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Point pairs i < j with j - i >= gap, in chunks of about _PAIR_CHUNK misses."""
    i, j = np.triu_indices(n, gap)
    step = max(1, _PAIR_CHUNK // n)
    for lo in range(0, len(i), step):
        yield i[lo : lo + step], j[lo : lo + step]


def _chord_misses(x: np.ndarray, f: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Misses of every point from the line through points i and j, a row per pair.

    The line is written f_i + slope*(x - x_i), so only differences of
    abscissae enter and an offset such as x ~ 1.7e9 does not cancel.
    """
    slope = (f[j] - f[i]) / (x[j] - x[i])
    return f - (f[i, None] + slope[:, None] * (x - x[i, None]))


def _l1_line_errors(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Least-absolute-deviation line errors of all blocks: E[a, b] for points a..b.

    Some best l_1 line passes through two of the block's points (Barrodale &
    Roberts, SIAM J. Numer. Anal. 1973: the fitting LP has an optimal vertex,
    and at a vertex two residuals vanish). So E[a, b] is the least, over
    pairs a <= i < j <= b, of the sum of the block's absolute misses from the
    line through points i and j. Each sum runs outward from the pair, down
    from j to a and up from j+1 to b, so it adds the misses of points a..b
    only. Blocks of one or two points get 0.
    """
    n = len(x)
    pts = np.arange(n)
    E = np.full((n, n), np.inf)
    for i, j in _pairs(n, 1):
        miss = np.abs(_chord_misses(x, f, i, j))
        down = np.where(pts <= j[:, None], miss, 0.0)[:, ::-1].cumsum(axis=1)[:, ::-1]
        up = np.where(pts > j[:, None], miss, 0.0).cumsum(axis=1)
        down = np.where(pts <= i[:, None], down, np.inf)  # the block must hold the pair
        up = np.where(pts >= j[:, None], up, np.inf)
        for a in range(n - 2):
            row = E[a, a + 2 :]
            np.minimum(row, (down[:, a, None] + up[:, a + 2 :]).min(axis=0), out=row)
    return np.where(pts >= pts[:, None] + 2, E, 0.0)


def _linf_line_errors(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Chebyshev line errors of all blocks: E[a, b] for points a..b.

    Lines form a Haar system of dimension two, so the best error on a block
    is the largest best error on any three of its points (Cheney,
    *Introduction to Approximation Theory*, ch. 2). On points i < m < j it
    is |delta| / 2, delta being point m's miss from the chord through i and
    j; D[i, j] is its largest over m. A triple either misses a, misses b, or
    holds both, so E[a, b] = max(E[a+1, b], E[a, b-1], D[a, b]) by increasing
    block length, which is the largest D[i, j] with a <= i < j <= b: a
    running max along b, then one back along a. Blocks of one or two points
    get 0.
    """
    n = len(x)
    pts = np.arange(n)
    D = np.zeros((n, n))
    for i, j in _pairs(n, 2):
        inner = (i[:, None] < pts) & (pts < j[:, None])
        D[i, j] = 0.5 * np.where(inner, np.abs(_chord_misses(x, f, i, j)), 0.0).max(axis=1)
    return np.maximum.accumulate(np.maximum.accumulate(D, axis=1)[::-1], axis=0)[::-1]


# Closed-form line-error tables by p; other norms fit each block.
_LINE_TABLES = {1.0: _l1_line_errors, 2.0: _p2_line_errors, math.inf: _linf_line_errors}


class _BoundDag(NamedTuple):
    """The tables of ``_bound_dag``, which the stream and the walk share."""

    cost: np.ndarray
    start: np.ndarray
    least: list[np.ndarray]
    combine: Callable[[float, float], float]
    vcombine: Callable[[np.ndarray, np.ndarray], np.ndarray]
    to_bound: Callable

    def moves(self, c: int, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Codes the next junction can take from code c with r left, and their block costs."""
        codes = np.arange(2 * ((c + 1) // 2) + 2 if r else len(self.start), len(self.start))
        return codes, self.cost[self.start[c], codes // 2]


def _bound_dag(data: DataSet, k: int, p: PNorm, line_error) -> _BoundDag:
    """The DAG whose paths are the configurations of ``enumerate_configs``.

    A configuration is a path through junction codes (code 0 is the left
    end of the data) whose edges are the blocks of ``_lower_bound``. A move
    out of code c reaches codes 2q and 2q+1 for every q >= (c+1)//2 + 1, so
    the piece before it covers two abscissae, at the line error of block
    [start[c], q]. Costs combine by max for p = inf and otherwise sum as
    p-th powers of errors first divided by one power of two above the
    largest, so no sum over- or underflows. A suffix dynamic program gives
    every (code, junctions left) state its least completion cost. A step
    combines every block [a, q] of the one (mu+2)^2 cost table with at[q],
    the lesser completion of codes 2q and 2q+1, and keeps a running minimum
    along q from the right. Rounding is monotone, so taking the lesser
    first gives the same bits as combining each code.

    At p in {1, 2, inf} the line errors come in closed form from
    ``_LINE_TABLES``; otherwise each is ``line_error(a, b)``, asked only for
    blocks some configuration uses.
    """
    mu, inf = data.mu, p.is_infinity
    codes = np.arange(2 * mu + 1)
    # The first piece and a piece after a gap start their block at their own
    # first point; after a data knot the knot's point belongs to the block
    # on its left, or to both blocks for p = inf.
    start = codes // 2 + ((codes % 2 == 1) | (not inf))
    start[0] = 0

    if p.p in _LINE_TABLES:
        cost = _LINE_TABLES[p.p](data.x, data.f)
    else:
        # At finite p a block starts at 0 or, after a junction, at a >= 2, and
        # a junction follows it unless it ends the data at b = mu+1.
        cost = np.zeros((mu + 2, mu + 2))
        for a, b in itertools.combinations(range(mu + 2), 2):
            if b > a + 1 and a != 1 and (a > 0) + (b <= mu) <= k:
                cost[a, b] = line_error(a, b)

    to_bound = float
    if not inf:  # rebinding cost frees the line-error table
        scale = pow2_above(cost)
        cost = (cost / scale) ** p.p
        to_bound = lambda key: scale * key ** (1.0 / p.p)  # noqa: E731
    vcombine, combine = (np.maximum, max) if inf else (np.add, operator.add)
    least = [cost[start, mu + 1]]  # least[r][c]: least completion with at most r junctions left
    for _ in range(k):
        # Code 2mu+1 and position mu+1 take no junction; column mu - (c+1)//2 is q >= (c+1)//2 + 1.
        at = np.concatenate((least[-1], [np.inf] * 3)).reshape(-1, 2).min(axis=1)
        right = np.minimum.accumulate(vcombine(cost, at)[:, ::-1], axis=1)
        least.append(np.minimum(least[0], right[start, mu - (codes + 1) // 2]))
    return _BoundDag(cost, start, least, combine, vcombine, to_bound)


def _configs_by_bound(dag: _BoundDag) -> Iterator[tuple[float, KnotConfig]]:
    """The configurations of ``enumerate_configs`` in nondecreasing bound order.

    Yields ``(bound, config)`` lazily, bound being ``_lower_bound`` up to
    rounding. A heap keyed by prefix cost combined with the least completion
    cost pops whole configurations cheapest first: lazy k-shortest paths in
    a hop-limited DAG (Eppstein, SIAM J. Comput. 1998). Each pop pushes at
    most two entries, its next sibling and its best child.
    """
    cost, start, least, combine, vcombine, to_bound = dag

    @functools.cache
    def ordered(c: int, r: int) -> tuple[list[float], list[int]]:
        """Moves out of state (c, r), cheapest completion first; -1 ends."""
        moves, w = dag.moves(c, r)
        h = np.concatenate(([least[0][c]], vcombine(w, least[r - 1][moves])))
        order = np.argsort(h, kind="stable")
        return h[order].tolist(), np.concatenate(([-1], moves))[order].tolist()

    k, slots = len(least) - 1, [_junction(code) for code in range(len(start))]
    seq = itertools.count()
    # (key, tie, prefix cost, prefix codes, state, junctions left, move index)
    heap = [(ordered(0, k)[0][0], next(seq), 0.0, (), 0, k, 0)]
    while heap:
        key, _, g, prefix, c, r, i = heapq.heappop(heap)
        h, moves = ordered(c, r)
        # Keys never fall below the one just popped, so rounding cannot
        # reorder the stream.
        if i + 1 < len(h):
            sibling = max(key, combine(g, h[i + 1]))
            heapq.heappush(heap, (sibling, next(seq), g, prefix, c, r, i + 1))
        c2 = moves[i]
        if c2 < 0:
            yield to_bound(key), KnotConfig(tuple(slots[code] for code in prefix))
        else:
            g2 = combine(g, float(cost[start[c], c2 // 2]))
            best = ordered(c2, r - 1)[0][0]
            heapq.heappush(
                heap, (max(key, combine(g2, best)), next(seq), g2, (*prefix, c2), c2, r - 1, 0)
            )


def _configs_by_key(dag: _BoundDag, limit: float) -> Iterator[KnotConfig]:
    """The configurations whose bound is at most ``limit``, by ``sort_key``.

    A depth-first walk of the DAG takes junction counts r = 0, 1, ..., k and,
    within each, codes in increasing order. A prefix whose cost combined
    with its least completion exceeds ``limit`` is dropped.
    """
    _, _, least, combine, vcombine, to_bound = dag

    def walk(prefix: tuple[int, ...], c: int, left: int, g: float) -> Iterator[tuple[int, ...]]:
        if not left:
            if to_bound(combine(g, float(least[0][c]))) <= limit:
                yield prefix
            return
        moves, w = dag.moves(c, left)
        g2 = vcombine(g, w)
        keep = [to_bound(h) <= limit for h in vcombine(g2, least[left - 1][moves]).tolist()]
        for c2, g3 in zip(moves[keep].tolist(), g2[keep].tolist()):
            yield from walk((*prefix, c2), c2, left - 1, g3)

    for r in range(len(least)):
        for codes in walk((), 0, r, 0.0):
            yield KnotConfig(tuple(map(_junction, codes)))


def best_fit(data: DataSet, k: int, p: PNorm) -> FitResult:
    """Global minimum of the discrete p-norm error over polylines with <= k knots.

    When mu < k+1 the data is reproduced exactly by the interpolating
    polyline, which the tie rule below does not touch. Otherwise the chains
    of a configuration partition the data, so a feasible configuration's
    error is the p-norm of its chain errors (its rank), which its line-fit
    lower bound never exceeds. Every configuration goes through one offer:
    it is assembled only when its rank is within a rounding margin of the
    incumbent, which is the (error, sort_key) minimum of those assembled.

    Tie rule: among configurations with error at most slack = 1e-9*max|f|,
    the least ``sort_key`` wins (fewest junctions, then lexicographic);
    when there is none, the exact (error, sort_key) minimum wins. Every fit
    within slack has a bound within the margin of an incumbent at slack, so
    when some bound is, ``_configs_by_key`` first offers the configurations
    with such a bound in ``sort_key`` order, and the first fit within slack
    wins. Otherwise ``_configs_by_bound`` offers the configurations not yet
    offered in nondecreasing bound order, until a bound exceeds the margin.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if data.mu < k + 1:
        config = KnotConfig(tuple(Junction("data", q) for q in range(1, data.mu + 1)))
        return FitResult(BrokenLine(data.x, data.f), 0.0, config)

    cached_fit = functools.cache(lambda chain: fit_chain(data, chain, p))
    # The rank and the assembled polyline's error_norm agree up to rounding;
    # the margin keeps every configuration that could tie.
    slack = 1e-9 * float(np.max(np.abs(data.f)))
    margin = lambda error: error * (1.0 + 1e-9) + slack  # noqa: E731
    best: FitResult | None = None

    def offer(cfg: KnotConfig) -> None:
        nonlocal best
        fits = [cached_fit(chain) for chain in cfg.chains(data.mu)]
        rank = residual_norm(np.array([err for _, err in fits]), p)
        if best is None or rank <= margin(best.error):
            out = solve_config(data, cfg, p, fits)
            if isinstance(out, FitResult) and (
                best is None
                or (out.error, out.config.sort_key()) < (best.error, best.config.sort_key())
            ):
                best = out

    dag = _bound_dag(data, k, p, lambda a, b: cached_fit(ChainProblem(a, b))[1])
    walked: set[KnotConfig] = set()
    if dag.to_bound(dag.least[-1][0]) <= margin(slack):
        for cfg in _configs_by_key(dag, margin(slack)):
            walked.add(cfg)
            offer(cfg)
            if best is not None and best.error <= slack:
                return best
    # The stream clamps its keys and sums in another order than the walk,
    # so a bound near margin(slack) may fall on either side of it there;
    # skipping what the walk offered, rather than by bound, loses nothing.
    for bound, cfg in _configs_by_bound(dag):
        if best is not None and bound > margin(best.error):
            break
        if cfg not in walked:
            offer(cfg)
    assert best is not None  # the empty configuration always succeeds
    return best


# --------------------------------------------------------------------------
# Independent grid oracle
# --------------------------------------------------------------------------
#
# The oracle evaluates whole batches of knot vectors at once. Its inner
# solvers are deliberately distinct from the primary path: batched normal
# equations instead of lstsq for p = 2, and for p = 1 and p = inf a
# vectorized Dantzig-rule primal simplex on a condensed tableau instead of
# Bland's rule on a full one. Its l1 LP is in equality form rather than the
# primary path's pair rows, and both its LPs are written directly at a
# feasible vertex, so no auxiliary phase is needed. Every reported value is
# the residual norm of an actual polyline, hence always an upper bound on the
# true minimum.


def _batched_design(xs: np.ndarray, bps: np.ndarray) -> np.ndarray:
    """Hat-weight design tensors (C, n, d) for C breakpoint vectors at once."""
    C, d = bps.shape
    n = len(xs)
    piece = np.clip((bps[:, None, :] <= xs[None, :, None]).sum(-1) - 1, 0, d - 2)
    lo = np.take_along_axis(bps, piece, axis=1)
    hi = np.take_along_axis(bps, piece + 1, axis=1)
    w = (xs[None, :] - lo) / (hi - lo)
    A = np.zeros((C, n, d))
    np.put_along_axis(A, piece[:, :, None], (1.0 - w)[:, :, None], axis=2)
    np.put_along_axis(A, (piece + 1)[:, :, None], w[:, :, None], axis=2)
    return A


def _p2_errors_batch(A: np.ndarray, f: np.ndarray) -> np.ndarray:
    scale = pow2_above(f)
    f = f / scale  # exact, and keeps every sum of squares in range
    G = np.einsum("cnd,cne->cde", A, A)
    idx = np.arange(G.shape[1])
    G[:, idx, idx] += 1e-13 * (1.0 + np.trace(G, axis1=1, axis2=2))[:, None]
    b = np.einsum("cnd,n->cd", A, f)
    v = np.linalg.solve(G, b[:, :, None])[:, :, 0]
    r = f[None, :] - np.einsum("cnd,cd->cn", A, v)
    return scale * np.sqrt(np.sum(r * r, axis=1))


_ORACLE_TOL = 1e-9
_ORACLE_MAX_PIVOTS = 200
_T = TypeVar("_T")
_Asks = Generator[np.ndarray, np.ndarray, _T]  # yields breakpoint batches, is sent their errors


def _lp_errors_batch(A: np.ndarray, f: np.ndarray, infinity: bool) -> np.ndarray:
    """Exact min of ||f - A v||_1 (or _inf) per batch entry.

    Vectorized primal simplex over the batch on a condensed tableau (Tucker's
    Jordan exchange): only the nonbasic columns and the right-hand side are
    stored, and the last row holds the reduced costs with minus the value in
    its right-hand side. Free values are split into positive and negative
    parts v+ and v-. Each LP is written directly at the feasible vertex v = 0:

    - l1, in equality form A v + u - w = f (Barrodale & Roberts, SIAM J.
      Numer. Anal. 1973): row i is s_i times the equation, s_i the sign of
      f_i, with the residual part u_i or w_i that s_i f_i makes nonnegative
      basic and its twin nonbasic; the objective row is minus the sum of the
      rows, with 2 in every twin column.
    - l_inf, on the pair rows +-(f - A v) <= eps: the tightest row r is made
      eps's row, so r holds minus itself, every other row has row r
      subtracted, and the objective row is row r; the nonbasic column left
      is row r's slack.

    Entering columns follow Dantzig's rule. An entry leaves the batch with
    its current value as soon as no reduced cost is negative or its entering
    column has no positive entry, and every entry left after
    _ORACLE_MAX_PIVOTS pivots is read as it stands. Every pivot keeps the
    vertex primal feasible, so each value is achievable.
    """
    C, n, d = A.shape
    if infinity:
        m = 2 * n
        T = np.zeros((C, m + 1, 2 * d + 2))
        T[:, 0:m:2, :d] = A
        T[:, 1:m:2, :d] = -A
        T[:, :m, d : 2 * d] = -T[:, :m, :d]
        T[:, 0:m:2, -1] = f
        T[:, 1:m:2, -1] = -f
        r = int(np.argmin(T[0, :m, -1]))
        T[:, m] = T[:, r]
        T[:, :m] -= T[:, m, None, :]
        T[:, r] = -T[:, m]
        T[:, :m, 2 * d] = -1.0  # the column of row r's slack
        T[:, m, 2 * d] = 1.0
    else:
        m = n
        s = np.where(f < 0, -1.0, 1.0)
        T = np.empty((C, m + 1, 2 * d + n + 1))
        T[:, :m, :d] = s[:, None] * A
        T[:, :m, d : 2 * d] = -T[:, :m, :d]
        T[:, :m, 2 * d : -1] = -np.eye(n)
        T[:, :m, -1] = s * f
        T[:, m] = -T[:, :m].sum(axis=1)
        T[:, m, 2 * d : -1] = 2.0

    values = np.empty(C)
    alive = np.arange(C)
    for _ in range(_ORACLE_MAX_PIVOTS):
        ar = np.arange(len(alive))
        j = np.argmin(T[:, m, :-1], axis=1)  # Dantzig: most negative reduced cost
        colv = T[ar, :, j]
        pos = colv[:, :m] > _ORACLE_TOL
        ratios = np.full(pos.shape, np.inf)
        np.divide(T[:, :m, -1], colv[:, :m], out=ratios, where=pos)
        l = np.argmin(ratios, axis=1)
        go = (colv[:, m] < -_ORACLE_TOL) & pos.any(axis=1)
        if not go.all():
            values[alive[~go]] = -T[~go, m, -1]
            alive, T, colv, j, l = alive[go], T[go], colv[go], j[go], l[go]
            ar = ar[: len(alive)]
            if not len(alive):
                break
        piv = colv[ar, l]
        pr = T[ar, l] / piv[:, None]
        inv = 1.0 / piv
        T -= colv[:, :, None] * pr[:, None, :]
        T[ar, l] = pr
        T[ar, :, j] = -colv * inv[:, None]
        T[ar, l, j] = inv
    values[alive] = -T[:, m, -1]
    return values


def _oracle_errors(data: DataSet, bps_batch: np.ndarray, p: PNorm) -> np.ndarray:
    """Best fixed-breakpoint errors for a batch of breakpoint vectors."""
    out = np.empty(len(bps_batch))
    for start in range(0, len(bps_batch), 512):
        chunk = bps_batch[start : start + 512]
        A = _batched_design(data.x, chunk)
        if p.p == 2.0:
            out[start : start + len(chunk)] = _p2_errors_batch(A, data.f)
        elif p.p == 1.0 or p.is_infinity:
            out[start : start + len(chunk)] = _lp_errors_batch(A, data.f, p.is_infinity)
        else:
            for c in range(len(chunk)):
                v = _newton_fit(A[c], data.f, p.p)
                out[start + c] = residual_norm(data.f - A[c] @ v, p)
    return out


def _grid_ladder(grid_per_gap: int) -> list[int]:
    """Coarse-to-fine resolutions g, g//4, g//16, ..., ending at the coarsest."""
    levels = []
    g = grid_per_gap
    while g >= 1:
        levels.append(g)
        g //= 4
    return levels[::-1]


def _gap_candidates(data: DataSet, resolutions: list[int]) -> list[np.ndarray]:
    """Per-gap candidates: union of equispaced grids at the given resolutions.

    Taking the union over the whole ladder makes the candidate sets nested
    along g in {1, 4, 16, 64, ...}, so refining the grid never enlarges the
    oracle minimum.
    """
    out = []
    for q in range(data.mu + 1):
        lo, hi = float(data.x[q]), float(data.x[q + 1])
        pts = {lo + (hi - lo) * i / (lvl + 1) for lvl in resolutions for i in range(1, lvl + 1)}
        out.append(np.array(sorted(pts)))
    return out


def _oracle_patterns(mu: int, k: int) -> list[tuple[Junction, ...]]:
    """All selections of at most k slots whose pieces each cover two abscissae.

    One filter over the combinations of the slots in code order (gap 0, x_1,
    gap 1, ..., x_mu, gap mu); the coverage rule alone rules the boundary gaps
    out. Written out here so the oracle does not reuse the solver's pruned
    enumeration.
    """
    slots = [Junction("gap" if code % 2 else "data", code // 2) for code in range(1, 2 * mu + 2)]

    def covered(selection: tuple[Junction, ...]) -> bool:
        starts = [0] + [j.q + (j.kind == "gap") for j in selection]
        ends = [j.q for j in selection] + [mu + 1]
        return all(lo < hi for lo, hi in zip(starts, ends))

    return [c for r in range(k + 1) for c in itertools.combinations(slots, r) if covered(c)]


def grid_oracle(data: DataSet, k: int, p: PNorm, grid_per_gap: int) -> float:
    """Brute-force upper bound on the optimal error from gridded knot vectors.

    Knot entries range over the data abscissae x_1..x_mu plus grid_per_gap
    equispaced points inside every gap (plus their power-of-four coarsenings,
    which keeps the candidate sets nested along g in 1, 4, 16, 64, ...); all
    strictly increasing selections of size <= k whose pieces each cover two
    data abscissae are fitted. Each slot pattern is searched coarse-to-fine,
    exhaustively while its grid product stays within the budget and then by
    deterministic coordinate descent seeded with the best choices of the
    previous resolution. Refining g along the power-of-four ladder therefore
    only ever lowers the returned value. The searches run side by side as
    generators: each round, one driver sends all their fresh breakpoint
    vectors of one width to the batched solvers in one call, and hands each
    search its slice of the errors.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if grid_per_gap < 1:
        raise ValueError("grid_per_gap must be >= 1")
    ladder = _grid_ladder(grid_per_gap)
    cands_at: dict[int, list[np.ndarray]] = {
        lvl: _gap_candidates(data, _grid_ladder(lvl)) for lvl in ladder
    }
    exhaustive_cap = 400

    def build_bps(
        pattern: tuple[Junction, ...], cands: list[np.ndarray], choices: np.ndarray
    ) -> np.ndarray:
        """Breakpoint vectors for all index rows (one column per gap slot)."""
        bps = np.empty((len(choices), len(pattern) + 2))
        bps[:, 0] = data.a
        bps[:, -1] = data.b
        slot = 0
        for col, j in enumerate(pattern, start=1):
            if j.kind == "data":
                bps[:, col] = data.x[j.q]
            else:
                bps[:, col] = cands[j.q][choices[:, slot]]
                slot += 1
        return bps

    def all_choices(sizes: list[int]) -> np.ndarray:
        return np.array(list(itertools.product(*map(range, sizes))), dtype=int)

    def pattern_best(pattern: tuple[Junction, ...]) -> _Asks[float]:
        """Ladder search for one pattern, asking for the errors of fresh breakpoint vectors."""
        gaps = [j.q for j in pattern if j.kind == "gap"]
        seen: dict[tuple[float, ...], float] = {}

        def eval_cached(cands: list[np.ndarray], choices: np.ndarray) -> _Asks[np.ndarray]:
            bps = build_bps(pattern, cands, choices)
            keys = list(map(tuple, bps.tolist()))
            fresh = [i for i, key in enumerate(keys) if key not in seen]
            if fresh:
                errs = yield bps[fresh]
                for i, e in zip(fresh, errs):
                    seen[keys[i]] = float(e)
            return np.array([seen[key] for key in keys])

        def descend(
            cands: list[np.ndarray], sizes: list[int], choice: np.ndarray
        ) -> _Asks[tuple[np.ndarray, float]]:
            value = float((yield from eval_cached(cands, choice[None, :]))[0])
            for _ in range(12):
                moved = False
                for slot in range(len(sizes)):
                    scan = np.repeat(choice[None, :], sizes[slot], axis=0)
                    scan[:, slot] = np.arange(sizes[slot])
                    errs = yield from eval_cached(cands, scan)
                    idx = int(np.argmin(errs))
                    if errs[idx] < value:
                        choice, value, moved = scan[idx], float(errs[idx]), True
                if not moved:
                    break
            return choice, value

        # Start at the finest resolution that is still exhaustively affordable
        # (for most patterns the top one, so the search is one batch); each
        # finer level runs coordinate descent from a handful of seeds carried
        # up from the level below, so refining the ladder can only improve the
        # value. The kinkier norms' descent landscape has local minima, hence
        # the multi-seeding.
        start = 0
        for i, lvl in enumerate(ladder):
            if int(np.prod([len(cands_at[lvl][q]) for q in gaps])) <= exhaustive_cap:
                start = i
        seeds_pos: list[np.ndarray] | None = None
        for lvl in ladder[start:]:
            cands = cands_at[lvl]
            sizes = [len(cands[q]) for q in gaps]
            if int(np.prod(sizes)) <= exhaustive_cap:
                choices = all_choices(sizes)
                errs = yield from eval_cached(cands, choices)
                order = np.argsort(errs, kind="stable")[:3]
                value = float(errs[order[0]])
                picked = [choices[idx] for idx in order]
            else:
                if seeds_pos is None:
                    seed_choices = [np.array([s // 2 for s in sizes])]
                else:
                    seed_choices = [
                        np.array([int(np.searchsorted(cands[q], pos)) for q, pos in zip(gaps, seed)])
                        for seed in seeds_pos
                    ]
                value = np.inf
                picked = []
                for seed in seed_choices:
                    choice, val = yield from descend(cands, sizes, seed)
                    picked.append(choice)
                    value = min(value, val)
            seeds_pos = [np.array([cands[q][c] for q, c in zip(gaps, choice)]) for choice in picked]
        return value

    # Each round, every live search's request of one breakpoint width goes to
    # _oracle_errors in one batch. An entry's value does not depend on its
    # batch mates, so each search takes the path it would take alone.
    best = np.inf
    pending = [(pattern_best(pattern), None) for pattern in _oracle_patterns(data.mu, k)]
    while pending:
        by_width: dict[int, list[tuple[_Asks[float], np.ndarray]]] = {}
        for search, reply in pending:
            try:
                bps = search.send(reply)
            except StopIteration as done:
                best = min(best, done.value)
                continue
            by_width.setdefault(bps.shape[1], []).append((search, bps))
        pending = []
        for asks in by_width.values():
            errs = _oracle_errors(data, np.concatenate([bps for _, bps in asks]), p)
            ends = np.cumsum([len(bps) for _, bps in asks])
            pending += [(search, errs[e - len(bps) : e]) for (search, bps), e in zip(asks, ends)]
    return float(best)
