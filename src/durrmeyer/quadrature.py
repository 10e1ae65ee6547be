"""Adaptive Gauss-Kronrod quadrature with explicit error accounting.

Cells are refined on the embedded-rule error estimate until the summed
estimate meets an absolute tolerance or, for an integral so large that its
rounding level is above the tolerance, 50 eps of its own magnitude, where
QUADPACK also stops (Piessens et al., 1983). Every value returned carries
the summed |Kronrod - Gauss| difference of its cells: an error estimate,
not a bound. Interior breakpoints, shared by a batch of intervals or given
one row per interval as QUADPACK's QAGP takes them per integral, seed the
initial subdivision, which keeps piecewise integrands smooth on every
cell. An integrand with kinks the caller can locate cell by cell (a spline
series at its knots and zero crossings) names them with a ``cuts``
callback: a cell picked for splitting is cut at every point it returns,
and bisected at its midpoint when it returns none. Many intervals are
refined together, in rounds that evaluate all their new cells at once, in
the manner of QUADPACK's QAG (Piessens et al., 1983). Each interval of such
a batch may integrate its own function: with ``per_interval=True`` the
integrand receives its nodes one row per cell, beside each row's interval,
so one call can serve many integrands that share nodes.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["QuadratureError", "integrate", "ROUNDING_FLOOR"]

# No interval is refined below this multiple of its own magnitude, the
# rounding level of a sum of GK15 cells (QUADPACK's 50 eps). A Python float,
# so that comparisons with it give Python bools.
ROUNDING_FLOOR = 50 * sys.float_info.epsilon

# Width below which a cell is no longer split; its estimate is then a floor.
_MIN_REL_WIDTH = 1e-14
# Cells per integrand call: at most 65,535 nodes, whatever the batch size.
_CHUNK_CELLS = (1 << 16) // 15
# Resolution of the integer running sums that pick the cells to bisect.
_EXCESS_UNIT = 1 << 30


class QuadratureError(RuntimeError):
    """The summed |Kronrod - Gauss| error estimate stays above both the
    requested tolerance and the integral's rounding floor within the given
    budget."""


def _gauss_kronrod_rule():
    # 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1].
    xk = np.array([
        0.9914553711208126392068547,
        0.9491079123427585245261897,
        0.8648644233597690727897128,
        0.7415311855993944398638648,
        0.5860872354676911302941448,
        0.4058451513773971669066064,
        0.2077849550078984676006894,
        0.0,
    ])
    wk = np.array([
        0.0229353220105292249637320,
        0.0630920926299785532907007,
        0.1047900103222501838398763,
        0.1406532597155259187451896,
        0.1690047266392679028265834,
        0.1903505780647854099132564,
        0.2044329400752988924141620,
        0.2094821410847278280129992,
    ])
    wg = np.array([
        0.1294849661688696932706114,
        0.2797053914892766679014678,
        0.3818300505051189449503698,
        0.4179591836734693877551020,
    ])
    nodes = np.concatenate([-xk[:7], [0.0], xk[6::-1]])
    weights_k = np.concatenate([wk[:7], [wk[7]], wk[6::-1]])
    weights_g = np.zeros(15)
    # Gauss nodes sit at the odd Kronrod positions: +-x1, +-x3, +-x5, 0.
    weights_g[[1, 3, 5, 7, 9, 11, 13]] = np.concatenate([wg[:3], [wg[3]], wg[2::-1]])
    return nodes, np.stack((weights_k, weights_g))


# Nodes on [-1, 1]; Kronrod weights in row 0, Gauss weights in row 1.
_NODES, _WEIGHTS = _gauss_kronrod_rule()


def _gk15(f, lo, hi, interval=None):
    """Kronrod values and |Kronrod - Gauss| error estimates of the cells
    [lo, hi], with at most ``_CHUNK_CELLS`` cells per integrand call. With
    ``interval``, the cells' interval indices, ``f`` takes the nodes as one
    row per cell and the rows' intervals."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    sums = np.empty((lo.size, 2))
    for start in range(0, lo.size, _CHUNK_CELLS):
        block = slice(start, start + _CHUNK_CELLS)
        x = mid[block, None] + half[block, None] * _NODES
        if interval is None:
            x = x.ravel()
        y = np.asarray(f(x) if interval is None else f(x, interval[block]), dtype=float)
        if y.shape != x.shape:
            raise ValueError("integrand must map an array of nodes to same-shape values")
        # Row sums, not a matrix product: BLAS would let a cell's last bit
        # depend on which other cells share its call. An infinite node value
        # or a sum past the float range gives, quietly, an infinite value or
        # estimate (NaN where inf meets inf or a zero Gauss weight).
        rows = y.reshape(-1, 1, _NODES.size)
        with np.errstate(over="ignore", invalid="ignore"):
            sums[block] = (rows * _WEIGHTS).sum(axis=2) * half[block, None]
            # A cell narrower than 2 can overflow before it is scaled while
            # its integral is finite: its sums are taken again with weights
            # scaled first. Every finite sum keeps its bits.
            again = ~np.isfinite(sums[block]).all(axis=1) & (half[block] < 1.0)
            if again.any():
                scaled = _WEIGHTS * half[block][again, None, None]
                sums[start + np.flatnonzero(again)] = (rows[again] * scaled).sum(axis=2)
    value = sums[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        return value, np.abs(value - sums[:, 1])


def _initial_cells(a, b, breakpoints):
    """The intervals with a != b, and each one's first cells: the interval
    cut at the distinct breakpoints strictly inside it, taken from the one
    row shared by all intervals or from the interval's own row. Returns the
    intervals' indices and, per cell in order, its interval's position
    among them and its edges. Without breakpoints each interval is its one
    first cell, and nothing is sorted."""
    cuts = np.asarray(breakpoints, dtype=float)
    if cuts.ndim == 2 and cuts.shape[0] != a.size:
        raise ValueError(f"{cuts.shape[0]} breakpoint rows for {a.size} intervals")
    ids = np.flatnonzero(a != b)
    if not cuts.size:
        return ids, np.arange(ids.size), a[ids], b[ids]
    a, b = a[ids, None], b[ids, None]
    if cuts.ndim == 2:
        cuts = cuts[ids]
    # Each interval's edges in order, a cut outside it clipped onto an end.
    # Sorted without np.unique, whose first call imports numpy.ma.
    edges = np.sort(np.concatenate((a, np.clip(cuts, a, b), b), axis=1), axis=1)
    lo, hi = edges[:, :-1], edges[:, 1:]
    # Repeated and clipped cuts leave empty cells, which are dropped.
    cell = hi > lo
    return ids, np.nonzero(cell)[0], lo[cell], hi[cell]


def _split_points(lo, hi, cuts, interval=None):
    """Where to split each cell [lo, hi]: at every point ``cuts(lo, hi)``
    (``cuts(lo, hi, interval)`` given the cells' intervals) returns for it,
    or at its midpoint when it returns none or ``cuts`` is None. Returns the
    cells' indices and the points, by cell and then by point, every point
    strictly inside its cell."""
    if cuts is None:
        return np.arange(lo.size), 0.5 * (lo + hi)
    cell, at = cuts(lo, hi) if interval is None else cuts(lo, hi, interval)
    cell, at = np.asarray(cell, dtype=np.intp), np.asarray(at, dtype=float)
    ordered = (np.diff(cell) > 0) | ((np.diff(cell) == 0) & (np.diff(at) > 0))
    if not (ordered.all() and ((lo[cell] < at) & (at < hi[cell])).all()):
        raise ValueError("cuts must lie strictly inside their cells, ordered by cell and point")
    bare = np.bincount(cell, minlength=lo.size) == 0
    if not bare.any():
        return cell, at
    # Cells with no cut are bisected; a stable sort keeps each cell's cuts in order.
    cell = np.concatenate((cell, np.flatnonzero(bare)))
    at = np.concatenate((at, 0.5 * (lo[bare] + hi[bare])))
    order = np.argsort(cell, kind="stable")
    return cell[order], at[order]


def _by_interval_and_error(err, seg):
    """The order of ``np.lexsort((-err, seg))``: by interval, then by
    decreasing error, equal errors keeping their positions, so that a batch
    picks what solo calls pick. It comes from unstable sorts of unique
    integer keys, which cost less than the stable sorts of ``lexsort`` on
    large batches."""
    n = err.size
    by_err = np.argsort(-err)
    ranked = err[by_err]
    new_value = np.ones(n, dtype=bool)
    new_value[1:] = ranked[1:] != ranked[:-1]
    by_err = np.sort(np.cumsum(new_value) * n + by_err) % n
    return by_err[np.sort(seg[by_err] * n + np.arange(n)) % n]


def _bisection_picks(err, seg, count, excess, cap):
    """Cells to bisect, given the cells' intervals: in each interval, its
    largest-error cells whose errors together cover the interval's excess,
    and no more than its ``cap - count`` of them."""
    order = _by_interval_and_error(err, seg)
    n = order.size
    s = seg[order]
    # Fixed point relative to each interval's excess: the running sums are
    # exact integers, so a cell's pick depends on its own interval only.
    units = (np.minimum(err[order] / excess[s], 1.0) * _EXCESS_UNIT).astype(np.int64)
    run = np.cumsum(units) - units
    sizes = np.bincount(s, minlength=excess.size)
    start = (np.cumsum(sizes) - sizes)[s]  # first position of each cell's interval
    rank = np.arange(n) - start
    return order[(run - run[start] < _EXCESS_UNIT) & (rank < (cap - count)[s])]


def check_tolerance(tol):
    """Refuse a tolerance that is not a finite positive number."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be finite and positive")


def integrate(f, a, b, tol=1e-10, breakpoints=(), max_cells=4096, per_interval=False,
              cuts=None):
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``, or to
    ``ROUNDING_FLOOR`` (50 eps) times the integral's magnitude where that is
    larger.

    ``a`` and ``b`` are floats or equal-length arrays of interval ends.
    Each round runs one GK15 pass over the new cells of every interval still
    over its goal, max(tol, 50 eps |value|), calling ``f`` on the nodes of
    many cells at once, then splits in each such interval the largest-error
    cells that cover its excess over that goal. An interval's result does
    not depend on the other intervals of its call. ``f`` must accept a 1-d
    ndarray of nodes and return same-shape values.

    With ``per_interval=True`` each interval may integrate its own function:
    ``f`` is called as ``f(x, interval)``, where ``x`` holds the nodes as one
    row of 15 per cell and ``interval`` each row's index into the flattened
    ends. Rows come grouped by interval, in ascending interval order, so
    ``f`` can slice each interval's rows out of ``x``; it returns values of
    the shape of ``x``.

    ``breakpoints`` cuts every interval at the breakpoints strictly inside
    it before the first round. It is one row of cuts shared by all
    intervals, or a 2-d array with one row per interval (a batch of n
    intervals with m cuts each then holds n x m of them), which lets each
    interval carry its own cuts and still equal its solo call.

    ``cuts(lo, hi)`` locates the integrand's kinks inside the cells picked
    for splitting, given as arrays of their edges: it returns a pair of
    arrays, each cut's cell index into ``lo`` and its point, ordered by cell
    and then by point, every point strictly inside its cell. With
    ``per_interval=True`` it is called as ``cuts(lo, hi, interval)``, with
    each picked cell's index into the flattened ends, so that each interval
    may cut at the kinks of its own function. A picked cell is split at all
    of its cuts, and bisected at its midpoint when it has none; without
    ``cuts`` every picked cell is bisected. A cell's cuts must depend on the
    cell and its interval alone, so that an interval's result still does
    not depend on the other intervals of its call. Cuts can make an
    interval exceed its ``max_cells`` by the cuts of one round.

    ``max_cells`` is the cell budget of every interval, or an array with
    one budget per interval, of the shape of the ends.

    Returns ``(value, error_estimate)`` per interval, floats for float ends,
    with ``error_estimate <= max(tol, 50 eps |value|)``, except that an
    interval whose integrand gives NaN ends with a NaN value, and one whose
    integrand gives an infinite value, or whose integral overflows, ends
    with an infinite value; either takes no further rounds, warns of
    nothing, and leaves the other intervals unaffected. (A cell whose Gauss
    sum alone overflows is split.) Raises :class:`QuadratureError` when an
    interval's cell budget runs out, or its cells become too narrow to
    split, before it meets that goal.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scalar = a.ndim == b.ndim == 0
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    shape = a.shape
    a, b = a.ravel(), b.ravel()
    if not (a <= b).all():
        raise ValueError("integration interval is reversed or NaN")
    check_tolerance(tol)
    budget = np.asarray(max_cells, dtype=np.intp)
    if budget.ndim:
        budget = np.broadcast_to(budget, shape).ravel()
    values = np.zeros(a.size)
    errors = np.zeros(a.size)
    min_width = _MIN_REL_WIDTH * (np.abs(a) + np.abs(b) + (b - a))

    # Cells stay sorted by interval and left edge: ``ids`` lists the
    # intervals still refining and ``seg`` gives each cell's position in it.
    ids, seg, lo, hi = _initial_cells(a, b, breakpoints)
    value, err = _gk15(f, lo, hi, ids[seg] if per_interval else None)
    frozen = np.zeros(lo.size, dtype=bool)  # cells too narrow to split
    while ids.size:
        total = np.bincount(seg, weights=err)
        sums = np.bincount(seg, weights=value)
        # Per interval, so a batch still equals its solo calls bit for bit.
        goal = np.maximum(tol, ROUNDING_FLOOR * np.abs(sums))
        # A NaN estimate ends refinement, as an estimate within the goal does.
        done = ~(total > goal)
        if done.any():
            values[ids[done]] = sums[done]
            errors[ids[done]] = total[done]
            if done.all():
                break
            keep = ~done[seg]
            seg = (np.cumsum(~done) - 1)[seg[keep]]
            ids, total, goal = ids[~done], total[~done], goal[~done]
            lo, hi, value, err, frozen = lo[keep], hi[keep], value[keep], err[keep], frozen[keep]
        count = np.bincount(seg)
        cap = budget[ids] if budget.ndim else budget
        candidates = np.flatnonzero(~frozen)
        stuck = (count >= cap) | (np.bincount(seg[candidates], minlength=ids.size) == 0)
        if stuck.any():
            i = int(np.flatnonzero(stuck)[0])
            raise QuadratureError(
                f"tolerance {goal[i]:g} unreachable on "
                f"[{a[ids[i]]:g}, {b[ids[i]]:g}]: |K-G| error estimate {total[i]:g} "
                f"with {count[i]} cells"
            )
        # A cell whose Gauss sum alone overflowed has an infinite estimate;
        # the cap keeps its share of the excess a number, so it is split.
        excess = np.minimum(total - goal, sys.float_info.max)
        picks = candidates[_bisection_picks(err[candidates], seg[candidates], count,
                                            excess, cap)]
        narrow = hi[picks] - lo[picks] < min_width[ids[seg[picks]]]
        frozen[picks[narrow]] = True
        split = np.sort(picks[~narrow])
        if not split.size:
            continue
        cell, cut = _split_points(lo[split], hi[split], cuts,
                                  ids[seg[split]] if per_interval else None)
        # A cell with m cuts becomes m + 1 cells. Each cut ends a new cell,
        # which every earlier cut has shifted by one.
        ends = split[cell] + np.arange(cell.size)
        reps = np.ones(lo.size, dtype=np.intp)
        reps[split] += np.bincount(cell, minlength=split.size)
        seg, lo, hi, value, err, frozen = (
            seg.repeat(reps), lo.repeat(reps), hi.repeat(reps),
            value.repeat(reps), err.repeat(reps), frozen.repeat(reps))
        hi[ends] = cut
        lo[ends + 1] = cut
        # The new cells: left of each cut, and right of each cell's last cut.
        last = np.append(cell[1:] != cell[:-1], True)
        kids = np.sort(np.concatenate((ends, ends[last] + 1)))
        value[kids], err[kids] = _gk15(f, lo[kids], hi[kids],
                                       ids[seg[kids]] if per_interval else None)

    if scalar:
        return float(values[0]), float(errors[0])
    return values.reshape(shape), errors.reshape(shape)
