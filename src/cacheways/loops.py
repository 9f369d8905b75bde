"""Normalized loop nests and their static cache attributes.

A nest is a list of perfectly nested, normalized loops (lower bound 0, unit
step) plus statements attached to nesting levels.  Statements at depth k run,
in list order, at the top of each iteration of loop k, before loop k+1 starts.
Depths never decrease down the list, so the first iteration of every loop runs
the nest's accesses in list order.  From that structure this module computes:

  * the memory footprint in distinct bytes and cache lines, both as a closed
    form and by brute-force enumeration (the oracle the closed form is
    validated against).  The closed form reduces each reference to one
    progression, `count` runs of `width` bytes one every `stride` bytes:
    exact for a single index, a flagged overcount (the bounding box) for two
    or more,
  * symbolic reuse distances (count of memory accesses separating two touches
    of the same address) and the stream/reuse classification they imply.

Arrays are treated as disjoint, line-aligned address spaces: element k of an
array with element size es occupies bytes [k*es, (k+1)*es) of that array's
space, and footprints of different arrays add.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .apportion import LINE_SIZE, SRD_DELTA, ReuseClass
from .errors import CacheWaysError, FootprintUnanalyzable, SchemaError

VALID_ELEMENT_SIZES = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class Bound:
    """Loop trip count; estimated=True marks a profiled guess for a non-affine bound."""

    value: int
    estimated: bool = False

    def __post_init__(self):
        if self.value < 0:
            raise SchemaError("loop bound must be >= 0, got %d" % self.value)


@dataclass(frozen=True)
class LoopLevel:
    index_name: str
    upper_bound: Bound


@dataclass(frozen=True)
class Affine:
    """Subscript const + sum(coeff * index) over enclosing loop indices."""

    const: int = 0
    coeffs: tuple[tuple[str, int], ...] = ()

    def coeff(self, index_name: str) -> int:
        for name, c in self.coeffs:
            if name == index_name:
                return c
        return 0


@dataclass(frozen=True)
class MemoryAccess:
    array: str
    element_size: int
    subscript: Affine | None = None  # None marks an indirect access
    kind: str = "read"

    @property
    def indirect(self) -> bool:
        return self.subscript is None


@dataclass(frozen=True)
class Statement:
    """depth is 1-based: a depth-k statement sits inside loops 1..k."""

    accesses: tuple[MemoryAccess, ...]
    depth: int


@dataclass(frozen=True)
class ArrayDecl:
    """Optional declared extent, the footprint fallback for indirect accesses."""

    name: str
    extent: int
    element_size: int


@dataclass(frozen=True)
class LoopNest:
    name: str
    loops: tuple[LoopLevel, ...]
    statements: tuple[Statement, ...]
    arrays: tuple[ArrayDecl, ...] = ()


@dataclass(frozen=True)
class FootprintValue:
    bytes: int
    lines: int
    exact: bool


def validate_nest(nest: LoopNest) -> None:
    """Raise SchemaError on structural violations; no return value."""
    if not nest.loops:
        raise SchemaError("nest %r has no loops" % nest.name)
    names = [lv.index_name for lv in nest.loops]
    if len(set(names)) != len(names):
        raise SchemaError("nest %r repeats a loop index name" % nest.name)
    depth = len(nest.loops)
    prev_depth = 1
    for si, stmt in enumerate(nest.statements):
        if not 1 <= stmt.depth <= depth:
            raise SchemaError(
                "nest %r statement %d depth %d outside 1..%d"
                % (nest.name, si, stmt.depth, depth)
            )
        if stmt.depth < prev_depth:
            # statements at depth k run before loop k+1 starts; a shallower
            # statement after a deeper one has no place in that order
            raise SchemaError(
                "nest %r statement depths must be non-decreasing" % nest.name
            )
        prev_depth = stmt.depth
        enclosing = set(names[: stmt.depth])
        for acc in stmt.accesses:
            if acc.element_size not in VALID_ELEMENT_SIZES:
                raise SchemaError(
                    "nest %r: element size %d not in %s"
                    % (nest.name, acc.element_size, list(VALID_ELEMENT_SIZES))
                )
            if acc.kind not in ("read", "write"):
                raise SchemaError("nest %r: access kind %r" % (nest.name, acc.kind))
            if acc.subscript is not None:
                for idx, _ in acc.subscript.coeffs:
                    if idx not in enclosing:
                        raise SchemaError(
                            "nest %r: subscript uses %r outside enclosing loops"
                            % (nest.name, idx)
                        )


def _check_line_size(nest: LoopNest, line_size: int) -> None:
    if line_size <= 0:
        raise SchemaError("line size must be positive")
    for stmt in nest.statements:
        for acc in stmt.accesses:
            if line_size % acc.element_size != 0:
                raise SchemaError(
                    "line size %d not a multiple of element size %d"
                    % (line_size, acc.element_size)
                )


# ---------------------------------------------------------------------------
# footprint
# ---------------------------------------------------------------------------

def _access_shape(acc: MemoryAccess, enclosing: list[LoopLevel]):
    """Reduce one affine reference to a progression (start, stride, count,
    width, exact), or None when the iteration domain is empty."""
    sub = acc.subscript
    es = acc.element_size
    terms = []
    for lv in enclosing:
        if lv.upper_bound.value == 0:
            return None  # empty domain, statement never runs
        c = sub.coeff(lv.index_name)
        if c != 0 and lv.upper_bound.value >= 2:
            terms.append((c, lv.upper_bound.value))
    lo = sub.const + sum(min(0, c * (u - 1)) for c, u in terms)
    if len(terms) <= 1:
        c, u = terms[0] if terms else (1, 1)
        return lo * es, abs(c) * es, u, es, True
    # two or more index variables: bounding box, flagged inexact
    hi = sub.const + sum(max(0, c * (u - 1)) for c, u in terms)
    width = (hi - lo + 1) * es
    return lo * es, width, 1, width, False


def _merge_intervals(ivals):
    """Union of [start, end) pairs; returns merged sorted list."""
    out = []
    for s, e in sorted(ivals):
        if out and s <= out[-1][1]:
            out[-1][1] = max(out[-1][1], e)
        else:
            out.append([s, e])
    return out


def _interval_lines(ivals, line_size):
    """Distinct line count of a union of byte intervals."""
    lines = _merge_intervals([(s // line_size, (e - 1) // line_size + 1) for s, e in ivals])
    return sum(hi - lo for lo, hi in lines)


def _covers(shapes):
    """Each progression's covering byte interval [start, end of its last run)."""
    return [(start, start + stride * (count - 1) + width) for start, stride, count, width, *_ in shapes]


def _union_array_shapes(shapes, line_size):
    """Union of one array's progressions: (bytes, lines, exact).

    Progressions sharing one (stride, width, start mod stride) with gaps
    between runs unite exactly in stride space.  Any other set widens each
    progression to its covering interval; that union is exact when every
    shape was an exact contiguous run and is otherwise flagged inexact (a
    pure overcount).
    """
    kinds = {(stride, width, start % stride) for start, stride, _, width, _ in shapes}
    stride, width, residue = next(iter(kinds))
    if len(kinds) == 1 and stride > width:
        runs = _merge_intervals(
            [((start - residue) // stride, (start - residue) // stride + count)
             for start, _, count, _, _ in shapes]
        )
        count = sum(e - s for s, e in runs)
        if stride >= line_size:
            return count * width, count, True  # every element owns a distinct line
        # consecutive elements land on the same or the next line, so each
        # run touches exactly the lines of its covering interval
        cover = _covers((residue + stride * ts, stride, te - ts, width) for ts, te in runs)
        return count * width, _interval_lines(cover, line_size), True

    merged = _merge_intervals(_covers(shapes))
    exact = all(ex and stride == width for _, stride, _, width, ex in shapes)
    return sum(e - s for s, e in merged), _interval_lines(merged, line_size), exact


def footprint_closed_form(nest: LoopNest, line_size: int = LINE_SIZE) -> FootprintValue:
    """Distinct bytes and cache lines the nest touches, without enumeration.

    Single-index references count exactly (stride arithmetic); references
    mixing two or more index variables count by bounding-box width and flag
    the result inexact.  Inexact results only ever overcount.  Raises
    FootprintUnanalyzable when any access is indirect.
    """
    validate_nest(nest)
    _check_line_size(nest, line_size)
    per_array: dict[str, list] = {}
    any_estimated = any(lv.upper_bound.estimated for lv in nest.loops)
    for stmt in nest.statements:
        enclosing = list(nest.loops[: stmt.depth])
        for acc in stmt.accesses:
            if acc.indirect:
                raise FootprintUnanalyzable(
                    "array %r accessed through an indirect subscript" % acc.array
                )
            shape = _access_shape(acc, enclosing)
            if shape is not None:
                per_array.setdefault(acc.array, []).append(shape)

    total_bytes = 0
    total_lines = 0
    exact = True
    for _, shapes in sorted(per_array.items()):
        b, l, ex = _union_array_shapes(shapes, line_size)
        total_bytes += b
        total_lines += l
        exact = exact and ex
    return FootprintValue(total_bytes, total_lines, exact and not any_estimated)


def indirect_default_footprint(nest: LoopNest, line_size: int = LINE_SIZE) -> FootprintValue:
    """Fallback footprint for nests with indirect accesses: the sum of the
    declared array extents.  Raises FootprintUnanalyzable if any accessed
    array lacks a declaration."""
    _check_line_size(nest, line_size)
    declared = {a.name: a for a in nest.arrays}
    touched = sorted(
        {acc.array for stmt in nest.statements for acc in stmt.accesses}
    )
    total_bytes = 0
    total_lines = 0
    for name in touched:
        if name not in declared:
            raise FootprintUnanalyzable(
                "array %r has no declared extent to fall back on" % name
            )
        decl = declared[name]
        nbytes = decl.extent * decl.element_size
        total_bytes += nbytes
        total_lines += (nbytes + line_size - 1) // line_size if nbytes else 0
    return FootprintValue(total_bytes, total_lines, False)


def footprint_enumerate(
    nest: LoopNest, line_size: int = LINE_SIZE, cap: int = 10**6
) -> FootprintValue:
    """Brute-force oracle: walk every iteration, collect the distinct byte
    set, count exactly.  Raises CacheWaysError past `cap` statement-iterations
    and SchemaError on estimated bounds (an estimate has nothing to walk)."""
    validate_nest(nest)
    _check_line_size(nest, line_size)
    work = 0
    for stmt in nest.statements:
        iters = 1
        for lv in nest.loops[: stmt.depth]:
            if lv.upper_bound.estimated:
                raise SchemaError(
                    "enumeration needs concrete bounds; %r is estimated"
                    % lv.index_name
                )
            iters *= lv.upper_bound.value
        work += iters
    if work > cap:
        raise CacheWaysError("%d statement-iterations exceed cap %d" % (work, cap))

    elements: dict[str, set] = {}
    for stmt in nest.statements:
        enclosing = nest.loops[: stmt.depth]
        bounds = [lv.upper_bound.value for lv in enclosing]
        names = [lv.index_name for lv in enclosing]
        for acc in stmt.accesses:
            if acc.indirect:
                raise FootprintUnanalyzable(
                    "array %r accessed through an indirect subscript" % acc.array
                )
        if any(b == 0 for b in bounds):
            continue
        for point in itertools.product(*(range(b) for b in bounds)):
            env = dict(zip(names, point))
            for acc in stmt.accesses:
                idx = acc.subscript.const + sum(
                    c * env[n] for n, c in acc.subscript.coeffs
                )
                elements.setdefault(acc.array, set()).add(
                    (idx * acc.element_size, acc.element_size)
                )

    total_bytes = 0
    total_lines = 0
    for _, elems in sorted(elements.items()):
        ivals = _merge_intervals([(p, p + w) for p, w in elems])
        total_bytes += sum(e - s for s, e in ivals)
        total_lines += _interval_lines(ivals, line_size)
    return FootprintValue(total_bytes, total_lines, True)


# ---------------------------------------------------------------------------
# static reuse distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReusePair:
    """One detected reuse: consecutive touches of an address are separated by
    `srd` memory accesses, carried by loop `level` (1-based; 0 marks reuse
    within a single iteration) at iteration distance `distance`."""

    array: str
    stmt_a: int
    access_a: int
    stmt_b: int
    access_b: int
    level: int
    distance: int
    srd: int


@dataclass(frozen=True)
class SRDResult:
    pairs: tuple[ReusePair, ...]
    has_indirect: bool

    def values(self) -> tuple[int, ...]:
        return tuple(p.srd for p in self.pairs)


def _per_iteration_accesses(nest: LoopNest, level: int) -> int:
    """Accesses contributed by one iteration of loop `level`.

    Counts the traffic of loops nested strictly inside `level`; when there is
    none (innermost carrying loop) it falls back to the level's own statement
    accesses.  This is the dominant term of the distance between consecutive
    same-address touches carried by `level`.
    """
    inner = 0
    own = 0
    for stmt in nest.statements:
        n = len(stmt.accesses)
        if stmt.depth > level:
            inner += n * math.prod(lv.upper_bound.value for lv in nest.loops[level : stmt.depth])
        elif stmt.depth == level:
            own += n
    return inner if inner > 0 else own


def compute_srd(nest: LoopNest) -> SRDResult:
    """Symbolic reuse distances for every reusing (array, access) pair.

    The value for a pair carried by loop `level` at iteration distance d is
    d * per_iteration_accesses(level): the dominant traffic separating two
    consecutive touches of one address; a pair within one iteration is
    separated by the difference of the accesses' list positions, as list
    order is execution order.  Indirect accesses contribute no pair but set
    has_indirect (they classify as reuse downstream).  Pairs with no repeated
    address are simply absent.
    """
    validate_nest(nest)
    names = [lv.index_name for lv in nest.loops]
    pairs = []
    has_indirect = False
    live = []  # (stmt_idx, acc_idx, depth, access, list position) of live accesses
    position = 0
    for si, stmt in enumerate(nest.statements):
        if all(lv.upper_bound.value for lv in nest.loops[: stmt.depth]):
            for ai, acc in enumerate(stmt.accesses):
                if acc.indirect:
                    has_indirect = True
                else:
                    live.append((si, ai, stmt.depth, acc, position + ai))
        position += len(stmt.accesses)

    # self reuse: the address is fixed along some enclosing loop
    for si, ai, depth, acc, _ in live:
        for level in range(depth, 0, -1):
            lv = nest.loops[level - 1]
            if lv.upper_bound.value >= 2 and acc.subscript.coeff(lv.index_name) == 0:
                srd = _per_iteration_accesses(nest, level)
                pairs.append(ReusePair(acc.array, si, ai, si, ai, level, 1, srd))
                break

    # cross reuse: two references whose subscripts differ by a constant; a is
    # listed first, so it sits at the common depth and before b in iteration
    for i, (sa, aa, depth, acc_a, pa) in enumerate(live):
        sub_a = acc_a.subscript
        for sb, ab, _, acc_b, pb in live[i + 1 :]:
            sub_b = acc_b.subscript
            if (acc_a.array, acc_a.element_size) != (acc_b.array, acc_b.element_size):
                continue
            if any(sub_a.coeff(name) != sub_b.coeff(name) for name in names):
                continue
            delta = sub_b.const - sub_a.const
            if delta == 0:
                pairs.append(ReusePair(acc_a.array, sa, aa, sb, ab, 0, 0, pb - pa))
                continue
            for level in range(depth, 0, -1):
                lv = nest.loops[level - 1]
                c = sub_a.coeff(lv.index_name)
                if c == 0 or delta % c != 0:
                    continue
                d = abs(delta // c)
                if d != 0 and d < lv.upper_bound.value:
                    srd = _per_iteration_accesses(nest, level) * d
                    pairs.append(ReusePair(acc_a.array, sa, aa, sb, ab, level, d, srd))
                    break

    return SRDResult(tuple(pairs), has_indirect)


def classify_reuse(srd: SRDResult, delta: float = SRD_DELTA) -> ReuseClass:
    """REUSE iff any reuse distance exceeds `delta` or any access is indirect
    (an unanalyzable pattern is assumed to reuse); STREAM otherwise."""
    if delta <= 0:
        raise SchemaError("classification threshold must be positive")
    if srd.has_indirect or any(v > delta for v in srd.values()):
        return ReuseClass.REUSE
    return ReuseClass.STREAM
