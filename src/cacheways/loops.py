"""Normalized loop nests and their static cache attributes.

A nest is a list of perfectly nested, normalized loops (lower bound 0, unit
step) plus statements attached to nesting levels.  Statements at depth k run,
in list order, at the top of each iteration of loop k, before loop k+1 starts.
From that structure this module computes:

  * the memory footprint in distinct bytes and cache lines, both as a closed
    form and by brute-force enumeration (the oracle the closed form is
    validated against),
  * symbolic reuse distances (count of memory accesses separating two touches
    of the same address) and the stream/reuse classification they imply.

Arrays are treated as disjoint, line-aligned address spaces: element k of an
array with element size es occupies bytes [k*es, (k+1)*es) of that array's
space, and footprints of different arrays add.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .apportion import ReuseClass, SystemConfig
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

# Byte-space shapes a reference can reduce to.  Dense intervals are
# [start, end) byte ranges; progressions are `count` elements of width
# `width` placed every `stride` bytes from `start` (width <= stride).
@dataclass(frozen=True)
class _Dense:
    start: int
    end: int
    exact: bool = True


@dataclass(frozen=True)
class _Prog:
    start: int
    stride: int
    count: int
    width: int


def _access_shape(acc: MemoryAccess, enclosing: list[LoopLevel]):
    """Reduce one affine reference to a byte-space shape, or None when the
    iteration domain is empty."""
    sub = acc.subscript
    es = acc.element_size
    terms = []
    for lv in enclosing:
        if lv.upper_bound.value == 0:
            return None  # empty domain, statement never runs
        c = sub.coeff(lv.index_name)
        if c != 0 and lv.upper_bound.value >= 2:
            terms.append((c, lv.upper_bound.value))
    base = sub.const
    if not terms:
        return _Dense(base * es, base * es + es)
    if len(terms) == 1:
        c, u = terms[0]
        lo = base + min(0, c * (u - 1))
        if abs(c) == 1:
            return _Dense(lo * es, (lo + u) * es)
        return _Prog(lo * es, abs(c) * es, u, es)
    # two or more index variables: bounding box, flagged inexact
    lo = base + sum(min(0, c * (u - 1)) for c, u in terms)
    hi = base + sum(max(0, c * (u - 1)) for c, u in terms)
    return _Dense(lo * es, (hi + 1) * es, exact=False)


def _merge_intervals(ivals):
    """Union of [start, end) pairs; returns merged sorted list."""
    out = []
    for s, e in sorted(ivals):
        if out and s <= out[-1][1]:
            out[-1][1] = max(out[-1][1], e)
        else:
            out.append([s, e])
    return out


def _interval_lines(merged, line_size):
    """Distinct line count of a merged byte-interval union."""
    runs = []
    for s, e in merged:
        runs.append((s // line_size, (e - 1) // line_size))
    total = 0
    for lo, hi in _merge_intervals([(a, b + 1) for a, b in runs]):
        total += hi - lo
    return total


def _union_array_shapes(shapes, line_size):
    """Exact-when-possible union of one array's shapes.

    Returns (bytes, lines, exact).  Three regimes:
      * all dense: interval union, exact;
      * all progressions with one (stride, width, residue): union in stride
        space, exact, with lines exact via the stride-vs-line dichotomy;
      * anything mixed: every shape widens to its covering interval and the
        result is flagged inexact (a pure overcount).
    """
    exact = all(isinstance(s, _Dense) and s.exact for s in shapes)
    dense_ok = all(isinstance(s, _Dense) for s in shapes)
    if dense_ok:
        merged = _merge_intervals([(s.start, s.end) for s in shapes])
        nbytes = sum(e - s for s, e in merged)
        return nbytes, _interval_lines(merged, line_size), exact

    progs = [s for s in shapes if isinstance(s, _Prog)]
    if len(progs) == len(shapes):
        strides = {p.stride for p in progs}
        widths = {p.width for p in progs}
        residues = {p.start % p.stride for p in progs}
        if len(strides) == 1 and len(widths) == 1 and len(residues) == 1:
            stride = strides.pop()
            width = widths.pop()
            residue = residues.pop()
            tvals = []
            for p in progs:
                t0 = (p.start - residue) // stride
                tvals.append((t0, t0 + p.count))
            merged_t = _merge_intervals(tvals)
            count = sum(e - s for s, e in merged_t)
            nbytes = count * width
            if stride < line_size:
                # consecutive elements land on the same or the next line, so
                # each run touches a contiguous line range
                line_ivals = []
                for ts, te in merged_t:
                    first = residue + stride * ts
                    last = residue + stride * (te - 1)
                    line_ivals.append((first // line_size, (last + width - 1) // line_size + 1))
                lines = sum(e - s for s, e in _merge_intervals(line_ivals))
            else:
                # stride >= line size: every element owns a distinct line
                lines = count
            return nbytes, lines, True

    # mixed shapes: widen everything to covering intervals, overcount
    ivals = []
    for s in shapes:
        if isinstance(s, _Dense):
            ivals.append((s.start, s.end))
        else:
            ivals.append((s.start, s.start + s.stride * (s.count - 1) + s.width))
    merged = _merge_intervals(ivals)
    nbytes = sum(e - s for s, e in merged)
    return nbytes, _interval_lines(merged, line_size), False


def footprint_closed_form(nest: LoopNest, line_size: int = SystemConfig.line_size) -> FootprintValue:
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


def indirect_default_footprint(nest: LoopNest, line_size: int = SystemConfig.line_size) -> FootprintValue:
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
    nest: LoopNest, line_size: int = SystemConfig.line_size, cap: int = 10**6
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


def _bound(nest: LoopNest, level: int) -> int:
    return nest.loops[level - 1].upper_bound.value


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
            iters = 1
            for k in range(level + 1, stmt.depth + 1):
                iters *= _bound(nest, k)
            inner += n * iters
        elif stmt.depth == level:
            own += n
    return inner if inner > 0 else own


def _first_position(nest: LoopNest, stmt_idx: int, acc_idx: int, level: int) -> int:
    """Access-count offset of the first occurrence of an access within one
    iteration of loop `level` (statements at a level run before the deeper
    loop starts)."""
    pos = 0
    for si, stmt in enumerate(nest.statements):
        if stmt.depth != level:
            continue
        if si == stmt_idx:
            return pos + acc_idx
        pos += len(stmt.accesses)
    # target sits deeper; every statement at this level precedes it
    return pos + _first_position(nest, stmt_idx, acc_idx, level + 1)


def _coeff_vectors_equal(nest, stmt_a, acc_a, stmt_b, acc_b) -> bool:
    names = [lv.index_name for lv in nest.loops]
    sa = stmt_a.accesses[acc_a].subscript
    sb = stmt_b.accesses[acc_b].subscript
    for name in names:
        if sa.coeff(name) != sb.coeff(name):
            return False
    return True


def compute_srd(nest: LoopNest) -> SRDResult:
    """Symbolic reuse distances for every reusing (array, access) pair.

    The value for a pair carried by loop `level` at iteration distance d is
    d * per_iteration_accesses(level): the dominant traffic separating two
    consecutive touches of one address.  Indirect accesses contribute no pair
    but set has_indirect (they classify as reuse downstream).  Pairs with no
    repeated address are simply absent.
    """
    validate_nest(nest)
    pairs = []
    has_indirect = False
    occurrences = []  # (stmt_idx, acc_idx), statements with a live domain only
    for si, stmt in enumerate(nest.statements):
        if any(lv.upper_bound.value == 0 for lv in nest.loops[: stmt.depth]):
            continue
        for ai, acc in enumerate(stmt.accesses):
            if acc.indirect:
                has_indirect = True
            else:
                occurrences.append((si, ai))

    # self reuse: the address is fixed along some enclosing loop
    for si, ai in occurrences:
        stmt = nest.statements[si]
        acc = stmt.accesses[ai]
        carrier = 0
        for level in range(stmt.depth, 0, -1):
            lv = nest.loops[level - 1]
            if lv.upper_bound.value >= 2 and acc.subscript.coeff(lv.index_name) == 0:
                carrier = level
                break
        if carrier:
            srd = _per_iteration_accesses(nest, carrier)
            pairs.append(
                ReusePair(acc.array, si, ai, si, ai, carrier, 1, srd)
            )

    # cross reuse: two references whose subscripts differ by a constant
    for i in range(len(occurrences)):
        for j in range(i + 1, len(occurrences)):
            sa_i, aa_i = occurrences[i]
            sb_i, ab_i = occurrences[j]
            stmt_a = nest.statements[sa_i]
            stmt_b = nest.statements[sb_i]
            acc_a = stmt_a.accesses[aa_i]
            acc_b = stmt_b.accesses[ab_i]
            if acc_a.array != acc_b.array:
                continue
            if acc_a.element_size != acc_b.element_size:
                continue
            if not _coeff_vectors_equal(nest, stmt_a, aa_i, stmt_b, ab_i):
                continue
            delta = acc_b.subscript.const - acc_a.subscript.const
            common_depth = min(stmt_a.depth, stmt_b.depth)
            if delta == 0:
                pa = _first_position(nest, sa_i, aa_i, 1)
                pb = _first_position(nest, sb_i, ab_i, 1)
                pairs.append(
                    ReusePair(
                        acc_a.array, sa_i, aa_i, sb_i, ab_i, 0, 0, abs(pb - pa)
                    )
                )
                continue
            for level in range(common_depth, 0, -1):
                lv = nest.loops[level - 1]
                c = acc_a.subscript.coeff(lv.index_name)
                if c == 0 or delta % c != 0:
                    continue
                d = delta // c
                if d != 0 and abs(d) < lv.upper_bound.value:
                    srd = _per_iteration_accesses(nest, level) * abs(d)
                    pairs.append(
                        ReusePair(
                            acc_a.array, sa_i, aa_i, sb_i, ab_i, level, abs(d), srd
                        )
                    )
                    break

    return SRDResult(tuple(pairs), has_indirect)


def classify_reuse(srd: SRDResult, delta: float = SystemConfig.srd_delta) -> ReuseClass:
    """REUSE iff any reuse distance exceeds `delta` or any access is indirect
    (an unanalyzable pattern is assumed to reuse); STREAM otherwise."""
    if delta <= 0:
        raise SchemaError("classification threshold must be positive")
    if srd.has_indirect or any(v > delta for v in srd.values()):
        return ReuseClass.REUSE
    return ReuseClass.STREAM
