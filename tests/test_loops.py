"""Loop-nest analysis: footprints, reuse distances, classification."""

import pytest
from hypothesis import given, settings, strategies as st

from cacheways.errors import FootprintUnanalyzable, OracleTooLarge, SchemaError
from cacheways.loops import (
    Affine,
    ArrayDecl,
    Bound,
    LoopLevel,
    LoopNest,
    MemoryAccess,
    ReusePair,
    ReuseClass,
    SRDResult,
    Statement,
    classify_reuse,
    compute_srd,
    footprint_closed_form,
    footprint_enumerate,
    indirect_default_footprint,
    validate_nest,
)
from oracles import brute_footprint, iteration_trace, random_affine_nest, strict_gaps, two_statement_nest


def simple_nest(bound, sub, es=8, name="n", extra=()):
    return LoopNest(
        name=name,
        loops=(LoopLevel("i", Bound(bound)),),
        statements=(
            Statement((MemoryAccess("A", es, sub),) + tuple(extra), 1),
        ),
    )


# -- validation ---------------------------------------------------------------

def test_validate_rejects_empty_nest():
    with pytest.raises(SchemaError):
        validate_nest(LoopNest("x", (), (Statement((), 1),)))


def test_validate_rejects_duplicate_index_names():
    nest = LoopNest(
        "x",
        (LoopLevel("i", Bound(2)), LoopLevel("i", Bound(2))),
        (Statement((MemoryAccess("A", 8, Affine(0)),), 1),),
    )
    with pytest.raises(SchemaError):
        validate_nest(nest)


def test_validate_rejects_decreasing_statement_depths():
    nest = LoopNest(
        "x",
        (LoopLevel("i", Bound(2)), LoopLevel("j", Bound(2))),
        (
            Statement((MemoryAccess("A", 8, Affine(0)),), 2),
            Statement((MemoryAccess("B", 8, Affine(0)),), 1),
        ),
    )
    with pytest.raises(SchemaError):
        validate_nest(nest)


def test_validate_rejects_out_of_scope_subscript_index():
    nest = LoopNest(
        "x",
        (LoopLevel("i", Bound(2)), LoopLevel("j", Bound(2))),
        (Statement((MemoryAccess("A", 8, Affine(0, (("j", 1),))),), 1),),
    )
    with pytest.raises(SchemaError):
        validate_nest(nest)


def test_validate_rejects_bad_element_size():
    with pytest.raises(SchemaError):
        validate_nest(simple_nest(2, Affine(0), es=3))


def test_negative_bound_rejected_at_construction():
    with pytest.raises(SchemaError):
        Bound(-1)


# -- footprint: exact cases ---------------------------------------------------

def test_footprint_unit_stride():
    # 100 contiguous doubles: 800 bytes, 13 lines (0..799 spans 12.5 lines)
    fp = footprint_closed_form(simple_nest(100, Affine(0, (("i", 1),))))
    assert (fp.bytes, fp.lines, fp.exact) == (800, 13, True)


def test_footprint_strided_owns_line_per_element():
    # stride 16 doubles = 128 bytes apart: every element on its own line
    fp = footprint_closed_form(simple_nest(10, Affine(0, (("i", 16),))))
    assert (fp.bytes, fp.lines, fp.exact) == (80, 10, True)


def test_footprint_small_stride_shares_lines():
    # stride 2 doubles: 50 elements over 100 slots = 800 bytes of span
    fp = footprint_closed_form(simple_nest(50, Affine(0, (("i", 2),))))
    en = footprint_enumerate(simple_nest(50, Affine(0, (("i", 2),))))
    assert fp.exact
    assert (fp.bytes, fp.lines) == (en.bytes, en.lines)


def test_footprint_negative_stride_matches_enumeration():
    nest = simple_nest(20, Affine(40, (("i", -2),)))
    fp = footprint_closed_form(nest)
    en = footprint_enumerate(nest)
    assert fp.exact
    assert (fp.bytes, fp.lines) == (en.bytes, en.lines)


def test_footprint_overlapping_references_union_once():
    nest = simple_nest(
        50,
        Affine(0, (("i", 1),)),
        extra=(MemoryAccess("A", 8, Affine(10, (("i", 1),))),),
    )
    fp = footprint_closed_form(nest)
    # [0,50) and [10,60) merge to 60 elements
    assert (fp.bytes, fp.exact) == (480, True)


def test_footprint_empty_domain_is_zero():
    fp = footprint_closed_form(simple_nest(0, Affine(0, (("i", 1),))))
    assert (fp.bytes, fp.lines, fp.exact) == (0, 0, True)


def test_footprint_constant_subscript_single_element():
    fp = footprint_closed_form(simple_nest(100, Affine(7)))
    assert (fp.bytes, fp.lines) == (8, 1)


def test_footprint_arrays_add_independently():
    nest = LoopNest(
        "two",
        (LoopLevel("i", Bound(8)),),
        (
            Statement(
                (
                    MemoryAccess("A", 8, Affine(0, (("i", 1),))),
                    MemoryAccess("B", 4, Affine(0, (("i", 1),))),
                ),
                1,
            ),
        ),
    )
    fp = footprint_closed_form(nest)
    assert fp.bytes == 8 * 8 + 8 * 4
    assert fp.lines == 2


def test_footprint_multi_index_is_inexact_overcount():
    # A[i*4 + j] with j in [0,3) leaves holes the bounding box fills in
    nest = LoopNest(
        "box",
        (LoopLevel("i", Bound(6)), LoopLevel("j", Bound(3))),
        (Statement((MemoryAccess("A", 8, Affine(0, (("i", 4), ("j", 1)))),), 2),),
    )
    fp = footprint_closed_form(nest)
    en = footprint_enumerate(nest)
    assert not fp.exact
    assert fp.bytes >= en.bytes
    assert fp.lines >= en.lines


def test_footprint_estimated_bound_flags_inexact():
    nest = LoopNest(
        "est",
        (LoopLevel("i", Bound(10, estimated=True)),),
        (Statement((MemoryAccess("A", 8, Affine(0, (("i", 1),))),), 1),),
    )
    assert not footprint_closed_form(nest).exact


def test_footprint_indirect_raises():
    nest = LoopNest(
        "ind",
        (LoopLevel("i", Bound(4)),),
        (Statement((MemoryAccess("A", 8, None),), 1),),
    )
    with pytest.raises(FootprintUnanalyzable):
        footprint_closed_form(nest)


def test_indirect_default_uses_declared_extents():
    nest = LoopNest(
        "ind",
        (LoopLevel("i", Bound(4)),),
        (Statement((MemoryAccess("A", 8, None),), 1),),
        arrays=(ArrayDecl("A", 1000, 8),),
    )
    fp = indirect_default_footprint(nest)
    assert (fp.bytes, fp.lines, fp.exact) == (8000, 125, False)


def test_indirect_default_requires_declaration():
    nest = LoopNest(
        "ind",
        (LoopLevel("i", Bound(4)),),
        (Statement((MemoryAccess("A", 8, None),), 1),),
    )
    with pytest.raises(FootprintUnanalyzable):
        indirect_default_footprint(nest)


def test_enumerate_cap_enforced():
    nest = simple_nest(1000, Affine(0, (("i", 1),)))
    with pytest.raises(OracleTooLarge):
        footprint_enumerate(nest, cap=999)


def test_enumerate_refuses_estimated_bounds():
    nest = LoopNest(
        "est",
        (LoopLevel("i", Bound(10, estimated=True)),),
        (Statement((MemoryAccess("A", 8, Affine(0, (("i", 1),))),), 1),),
    )
    with pytest.raises(SchemaError):
        footprint_enumerate(nest)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_footprint_matches_byte_level_oracle(rng):
    nest = random_affine_nest(rng, "prop", max_depth=3, max_work=2000)
    ob, ol = brute_footprint(nest)
    en = footprint_enumerate(nest)
    assert (en.bytes, en.lines) == (ob, ol)
    fp = footprint_closed_form(nest)
    if fp.exact:
        assert (fp.bytes, fp.lines) == (ob, ol)
    else:
        assert fp.bytes >= ob
        assert fp.lines >= ol


# -- reuse distance -----------------------------------------------------------

def test_srd_cross_pair_dominant_term():
    res = compute_srd(two_statement_nest(5, 3))
    by_array = {p.array: p for p in res.pairs}
    assert by_array["A"].srd == 2 * 3
    assert by_array["A"].level == 1
    assert by_array["A"].distance == 2
    assert by_array["B"].srd == 3
    assert by_array["B"].distance == 1


def test_srd_trace_gap_exceeds_symbolic_by_same_level_traffic():
    # the strict between-count adds the two outer accesses of the one
    # fully skipped iteration
    for m, n in ((3, 1), (5, 4), (10, 7)):
        nest = two_statement_nest(m, n)
        res = compute_srd(nest)
        sym = next(p.srd for p in res.pairs if p.array == "A")
        gaps = strict_gaps(iteration_trace(nest))
        a_gaps = {g for k, v in gaps.items() if k[0] == "A" for g in v}
        assert a_gaps == {sym + 2}


def test_srd_self_reuse_inner_constant_index():
    # A[i] inside the j loop: re-touched every j iteration
    nest = LoopNest(
        "self",
        (LoopLevel("i", Bound(4)), LoopLevel("j", Bound(6))),
        (
            Statement(
                (
                    MemoryAccess("A", 8, Affine(0, (("i", 1),))),
                    MemoryAccess("B", 8, Affine(0, (("j", 1),))),
                ),
                2,
            ),
        ),
    )
    res = compute_srd(nest)
    a = next(p for p in res.pairs if p.array == "A")
    assert (a.level, a.distance, a.srd) == (2, 1, 2)
    gaps = strict_gaps(iteration_trace(nest))
    assert {g for k, v in gaps.items() if k[0] == "A" and len(v) > 0 for g in v} == {1}


def test_srd_same_iteration_pair_counts_offset():
    nest = LoopNest(
        "zero",
        (LoopLevel("i", Bound(3)),),
        (
            Statement(
                (
                    MemoryAccess("A", 8, Affine(0, (("i", 1),))),
                    MemoryAccess("B", 8, Affine(0, (("i", 1),))),
                    MemoryAccess("A", 8, Affine(0, (("i", 1),))),
                ),
                1,
            ),
        ),
    )
    res = compute_srd(nest)
    zero_level = [p for p in res.pairs if p.level == 0]
    assert len(zero_level) == 1
    assert zero_level[0].srd == 2


def test_srd_no_reuse_yields_no_pairs():
    res = compute_srd(simple_nest(10, Affine(0, (("i", 1),))))
    assert res.pairs == ()
    assert not res.has_indirect


def test_srd_indirect_sets_flag_only():
    nest = LoopNest(
        "ind",
        (LoopLevel("i", Bound(4)),),
        (Statement((MemoryAccess("A", 8, None),), 1),),
    )
    res = compute_srd(nest)
    assert res.has_indirect
    assert res.pairs == ()


def test_srd_skips_statements_with_empty_domain():
    nest = LoopNest(
        "empty",
        (LoopLevel("i", Bound(4)), LoopLevel("j", Bound(0))),
        (
            Statement((MemoryAccess("A", 8, Affine(0)),), 1),
            Statement((MemoryAccess("A", 8, Affine(0)),), 2),
        ),
    )
    res = compute_srd(nest)
    # only the depth-1 self reuse survives; the j statement never runs
    assert all(p.stmt_a == 0 and p.stmt_b == 0 for p in res.pairs)


def test_srd_offset_beyond_trip_count_not_reuse():
    nest = LoopNest(
        "far",
        (LoopLevel("i", Bound(4)),),
        (
            Statement((MemoryAccess("A", 8, Affine(0, (("i", 1),))),), 1),
            Statement((MemoryAccess("A", 8, Affine(100, (("i", 1),))),), 1),
        ),
    )
    assert compute_srd(nest).pairs == ()


# -- classification -----------------------------------------------------------

def srd_of(*distances, indirect=False):
    """An SRDResult with one level-1 reuse of array A per distance."""
    return SRDResult(tuple(ReusePair("A", 0, 0, 0, 0, 1, 1, d) for d in distances), indirect)


def test_classify_stream_below_threshold():
    assert classify_reuse(srd_of(1000), delta=1000.0) is ReuseClass.STREAM


def test_classify_reuse_strictly_above_threshold():
    assert classify_reuse(srd_of(1001), delta=1000.0) is ReuseClass.REUSE


def test_classify_empty_is_stream():
    assert classify_reuse(srd_of()) is ReuseClass.STREAM


def test_classify_indirect_forces_reuse():
    assert classify_reuse(srd_of(indirect=True)) is ReuseClass.REUSE


def test_classify_accepts_srd_result():
    res = compute_srd(two_statement_nest(100, 30))
    # B reuse spans 30 accesses; A pair spans 60: both under 1000
    assert classify_reuse(res, delta=1000.0) is ReuseClass.STREAM
    assert classify_reuse(res, delta=50.0) is ReuseClass.REUSE


def test_classify_rejects_bad_threshold():
    with pytest.raises(SchemaError):
        classify_reuse(srd_of(1), delta=0.0)
