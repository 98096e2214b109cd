import pytest
from hypothesis import given, strategies as st

from prodint import Interval
from reference_impl import Partition, halve_open_cells, refine, young_partition

OC = Interval.open_closed
OO = Interval.open_open
CO = Interval.closed_open
CC = Interval.closed
PT = Interval.point


class TestInterval:
    def test_all_four_shapes(self):
        for make in (OC, OO, CO, CC):
            iv = make(0.5, 2.0)
            assert iv.length == 1.5
        assert PT(1.0).length == 0.0

    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0, True, True)

    def test_rejects_half_open_singleton(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0, False, True)

    def test_contains_respects_closedness(self):
        assert OC(0, 1).contains(1.0) and not OC(0, 1).contains(0.0)
        assert CO(0, 1).contains(0.0) and not CO(0, 1).contains(1.0)
        assert not OO(0, 1).contains(0.0) and not OO(0, 1).contains(1.0)
        assert PT(1.0).contains(1.0)

    def test_intersect(self):
        assert OC(0, 2).intersect(OC(1, 3)) == OC(1, 2)
        assert OC(0, 1).intersect(CO(1, 2)) == PT(1.0)
        assert OC(0, 1).intersect(OC(1, 2)) is None
        assert OO(0, 1).intersect(CO(1, 2)) is None
        assert CC(0, 3).intersect(OO(1, 2)) == OO(1, 2)


class TestPartition:
    def test_span_and_mesh(self):
        p = Partition((OO(0, 1), PT(1.0), OC(1, 3)))
        assert p.span == OC(0, 3)
        assert p.mesh == 2.0

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            Partition((OC(0, 1), OC(2, 3)))

    def test_rejects_double_closed_meeting(self):
        with pytest.raises(ValueError):
            Partition((CC(0, 1), CC(1, 2)))

    def test_rejects_double_open_meeting(self):
        with pytest.raises(ValueError):
            Partition((OO(0, 1), OO(1, 2)))


class TestRefine:
    def test_one_side_already_fine(self):
        coarse = Partition((OC(0, 2),))
        fine = Partition((OC(0, 1), OC(1, 2)))
        assert refine(coarse, fine) == fine

    def test_crossing_cuts(self):
        p = Partition((OC(0, 1), OC(1, 3)))
        q = Partition((OC(0, 2), OC(2, 3)))
        assert refine(p, q) == Partition((OC(0, 1), OC(1, 2), OC(2, 3)))

    def test_idempotent(self):
        p = Partition((OO(0, 1), PT(1.0), OC(1, 2)))
        assert refine(p, p) == p

    def test_rejects_mismatched_spans(self):
        with pytest.raises(ValueError):
            refine(Partition((OC(0, 1),)), Partition((OC(0, 2),)))


class TestYoungPartition:
    def test_interior_cuts(self):
        got = young_partition((1.0, 2.0), OC(0, 3))
        assert got == Partition((OO(0, 1), PT(1.0), OO(1, 2), PT(2.0), OC(2, 3)))

    def test_no_cuts(self):
        assert young_partition((), OC(0, 1)) == Partition((OC(0, 1),))

    def test_cut_at_closed_right_endpoint(self):
        assert young_partition((3.0,), OC(0, 3)) == Partition((OO(0, 3), PT(3.0)))

    def test_cut_at_closed_left_endpoint(self):
        assert young_partition((1.0,), CO(1, 3)) == Partition((PT(1.0), OO(1, 3)))

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            young_partition((0.0,), OC(0, 3))
        with pytest.raises(ValueError):
            young_partition((4.0,), OC(0, 3))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            young_partition((2.0, 1.0), OC(0, 3))

    def test_singleton_window(self):
        assert young_partition((), PT(2.0)) == Partition((PT(2.0),))
        assert young_partition((2.0,), PT(2.0)) == Partition((PT(2.0),))


def contains(big, cell):
    """True iff the interval ``cell`` lies inside the interval ``big``."""
    if cell.lo < big.lo or (cell.lo == big.lo and cell.lo_closed and not big.lo_closed):
        return False
    if cell.hi > big.hi or (cell.hi == big.hi and cell.hi_closed and not big.hi_closed):
        return False
    return True


def refines(fine, coarse):
    """True iff every cell of ``fine`` sits inside some cell of ``coarse``."""
    return all(any(contains(big, cell) for big in coarse.cells) for cell in fine.cells)


eighths = st.integers(1, 63).map(lambda k: k / 8.0)
cut_sets = st.frozensets(eighths, min_size=0, max_size=6).map(lambda s: tuple(sorted(s)))
WINDOW = OC(0.0, 8.0)


@given(cut_sets, cut_sets)
def test_refine_refines_both_and_shrinks_mesh(cuts_a, cuts_b):
    p = young_partition(cuts_a, WINDOW)
    q = young_partition(cuts_b, WINDOW)
    common = refine(p, q)
    assert refines(common, p) and refines(common, q)
    assert common.mesh <= min(p.mesh, q.mesh)
    assert common.span == WINDOW


@given(cut_sets)
def test_halving_refines_and_halves_open_mesh(cuts):
    p = young_partition(cuts, WINDOW)
    halved = halve_open_cells(p)
    assert refines(halved, p)
    open_mesh = max(c.length for c in p.cells)
    assert halved.mesh <= 0.5 * open_mesh
    assert halved.span == WINDOW


@given(cut_sets)
def test_young_cells_alternate(cuts):
    p = young_partition(cuts, WINDOW)
    assert tuple(c.lo for c in p.cells if c.is_point) == cuts
    for first, second in zip(p.cells, p.cells[1:]):
        assert first.is_point != second.is_point
