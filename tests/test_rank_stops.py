"""Eliminations that stop once a space reaches a rank known in advance.

``minimal_generators`` reads the rows of I_d only while the span of the
shifted lower pieces and the rows read so far is smaller than I_d;
``socle_vectors`` adds the rows of the generator maps on A_d only while
their span is smaller than A_d (the socle is then 0 there); and
``_spanning_generators`` adds the columns of the products of earlier
generators, and then unit vectors, only while their span is smaller than A_d;
and ``from_dual_generator`` reads the rows of the degree-d catalecticant,
for d < D/2, only while their span is smaller than h_{D-d}, its rank by
Gorenstein symmetry.  Each guard wraps ``RowSpace.add``, checks that no add
reaches a space already at that rank, and pins the number of adds on
bundled algebras.  The outputs themselves are checked against references in
``test_ideal_pieces`` and ``test_kernels``; the catalecticant guard also
compares each kernel with the one read from every row.
"""

import math
from importlib import resources

import pytest

from lefschetz import algebra
from lefschetz.algebra import Ring, algebra_generators, from_dual_generator, socle_vectors
from lefschetz.constructions import algebra_map, connected_sum, fiber_product
from lefschetz.descfiles import parse_algebra_text, parse_map_text
from lefschetz.exactmath import QQ, RowSpace


def _read(name):
    return (resources.files("lefschetz") / "data" / name).read_text()


def _build(name):
    return parse_algebra_text(_read(name)).build()


def _counting(monkeypatch, keep):
    """Wrap ``RowSpace.add``: keep(space) is None to skip an add, else the
    rank the space is known to reach; returns the (rank before, known rank)
    pairs of the adds kept."""
    adds = []
    add = RowSpace.add

    def counting_add(self, row):
        top = keep(self)
        if top is not None:
            adds.append((self.rank, top))
        return add(self, row)

    monkeypatch.setattr(RowSpace, "add", counting_add)
    return adds


# adds of rows of I_d per algebra; reading every row made 27, 93, 15, 11,
# 180 and 114
@pytest.mark.parametrize("name, reads", [
    ("x2y2z2.alg", 3), ("stanley_333.alg", 3), ("sum_of_squares.alg", 5),
    ("weighted_y3.alg", 4), ("ikeda.alg", 41), ("perazzo.alg", 44),
])
def test_minimal_generators_stop_at_the_rank_of_the_ideal_piece(monkeypatch, name, reads):
    alg = _build(name)
    want = alg.minimal_generators()
    targets = {}  # span -> rank of I_d, once its shifted rows are in
    shifted = algebra.add_shifted_rows

    def marking(space, ring, e, piece):
        shifted(space, ring, e, piece)
        targets[space] = piece(e).rank

    monkeypatch.setattr(algebra, "add_shifted_rows", marking)
    adds = _counting(monkeypatch, targets.get)
    assert alg.minimal_generators() == want
    assert all(before < top for before, top in adds)
    assert len(adds) == reads


# adding every nonzero row made 12, 54, 61, 12 and 22 adds
@pytest.mark.parametrize("name, count", [
    ("x2y2z2.alg", 7), ("stanley_333.alg", 27), ("ikeda.alg", 40), ("notgor_a.alg", 8), ("perazzo.alg", 16),
])
def test_socle_vectors_stop_at_the_dimension_of_each_degree(monkeypatch, name, count):
    alg = _build(name)
    want = socle_vectors(alg)  # builds the generator maps outside the count
    adds = _counting(monkeypatch, lambda space: space.ncols)
    assert socle_vectors(alg) == want
    assert all(before < top for before, top in adds)
    assert len(adds) == count


def _ex71():
    a, b, t = (_build(f"ex71_{k}.alg") for k in "abt")
    pa = algebra_map(a, t, parse_map_text(_read("ex71_map_a.map"), a.ring, t.ring))
    pb = algebra_map(b, t, parse_map_text(_read("ex71_map_b.map"), b.ring, t.ring))
    return pa, pb


def _connected_sum():
    return connected_sum(*_ex71())


def _fiber_product():
    return fiber_product(*_ex71())


# adding every column and unit vector made 45 and 50 adds
@pytest.mark.parametrize("build, count", [(_connected_sum, 22), (_fiber_product, 30)])
def test_spanning_generators_stop_at_the_dimension_of_each_degree(monkeypatch, build, count):
    alg = build()
    spans = set()  # the spaces _spanning_generators builds, one per degree

    class Tracked(RowSpace):
        def __init__(self, field, ncols):
            super().__init__(field, ncols)
            spans.add(self)

    monkeypatch.setattr(algebra, "RowSpace", Tracked)
    adds = _counting(monkeypatch, lambda space: space.ncols if space in spans else None)
    gens = algebra_generators(alg)
    assert gens and spans
    assert all(before < top for before, top in adds)
    assert len(adds) == count


DUAL_GENERATORS = {
    "perazzo-d6": ("x,y,z,u,v", "X*U^5*V + Y*U*V^5 + Z*U^2*V^4"),
    "rational": ("x,y,z,u,v", "1/3*X*U^3*V + 2/7*Y*U*V^3 + Z*U^2*V^2 - 5/4*X^2*Y*Z*U"),
}


def _dual_generator_algebra(case):
    if case.endswith(".alg"):
        return _build(case)
    ring = Ring(tuple(DUAL_GENERATORS[case][0].split(",")), QQ)
    return from_dual_generator(ring.parse_dual(DUAL_GENERATORS[case][1]), ring)


# catalecticant adds per dual generator; reading every row made 37, 16, 7,
# 62 and 54
@pytest.mark.parametrize("case, count", [
    ("ikeda.alg", 32), ("perazzo.alg", 13), ("sum_of_squares.alg", 5), ("perazzo-d6", 54), ("rational", 42),
])
def test_catalecticants_stop_at_the_symmetric_rank(monkeypatch, case, count):
    kernels, ranks = [], []  # (kernel, kernel of every row); known rank per call
    kernel_space = algebra.kernel_space

    def recording(field, ncols, rows, rank=None):
        rows = list(rows)
        ranks.append(rank)
        try:
            got = kernel_space(field, ncols, rows, rank)
        finally:
            ranks.pop()
        kernels.append((got, kernel_space(field, ncols, rows)))
        return got

    def known_rank(space):
        if not ranks:
            return None  # not a catalecticant row
        return math.inf if ranks[-1] is None else ranks[-1]  # d >= D/2 reads every row

    monkeypatch.setattr(algebra, "kernel_space", recording)
    adds = _counting(monkeypatch, known_rank)
    _dual_generator_algebra(case)
    assert kernels and all(got.rref_rows() == want.rref_rows() for got, want in kernels)
    assert all(before < top for before, top in adds)
    assert len(adds) == count
