"""Every kernel in the library against the dense reads it replaced.

``RowSpace.kernel`` is the one place where a kernel is read off a reduced
space.  The oracles here are verbatim copies of the former implementations:
``kernel_basis`` reading a dense rref, ``kernel_space`` writing the reduced
kernel rows by hand, the catalecticant of ``from_dual_generator`` as a dense
table of products of monomials, the socle from a dense stack of the generator
maps, ``inverse_system`` and ``dual_generator`` from the densified ideal
piece, and the fiber product's free columns as the last nonzero entry of each
kernel vector.  Each must give the same reduced rows, pivots, vectors (in
order and value) and free columns as the library.
"""

from importlib import resources

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lefschetz.algebra import (
    Ideal,
    NotArtinianError,
    NotGorensteinError,
    Ring,
    _IdealPieces,
    algebra_generators,
    from_dual_generator,
    from_ideal,
    inverse_system,
    is_gorenstein,
    same_degreewise_ideal,
    socle_vectors,
)
from lefschetz.constructions import algebra_map, fiber_product
from lefschetz.descfiles import parse_algebra_text
from lefschetz.exactmath import GF, QQ, Matrix, RowSpace, dense, kernel_basis, kernel_space, rref
from lefschetz.polynomials import DualPoly, Poly, mono_mul
from reference_operators import ref_map_matrix

FIELDS = [QQ, GF(2), GF(5), GF(32003)]
fields = st.sampled_from(FIELDS)
coefficients = st.integers(min_value=-4, max_value=4).filter(bool)


# -- the former implementations, verbatim ---------------------------------------


def ref_kernel_basis(m: Matrix) -> list[tuple]:
    F = m.field
    red, pivots = rref(m)
    ncols = m.cols
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        v = [F.zero()] * ncols
        v[fcol] = F.one()
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(red.entries[r][fcol])
        basis.append(tuple(v))
    return basis


def ref_kernel_space(m: Matrix) -> RowSpace:
    F, n = m.field, m.cols
    rev = RowSpace(F, n)
    for row in m.entries:
        rev.add({n - 1 - c: v for c, v in enumerate(row)})
    reduced = dict(rev.pivot_rows())
    kern = {n - 1 - c: {n - 1 - c: F.one()} for c in range(n) if c not in reduced}
    for pc, row in reduced.items():
        for c, v in row.items():
            if c != pc:
                kern[n - 1 - c][n - 1 - pc] = F.neg(v)
    out = RowSpace(F, n)
    for pc, row in kern.items():
        out.store_reduced(pc, row)
    return out


def ref_from_dual_generator(F: DualPoly, ring: Ring) -> list[RowSpace]:
    """The ideal pieces of the former ``from_dual_generator``."""
    D = F.degree(ring.weights)
    fmap = {m: c for m, c in F.terms}
    z = ring.field.zero()
    spaces = []
    for d in range(D + 1):
        monos = ring.monomials(d)
        target = ring.monomials(D - d)
        rows = tuple(tuple(fmap.get(mono_mul(t, s), z) for s in monos) for t in target)
        spaces.append(ref_kernel_space(Matrix(ring.field, len(monos), rows)))
    return spaces


def ref_socle_vectors(alg) -> list[tuple[int, tuple]]:
    F, D = alg.field, alg.socle_degree
    gens = algebra_generators(alg)
    out = []
    for d in range(D + 1):
        nd = alg.dim(d)
        if nd == 0:
            continue
        rows: dict[tuple, list] = {}
        for n, g in enumerate(gens):
            if d + g.degree <= D:
                for c, col in enumerate(g.maps[d]):
                    for r, v in col:
                        rows.setdefault((n, r), [F.zero()] * nd)[c] = v
        for v in ref_kernel_basis(Matrix(F, nd, tuple(map(tuple, rows.values())))):
            out.append((d, v))
    return out


def ref_inverse_system(ideal: Ideal, d: int) -> list[DualPoly]:
    pieces = _IdealPieces(ideal.ring, ideal.generators)
    pieces.extend_to(d)
    monos = ideal.ring.monomials(d)
    out = []
    for v in ref_kernel_basis(pieces.spaces[d].dense_matrix()):
        out.append(DualPoly.make(ideal.ring.nvars, ideal.ring.field, dict(zip(monos, v))))
    return out


def ref_dual_generator(alg) -> DualPoly:
    D = alg.socle_degree
    kern = ref_kernel_basis(alg._spaces[D].dense_matrix())
    if len(kern) != 1:
        raise NotGorensteinError(
            f"top ideal piece has perp of dimension {len(kern)}, not 1"
        )
    if not is_gorenstein(alg):
        raise NotGorensteinError("socle is not one-dimensional")
    v = kern[0]
    F = DualPoly.make(alg.nvars, alg.field, dict(zip(alg.monomial_basis(D), v)))
    c = F.coefficient(alg._std[D][0])
    return F.scale(alg.field.inv(c))


def ref_fiber_bases(pi_a, pi_b) -> tuple[list, list]:
    """The bases and free columns the former ``fiber_product`` built."""
    A, B, T = pi_a.source, pi_b.source, pi_a.target
    F = A.field
    D = max(A.socle_degree, B.socle_degree)
    bases: list[list[tuple]] = []
    free_cols: list[list[int]] = []
    for d in range(D + 1):
        rows = zip(ref_map_matrix(pi_a, d).entries, ref_map_matrix(pi_b, d).entries) if T.dim(d) else ()
        mat = Matrix(F, A.dim(d) + B.dim(d), tuple(ra + tuple(F.neg(x) for x in rb) for ra, rb in rows))
        bases.append(ref_kernel_basis(mat))
        free_cols.append([max(c for c, x in enumerate(v) if x) for v in bases[-1]])
    return bases, free_cols


# -- cases ------------------------------------------------------------------------


@st.composite
def matrices(draw):
    F = draw(fields)
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    entry = st.integers(min_value=-3, max_value=3).map(F.coerce)
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    return Matrix(F, c, tuple(map(tuple, rows)))


@st.composite
def dual_generators(draw):
    """A ring (weighted or not) and a form of degree D over it: Perazzo-type
    sum_i X_i g_i(U, V) with sparse g_i, a dense form, or a constant."""
    F = draw(fields)
    kind = draw(st.sampled_from(["perazzo", "dense", "constant"]))
    if kind == "perazzo":
        nx = draw(st.integers(1, 3))
        ring = Ring(tuple("xyz"[:nx]) + ("u", "v"), F)
        D = draw(st.integers(2, 5))
        terms = {}
        for i in range(nx):
            for m in draw(st.lists(st.sampled_from(Ring(("u", "v"), F).monomials(D - 1)), max_size=3)):
                terms[tuple(int(k == i) for k in range(nx)) + m] = draw(coefficients)
    else:
        n = draw(st.integers(1, 3))
        weights = tuple(draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))) if draw(st.booleans()) else ()
        ring = Ring(tuple("xyz"[:n]), F, weights)
        D = 0 if kind == "constant" else draw(st.integers(1, 5))
        monos = ring.monomials(D)
        assume(monos)
        terms = {m: draw(coefficients) for m in monos}
    form = DualPoly.make(ring.nvars, F, terms)
    assume(not form.is_zero())
    return ring, form


@st.composite
def ideals(draw):
    """Powers of the variables plus random forms: artinian, seldom Gorenstein."""
    F = draw(fields)
    n = draw(st.integers(1, 3))
    weights = tuple(draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))) if draw(st.booleans()) else ()
    ring = Ring(tuple("xyz"[:n]), F, weights)
    gens = [Poly.make(n, F, {tuple(draw(st.integers(2, 4)) * (k == j) for k in range(n)): 1}) for j in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        choices = ring.monomials(draw(st.integers(1, 4)))
        if choices:
            support = draw(st.lists(st.sampled_from(choices), min_size=1, max_size=3, unique=True))
            gens.append(Poly.make(n, F, {m: draw(coefficients) for m in support}))
    return Ideal(ring, tuple(g for g in gens if not g.is_zero()))


def assert_pieces_match(alg, ref_spaces):
    assert len(ref_spaces) == alg.socle_degree + 1
    for d, ref in enumerate(ref_spaces):
        assert alg.ideal_space(d).rref_rows() == ref.rref_rows(), d
        assert alg.ideal_space(d).pivots() == ref.pivots(), d


def assert_duality_matches(ideal, D):
    for d in range(D + 1):
        assert inverse_system(ideal, d) == ref_inverse_system(ideal, d), d
    alg = from_ideal(ideal, max_degree=D + max(ideal.ring.weights) + 1)
    try:
        want = ref_dual_generator(alg)
    except NotGorensteinError as exc:
        want = str(exc)
    try:
        got = alg.dual_generator()
    except NotGorensteinError as exc:
        got = str(exc)
    assert got == want


# -- the engine --------------------------------------------------------------------


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_reads_match_the_dense_reads(m):
    assert kernel_basis(m) == ref_kernel_basis(m)
    with pytest.MonkeyPatch.context() as patch:
        calls, got = _count_adds(patch, lambda: kernel_space(m.field, m.cols, [dict(enumerate(row)) for row in m.entries]))
    # one add per row, into the reversed space; the kernel vectors are stored as they are
    assert len(calls) == m.rows
    want = ref_kernel_space(m)
    assert (got.rref_rows(), got.pivots()) == (want.rref_rows(), want.pivots())
    # the keys of kernel() are the free columns, in increasing order
    space = RowSpace(m.field, m.cols)
    for row in m.entries:
        space.add(dict(enumerate(row)))
    kernel = space.kernel()
    assert list(kernel) == [c for c in range(m.cols) if c not in space.pivots()]


# -- the library's kernels -----------------------------------------------------------


@given(dual_generators())
@settings(max_examples=120, deadline=None)
def test_dual_generator_pieces_socle_and_duality_match(case):
    ring, form = case
    alg = from_dual_generator(form, ring)
    assert_pieces_match(alg, ref_from_dual_generator(form, ring))
    assert socle_vectors(alg) == ref_socle_vectors(alg)
    ideal = Ideal(ring, tuple(alg.minimal_generators()))
    assert_duality_matches(ideal, alg.socle_degree)
    assert same_degreewise_ideal(alg, from_ideal(ideal, max_degree=alg.socle_degree + max(ring.weights) + 1))


@given(ideals())
@settings(max_examples=80, deadline=None)
def test_quotient_socle_and_duality_match(ideal):
    try:
        alg = from_ideal(ideal)
    except NotArtinianError:
        assume(False)
    assert socle_vectors(alg) == ref_socle_vectors(alg)
    assert_duality_matches(ideal, alg.socle_degree)


def assert_fiber_product_matches(pa, pb):
    A, B = pa.source, pb.source
    fp = fiber_product(pa, pb)
    bases, free_cols = ref_fiber_bases(pa, pb)
    assert fp._free == free_cols
    for d, basis in enumerate(bases):
        assert [dense(A.field, A.dim(d) + B.dim(d), u) for u in fp._basis[d]] == basis, d
    assert socle_vectors(fp) == ref_socle_vectors(fp)


def test_fiber_product_of_example_71_matches():
    def build(names, gens):
        ring = Ring(tuple(names.split(",")), QQ)
        return from_ideal(Ideal(ring, tuple(ring.parse(g) for g in gens)))

    a, b, t = build("x,y", ["x^2", "y^4"]), build("u,v", ["u^3", "v^3"]), build("z", ["z^2"])
    assert_fiber_product_matches(algebra_map(a, t, ["z", "0"]), algebra_map(b, t, ["z", "0"]))


@given(fields, st.lists(st.integers(2, 4), min_size=4, max_size=4), st.integers(1, 3), st.booleans())
@settings(max_examples=40, deadline=None)
def test_fiber_products_match(F, exps, s, weighted):
    ring = Ring(("x", "y"), F, (1, 2) if weighted else ())
    x, y, xy = ring.parse("x"), ring.parse("y"), ring.parse("x*y")
    gens_a = (x ** exps[0], y ** exps[1])
    gens_b = (x ** exps[2], y ** exps[3], xy)
    extra = tuple(Poly.make(2, F, {m: 1}) for m in ring.monomials(s))
    # A and B over one ring, T = A + B + extra, the identity on the
    # variables as both projections
    A, B = from_ideal(Ideal(ring, gens_a)), from_ideal(Ideal(ring, gens_b))
    T = from_ideal(Ideal(ring, gens_a + gens_b + extra))
    assert_fiber_product_matches(algebra_map(A, T, ["x", "y"]), algebra_map(B, T, ["x", "y"]))


def test_same_degreewise_ideal_compares_rows_not_only_pivots():
    # (x^2 + x*y, y^2) and (x^2, y^2): Hilbert function 1 2 1 and pivots
    # x^2, y^2 in degree 2 for both, but different ideals
    ring = Ring(("x", "y"), QQ)
    a = from_ideal(Ideal(ring, (ring.parse("x^2 + x*y"), ring.parse("y^2"))))
    b = from_ideal(Ideal(ring, (ring.parse("x^2"), ring.parse("y^2"))))
    assert a.hilbert_function() == b.hilbert_function()
    assert [a.ideal_space(d).pivots() for d in range(3)] == [b.ideal_space(d).pivots() for d in range(3)]
    assert not same_degreewise_ideal(a, b)
    assert same_degreewise_ideal(a, a) and same_degreewise_ideal(b, b)


# -- elimination counts -------------------------------------------------------------


def _count_adds(monkeypatch, run):
    """RowSpace.add results during run(), and run()'s value."""
    calls = []
    add = RowSpace.add

    def counting_add(self, row):
        grew = add(self, row)
        calls.append(grew)
        return grew

    with monkeypatch.context() as m:
        m.setattr(RowSpace, "add", counting_add)
        got = run()
    return calls, got


def test_catalecticant_adds_only_nonzero_contractions(monkeypatch):
    desc = parse_algebra_text((resources.files("lefschetz") / "data" / "perazzo.alg").read_text())
    ring = desc.ring
    calls, alg = _count_adds(monkeypatch, desc.build)
    D = alg.socle_degree
    assert alg.hilbert_function() == (1, 5, 5, 1)
    # rank Cat_d = h_{D-d}; each kernel vector is stored as it is, with no
    # add, so every add is a catalecticant row
    ranks = sum(alg.dim(D - d) for d in range(D + 1))
    kernels = sum(len(ring.monomials(d)) - alg.dim(d) for d in range(D + 1))
    assert calls.count(True) == ranks
    assert sum(alg.ideal_space(d).rank for d in range(D + 1)) == kernels
    # the rows t o F of the monomials t dividing a term: 3 + 7 + 5 + 1 rows.
    # Below D/2 they are read, densest first, only until their rank reaches
    # h_{D-d}: one of the three degree-3 t and six of the seven degree-2 t,
    # one of those a zero remainder (reading every row gave 2 zero
    # remainders in each of the two degrees)
    assert calls.count(False) == 1
    # the dense catalecticant added a row for every monomial of degree D - d
    dense_wasted = sum(len(ring.monomials(D - d)) for d in range(D + 1)) - ranks
    assert dense_wasted == 44


def test_inverse_system_and_dual_generator_read_the_reduced_pieces(monkeypatch):
    # no RowSpace.add of their own: every add is from building the ideal
    # pieces (inverse_system) or from the socle check (dual_generator)
    ring = Ring(("x", "y", "z"), QQ)
    gens = tuple(ring.parse(g) for g in ("x^2 - y^2", "y^2 - z^2", "x*y", "y*z", "x*z"))
    for d in range(4):
        pieces = _IdealPieces(ring, gens)
        built, _ = _count_adds(monkeypatch, lambda: pieces.extend_to(d))
        calls, dual = _count_adds(monkeypatch, lambda: inverse_system(Ideal(ring, gens), d))
        assert len(calls) == len(built) and len(dual) == len(ring.monomials(d)) - pieces.spaces[d].rank
    alg = from_ideal(Ideal(ring, gens))
    socle, _ = _count_adds(monkeypatch, lambda: socle_vectors(alg))
    calls, form = _count_adds(monkeypatch, alg.dual_generator)
    assert len(calls) == len(socle)
    assert form == ring.parse_dual("X^[2] + Y^[2] + Z^[2]")


def test_full_space_beyond_the_socle_degree_adds_nothing(monkeypatch):
    ring = Ring(("x", "y"), GF(5), (1, 2))
    alg = from_ideal(Ideal(ring, (ring.parse("x^3"), ring.parse("y^2"))))
    D = alg.socle_degree
    for d in range(D + 1, D + 4):
        calls, space = _count_adds(monkeypatch, lambda: alg.ideal_space(d))
        assert calls == []
        assert space.rref_rows() == [{c: 1} for c in range(len(ring.monomials(d)))]
        assert space.kernel() == {}
