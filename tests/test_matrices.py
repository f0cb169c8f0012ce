"""Matrix algebra: products, residuals, closures, and their identities."""

from __future__ import annotations

import copy
import pickle
import random
import time
import tracemalloc
import warnings
from array import array
from functools import reduce
from itertools import product

import pytest

from dioid import (
    EPS,
    GAMMA,
    IGAMMA,
    IZMAX,
    TOP,
    ZMAX,
    DivergenceError,
    DivergenceWarning,
    Grid,
    Interval,
    Matrix,
    Monomial,
    S_EPS,
    S_TOP,
    dual_residual,
    from_monomials,
    from_rows,
    greatest_subsolution,
    identity,
    kleene_star,
    left_residual,
    make_series,
    mat_leq,
    mat_odot,
    mat_oplus,
    mat_otimes,
    mat_wedge,
    right_residual,
    smallest_supersolution,
    star_by_powers,
    wedge_closure,
)
from dioid import matrices, zmax
from dioid.errors import SeriesDomainError, ShapeError
from dioid.matrices import (_OrderDual, _gauss_jordan, _zmax_closure, interval_bounds,
                            interval_join)
from dioid.series import parse_series

from conftest import (SCALAR_TABLES, dual_identity, dual_power, eps_matrix, gauss_jordan_full,
                      loop_entries, negate_transpose, rand_matrix, rand_positive_series,
                      rand_scalar, rand_series, top_matrix)


def series_matrix(rows):
    return from_rows(GAMMA, [[parse_series(tok) for tok in r.split()] for r in rows])


# ---------------------------------------------------------------------------
# worked max-plus example
# ---------------------------------------------------------------------------

A = from_rows(ZMAX, [[1, TOP, 3], [4, EPS, 6]])
B = from_rows(ZMAX, [[8], [9], [10]])
C = from_rows(ZMAX, [[1, 2], [3, 4], [5, 6]])


class TestWorkedExample:
    def test_product(self):
        assert mat_otimes(A, B).entries == (TOP, 16)

    def test_dual_product(self):
        assert mat_odot(A, B).entries == (9, EPS)

    def test_left_residual(self):
        assert left_residual(C, B).entries == (5, 4)

    def test_dual_residual(self):
        assert dual_residual(C, B).entries == (7, 6)


# ---------------------------------------------------------------------------
# elementwise and structural operations
# ---------------------------------------------------------------------------


class TestElementwise:
    def test_oplus_idempotent_neutral(self):
        rng = random.Random(1)
        m = rand_matrix(rng, 2, 3)
        assert mat_oplus(m, m) == m
        assert mat_oplus(m, eps_matrix(ZMAX, 2, 3)) == m
        assert mat_wedge(m, m) == m
        assert mat_wedge(m, top_matrix(ZMAX, 2, 3)) == m

    def test_entrywise_values(self):
        x = from_rows(ZMAX, [[1, 2], [3, 4]])
        y = from_rows(ZMAX, [[4, 1], [2, 5]])
        assert mat_oplus(x, y) == from_rows(ZMAX, [[4, 2], [3, 5]])
        assert mat_wedge(from_rows(ZMAX, [[1, 2]]), from_rows(ZMAX, [[0, 5]])) == from_rows(
            ZMAX, [[0, 2]]
        )

    def test_leq(self):
        m = from_rows(ZMAX, [[1]])
        assert mat_leq(m, m)
        assert mat_leq(eps_matrix(ZMAX, 1, 1), m)
        assert not mat_leq(m, from_rows(ZMAX, [[0]]))

    def test_frozen_with_value_semantics(self):
        # Each class: a value made twice by separate calls, a value that
        # differs in a field, and the pinned repr.
        values = [
            (lambda: from_rows(ZMAX, [[1, EPS], [TOP, 2]]),
             from_rows(ZMAX, [[1, EPS, TOP, 2]]), "Matrix(2x2: 1 eps; top 2)"),
            (lambda: Monomial(TOP, 3), Monomial(TOP, 4), "Monomial(coeff=top, exp=3)"),
            (lambda: parse_series("1.g0+4.g2.(3.g1)*"), parse_series("1.g0+4.g2"),
             "Series('1.g0+4.g2.(3.g1)*')"),
            (lambda: Interval(parse_series("1.g0"), S_TOP), Interval(S_EPS, S_TOP),
             "Interval(lo=Series('1.g0'), hi=Series('top'))"),
            (lambda: Grid(-3, 5), Grid(-3, 6), "Grid(lo=-3, hi=5)"),
        ]
        for make, other, text in values:
            value, twin = make(), make()
            assert value is not twin and value == twin and hash(value) == hash(twin)
            assert value != other and not value == other
            assert repr(value) == text and not hasattr(value, "__dict__")
            for name in type(value).__slots__:
                with pytest.raises(AttributeError):
                    setattr(value, name, getattr(other, name))
                with pytest.raises(AttributeError):
                    delattr(value, name)
            with pytest.raises(AttributeError):
                value.extra = 1
            assert value == twin and repr(value) == text
            for clone in (copy.copy(value), copy.deepcopy(value),
                          pickle.loads(pickle.dumps(value))):
                assert clone == value and hash(clone) == hash(value) and repr(clone) == text
        assert Interval(1, 2) != Monomial(1, 2) and Monomial(1, 2) != Interval(1, 2)
        assert Grid(1, 2) != Interval(1, 2) and Grid() == Grid(-20, 20)

    @pytest.mark.parametrize("semiring,rows", [
        (ZMAX, [["1", "eps"], ["top", "-2"]]),
        (GAMMA, [["1.g0+4.g2.(3.g1)*", "eps"], ["2.g1", "top"]]),
        (IZMAX, [["[1,2]", "eps"], ["3", "[eps,top]"]]),
        (IGAMMA, [["[1.g0,2.g0.(1.g1)*]", "eps"], ["e", "[e,top]"]]),
    ], ids=["maxplus", "series", "interval-maxplus", "interval-series"])
    def test_copies_keep_the_semiring_table(self, semiring, rows):
        # Matrices compare their tables with ``is``; a copy must keep them.
        m = from_rows(semiring, [[semiring.parse(t) for t in r] for r in rows])
        assert copy.copy(semiring) is semiring and copy.deepcopy(semiring) is semiring
        assert pickle.loads(pickle.dumps(semiring)) is semiring
        for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert clone == m and clone.semiring is semiring
            assert mat_otimes(clone, m) == mat_otimes(m, m) == mat_otimes(m, clone)
            assert mat_oplus(m, clone) == m and mat_leq(clone, m)
        if semiring is ZMAX:
            assert star_by_powers(copy.deepcopy(m)) == kleene_star(m)

    def test_shape_errors(self):
        a = rand_matrix(random.Random(0), 2, 3)
        b = rand_matrix(random.Random(0), 3, 2)
        with pytest.raises(ShapeError):
            mat_oplus(a, b)
        with pytest.raises(ShapeError):
            mat_otimes(a, a)
        with pytest.raises(ShapeError):
            left_residual(a, b)
        with pytest.raises(ShapeError):
            dual_residual(a, b)
        with pytest.raises(ShapeError):
            right_residual(a, from_rows(ZMAX, [[1, 2]]))
        with pytest.raises(ShapeError):
            kleene_star(a)


Z22 = from_rows(ZMAX, [[1, 2], [3, 4]])
Z23 = from_rows(ZMAX, [[1, 2, 3], [4, 5, 6]])
G22 = eps_matrix(GAMMA, 2, 2)
I22 = eps_matrix(IZMAX, 2, 2)
MIXED = "operands live over different semirings"


@pytest.mark.parametrize("call,kernel,message", [
    (lambda: mat_otimes(Z22, G22), "mat_otimes", MIXED),
    (lambda: mat_odot(Z22, G22), "mat_odot", MIXED),
    (lambda: left_residual(Z22, G22), "left_residual", MIXED),
    (lambda: right_residual(Z22, G22), "right_residual", MIXED),
    (lambda: dual_residual(Z22, G22), "dual_residual", MIXED),
    (lambda: mat_oplus(Z22, G22), "mat_oplus", MIXED),
    (lambda: mat_odot(Z23, Z23), "mat_odot", "inner dimensions 3 and 2 differ"),
    (lambda: Matrix(ZMAX, 0, 1, ()), "Matrix", "dimensions must be positive, got 0x1"),
    (lambda: Matrix(ZMAX, 2, 2, (1,)), "Matrix", "expected 4 entries for 2x2, got 1"),
    (lambda: from_rows(ZMAX, []), "from_rows", "at least one row and one column"),
    (lambda: from_rows(ZMAX, [[1, 2], [3]]), "from_rows", "same length"),
    (lambda: interval_bounds(Z22), "interval_bounds", "not over an interval semiring"),
    (lambda: interval_join(ZMAX, Z22, Z22), "interval_join", "not an interval lift"),
    (lambda: interval_join(IZMAX, G22, G22), "interval_join", "over the base semiring"),
    (lambda: negate_transpose(I22), "negate_transpose", "no conjugation over"),
], ids=["otimes-mixed", "odot-mixed", "lres-mixed", "rres-mixed", "dualres-mixed",
        "same-shape-mixed", "odot-inner", "matrix-dims", "matrix-entries", "from-rows-empty",
        "from-rows-ragged", "bounds-not-interval", "join-not-interval", "join-base",
        "negate-transpose"])
def test_shape_guards_name_their_kernel(call, kernel, message):
    with pytest.raises(ShapeError) as exc:
        call()
    assert str(exc.value).startswith(f"{kernel}: ") and message in str(exc.value)


# Entry pools for the max-plus kernel: no finite entry at all, finite entries
# all 0 (both give the encoding bound m = 0), magnitudes past 2^63 and
# multiples of 10^400.
ENTRY_POOLS = {
    "small": lambda rng: rand_scalar(rng, -9, 9, 0.2, 0.1),
    "unit": lambda rng: rng.choice((0, EPS, TOP)),
    "eps": lambda rng: EPS,
    "top": lambda rng: TOP,
    "int64": lambda rng: rng.choice((EPS, TOP, 0, -(2**63 + rng.randint(0, 99)),
                                     2**63 + rng.randint(0, 99))),
    "huge": lambda rng: rng.choice((EPS, TOP, rng.randint(-4, 4) * 10**400)),
}

def operand_shapes(name, p, q, r):
    """Shapes of the two operands of ``name`` whose result is p x r with inner length q."""
    if name in ("mat_otimes", "mat_odot"):
        return (p, q), (q, r)
    if name == "right_residual":
        return (p, q), (r, q)
    return (q, p), (q, r)


def draw_operands(rng, name, shape, draw_a, draw_x):
    (ra, ca), (rx, cx) = operand_shapes(name, *shape)
    a = from_rows(ZMAX, [[draw_a(rng) for _ in range(ca)] for _ in range(ra)])
    x = from_rows(ZMAX, [[draw_x(rng) for _ in range(cx)] for _ in range(rx)])
    return a, x


def spy_packed(monkeypatch):
    """Count the products that take the packed reduction."""
    calls = []
    packed = matrices._packed_product

    def spy(*args):
        calls.append(None)
        return packed(*args)

    monkeypatch.setattr(matrices, "_packed_product", spy)
    return calls


class TestProductsAgainstLoops:
    """Triple-loop re-computation with scalar operations only."""

    @pytest.mark.parametrize("name", sorted(SCALAR_TABLES))
    def test_every_shape_and_entry_pool(self, name):
        # Every shape up to 7x7x7, so 1xn and nx1 operands too, each pair of
        # pools in turn; the expected entries are folded from the scalar tables.
        rng = random.Random(f"kernel:{name}")
        pools = sorted(ENTRY_POOLS)
        op = SCALAR_TABLES[name][0]
        for idx, shape in enumerate(product(range(1, 8), repeat=3)):
            draw_a = ENTRY_POOLS[pools[idx % len(pools)]]
            draw_x = ENTRY_POOLS[pools[idx // len(pools) % len(pools)]]
            a, x = draw_operands(rng, name, shape, draw_a, draw_x)
            got = op(a, x)
            assert (got.rows, got.cols) == (shape[0], shape[2])
            assert got.entries == loop_entries(name, a, x, *shape), (name, a, x)

    @pytest.mark.parametrize("name", sorted(SCALAR_TABLES))
    def test_both_sides_of_the_packed_selection(self, name, monkeypatch):
        # Output widths just below, at and above the packing crossover and one
        # far past it, with 1xq, px1 and general left factors of 1 to 3 rows
        # and one of 4 rows, under every pair of pools.  Products of fewer
        # than 4 rows or below the column crossover run the list reduction;
        # the others the packed one, except where a multiple of 10^400 makes
        # the fields too wide.
        calls = spy_packed(monkeypatch)
        cross = matrices._PACK_MIN_COLS
        assert matrices._PACK_MIN_ROWS == 4
        rng = random.Random(f"packed:{name}")
        op = SCALAR_TABLES[name][0]
        for r, (p, q) in product((cross - 1, cross, cross + 1, 41),
                                 ((1, 4), (3, 1), (2, 3), (4, 2))):
            before = len(calls)
            cases = 0
            for pa, px in product(ENTRY_POOLS, ENTRY_POOLS):
                a, x = draw_operands(rng, name, (p, q, r), ENTRY_POOLS[pa], ENTRY_POOLS[px])
                got = op(a, x)
                assert (got.rows, got.cols) == (p, r)
                assert got.entries == loop_entries(name, a, x, p, q, r), (name, a, x)
                cases += 1
            packed = len(calls) - before
            if r < cross or p < 4:
                assert packed == 0, (r, p, packed)
            else:
                assert 0 < packed < cases, (r, p, packed, cases)

    @pytest.mark.parametrize("name", sorted(SCALAR_TABLES))
    def test_left_rows_of_eps_and_of_top(self, name, monkeypatch):
        # L's first row is all eps and its second all top: the packed
        # reduction skips every term of one of them and returns its starting
        # accumulator for it.  The residuals of A have L = conj(A)^T.
        calls = spy_packed(monkeypatch)
        cross = matrices._PACK_MIN_COLS
        rng = random.Random(f"sentinel-rows:{name}")
        op = SCALAR_TABLES[name][0]
        for r, pool, q in product((cross - 1, cross + 1), ("small", "unit", "int64"), (1, 5)):
            p = 4
            _, x = draw_operands(rng, name, (p, q, r), ENTRY_POOLS[pool], ENTRY_POOLS[pool])
            a = from_rows(ZMAX, [[EPS] * q, [TOP] * q] + [
                [ENTRY_POOLS[pool](rng) for _ in range(q)] for _ in range(p - 2)])
            if name in ("left_residual", "dual_residual"):
                a = negate_transpose(a)
            got = op(a, x)
            assert got.entries == loop_entries(name, a, x, p, q, r), (name, a, x)
        assert len(calls) == 6

    @pytest.mark.parametrize("name", ["mat_otimes", "left_residual"])
    def test_one_wide_entry_keeps_the_list_reduction(self, name):
        # One 4,000-digit entry would make every packed field 13,000 bits
        # wide: time and memory stay those of the entry-by-entry reduction.
        rng = random.Random(f"wide:{name}")
        op = SCALAR_TABLES[name][0]
        n = 48
        a, x = draw_operands(rng, name, (n, n, n), ENTRY_POOLS["small"], ENTRY_POOLS["small"])
        entries = list(a.entries)
        entries[rng.randrange(n * n)] = -(10**3999) - 7
        a = Matrix(ZMAX, n, n, tuple(entries))
        start = time.perf_counter()
        got = op(a, x)
        assert time.perf_counter() - start < 1.0
        tracemalloc.start()
        try:
            op(a, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10**6, peak
        assert got.entries == loop_entries(name, a, x, n, n, n)

    def test_series_sums_of_products(self):
        # Each series entry is one sum of products.  The terms of an entry
        # carry 2 to 6 distinct periods and slopes, besides top-tailed,
        # all-top and eps entries; the loop joins the scalar products in turn.
        rng = random.Random("series-sums")
        periods = [Monomial(t, n) for t, n in ((1, 1), (2, 2), (3, 2), (1, 3), (5, 4), (2, 1),
                                               (4, 3), (7, 5), (3, 1))]

        def draw(period):
            u = rng.random()
            if u < 0.1:
                return S_EPS
            if u < 0.14:
                return S_TOP
            if u < 0.24:
                return rand_series(rng, periodic_bias=0, top_tail=True)
            transient = [Monomial(rng.randint(-9, 30), rng.randint(0, 12))
                         for _ in range(rng.randint(0, 2))]
            pattern = [Monomial(rng.randint(-9, 9), rng.randint(0, 8))
                       for _ in range(rng.randint(1, 3))]
            return make_series(transient, pattern, period)

        for q in range(2, 7):
            for _ in range(25):
                a = from_rows(GAMMA, [[draw(r) for r in rng.sample(periods, q)] for _ in range(2)])
                x = from_rows(GAMMA, list(zip(*[[draw(r) for r in rng.sample(periods, q)]
                                                for _ in range(2)])))
                expected = tuple(
                    reduce(GAMMA.oplus, (GAMMA.otimes(a.at(i, k), x.at(k, j)) for k in range(q)),
                           S_EPS)
                    for i in range(2)
                    for j in range(2)
                )
                assert mat_otimes(a, x).entries == expected, (a, x)

    def test_otimes(self):
        rng = random.Random(2)
        for _ in range(50):
            a = rand_matrix(rng, 3, 3)
            x = rand_matrix(rng, 3, 3)
            got = mat_otimes(a, x)
            for i in range(3):
                for j in range(3):
                    acc = EPS
                    for k in range(3):
                        acc = zmax.oplus(acc, zmax.otimes(a.at(i, k), x.at(k, j)))
                    assert got.at(i, j) == acc

    def test_odot(self):
        rng = random.Random(3)
        for _ in range(50):
            a = rand_matrix(rng, 3, 3)
            x = rand_matrix(rng, 3, 3)
            got = mat_odot(a, x)
            for i in range(3):
                for j in range(3):
                    acc = TOP
                    for k in range(3):
                        acc = zmax.wedge(acc, zmax.odot(a.at(i, k), x.at(k, j)))
                    assert got.at(i, j) == acc

    def test_identities(self):
        rng = random.Random(4)
        x = rand_matrix(rng, 3, 2)
        assert mat_otimes(identity(ZMAX, 3), x) == x
        assert mat_odot(dual_identity(ZMAX, 3), x) == x
        assert left_residual(identity(ZMAX, 3), x) == x
        assert dual_residual(dual_identity(ZMAX, 3), x) == x
        assert right_residual(x, identity(ZMAX, 2)) == x

    def test_scalar_right_residual(self):
        assert right_residual(from_rows(ZMAX, [[8]]), from_rows(ZMAX, [[3]])).entries == (5,)


RESIDUALS = ("left_residual", "right_residual", "dual_residual")


def side_pool(rng):
    """eps, top, small values and magnitudes just past 2^63."""
    u = rng.random()
    if u < 0.15:
        return EPS
    if u < 0.25:
        return TOP
    if u < 0.4:
        return rng.choice((-1, 1)) * (2**63 + rng.randint(0, 99))
    return rng.randint(-9, 9)


def spy_encode(monkeypatch):
    """Record the entries and the conjugation flag of every ``_encode``."""
    calls = []
    encode = matrices._encode

    def spy(entries, top, eps, conj):
        calls.append((entries, conj))
        return encode(entries, top, eps, conj)

    monkeypatch.setattr(matrices, "_encode", spy)
    return calls


class TestResidualSideRule:
    """A max-plus residual conjugates its transposed operand, or, when that
    operand has more entries than the other operand and the output together,
    the other operand and the output instead."""

    @staticmethod
    def check(name, a, x, shape, calls):
        """The residual against the triple loop, and whether it conjugated
        the transposed operand's side or the other."""
        op = SCALAR_TABLES[name][0]
        del calls[:]
        got = op(a, x)
        assert got.entries == loop_entries(name, a, x, *shape), (name, a, x)
        # right_residual(C, A) transposes A, the others their first operand.
        big, small = (x, a) if name == "right_residual" else (a, x)
        p, _, r = shape
        flip = len(big.entries) > len(small.entries) + p * r
        conj = {id(entries): c for entries, c in calls}
        assert conj[id(big.entries)] is not flip and conj[id(small.entries)] is flip
        assert len(calls) == 2 + flip
        return flip

    @pytest.mark.parametrize("name", RESIDUALS)
    def test_square_against_thin_operands(self, name, monkeypatch):
        # n x n against n x k and k x n operands: the transposed operand is
        # the n x n one in one of the two shapes, and the rule conjugates
        # the other side exactly when n > 2k.  Square operands never flip.
        calls = spy_encode(monkeypatch)
        rng = random.Random(f"side-rule:{name}")
        sides = set()
        for n, k in product(range(1, 10), (1, 2, 3)):
            for shape in ((n, n, k), (k, n, n), (n, n, n)):
                for _ in range(3):
                    a, x = draw_operands(rng, name, shape, side_pool, side_pool)
                    flip = self.check(name, a, x, shape, calls)
                    big_shape = (n, n, k) if name != "right_residual" else (k, n, n)
                    assert flip is (shape == big_shape and n > 2 * k), (n, k, shape)
                    sides.add(flip)
        assert sides == {False, True}

    @pytest.mark.parametrize("name", RESIDUALS)
    def test_both_sides_on_packed_rows(self, name, monkeypatch):
        # An output of at least 4 rows and 16 columns runs the packed
        # reduction on either side of the rule: the transposed operand has
        # just more, or just no more, entries than the other and the output.
        packed = spy_packed(monkeypatch)
        calls = spy_encode(monkeypatch)
        rng = random.Random(f"side-rule-packed:{name}")
        # left_residual(A, B): A q x p, B q x r, flip when q*p > q*r + p*r.
        # right_residual(C, A): C p x q, A r x q, flip when r*q > p*q + p*r.
        shapes = ([(20, 81, 16), (20, 80, 16)] if name != "right_residual"
                  else [(4, 6, 16), (4, 5, 16)])
        for shape, want in zip(shapes, (True, False)):
            for pa, px in product(("small", "int64"), repeat=2):
                a, x = draw_operands(rng, name, shape, ENTRY_POOLS[pa], ENTRY_POOLS[px])
                assert self.check(name, a, x, shape, calls) is want, shape
        assert len(packed) == 8

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 2)])
    def test_against_the_grid_oracles(self, n, k):
        # Small entries, where the brute-force oracles of the grid decide
        # the greatest subsolution and the smallest supersolution.
        rng = random.Random(f"side-rule-oracle:{n}:{k}")
        grid = Grid(-20, 20)
        small = lambda rng: rand_scalar(rng, -5, 5, 0.2, 0.1)
        for _ in range(4):
            a, b = draw_operands(rng, "left_residual", (n, n, k), small, small)
            got = left_residual(a, b)
            assert Matrix(ZMAX, n, k, tuple(map(grid.clamp_down, got.entries))) == \
                greatest_subsolution(a, b, grid)
            got = dual_residual(a, b)
            assert Matrix(ZMAX, n, k, tuple(map(grid.clamp_up, got.entries))) == \
                smallest_supersolution(a, b, grid)


# name: (operation, dual fold, term of output (i, j) at inner index k)
GENERIC_TERMS = {
    "mat_otimes": (mat_otimes, False, lambda sr, a, x, i, j, k: sr.otimes(a.at(i, k), x.at(k, j))),
    "mat_odot": (mat_odot, True, lambda sr, a, x, i, j, k: sr.odot(a.at(i, k), x.at(k, j))),
    "left_residual": (left_residual, True, lambda sr, a, b, i, j, k: sr.lres(a.at(k, i), b.at(k, j))),
    "right_residual": (right_residual, True, lambda sr, c, a, i, j, k: sr.lres(a.at(j, k), c.at(i, k))),
    "dual_residual": (dual_residual, False,
                      lambda sr, a, x, i, j, k: sr.dualres(a.at(k, i), x.at(k, j))),
}


class TestGenericFolds:
    """Series and interval kernels against folds over every inner index."""

    @staticmethod
    def interval(rng):
        x, y = (rand_scalar(rng, p_eps=0.2, p_top=0.2) for _ in range(2))
        return IZMAX.make(zmax.wedge(x, y), zmax.oplus(x, y))

    @staticmethod
    def series(rng):
        u = rng.random()
        return S_EPS if u < 0.25 else S_TOP if u < 0.35 else rand_series(rng, exp_hi=3, nu_hi=2)

    @classmethod
    def series_interval(cls, rng):
        x, y = cls.series(rng), cls.series(rng)
        return IGAMMA.make(GAMMA.wedge(x, y), GAMMA.oplus(x, y))

    @pytest.mark.parametrize("name", sorted(GENERIC_TERMS))
    def test_against_full_folds(self, name):
        rng = random.Random(f"fold:{name}")
        op, dual, term = GENERIC_TERMS[name]
        # The dual product and residual of series take monomial left operands
        # only, so series and their intervals run the product and the two
        # residuals.  Interval series run two series folds, one per bound.
        kinds = [(IZMAX, self.interval)]
        if name in ("mat_otimes", "left_residual", "right_residual"):
            kinds += [(GAMMA, self.series), (IGAMMA, self.series_interval)]
        for sr, draw in kinds:
            join, unit = (sr.wedge, sr.top) if dual else (sr.oplus, sr.eps)
            for p, q, r in product(range(1, 4), repeat=3):
                (ra, ca), (rx, cx) = operand_shapes(name, p, q, r)
                a = from_rows(sr, [[draw(rng) for _ in range(ca)] for _ in range(ra)])
                x = from_rows(sr, [[draw(rng) for _ in range(cx)] for _ in range(rx)])
                expected = tuple(
                    reduce(join, (term(sr, a, x, i, j, k) for k in range(q)), unit)
                    for i in range(p)
                    for j in range(r)
                )
                assert op(a, x).entries == expected, (name, a, x)

    def test_fold_stops_at_the_absorbing_element(self):
        # ramp \ far is eps, so the meet is eps and far \ one, whose sweep of
        # 100,000 numerator steps would pass the cap, is never computed:
        # before or after the eps term, in either residual.
        far = make_series([Monomial(i, i) for i in range(10**5)])
        ramp = make_series([], [Monomial(0, 0)], Monomial(1, 1))
        one = parse_series("0.g0")
        with pytest.raises(DivergenceError):
            GAMMA.lres(far, one)
        for den, num in (((ramp, far), (far, one)), ((far, ramp), (one, far))):
            column, row = Matrix(GAMMA, 2, 1, den), Matrix(GAMMA, 1, 2, den)
            assert left_residual(column, Matrix(GAMMA, 2, 1, num)).entries == (S_EPS,)
            assert right_residual(Matrix(GAMMA, 1, 2, num), row).entries == (S_EPS,)

    def test_sum_stops_at_the_absorbing_element(self):
        # A product term with a top factor makes the entry top, so the other
        # term, whose window would pass the cap, is never computed; before
        # or after the top term.  The far monomial lies above the ramp's
        # copies, so no pattern monomial of the product dominates another.
        far = make_series([Monomial(0, 0), Monomial(2 * 10**6, 10**6)])
        ramp = make_series([], [Monomial(0, 0)], Monomial(1, 1))
        one = parse_series("0.g0")
        with pytest.raises(DivergenceError):
            GAMMA.otimes(ramp, far)
        # A product whose period check refuses, before or after the top term.
        steep, flat = parse_series("0.g0.(1000000.g1000000)*"), parse_series("0.g0.(1.g3)*")
        with pytest.raises(DivergenceError, match="estimated work 2000000"):
            GAMMA.otimes(steep, flat)
        for a, b in (((S_TOP, ramp), (one, far)), ((ramp, S_TOP), (far, one)),
                     ((steep, S_TOP), (flat, one)), ((S_TOP, steep), (one, flat))):
            assert mat_otimes(Matrix(GAMMA, 1, 2, a), Matrix(GAMMA, 2, 1, b)).entries == (S_TOP,)


class TestResidualGalois:
    def test_matrix_galois(self):
        rng = random.Random(5)
        for _ in range(100):
            a = rand_matrix(rng, 2, 2)
            b = rand_matrix(rng, 2, 2)
            x = left_residual(a, b)
            assert mat_leq(mat_otimes(a, x), b)
            assert mat_leq(b, left_residual(a, mat_otimes(a, b)))

    def test_matrix_dual_galois(self):
        rng = random.Random(6)
        for _ in range(100):
            a = rand_matrix(rng, 2, 2)
            x = rand_matrix(rng, 2, 2)
            y = dual_residual(a, x)
            assert mat_leq(x, mat_odot(a, y))
            assert mat_leq(dual_residual(a, mat_odot(a, x)), x)

    def test_sum_residual_meet(self):
        # (A (+) B) \ X  =  A\X  ^  B\X
        rng = random.Random(7)
        for _ in range(100):
            a = rand_matrix(rng, 2, 2)
            b = rand_matrix(rng, 2, 2)
            x = rand_matrix(rng, 2, 2)
            lhs = left_residual(mat_oplus(a, b), x)
            rhs = mat_wedge(left_residual(a, x), left_residual(b, x))
            assert lhs == rhs

    def test_negate_transpose_shortcut(self):
        rng = random.Random(8)
        for _ in range(100):
            a = rand_matrix(rng, 3, 2)
            b = rand_matrix(rng, 3, 2)
            assert left_residual(a, b) == mat_odot(negate_transpose(a), b)


class TestKleeneStar:
    def test_identity_closure(self):
        assert kleene_star(identity(ZMAX, 3)) == identity(ZMAX, 3)

    def test_positive_loop_saturates(self):
        # powers of [[1]] grow without bound
        assert kleene_star(from_rows(ZMAX, [[1]])).entries == (TOP,)

    def test_closure_identities(self):
        rng = random.Random(9)
        for _ in range(60):
            a = rand_matrix(rng, 2, 2, lo=-5, hi=2)
            x = rand_matrix(rng, 2, 2)
            st = kleene_star(a)
            assert mat_otimes(st, mat_otimes(st, x)) == mat_otimes(st, x)
            assert left_residual(st, left_residual(st, x)) == left_residual(st, x)
            assert mat_otimes(st, left_residual(st, x)) == left_residual(st, x)
            assert left_residual(st, mat_otimes(st, x)) == mat_otimes(st, x)

    def test_four_way_equivalence(self):
        rng = random.Random(10)
        for _ in range(80):
            a = rand_matrix(rng, 2, 2, lo=-5, hi=2)
            w = rand_matrix(rng, 2, 1)
            st = kleene_star(a)
            for x in (w, mat_otimes(st, w)):
                c1 = mat_leq(x, left_residual(a, x))
                c2 = mat_leq(mat_otimes(a, x), x)
                c3 = mat_otimes(st, x) == x
                c4 = left_residual(st, x) == x
                assert c1 == c2 == c3 == c4


class TestWedgeClosure:
    def test_dual_identity_fixed(self):
        e = dual_identity(ZMAX, 3)
        assert wedge_closure(e) == e

    def test_below_dual_identity_and_idempotent(self):
        rng = random.Random(11)
        for _ in range(40):
            b = rand_matrix(rng, 2, 2, lo=0, hi=5, p_eps=0.0, p_top=0.4)
            bs = wedge_closure(b)
            assert mat_leq(bs, dual_identity(ZMAX, 2))
            assert wedge_closure(bs) == bs

    def test_dual_closure_identity(self):
        rng = random.Random(12)
        for _ in range(40):
            b = rand_matrix(rng, 2, 2, lo=0, hi=5, p_eps=0.0, p_top=0.4)
            x = rand_matrix(rng, 2, 2)
            bs = wedge_closure(b)
            assert mat_odot(bs, mat_odot(bs, x)) == mat_odot(bs, x)

    def test_four_way_dual_equivalence(self):
        rng = random.Random(13)
        for _ in range(80):
            b = rand_matrix(rng, 2, 2, lo=0, hi=5, p_eps=0.0, p_top=0.4)
            w = rand_matrix(rng, 2, 1)
            bs = wedge_closure(b)
            for x in (w, mat_odot(bs, w)):
                c1 = mat_leq(x, mat_odot(b, x))
                c2 = mat_leq(dual_residual(b, x), x)
                c3 = dual_residual(bs, x) == x
                c4 = mat_odot(bs, x) == x
                assert c1 == c2 == c3 == c4

    def test_negative_dual_circuit_saturates_to_eps(self):
        with pytest.warns(DivergenceWarning):
            out = wedge_closure(from_rows(ZMAX, [[-1]]))
        assert out.entries == (EPS,)

    def test_mixed_divergence_keeps_stable_entries(self):
        b = from_rows(ZMAX, [[-1, TOP], [TOP, 2]])
        with pytest.warns(DivergenceWarning):
            out = wedge_closure(b)
        assert out.at(0, 0) is EPS
        assert out.at(1, 1) == 0

    @pytest.mark.parametrize("rows", [
        # the dual loop 1 -> 1 of weight -1 lets 0 -> 1 -> (1 -> 1)^k -> 0 weigh 8 - k
        [[TOP, 5], [3, -1]],
        [[TOP, 9, TOP, 0], [TOP, TOP, 7, 4], [-4, 7, 4, TOP], [6, 7, 3, 0]],
        [[3, TOP, 1, TOP], [TOP, 5, TOP, 7], [-2, 8, 7, TOP], [6, TOP, TOP, 1]],
    ])
    def test_slow_divergence_saturates(self, rows):
        # a negative dual circuit is reachable from, and reaches, every node
        with pytest.warns(DivergenceWarning, match="pivot"):
            out = wedge_closure(from_rows(ZMAX, rows))
        assert out == from_rows(ZMAX, [[EPS] * len(rows)] * len(rows))

    def test_conjugate_of_star_oracle(self):
        # B_* is the entrywise conjugate of the star of the entrywise conjugate
        def conj(m):
            return Matrix(ZMAX, m.rows, m.cols, tuple(map(zmax.conj, m.entries)))

        rng = random.Random(15)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DivergenceWarning)
            for _ in range(600):
                n = rng.randint(1, 6)
                b = rand_matrix(rng, n, n, lo=-4, hi=6, p_eps=0.15, p_top=0.35)
                assert wedge_closure(b) == conj(star_by_powers(conj(b))), b


def _closure_rows(rng, n, idx):
    """An n x n max-plus matrix whose entries come from two entry pools."""
    pools = sorted(ENTRY_POOLS)
    draws = (ENTRY_POOLS[pools[idx % len(pools)]], ENTRY_POOLS[pools[idx // len(pools) % len(pools)]])
    return [[rng.choice(draws)(rng) for _ in range(n)] for _ in range(n)]


def _field_bits(n, m):
    """Bits of a packed closure field for order n and largest magnitude m."""
    bound = n * m
    return (2 * ((n + 1) * bound + 1) + (n + 2) * bound).bit_length() + 1


def _magnitude(n, bits):
    """The largest magnitude whose closure fields of order n fit in ``bits``."""
    lo, hi = 0, 2 ** bits
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if _field_bits(n, mid) <= bits else (lo, mid - 1)
    return lo


# Closure entry mixes at magnitude m: eps and top among any sign; steps
# <= 0, whose star converges and whose meet closure saturates; steps >= 0,
# the other way round; and rows that are top in every column among entries
# of any sign.
CLOSURE_MIXES = {
    "eps-top": lambda rng, m, i: rand_scalar(rng, -m, m, 0.3, 0.1),
    "star-converges": lambda rng, m, i: rand_scalar(rng, -m, 0, 0.5, 0.0),
    "meet-converges": lambda rng, m, i: rand_scalar(rng, 0, m, 0.0, 0.5),
    "all-top-rows": lambda rng, m, i: TOP if i % 3 == 1 else rand_scalar(rng, -m, m, 0.4, 0.0),
}


def _closure_matrix(rng, n, m, mix):
    rows = [[CLOSURE_MIXES[mix](rng, m, i) for _ in range(n)] for i in range(n)]
    if m:
        # The largest magnitude, which sizes the fields, is met.
        rows[rng.randrange(n)][rng.randrange(n)] = rng.choice((m, -m))
    return from_rows(ZMAX, rows)


def assert_closures_match_elimination(a):
    """Both integer closures of ``a`` against the generic Gauss-Jordan loop
    over ZMAX and over its order dual: values, saturated pivots, warnings."""
    star, star_sat = _gauss_jordan(ZMAX, a)
    meet, meet_sat = _gauss_jordan(_OrderDual(ZMAX), a)
    assert _zmax_closure(a, False) == (star, star_sat), a
    assert _zmax_closure(a, True) == (meet, meet_sat), a
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert kleene_star(a) == star
        assert wedge_closure(a) == meet
    expected = [
        "wedge_closure: strictly decreasing dual circuits close at pivot(s) "
        f"{', '.join(str(k + 1) for k in meet_sat)}; the entries they reach are eps"
    ] if meet_sat else []
    assert [str(w.message) for w in caught] == expected, a
    assert all(w.category is DivergenceWarning for w in caught)
    return star_sat, meet_sat


def spy_packed_closures(monkeypatch):
    """Record the order of every closure that runs on packed rows."""
    calls = []
    packed = matrices._packed_elimination

    def spy(codes, n, *args):
        calls.append(n)
        return packed(codes, n, *args)

    monkeypatch.setattr(matrices, "_packed_elimination", spy)
    return calls


class TestClosuresAgainstElimination:
    """The max-plus integer elimination, on list rows and on packed rows,
    against the generic Gauss-Jordan loop over ZMAX and over its order dual:
    values, saturated pivots, warnings."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_size_and_entry_pool(self, n):
        rng = random.Random(f"closures:{n}")
        for idx in range(len(ENTRY_POOLS) ** 2):
            for _ in range(2):
                assert_closures_match_elimination(from_rows(ZMAX, _closure_rows(rng, n, idx)))

    @pytest.mark.parametrize("n", [5, 6, 7, 10, 16, 24])
    def test_packed_rows_at_every_field_width(self, n):
        # Orders on both sides of the crossover, magnitudes that put the
        # fields at 8 (all finite entries 0), 16, 32 and 64 bits and just
        # past 64, under every entry mix; saturated pivots are met on both
        # closures.
        rng = random.Random(f"packed-closures:{n}")
        m64 = _magnitude(n, 64)
        mags = (0, _magnitude(n, 16), _magnitude(n, 32), m64, m64 + 1)
        assert [_field_bits(n, m) for m in mags[3:]] == [64, 65]
        draws = 2 if n < 16 else 1
        saturated = [0, 0]
        for m, mix, _ in product(mags, CLOSURE_MIXES, range(draws)):
            star_sat, meet_sat = assert_closures_match_elimination(_closure_matrix(rng, n, m, mix))
            saturated[0] += bool(star_sat)
            saturated[1] += bool(meet_sat)
        assert all(saturated), saturated

    @pytest.mark.parametrize("n", [5, 6, 24])
    def test_ring_closes_at_the_bound(self, n):
        # One circuit through every node, each step of weight w: it closes at
        # the last pivot with weight n*w, exactly the bound when |w| = m, on
        # either side of the crossover.  With w > 0 and eps elsewhere the
        # star saturates there; with w < 0 and top elsewhere the meet closure.
        for m in (1, 7, _magnitude(n, 32)):
            for w, other, side in ((m, EPS, 0), (-m, TOP, 1)):
                a = Matrix(ZMAX, n, n, tuple(
                    w if j == (i + 1) % n else other for i in range(n) for j in range(n)))
                assert assert_closures_match_elimination(a)[side] == [n - 1]

    def test_both_sides_of_the_packed_closure_selection(self, monkeypatch):
        # Packed rows run from order _PACK_MIN_ORDER on, when some entry is
        # finite and a field fits in 64 bits; list rows run below that order,
        # past 64 bits and on matrices of eps and top alone.
        calls = spy_packed_closures(monkeypatch)
        cross = matrices._PACK_MIN_ORDER
        assert cross == 6
        rng = random.Random("packed-closure-selection")
        for n in (1, cross - 1, cross, cross + 1, 24):
            m64 = _magnitude(n, 64)
            for m, mix in product((0, 9, m64, m64 + 1), CLOSURE_MIXES):
                a = _closure_matrix(rng, n, m, mix)
                before = len(calls)
                assert_closures_match_elimination(a)
                packed = len(calls) - before
                # Each of the two closures is asked twice.
                assert packed == (4 if n >= cross and m <= m64 else 0), (n, m, mix)
            pure = from_rows(ZMAX, [[rng.choice((EPS, TOP)) for _ in range(n)] for _ in range(n)])
            before = len(calls)
            assert_closures_match_elimination(pure)
            assert len(calls) == before
        assert set(calls) == {cross, cross + 1, 24}


class TestPackedRows:
    """``_pack_rows`` and ``_unpack_rows``, the packing both packed kernels
    share: one int per row, fields from the lowest up."""

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 8, 9])
    @pytest.mark.parametrize("swap", [False, True])
    def test_round_trip(self, size, swap, monkeypatch):
        # Array item sizes and two that take the byte-string path; with
        # ``swap`` the module's byte order is flipped, so the branch that
        # byteswaps the array items runs on either kind of host.
        if swap:
            monkeypatch.setattr(matrices, "_BIG_ENDIAN", not matrices._BIG_ENDIAN)
        assert {size: array(code).itemsize for size, code in matrices._ITEM_CODES.items()} == {
            1: 1, 2: 2, 4: 4, 8: 8}
        rng = random.Random(f"pack:{size}")
        top = 2 ** (8 * size) - 1
        # The last shape spans three of ``_pack_rows``'s blocks, whose edges
        # fall inside rows.
        for count, rows in ((1, 1), (3, 5), (17, 2), (37, 2 * matrices._PACK_BLOCK // 37 + 1)):
            off = rng.randint(0, 99)
            fields = [rng.choice((-off, top - off, rng.randint(-off, top - off)))
                      for _ in range(count * rows)]
            packed = matrices._pack_rows(fields, count, size, off)
            assert len(packed) == rows
            assert list(matrices._unpack_rows(packed, count, size)) == [f + off for f in fields]
            if not swap:
                w = 8 * size
                assert packed == [
                    sum(f + off << w * j for j, f in enumerate(fields[r * count:(r + 1) * count]))
                    for r in range(rows)
                ]


# ---------------------------------------------------------------------------
# monomial matrix meet closure (series entries)
# ---------------------------------------------------------------------------

B_MONO = series_matrix([
    "top 15.g3 7.g0 top",
    "top top top top",
    "3.g0 8.g4 top top",
    "6.g1 4.g5 top top",
])


class TestMonomialClosureExample:
    def test_second_dual_power(self):
        expected = series_matrix([
            "10.g0 15.g4 top top",
            "top top top top",
            "top 18.g3 10.g0 top",
            "top 21.g4 13.g1 top",
        ])
        assert dual_power(B_MONO, 2) == expected

    def test_third_dual_power(self):
        expected = series_matrix([
            "top 25.g3 17.g0 top",
            "top top top top",
            "13.g0 18.g4 top top",
            "16.g1 21.g5 top top",
        ])
        assert dual_power(B_MONO, 3) == expected

    def test_meet_closure(self):
        expected = series_matrix([
            "e 15.g4 7.g0 top",
            "top e top top",
            "3.g0 8.g4 e top",
            "6.g1 4.g5 13.g1 e",
        ])
        got = wedge_closure(B_MONO)
        assert got == expected

    def test_powers_stabilize_after_three(self):
        # the meet gains nothing past the third dual power
        p3 = mat_wedge(
            mat_wedge(dual_identity(GAMMA, 4), B_MONO),
            mat_wedge(dual_power(B_MONO, 2), dual_power(B_MONO, 3)),
        )
        assert wedge_closure(B_MONO) == p3

    def test_closure_entries_stay_monomial(self):
        from dioid.series import is_eps, is_monomial

        got = wedge_closure(B_MONO)
        assert all(is_monomial(e) or is_eps(e) or e.all_top for e in got.entries)

    def test_non_neutral_monomial_loop_saturates(self):
        with pytest.warns(DivergenceWarning, match="pivot"):
            out = wedge_closure(series_matrix(["3.g1"]))
        assert out == series_matrix(["eps"])

    def test_unit_loop_is_stable(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DivergenceWarning)
            assert wedge_closure(series_matrix(["e"])) == series_matrix(["e"])

    def test_non_monomial_entries_rejected(self):
        bad = series_matrix(["top 1.g0+3.g2", "top top"])
        with pytest.raises(SeriesDomainError):
            wedge_closure(bad)

    @pytest.mark.parametrize("rows", [["top.g3"], ["top.g0"], ["-1.g0 top", "top.g3 top"]])
    def test_top_coefficient_monomials_rejected(self, rows):
        # top.gN (.) e is top, so E° is no dual unit for top.gN.  Reading
        # top.gN as a shift instead is not meet-continuous: in the 2x2 case
        # the loop -1.g0 closes to eps, yet every path 2 -> 1 weighs top.g3.
        with pytest.raises(SeriesDomainError, match="finite coefficient"):
            wedge_closure(series_matrix(rows))


def closure_by_paths(b):
    """B_* of a series matrix with eps, top and finite monomial entries.

    A path weighs the dual product of its entries: eps if it uses an eps
    entry, else the monomial (sum of t, sum of n); a meet of monomials is
    (min t, max n).  So B_* reads off the max-plus stars of -t and of n, in
    which an eps entry of B is top and a top entry is no edge; top in
    either star (an eps entry or an unbounded meet on the way) gives eps.
    """
    def weights(pick):
        return Matrix(ZMAX, b.rows, b.cols, tuple(
            EPS if s.all_top else TOP if s == S_EPS else pick(s.transient[0])
            for s in b.entries
        ))

    t_star = star_by_powers(weights(lambda m: -m.coeff))
    n_star = star_by_powers(weights(lambda m: m.exp))
    out = []
    for t, n in zip(t_star.entries, n_star.entries):
        if t is TOP or n is TOP:
            out.append(S_EPS)
        elif t is EPS:
            out.append(S_TOP)
        else:
            out.append(from_monomials([Monomial(-t, n)]))
    return Matrix(GAMMA, b.rows, b.cols, tuple(out))


class TestMonomialClosureOracle:
    def test_random_monomial_matrices(self):
        rng = random.Random(16)

        def entry():
            u = rng.random()
            if u < 0.1:
                return S_EPS
            if u < 0.45:
                return S_TOP
            return from_monomials([Monomial(rng.randint(-3, 3), rng.randint(-2, 2))])

        for _ in range(500):
            n = rng.randint(1, 4)
            b = Matrix(GAMMA, n, n, tuple(entry() for _ in range(n * n)))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", DivergenceWarning)
                out = wedge_closure(b)
            assert out == closure_by_paths(b), b
            if not caught:
                # nothing saturated: paths of fewer than 2n steps (one through
                # an eps entry, if any) reach every meet
                power = meet = dual_identity(GAMMA, n)
                for _ in range(2 * n - 1):
                    power = mat_odot(b, power)
                    meet = mat_wedge(meet, power)
                assert out == meet, b


class TestSeriesMatrixStar:
    def test_closure_laws_over_series(self):
        rng = random.Random(14)
        from dioid import Monomial, make_series

        def entry():
            if rng.random() < 0.4:
                return GAMMA.eps
            monos = [
                Monomial(rng.randint(-4, 6), rng.randint(0, 4))
                for _ in range(rng.randint(1, 2))
            ]
            return make_series(monos)

        for _ in range(20):
            a = from_rows(GAMMA, [[entry() for _ in range(2)] for _ in range(2)])
            x = from_rows(GAMMA, [[entry()] for _ in range(2)])
            st = kleene_star(a)
            assert mat_otimes(st, st) == st
            assert kleene_star(st) == st
            assert mat_otimes(st, mat_otimes(st, x)) == mat_otimes(st, x)
            assert left_residual(st, mat_otimes(st, x)) == mat_otimes(st, x)
            assert mat_otimes(st, left_residual(st, x)) == left_residual(st, x)


class TestPivotColumnByIdentity:
    """``_gauss_jordan`` sets each pivot column to m_ik (x) s*, s the pivot's
    diagonal entry, since m_ik (+) m_ik (x) s* (x) s = m_ik (x) s* by
    s* = e (+) s (x) s*.  Against the full loop, which also joins into the
    pivot column: the same closure and the same saturated pivots."""

    @staticmethod
    def check(ops, a):
        assert _gauss_jordan(ops, a) == gauss_jordan_full(ops, a), a

    def test_series_rings(self):
        # One circuit of monomials t.gn (t, n >= 1) through every node, eps
        # elsewhere, as the series-algebra benchmark's stars are built.
        rng = random.Random("pivot-column-rings")
        for n in range(1, 13):
            for _ in range(4):
                order = list(range(n))
                rng.shuffle(order)
                rows = [[S_EPS] * n for _ in range(n)]
                for k in range(n):
                    rows[order[k]][order[(k + 1) % n]] = from_monomials(
                        [Monomial(rng.randint(1, 9), rng.randint(1, 4))])
                self.check(GAMMA, from_rows(GAMMA, rows))

    def test_positive_series_matrices(self):
        rng = random.Random("pivot-column-series")
        for _ in range(60):
            n = rng.randint(1, 4)
            self.check(GAMMA, from_rows(GAMMA, [
                [rand_positive_series(rng) if rng.random() < 0.6 else S_EPS for _ in range(n)]
                for _ in range(n)]))

    def test_monomial_meet_closures(self):
        rng = random.Random("pivot-column-meets")

        def entry():
            u = rng.random()
            return S_EPS if u < 0.15 else S_TOP if u < 0.45 else from_monomials(
                [Monomial(rng.randint(-4, 4), rng.randint(-3, 3))])

        for _ in range(300):
            n = rng.randint(1, 5)
            self.check(_OrderDual(GAMMA), Matrix(GAMMA, n, n, tuple(entry() for _ in range(n * n))))

    def test_criterion_2_example(self):
        self.check(_OrderDual(GAMMA), B_MONO)

    def test_maxplus_both_orders(self):
        rng = random.Random("pivot-column-maxplus")
        for _ in range(300):
            n = rng.randint(1, 6)
            a = rand_matrix(rng, n, n)
            self.check(ZMAX, a)
            self.check(_OrderDual(ZMAX), a)
