"""Shared generators and independent evaluators for the test suite.

The series evaluators here deliberately re-derive values from the raw
monomial semantics (unrolling periodic parts term by term) instead of
calling the library's closed-form evaluation, so they can serve as
brute-force oracles for the canonical-form algebra.
"""

from __future__ import annotations

import random
from itertools import chain

from dioid import EPS, TOP, ZMAX, Monomial, filled, from_rows, make_series
from dioid import zmax
from dioid.errors import ShapeError
from dioid.matrices import Matrix, _cols
from dioid.series import Series
from dioid.zmax import Scalar

# ---------------------------------------------------------------------------
# max-plus randomness
# ---------------------------------------------------------------------------


def rand_scalar(rng: random.Random, lo: int = -9, hi: int = 9, p_eps: float = 0.15,
                p_top: float = 0.1):
    u = rng.random()
    if u < p_eps:
        return EPS
    if u < p_eps + p_top:
        return TOP
    return rng.randint(lo, hi)


def rand_matrix(rng: random.Random, rows: int, cols: int, **kw):
    return from_rows(
        ZMAX, [[rand_scalar(rng, **kw) for _ in range(cols)] for _ in range(rows)]
    )


def eps_matrix(semiring, rows: int, cols: int) -> Matrix:
    return filled(semiring, rows, cols, semiring.eps)


def top_matrix(semiring, rows: int, cols: int) -> Matrix:
    return filled(semiring, rows, cols, semiring.top)


def negate_transpose(a: Matrix) -> Matrix:
    """Conjugate-transpose a_ij -> -a_ji with eps and top exchanged, for
    max-plus matrices; it turns left residuation into a dual product."""
    if a.semiring is not ZMAX:
        raise ShapeError(f"negate_transpose: no conjugation over {a.semiring!r}")
    out = map(zmax.conj, chain.from_iterable(_cols(a.entries, a.cols)))
    return Matrix(ZMAX, a.cols, a.rows, tuple(out))


# ---------------------------------------------------------------------------
# gamma-series randomness
# ---------------------------------------------------------------------------


def rand_series(rng: random.Random, periodic_bias: float = 0.6,
                coeff_lo: int = -9, coeff_hi: int = 9, exp_hi: int = 6,
                tau_lo: int = 1, tau_hi: int = 8, nu_hi: int = 4,
                top_tail: bool = False) -> Series:
    """Random canonical series produced through the public canonicalizer;
    with ``top_tail`` it saturates to top from a random exponent on."""
    n_trans = rng.randint(0, 2)
    transient = [
        Monomial(rng.randint(coeff_lo, coeff_hi), rng.randint(0, exp_hi))
        for _ in range(n_trans)
    ]
    if top_tail:
        transient.append(Monomial(TOP, rng.randint(0, exp_hi + 2 * nu_hi)))
    if rng.random() < periodic_bias:
        n_pat = rng.randint(1, 2)
        pattern = [
            Monomial(rng.randint(coeff_lo, coeff_hi), rng.randint(0, exp_hi))
            for _ in range(n_pat)
        ]
        period = Monomial(rng.randint(tau_lo, tau_hi), rng.randint(1, nu_hi))
        return make_series(transient, pattern, period)
    if not transient:
        transient = [Monomial(rng.randint(coeff_lo, coeff_hi), rng.randint(0, exp_hi))]
    return make_series(transient)


# Operand kinds of the pointwise oracles: short windows, long windows shaped
# like the benchmark's long series (exponents up to 40, periods up to 12),
# and series that saturate to top.
SERIES_KINDS = {
    "short": {},
    "long": dict(coeff_lo=-30, coeff_hi=30, exp_hi=40, tau_lo=5, tau_hi=30, nu_hi=12),
    "top-tail": dict(top_tail=True),
}


def rand_positive_series(rng: random.Random) -> Series:
    """Random series whose monomials all have t >= 1 and n >= 1 (star regime)."""
    transient = [
        Monomial(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 2))
    ]
    if rng.random() < 0.5:
        pattern = [Monomial(rng.randint(1, 9), rng.randint(1, 5))]
        period = Monomial(rng.randint(1, 8), rng.randint(1, 4))
        return make_series(transient, pattern, period)
    if not transient:
        transient = [Monomial(rng.randint(1, 9), rng.randint(1, 5))]
    return make_series(transient)


# ---------------------------------------------------------------------------
# independent series evaluation (unrolled monomial semantics)
# ---------------------------------------------------------------------------


def unroll(s: Series, up_to: int) -> list[Monomial]:
    """All monomials of s with exponent <= up_to, periodic part expanded."""
    assert not s.all_top
    out = list(s.transient)
    if s.period is not None:
        tau, nu = s.period.coeff, s.period.exp
        for m in s.pattern:
            k = 0
            while m.exp + k * nu <= up_to:
                out.append(Monomial(m.coeff + k * tau, m.exp + k * nu))
                k += 1
    return out


def value_at(s: Series, j: int) -> Scalar:
    """Coefficient of the series at exponent j."""
    if s.all_top:
        return TOP
    best: Scalar = EPS
    for m in s.transient:
        if m.exp <= j:
            best = zmax.oplus(best, m.coeff)
    if s.period is not None:
        tau, nu = s.period.coeff, s.period.exp
        for m in s.pattern:
            if m.exp <= j:
                k = (j - m.exp) // nu
                best = zmax.oplus(best, m.coeff + k * tau)
    return best


def eval_monomials(monos: list[Monomial], j: int):
    best = EPS
    for m in monos:
        if m.exp <= j:
            best = zmax.oplus(best, m.coeff)
    return best


def eval_series(s: Series, j: int):
    if s.all_top:
        return TOP
    return eval_monomials(unroll(s, j), j)
