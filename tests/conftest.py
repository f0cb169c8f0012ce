"""Shared generators and independent evaluators for the test suite.

The series evaluators here deliberately re-derive values from the raw
monomial semantics (unrolling periodic parts term by term) instead of
calling the library's closed-form evaluation, so they can serve as
brute-force oracles for the canonical-form algebra.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from functools import reduce
from itertools import chain
from pathlib import Path

from dioid import EPS, S_EPS, TOP, ZMAX, Monomial, filled, from_rows, make_series
from dioid import zmax
from dioid.errors import ShapeError
from dioid.matrices import (Matrix, _cols, _require_square, dual_residual, left_residual,
                            mat_odot, mat_otimes, right_residual)
from dioid.projector import projector_matrix
from dioid.series import Series
from dioid.zmax import Scalar

def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python ARGS`` in a fresh interpreter that imports this checkout's ``dioid``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)


# ---------------------------------------------------------------------------
# max-plus randomness
# ---------------------------------------------------------------------------


def kernel_project(a: Matrix, b: Matrix, x0: Matrix) -> Matrix:
    """The projector composed of five matrix kernels, as ``project`` runs it
    over the base types.  On interval matrices each kernel runs bound by
    bound with the residuals' order corrections, checked bound by bound in
    test_intervals.py: a path apart from ``interval_project``, which splits
    the operands and joins the result once."""
    return left_residual(projector_matrix(a, b), x0)


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


def dual_identity(semiring, n: int) -> Matrix:
    """The unit of the dual product: one on the diagonal, top elsewhere."""
    return Matrix(
        semiring,
        n,
        n,
        tuple(semiring.one if i == j else semiring.top for i in range(n) for j in range(n)),
    )


def dual_power(b: Matrix, k: int) -> Matrix:
    """k-th dual power, with the dual identity as the zeroth power."""
    _require_square(b, "dual_power")
    acc = dual_identity(b.semiring, b.rows)
    for _ in range(k):
        acc = mat_odot(b, acc)
    return acc


# ---------------------------------------------------------------------------
# max-plus kernels folded from the scalar operations
# ---------------------------------------------------------------------------

# name: (operation, join, unit of join, term of output (i, j) at inner index k)
SCALAR_TABLES = {
    "mat_otimes": (mat_otimes, zmax.oplus, EPS,
                   lambda a, x, i, j, k: zmax.otimes(a.at(i, k), x.at(k, j))),
    "mat_odot": (mat_odot, zmax.wedge, TOP,
                 lambda a, x, i, j, k: zmax.odot(a.at(i, k), x.at(k, j))),
    "left_residual": (left_residual, zmax.wedge, TOP,
                      lambda a, b, i, j, k: zmax.lres(a.at(k, i), b.at(k, j))),
    "right_residual": (right_residual, zmax.wedge, TOP,
                       lambda c, a, i, j, k: zmax.lres(a.at(j, k), c.at(i, k))),
    "dual_residual": (dual_residual, zmax.oplus, EPS,
                      lambda a, x, i, j, k: zmax.dualres(a.at(k, i), x.at(k, j))),
}


def loop_entries(name, a, x, p, q, r):
    """The p x r entries of ``name`` on a and x, inner length q, folded from
    the scalar tables by a triple loop."""
    _, join, unit, term = SCALAR_TABLES[name]
    return tuple(
        reduce(join, (term(a, x, i, j, k) for k in range(q)), unit)
        for i in range(p)
        for j in range(r)
    )


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


# ---------------------------------------------------------------------------
# window canonicalisation and full elimination, kept as references
# ---------------------------------------------------------------------------


def window_steps(vals: list[Scalar], lo: int) -> tuple[list[int], list[Scalar]]:
    """Exponents and values where the window ``vals``, first exponent ``lo``,
    changes value: eps before the first, and top, if reached, last; the step
    lists that ``series._canonical`` takes.  A change must be an increase."""
    exps, coeffs = [], []
    prev = EPS
    for i, v in enumerate(vals):
        if v != prev:
            assert prev is not TOP and (v is TOP or not coeffs or v > prev), (vals, lo)
            exps.append(lo + i)
            coeffs.append(v)
            prev = v
    return exps, coeffs


def canonical_by_window(vals: list[Scalar], lo: int, tau: int, nu: int, rank: int) -> Series:
    """Canonical form of the series whose values on [lo, lo + len(vals) - 1]
    are ``vals``, eps below lo, with s(j + nu) = s(j) + tau for j >= rank.

    The window canonicalisation that ``series._canonical`` replaced: the
    minimal period is the least divisor nu0 of nu, with tau*nu0/nu integral,
    whose recurrence holds on the whole window from the rank, and the
    earliest rank is one past the last j < rank where it fails, walked back
    value by value.  Raises AssertionError where the claim does not hold.
    """
    n = len(vals)
    hi = lo + n - 1
    if hi < rank + 2 * nu:
        raise AssertionError("window ends before two periods past the rank")
    end = vals.index(TOP) if n and vals[-1] is TOP else n
    k = next((i for i in range(end) if vals[i] is not EPS), end)  # first finite index
    monos = tuple(Monomial(vals[i], lo + i) for i in range(k, end)
                  if i == k or vals[i] != vals[i - 1])
    if end < n:
        return Series(monos + (Monomial(TOP, lo + end),), (), None)
    if not monos:
        return S_EPS
    if tau == 0:
        if monos[-1].exp > rank:
            raise AssertionError("a polynomial steps past its proven rank")
        return Series(monos, (), None)
    r = rank - lo
    if k > r:
        raise AssertionError("the window is eps at the proven rank")
    tail = vals[r:]
    for nu0 in [d for d in range(1, nu + 1) if nu % d == 0]:
        if (tau * nu0) % nu:
            continue
        tau0 = tau * nu0 // nu
        if [v + tau0 for v in tail[:-nu0]] == tail[nu0:]:
            break
    else:
        raise AssertionError("the proven period does not hold on the window")
    i = r - 1
    while i >= k and vals[i + nu0] == vals[i] + tau0:
        i -= 1
    start = lo + max(i + 1, k)
    first = next(idx for idx, m in enumerate(monos) if m.exp >= start)
    pattern = tuple(m for m in monos[first:] if m.exp < monos[first].exp + nu0)
    return Series(monos[:first], pattern, Monomial(tau0, nu0))


def gauss_jordan_full(ops, a: Matrix) -> tuple[Matrix, list[int]]:
    """Closure of ``a`` over the table ``ops`` and its saturated pivots, by
    Gauss-Jordan elimination with every scalar update, the pivot column's
    too: the loop that ``matrices._gauss_jordan`` shortens by the identity
    a (+) a (x) s* (x) s = a (x) s*, kept as its reference."""
    n = a.rows
    m = a.to_rows()
    saturated = []
    for k in range(n):
        skk = ops.star(m[k][k])
        if skk == ops.top and m[k][k] != ops.top:
            saturated.append(k)
        for i in range(n):
            ik = ops.otimes(m[i][k], skk)
            if ik == ops.eps:
                continue
            for j in range(n):
                m[i][j] = ops.oplus(m[i][j], ops.otimes(ik, m[k][j]))
    for i in range(n):
        m[i][i] = ops.oplus(m[i][i], ops.one)
    return Matrix(a.semiring, n, n, tuple(chain.from_iterable(m))), saturated
