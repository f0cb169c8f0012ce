"""Seeded cases of series sums, each pinned by a short digest of its result.

A case is a ``_pattern_sum`` of (exponent, coefficient) groups, an ``s_oplus``
of two literals or a ``parse_series`` of one literal.  Its result is the
canonical literal, or the exception's class and message; canonical forms are
unique, so every case has one right text, and ``pinned_sums.txt`` keeps a
digest of it.  The pools mix periods nu in {1, 2, 3, 12, 60, 999, 1000,
72531}, far monomials, groups of mostly dominated monomials, top tails and
inputs whose work passes the cap.

    PYTHONPATH=src python tests/pinned_sums.py          # list the cases that differ
    PYTHONPATH=src python tests/pinned_sums.py --write  # rewrite the pins

``test_pinned_sums.py`` replays every case in tier-1.  A change that alters
a pinned case says which and why when it rewrites the pins.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

from dioid.series import Monomial, _pattern_sum, format_series, parse_series, s_oplus
from dioid.zmax import EPS, TOP

PINS = Path(__file__).with_name("pinned_sums.txt")
NUS = (1, 2, 3, 12, 60, 999, 1000, 72531)
FAR = (10**6, 10**9)  # exponents past the work cap
CASES_PER_KIND = {"sum": 1400, "oplus": 1000, "parse": 1000}


def _nu(rng: random.Random) -> int:
    """Short periods mostly, as a long one costs a window sum its window."""
    return rng.choice(NUS[:5] * 6 + NUS[5:])


def _exp(rng: random.Random, nu: int) -> int:
    if rng.random() < 0.05:
        return rng.choice(FAR)
    return rng.randint(-5, min(2 * nu, 80) + 10)


def _period(rng: random.Random) -> tuple[int, int]:
    nu = _nu(rng)
    if nu > 100 and rng.random() < 0.5:
        return rng.randint(1, 3), nu  # one step per long period
    return rng.randint(1, 3 * min(nu, 20)), nu


def _monos(rng: random.Random, nu: int, tau: int) -> list:
    """Pattern pairs of one period: a few free ones, or many of which most
    lie below the copies of an earlier one."""
    if rng.random() < 0.2:
        e0, c0 = rng.randint(-5, 20), rng.randint(-20, 20)
        out = [(e0, c0)]
        for _ in range(rng.randint(5, 60)):
            e = e0 + rng.randint(0, 4 * nu + 30)
            out.append((e, c0 + (e - e0) // nu * tau - rng.randint(0, 4)))
        if rng.random() < 0.5:
            out.append((_exp(rng, nu), rng.randint(-20, 60)))
        rng.shuffle(out)
        return out
    return [(_exp(rng, nu), rng.randint(-30, 60)) for _ in range(rng.randint(1, 6))]


def _poly(rng: random.Random) -> list:
    out = [(_exp(rng, 12), rng.randint(-30, 90)) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.1:
        out.append((rng.randint(-5, 60), TOP))
    if rng.random() < 0.05:
        out.append((rng.randint(-5, 60), EPS))
    return out


def _sum_case(rng: random.Random):
    groups: dict = {}
    for _ in range(rng.choice((1, 1, 2, 2, 3, 4))):
        tau, nu = _period(rng)
        ms = _monos(rng, nu, tau)
        if rng.random() < 0.03:
            ms.append((rng.randint(-5, 40), TOP))
        groups.setdefault(Monomial(tau, nu), []).extend(ms)
    return groups, _poly(rng)


def _term(rng: random.Random) -> str:
    u = rng.random()
    if u < 0.03:
        return rng.choice(("e", "eps", " e ", "top"))
    c = rng.randint(-30, 60) if u < 0.97 else "top"
    # A literal's term at 10^6 can give a result of 10^5 steps, which takes
    # most of a second to replay: literals take the farther one only.
    e = FAR[-1] if rng.random() < 0.08 else rng.randint(-5, 40)
    if rng.random() < 0.55:
        tau, nu = _period(rng)
        if c == "top":
            c = rng.randint(-30, 60)
        return f"{c}.g{e}.({tau}.g{nu})*"
    return f"{c}.g{e}"


def _literal(rng: random.Random) -> str:
    return "+".join(_term(rng) for _ in range(rng.choice((1, 1, 2, 2, 3, 5, 8))))


def _near_slopes(rng: random.Random) -> tuple[str, str]:
    """Two series whose slopes 1/nu and 1/(nu + d) nearly agree: their join
    follows the flatter one for about nu^2/d exponents."""
    nu, d = rng.choice((10, 100, 999, 1000, 72531)), rng.choice((1, 1, 2, 7))
    return (f"{rng.randint(-3, 3)}.g{rng.randint(0, 5)}.(1.g{nu})*",
            f"{rng.randint(-3, 3)}.g{rng.randint(0, 5)}.(1.g{nu + d})*")


def _text(pairs: list) -> str:
    return ",".join(f"{e}:{'top' if c is TOP else 'eps' if c is EPS else c}" for e, c in pairs)


def cases() -> list[tuple[str, str, object]]:
    """(id, description, thunk) for every case, in a fixed order."""
    rng = random.Random("pinned-sums")
    out = []
    for i in range(CASES_PER_KIND["sum"]):
        groups, poly = _sum_case(rng)
        desc = " ".join([f"({r.coeff}.g{r.exp}):{_text(ms)}" for r, ms in groups.items()]
                        + [f"poly:{_text(poly)}"])
        out.append((f"sum-{i}", desc, lambda g=groups, p=poly: _pattern_sum(
            {r: list(ms) for r, ms in g.items()}, list(p))))
    for i in range(CASES_PER_KIND["oplus"]):
        a, b = _near_slopes(rng) if rng.random() < 0.1 else (_literal(rng), _literal(rng))
        out.append((f"oplus-{i}", f"{a} | {b}",
                    lambda a=a, b=b: s_oplus(parse_series(a), parse_series(b))))
    for i in range(CASES_PER_KIND["parse"]):
        text = _literal(rng)
        out.append((f"parse-{i}", text, lambda t=text: parse_series(t)))
    # Literals whose sums pass, or meet, the work cap.
    for i, text in enumerate(("1.g0.(1.g100000000)*", "1000000000.g0+0.g0.(1.g1)*",
                              "5.g-300000+0.g0.(1.g1)*", "0.g0.(1.g100000)*+1.g0.(1.g100001)*",
                              "0.g0.(1.g1000)*+1.g0.(1.g1001)*", "0.g0.(1.g1000)*+0.g0.(1.g999)*",
                              "0.g0.(1.g262143)*+1.g5.(2.g262144)*", "0.g0.(2.g72531)*+3.g1.(1.g1)*",
                              "-2.g3+1.g61863+4.g123723+7.g185583"
                              "+8.g247443.(1.g72531)*+9.g290126.(1.g72531)*")):
        out.append((f"cap-{i}", text, lambda t=text: parse_series(t)))
    return out


def result_text(thunk) -> str:
    try:
        return format_series(thunk())
    except Exception as exc:  # a refusal is a result too
        return f"{type(exc).__name__}: {exc}"


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=6).hexdigest()


def read_pins() -> dict[str, str]:
    return dict(line.split() for line in PINS.read_text().splitlines())


def main(argv: list[str]) -> int:
    got = [(cid, desc, result_text(thunk)) for cid, desc, thunk in cases()]
    if argv == ["--write"]:
        PINS.write_text("".join(f"{cid} {digest(text)}\n" for cid, _, text in got))
        print(f"wrote {len(got)} pins to {PINS}")
        return 0
    pins = read_pins()
    differ = [(cid, desc, text) for cid, desc, text in got if pins.get(cid) != digest(text)]
    for cid, desc, text in differ:
        print(f"{cid}\t{desc}\t{text}")
    print(f"{len(differ)} of {len(got)} cases differ from the pins")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
