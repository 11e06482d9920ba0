"""The benchmark's workloads: CLI command lists, and checks of their output.

Every check here uses the standard library only and never imports trideal,
so a route that becomes fast but wrong is caught by arithmetic the package
did not do.  The recorded stdout digests in ``expected.json`` pin the exact
bytes on top of that.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable

WORKLOADS = ("oracle", "identity", "series")

# Command sizes.  "full" is what the benchmark measures; "tiny" runs the same
# commands in well under a second, for the benchmark's own tests.
SIZES = {
    "full": {"enum_n": 5, "audit_full_n": 5, "audit_red_n": 4, "verify_n": 100,
             "ct_n": 55, "poly_n": 55, "bfile_n": 250},
    "tiny": {"enum_n": 3, "audit_full_n": 3, "audit_red_n": 2, "verify_n": 4,
             "ct_n": 5, "poly_n": 4, "bfile_n": 12},
}

#: Size of the red denomination set the seed picks for ``enumerate --red-denoms``.
RED_SET_SIZE = 3


@dataclass(frozen=True)
class Command:
    """One CLI invocation, the command group it is timed in, and its output check."""

    group: str
    argv: tuple[str, ...]
    check: Callable[[str], str | None]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def red_set(n: int, seed: int) -> tuple[int, ...]:
    """The red denomination set the seed selects; every choice costs the same."""
    return random.Random(seed).choice(list(combinations(range(1, n + 1), RED_SET_SIZE)))


def commands(workload: str, seed: int, size: str = "full") -> list[Command]:
    """The commands one pass of ``workload`` runs, in order."""
    s = SIZES[size]
    if workload == "oracle":
        n, red = s["enum_n"], red_set(s["enum_n"], seed)
        red_text = ",".join(map(str, red))
        return [
            Command("enumerate", ("enumerate", "--n", str(n)), lambda out: check_enumerate(out, n)),
            Command("enumerate", ("count", "--n", str(n), "--by", "red-distinct"),
                    lambda out: check_count_red_distinct(out, n)),
            Command("enumerate", ("enumerate", "--n", str(n), "--red-denoms", red_text),
                    lambda out: check_enumerate(out, n, red)),
            Command("audit", ("audit", "--n", str(s["audit_full_n"]), "--which", "full-deck"),
                    lambda out: check_audit_full_deck(out, s["audit_full_n"])),
            Command("audit", ("audit", "--n", str(s["audit_red_n"]), "--which", "red-set"),
                    lambda out: check_audit_red_set(out, s["audit_red_n"])),
        ]
    if workload == "identity":
        return [Command("verify", ("verify", "--max-n", str(s["verify_n"])),
                        lambda out: check_verify(out, s["verify_n"]))]
    if workload == "series":
        return [
            Command("ct", ("ct", "--n", str(s["ct_n"])), lambda out: check_ct(out, s["ct_n"])),
            Command("ct_poly", ("ct", "--n", str(s["poly_n"]), "--poly"),
                    lambda out: check_ct_poly(out, s["poly_n"])),
            Command("bfile", ("bfile", "--seq", "main", "--max-n", str(s["bfile_n"])),
                    lambda out: check_bfile(out, s["bfile_n"])),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def all_commands() -> list[Command]:
    """Every command any workload runs at any size, for recording digests.

    Seeds 0..199 reach every red set (the benchmark's tests check that).
    """
    found: dict[str, Command] = {}
    for size in SIZES:
        for workload in WORKLOADS:
            for seed in range(200):
                for cmd in commands(workload, seed, size):
                    found.setdefault(cmd.key, cmd)
    return list(found.values())


# --- independent arithmetic -------------------------------------------------


def a002893(max_n: int) -> list[int]:
    """OEIS A002893 by its recurrence (n+1)^2 a(n+1) = (10n^2+10n+3) a(n) - 9n^2 a(n-1)."""
    a = [1, 3]
    for n in range(1, max_n):
        q, r = divmod((10 * n * n + 10 * n + 3) * a[n] - 9 * n * n * a[n - 1], (n + 1) ** 2)
        if r:
            raise ArithmeticError(f"A002893 recurrence is not exact at n={n + 1}")
        a.append(q)
    return a[: max_n + 1]


def _expect_lines(out: str, want: list[str]) -> str | None:
    got = out.split("\n")
    if got[-1] != "":
        return "output does not end with a newline"
    got.pop()
    if len(got) != len(want):
        return f"expected {len(want)} lines, got {len(got)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"line {i + 1}: expected {w[:80]!r}, got {g[:80]!r}"
    return None


def check_verify(out: str, max_n: int) -> str | None:
    a = a002893(max_n)
    return _expect_lines(out, [f"n={n} lhs=rhs=ct={a[n]} OK" for n in range(max_n + 1)])


def check_ct(out: str, n: int) -> str | None:
    return _expect_lines(out, [str(a002893(n)[n])])


def check_bfile(out: str, max_n: int) -> str | None:
    a = a002893(max_n)
    return _expect_lines(out, [f"{n} {a[n]}" for n in range(max_n + 1)])


_TERM_RE = re.compile(r"(?:([0-9]+)\*)?(x(?:\^-?[0-9]+)?)?\*?(y(?:\^-?[0-9]+)?)?|([0-9]+)")


def check_ct_poly(out: str, n: int) -> str | None:
    """The constant term is a(n), and the coefficients sum to base(1, 1)**n = 9**n."""
    text = out.rstrip("\n")
    if "\n" in text or " - " in text or not text:
        return "expected one line with positive coefficients"
    total = constant = 0
    monomials = set()
    for term in text.split(" + "):
        m = _TERM_RE.fullmatch(term)
        if m is None or not term:
            return f"malformed term {term[:40]!r}"
        coeff, xpart, ypart, const = m.groups()
        if const is not None:
            constant = int(const)
            total += constant
            mono = ""
        else:
            if xpart is None and ypart is None:
                return f"malformed term {term[:40]!r}"
            total += int(coeff) if coeff else 1
            mono = f"{xpart}*{ypart}"
        if mono in monomials:
            return f"repeated monomial in {term[:40]!r}"
        monomials.add(mono)
    if constant != a002893(n)[n]:
        return f"constant term {constant} is not a({n})"
    if total != 9**n:
        return f"coefficients sum to {total}, not 9**{n}"
    return None


def _franel(n: int) -> int:
    return sum(comb(n, j) ** 3 for j in range(n + 1))


def _red_set_count(n: int, k: int) -> int:
    return comb(n, k) * comb(2 * k, k)


def check_count_red_distinct(out: str, n: int) -> str | None:
    rows = [f"{k} {comb(n, k) * _red_set_count(n, k)}" for k in range(n + 1)]
    return _expect_lines(out, [*rows, f"total {a002893(n)[n]}"])


_HAND = r"\[((?:[rgb][0-9]+(?:,[rgb][0-9]+)*)?)\]"
_DEAL_RE = re.compile(rf"S=\{{((?:[0-9]+(?:,[0-9]+)*)?)\}};R={_HAND};G={_HAND};B={_HAND}")


def _deal_problem(line: str, n: int) -> tuple[str | None, frozenset[int]]:
    """Check one deal line against the deal rules; return (problem, red denominations)."""
    m = _DEAL_RE.fullmatch(line)
    if m is None:
        return f"malformed deal {line[:60]!r}", frozenset()
    s = [int(t) for t in m.group(1).split(",") if t]
    hands = [[(t[0], int(t[1:])) for t in group.split(",") if t] for group in m.groups()[1:]]
    if len(set(s)) != len(s) or not all(1 <= d <= n for d in s):
        return f"bad denomination set in {line!r}", frozenset()
    cards = sorted(card for hand in hands for card in hand)
    if cards != sorted((color, d) for d in s for color in "rgb"):
        return f"cards do not cover S exactly once in {line!r}", frozenset()
    if any(len(hand) != len(s) for hand in hands):
        return f"unequal hands in {line!r}", frozenset()
    for own, hand in zip("rgb", hands):
        if any(color == own for color, _ in hand):
            return f"own color in a hand in {line!r}", frozenset()
    return None, frozenset(d for _, d in hands[0])


def check_enumerate(out: str, n: int, red: tuple[int, ...] | None = None) -> str | None:
    """Header total from closed-form arithmetic, every deal legal, none repeated."""
    total = a002893(n)[n] if red is None else _red_set_count(n, len(red))
    lines = out.split("\n")
    if lines.pop() != "":
        return "output does not end with a newline"
    if lines[0] != f"n={n} total={total}":
        return f"header {lines[0][:60]!r}, expected total={total}"
    deals = lines[1:]
    if len(deals) != total or len(set(deals)) != total:
        return f"expected {total} distinct deals, got {len(set(deals))} of {len(deals)}"
    for line in deals:
        problem, red_denoms = _deal_problem(line, n)
        if problem:
            return problem
        if red is not None and red_denoms != frozenset(red):
            return f"red hand does not show exactly {red} in {line!r}"
    return None


def check_audit_full_deck(out: str, n: int) -> str | None:
    f = _franel(n)
    return _expect_lines(out, [
        f"audit full-deck n={n}",
        f"params={f} image={f} enumerated={f} expected={f}",
        "roundtrips=OK",
        "PASS",
    ])


def _subsets_lex(items: tuple[int, ...], start: int = 0, prefix: tuple[int, ...] = ()):
    yield prefix
    for i in range(start, len(items)):
        yield from _subsets_lex(items, i + 1, prefix + (items[i],))


def check_audit_red_set(out: str, n: int) -> str | None:
    rows = []
    for denoms in _subsets_lex(tuple(range(1, n + 1))):
        p = _red_set_count(n, len(denoms))
        label = "{" + ",".join(map(str, denoms)) + "}"
        rows.append(f"D={label} params={p} image={p} enumerated={p} roundtrips=OK")
    return _expect_lines(out, [f"audit red-set n={n}", *rows, f"total={a002893(n)[n]}", "PASS"])
