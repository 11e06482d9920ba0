"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
All comparisons are exact; the only tolerances are the stated runtime caps.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from trideal.bijections import (
    decode_full_deck,
    decode_red_set,
    encode_full_deck,
    encode_red_set,
    iter_full_deck_params,
    iter_red_set_params,
)
from trideal.counting import (
    binomial,
    franel,
    lhs_sum,
    lhs_terms,
    red_distinct_count,
    red_set_count,
    rhs_sum,
    vandermonde_inner,
)
from trideal.enumeration import (
    enumerate_deals,
    enumerate_deals_with_red_denoms,
    enumerate_full_deck_deals,
    histogram,
    subsets_lex,
)
from trideal.laurent import constant_terms, identity_polynomials, sequence_term

SEQUENCE = [1, 3, 15, 93, 639]

SRC = Path(__file__).resolve().parent.parent / "src"


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "trideal", *argv],
        capture_output=True,
        env=env,
        check=True,
    )


def test_criterion_1_sequence_reproduction():
    with criterion("[1] sequence 1,3,15,93,639 from closed forms and constant term"):
        start = time.perf_counter()
        assert [lhs_sum(n) for n in range(5)] == SEQUENCE
        assert [rhs_sum(n) for n in range(5)] == SEQUENCE
        assert [sequence_term(n) for n in range(5)] == SEQUENCE
        assert time.perf_counter() - start < 1.0


def test_criterion_2_identity_at_scale():
    with criterion("[2] triple agreement lhs=rhs=ct for n<=100"):
        start = time.perf_counter()
        for n, (ct, lhs) in enumerate(zip(constant_terms(100), lhs_terms(100))):
            assert lhs == rhs_sum(n) == ct
        assert n == 100
        assert time.perf_counter() - start < 30.0


def test_criterion_3_oracle_equivalence():
    with criterion("[3] exhaustive totals and histograms match closed forms, n<=4"):
        start = time.perf_counter()
        for n in range(5):
            by_size = histogram(n, "s_size")
            by_red = histogram(n, "red_distinct")
            assert sum(by_size.values()) == SEQUENCE[n]
            assert sum(by_red.values()) == SEQUENCE[n]
            for k in range(n + 1):
                assert by_size[k] == binomial(n, k) * franel(k)
                assert by_red[k] == red_distinct_count(n, k)
        assert time.perf_counter() - start < 10.0


def test_criterion_4_full_deck_audit():
    with criterion("[4] full-deck bijection: counts, image, round trips, n<=4"):
        # derive the pinned values from the enumeration oracle first
        oracle = [sum(1 for _ in enumerate_full_deck_deals(n)) for n in range(5)]
        assert oracle == [1, 2, 10, 56, 346]
        for n in range(5):
            params = list(iter_full_deck_params(n))
            assert len(params) == franel(n) == oracle[n]
            encoded = [encode_full_deck(p) for p in params]
            assert len(set(encoded)) == len(encoded)
            assert set(encoded) == set(enumerate_full_deck_deals(n))
            for p, d in zip(params, encoded):
                assert decode_full_deck(d) == p
            for d in enumerate_full_deck_deals(n):
                assert encode_full_deck(decode_full_deck(d)) == d


def test_criterion_5_red_set_audit():
    with criterion("[5] red-set bijection: counts, image, round trips, n<=4"):
        spot = list(enumerate_deals_with_red_denoms(2, (1,)))
        assert len(spot) == 4
        for n in range(5):
            for denoms in subsets_lex(tuple(range(1, n + 1))):
                params = list(iter_red_set_params(n, denoms))
                assert len(params) == red_set_count(n, len(denoms))
                encoded = [encode_red_set(p) for p in params]
                assert len(set(encoded)) == len(encoded)
                assert set(encoded) == set(enumerate_deals_with_red_denoms(n, denoms))
                for p, d in zip(params, encoded):
                    assert decode_red_set(d) == p
            for d in enumerate_deals(n):
                assert encode_red_set(decode_red_set(d)) == d


def test_criterion_6_vandermonde_properties():
    with criterion("[6] inner sum equals C(2k,k) for all a; outer sum collapses"):
        for k in range(13):
            for a in range(k + 1):
                assert vandermonde_inner(k, a) == binomial(2 * k, k)
        for n in range(13):
            for k in range(n + 1):
                outer = sum(
                    binomial(k, a) * binomial(n - k, n - k - a) for a in range(k + 1)
                )
                assert outer == binomial(n, k)


def test_criterion_7_polynomial_factorization():
    with criterion("[7] factor1 * factor2 equals the 7-term base exactly"):
        base, factor1, factor2 = identity_polynomials()
        assert factor1 * factor2 == base
        assert len(base) == 7
        assert base.constant_term() == 3
        # hand-expansion oracle, coefficient for coefficient
        assert base.coefficients == {
            (0, 0): 3,
            (1, 0): 1,
            (-1, 0): 1,
            (0, 1): 1,
            (0, -1): 1,
            (-1, 1): 1,
            (1, -1): 1,
        }


def test_criterion_8_cli_determinism():
    with criterion("[8] enumerate and verify are byte-identical across runs"):
        first = run_cli("enumerate", "--n", "3")
        second = run_cli("enumerate", "--n", "3")
        assert first.stdout == second.stdout
        assert first.stdout.startswith(b"n=3 total=93\n")
        first = run_cli("verify", "--max-n", "20")
        second = run_cli("verify", "--max-n", "20")
        assert first.stdout == second.stdout
        assert first.stdout.splitlines()[-1] == b"n=20 lhs=rhs=ct=248256043372999089 OK"
