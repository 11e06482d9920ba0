import errno
import hashlib
import importlib.util
import math
import os
import subprocess
import sys
from itertools import chain, permutations
from pathlib import Path
from types import SimpleNamespace

import pytest

from trideal import bijections, cli, counting, enumeration, laurent, model
from trideal.cli import main
from trideal.laurent import LaurentPoly, identity_polynomials

SEQUENCE_LINES = [
    "n=0 lhs=rhs=ct=1 OK",
    "n=1 lhs=rhs=ct=3 OK",
    "n=2 lhs=rhs=ct=15 OK",
    "n=3 lhs=rhs=ct=93 OK",
    "n=4 lhs=rhs=ct=639 OK",
    "n=5 lhs=rhs=ct=4653 OK",
]


class Recorder:
    """A stdout that keeps each string written to it, in order, and passes it on."""

    def __init__(self, stream, written):
        self.stream, self.written = stream, written

    def write(self, text):
        self.written.append(text)
        return self.stream.write(text)

    def __getattr__(self, name):
        return getattr(self.stream, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_small_range(self, capsys):
        code, out, err = run(capsys, "verify", "--max-n", "5")
        assert code == 0
        assert out.splitlines() == SEQUENCE_LINES
        assert err == ""

    @pytest.mark.parametrize(
        "max_n, message",
        [
            ("-1", "need n >= 0, got -1"),
            ("201", "n=201 exceeds the constant-term guard (200)"),
            ("5000", "n=5000 exceeds the constant-term guard (200)"),
        ],
    )
    def test_a_range_past_the_library_bounds_is_its_usage_error(self, capsys, max_n, message):
        # the constant-term walk checks its bound before the first line, in the
        # words `ct --n` prints
        code, out, err = run(capsys, "verify", "--max-n", max_n)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            # one deal too many: by_size and by_red both read {0: 1, 1: 2} at n = 1
            (lambda by_size, by_red: by_size.update({0: 2}), "MISMATCH n=1 enumerated=4 expected=3"),
            # one deal moved to another bucket keeps the total
            (
                lambda by_size, by_red: by_size.update({0: 0, 1: 3}),
                "MISMATCH n=1 k=0 statistic=s_size expected=1 actual=0",
            ),
            (
                lambda by_size, by_red: by_red.update({0: 0, 1: 3}),
                "MISMATCH n=1 k=0 statistic=red_distinct expected=1 actual=0",
            ),
        ],
    )
    def test_enumeration_mismatch_names_the_histogram(self, capsys, monkeypatch, corrupt, message):
        original = enumeration._histograms

        def corrupted(n, allow_large):
            by_size, by_red = original(n, allow_large)
            if n == 1:
                corrupt(by_size, by_red)
            return by_size, by_red

        monkeypatch.setattr(enumeration, "_histograms", corrupted)
        code, out, err = run(capsys, "verify", "--max-n", "5")
        assert (code, out, err) == (1, "n=0 lhs=rhs=ct=1 OK\n", f"{message}\n")

    def test_route_mismatch_names_all_three_values(self, capsys, monkeypatch):
        original = counting.rhs_terms

        def off_at_3(max_n):
            return (rhs + (n == 3) for n, rhs in enumerate(original(max_n)))

        monkeypatch.setattr(counting, "rhs_terms", off_at_3)
        code, out, err = run(capsys, "verify", "--max-n", "5")
        assert (code, out) == (1, "\n".join(SEQUENCE_LINES[:3]) + "\n")
        assert err == "MISMATCH n=3 lhs=93 rhs=94 ct=93\n"

    def test_builds_no_power_beyond_max_n(self, capsys, monkeypatch):
        steps, muls = [], []
        original_step, original_mul = laurent._step, LaurentPoly.__mul__

        def counting_step(rows, w, radius):
            steps.append(1)
            return original_step(rows, w, radius)

        def counting_mul(self, other):
            muls.append(1)
            return original_mul(self, other)

        monkeypatch.setattr(laurent, "_step", counting_step)
        monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
        code, out, _ = run(capsys, "verify", "--max-n", "3")
        assert code == 0
        assert out.splitlines() == SEQUENCE_LINES[:4]
        assert len(steps) == 3
        assert muls == []

    def test_truncates_the_power_to_what_can_reach_the_constant(self, capsys, monkeypatch):
        radii = [0]
        original = laurent._step

        def recording_step(rows, w, radius):
            # the rows ey = 0..r // 2 of the last radius r, each within its
            # r - 2ey + 3 cells of w bits
            last = radii[-1]
            assert len(rows) == last // 2 + 1
            assert all(row.bit_length() <= (last - 2 * ey + 3) * w for ey, row in enumerate(rows))
            radii.append(radius)
            return original(rows, w, radius)

        monkeypatch.setattr(laurent, "_step", recording_step)
        # step n crops base**n to the hexagonal radius min(n, max_n - n)
        for max_n, expected in [
            (10, [1, 2, 3, 4, 5, 4, 3, 2, 1, 0]),
            (11, [1, 2, 3, 4, 5, 5, 4, 3, 2, 1, 0]),
        ]:
            radii[1:] = []
            code, out, _ = run(capsys, "verify", "--max-n", str(max_n))
            assert code == 0
            assert out.splitlines()[:6] == SEQUENCE_LINES
            assert radii[1:] == expected

    def test_reads_lhs_from_one_walk(self, capsys, monkeypatch):
        calls = []
        original = counting.franel

        def counting_franel(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(counting, "franel", counting_franel)
        code, out, _ = run(capsys, "verify", "--max-n", "40")
        assert code == 0
        assert out.splitlines()[:6] == SEQUENCE_LINES
        # only the enumeration cross-check for n <= 5 asks for franel(k), k <= n
        assert sorted(calls) == sorted(k for n in range(6) for k in range(n + 1))

    def test_reads_rhs_from_one_walk(self, capsys, monkeypatch):
        combs, checked, checking = [], [], []
        comb, check = math.comb, cli._check_enumeration

        def counting_comb(n, k):
            if not checking:
                combs.append((n, k))
            return comb(n, k)

        def cross_check(n, expected_total):
            checked.append(n)
            checking.append(n)
            try:
                return check(n, expected_total)
            finally:
                checking.pop()

        monkeypatch.setattr(math, "comb", counting_comb)
        monkeypatch.setattr(cli, "_check_enumeration", cross_check)
        code, out, _ = run(capsys, "verify", "--max-n", "40")
        assert code == 0
        assert out.splitlines()[:6] == SEQUENCE_LINES
        # C(n, k) comes from Pascal rows and C(2k, k) from C(2k - 2, k - 1): only
        # the enumeration cross-check for n <= 5 computes a binomial
        assert checked == list(range(6))
        assert combs == []

    def test_one_enumeration_pass_fills_both_histograms(self, capsys, monkeypatch):
        passes = []
        original = enumeration._join_groups

        def counting_groups(n, *args, **kwargs):
            passes.append(n)
            return original(n, *args, **kwargs)

        monkeypatch.setattr(enumeration, "_join_groups", counting_groups)
        code, out, _ = run(capsys, "verify", "--max-n", "5")
        assert code == 0
        assert out.splitlines() == SEQUENCE_LINES
        assert passes == list(range(6))


class TestCount:
    def test_by_s_size(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "2", "--by", "s-size")
        assert code == 0
        assert out == "0 1\n1 4\n2 10\ntotal 15\n"

    def test_by_red_distinct(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "2", "--by", "red-distinct")
        assert code == 0
        assert out == "0 1\n1 8\n2 6\ntotal 15\n"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "2", "--format", "csv")
        assert code == 0
        assert out == "k,count\n0,1\n1,4\n2,10\n"

    def test_bfile_format(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "1", "--format", "bfile")
        assert code == 0
        assert out == "0 1\n1 2\n"

    def test_guard(self, capsys):
        code, _, err = run(capsys, "count", "--n", "9")
        assert code == 2
        assert "--allow-large" in err


class TestEnumerate:
    def test_n1_stream(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "1")
        assert code == 0
        assert out == (
            "n=1 total=3\n"
            "S={};R=[];G=[];B=[]\n"
            "S={1};R=[b1];G=[r1];B=[g1]\n"
            "S={1};R=[g1];G=[b1];B=[r1]\n"
        )

    def test_full_restriction(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--full")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n=2 total=10"
        assert all(line.startswith("S={1,2};") for line in lines[1:])

    def test_red_denoms_restriction(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--red-denoms", "1")
        assert code == 0
        assert out.splitlines()[0] == "n=2 total=4"

    def test_red_denoms_empty_set(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--red-denoms", "")
        assert code == 0
        assert out == "n=2 total=1\nS={};R=[];G=[];B=[]\n"

    def test_red_denoms_out_of_range(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "2", "--red-denoms", "5")
        assert code == 2
        assert "not within" in err

    def test_red_denoms_malformed(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "2", "--red-denoms", "1,x")
        assert code == 2
        assert "malformed" in err

    @pytest.mark.parametrize("text", ["1_0", "01", "+1", " 1"])
    def test_red_denoms_must_be_written_as_plain_ints(self, capsys, text):
        # int() would read each of these; only the form str() prints is taken
        code, out, err = run(capsys, "enumerate", "--n", "3", "--red-denoms", text)
        assert (code, out, err) == (2, "", f"error: malformed denomination list: {text!r}\n")

    def test_red_denoms_repeated(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "3", "--red-denoms", "1,1")
        assert code == 2
        assert out == ""
        assert err == "error: repeated denomination in --red-denoms: '1,1'\n"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "1", "--format", "csv")
        assert code == 0
        assert out == "s,red,green,blue\n,,,\n1,b1,r1,g1\n1,g1,b1,r1\n"

    def test_guard(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "6")
        assert code == 2
        assert "--allow-large" in err

    @pytest.mark.parametrize(
        "argv, totalled",
        [
            ((), True),
            (("--full",), True),
            (("--red-denoms", "1,3"), True),
            (("--format", "csv"), False),
            (("--red-denoms", "1,3", "--format", "csv"), False),
        ],
    )
    def test_streams_each_line_as_its_deal_is_formed(self, capsys, monkeypatch, argv, totalled):
        # one oracle pass: the text form reads every head for its total before
        # it writes, then prints from the same groups.  Each head's lines are
        # out in one write before the next head is read.
        original, written, calls, when = enumeration._join_groups, [], [], []

        class SpyHeads(list):
            def __iter__(self):
                for head in super().__iter__():
                    when.append(len(written))
                    yield head

        def spy_groups(*args, **kwargs):
            calls.append(args)
            groups = original(*args, **kwargs)
            return [(subset, (SpyHeads(heads), tails)) for subset, (heads, tails) in groups]

        monkeypatch.setattr(enumeration, "_join_groups", spy_groups)
        monkeypatch.setattr(sys, "stdout", Recorder(sys.stdout, written))
        code, out, _ = run(capsys, "enumerate", "--n", "3", *argv)
        assert code == 0
        assert len(calls) == 1
        # head k is read once the header and k blocks are out, and its block follows it
        blocks = list(range(1, len(written)))
        assert when == [0] * len(blocks) * totalled + blocks != []
        assert "".join(written) == out

    def test_writes_each_heads_lines_at_once(self, capsys, monkeypatch):
        written = []
        monkeypatch.setattr(sys, "stdout", Recorder(sys.stdout, written))
        code, out, _ = run(capsys, "enumerate", "--n", "5")
        assert code == 0
        assert out.startswith("n=5 total=4653\n") and out.count("\n") == 4654
        # the header and one write for each of the 550 heads; a print per
        # line would make 4654 calls, each two writes
        assert len(written) <= 551

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--n", "6"), "n=6 exceeds the exhaustive guard (5); rerun with --allow-large"),
            (("--n", "-1"), "need n >= 0, got -1"),
            (("--n", "2", "--red-denoms", "3"), "denominations [3] not within 1..2"),
            (("--n", "6", "--full"), "n=6 exceeds the exhaustive guard (5); rerun with --allow-large"),
            # n is checked before the denominations lie within 1..n
            (("--n", "-1", "--red-denoms", "1"), "need n >= 0, got -1"),
        ],
    )
    @pytest.mark.parametrize("form", ["text", "csv"])
    def test_usage_error_prints_nothing_to_stdout(self, capsys, argv, message, form):
        code, out, err = run(capsys, "enumerate", *argv, "--format", form)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestAudit:
    def test_full_deck(self, capsys):
        code, out, _ = run(capsys, "audit", "--n", "2", "--which", "full-deck")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "audit full-deck n=2"
        assert lines[1] == "params=10 image=10 enumerated=10 expected=10"
        assert lines[-1] == "PASS"

    def test_red_set(self, capsys):
        code, out, _ = run(capsys, "audit", "--n", "2", "--which", "red-set")
        assert code == 0
        lines = out.splitlines()
        assert "D={} params=1 image=1 enumerated=1 roundtrips=OK" in lines
        assert "D={1} params=4 image=4 enumerated=4 roundtrips=OK" in lines
        assert "D={2} params=4 image=4 enumerated=4 roundtrips=OK" in lines
        assert "D={1,2} params=6 image=6 enumerated=6 roundtrips=OK" in lines
        assert "total=15" in lines
        assert lines[-1] == "PASS"

    def test_which_is_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["audit", "--n", "2"])
        assert excinfo.value.code == 2

    def test_full_deck_guard_fires_before_any_parameter(self, capsys, monkeypatch):
        calls = []

        def spy(name):
            def record(*args, **kwargs):
                calls.append(name)
                return iter(())

            return record

        monkeypatch.setattr(bijections, "_full_deck_masks", spy("_full_deck_masks"))
        monkeypatch.setattr(bijections, "_encode_full_deck", spy("_encode_full_deck"))
        code, out, err = run(capsys, "audit", "--n", "30", "--which", "full-deck")
        assert code == 2
        assert out == ""
        assert err == "error: n=30 exceeds the exhaustive guard (5); rerun with --allow-large\n"
        assert calls == []

    @pytest.mark.parametrize("which", ["full-deck", "red-set"])
    @pytest.mark.parametrize(
        "n, message",
        [
            ("6", "n=6 exceeds the exhaustive guard (5); rerun with --allow-large"),
            ("-1", "need n >= 0, got -1"),
        ],
    )
    def test_usage_error_prints_nothing_to_stdout(self, capsys, which, n, message):
        code, out, err = run(capsys, "audit", "--n", n, "--which", which)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_full_deck_roundtrip_failure_names_the_deal(self, capsys, monkeypatch):
        original, calls = bijections._encode_full_deck, []

        def drifting(n, params):
            # honest for the franel(2) = 10 encodes, then flips the green cards
            # red holds: the holds_green plane XOR the subset
            calls.append(1)
            key = original(n, params)
            return key if len(calls) <= 10 else key ^ (key & (1 << n) - 1) << n

        monkeypatch.setattr(bijections, "_encode_full_deck", drifting)
        code, _, err = run(capsys, "audit", "--n", "2", "--which", "full-deck")
        assert code == 1
        assert err == "FAIL encode(decode) roundtrip at S={1,2};R=[g1,b1];G=[r1,b2];B=[r2,g2]\n"

    def test_red_set_roundtrip_failure_names_the_deal(self, capsys, monkeypatch):
        original, calls = bijections._encode_red_set, []

        def drifting(n, params):
            # honest through D={} and the 4 encodes of D={1}, then flips the
            # green cards red holds: the holds_green plane XOR the subset
            calls.append(1)
            key = original(n, params)
            return key if len(calls) <= 6 else key ^ (key & (1 << n) - 1) << n

        monkeypatch.setattr(bijections, "_encode_red_set", drifting)
        code, out, err = run(capsys, "audit", "--n", "2", "--which", "red-set")
        assert code == 1
        assert out == "audit red-set n=2\nD={} params=1 image=1 enumerated=1 roundtrips=OK\n"
        assert err == "FAIL D={1}: encode(decode) roundtrip at S={1};R=[b1];G=[r1];B=[g1]\n"

    @pytest.mark.parametrize(
        "which, message",
        [
            ("full-deck", "FAIL params=10 enumerated=11 expected=10"),
            ("red-set", "FAIL D={}: params=1 enumerated=2 expected=1"),
        ],
    )
    def test_a_repeated_deal_fails(self, capsys, monkeypatch, which, message):
        original = enumeration._keys

        def repeating(*args, **kwargs):
            first, *rest = original(*args, **kwargs)
            return [first, first, *rest]

        monkeypatch.setattr(enumeration, "_keys", repeating)
        code, _, err = run(capsys, "audit", "--n", "2", "--which", which)
        # the image still equals the set of enumerated deals; only the count tells
        assert (code, err) == (1, f"{message}\n")

    @pytest.mark.parametrize(
        "which, name, fake, message",
        [
            (
                "full-deck",
                "_encode_full_deck",
                lambda n, params: 0,
                "FAIL encode collision: green_in_red={};blue_in_red={1,2};red_in_blue={} and "
                "green_in_red={1};blue_in_red={1};red_in_blue={1}",
            ),
            (
                "full-deck",
                "_decode_full_deck",
                lambda n, key: None,
                # the first enumerated deal's parameter, as the walk reads the deals
                "FAIL decode(encode) roundtrip at green_in_red={1};blue_in_red={1};red_in_blue={2}",
            ),
            # D={} has the one empty routing, so this fake passes it and fails D={1}
            (
                "red-set",
                "_encode_red_set",
                lambda n, params: 0,
                "FAIL D={1}: encode collision: D={1};A={};B={};E={};R={1} and "
                "D={1};A={};B={1};E={};R={}",
            ),
            (
                "red-set",
                "_decode_red_set",
                lambda n, key: None,
                "FAIL D={}: decode(encode) roundtrip at D={};A={};B={};E={};R={}",
            ),
        ],
    )
    def test_each_failure_names_what_broke(self, capsys, monkeypatch, which, name, fake, message):
        monkeypatch.setattr(bijections, name, fake)
        code, _, err = run(capsys, "audit", "--n", "2", "--which", which)
        assert (code, err) == (1, f"{message}\n")

    @pytest.mark.parametrize(
        "which, encoder, decoder, deals",
        [
            ("full-deck", "_encode_full_deck", "_decode_full_deck", 346),
            ("red-set", "_encode_red_set", "_decode_red_set", 639),
        ],
    )
    def test_each_deal_is_decoded_once_and_encoded_twice(
        self, capsys, monkeypatch, which, encoder, decoder, deals
    ):
        # one encode per parameter into the table, then one decode and one
        # re-encode per deal in the single walk over the oracle's deals
        calls = []

        def counted(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        for name in (encoder, decoder):
            monkeypatch.setattr(bijections, name, counted(name, getattr(bijections, name)))
        code, _, _ = run(capsys, "audit", "--n", "4", "--which", which)
        assert code == 0
        assert (calls.count(encoder), calls.count(decoder)) == (2 * deals, deals)


# each command with the first line it prints; ct's line is the whole polynomial,
# so only its first terms are given
FIRST_LINES = {
    ("audit", "--n", "4", "--which", "full-deck"): "audit full-deck n=4\n",
    ("audit", "--n", "4", "--which", "red-set"): "audit red-set n=4\n",
    ("enumerate", "--n", "4"): "n=4 total=639\n",
    ("enumerate", "--n", "4", "--format", "csv"): "s,red,green,blue\n",
    ("table", "--n", "4"): "n=4 total=639\n",
    ("count", "--n", "4", "--by", "red-distinct"): "0 1\n",
    ("count", "--n", "4", "--format", "bfile"): "0 1\n",
    ("enumerate", "--n", "4", "--full"): "n=4 total=346\n",
    ("enumerate", "--n", "4", "--red-denoms", "1,3"): "n=4 total=36\n",
    ("verify", "--max-n", "5"): "n=0 lhs=rhs=ct=1 OK\n",
    ("ct", "--n", "4", "--poly"): "x^4 + 4*x^3*y + 6*x^2*y^2 + ",
    ("bfile", "--seq", "main", "--max-n", "5"): "0 1\n",
}


@pytest.mark.parametrize("argv", list(FIRST_LINES))
def test_audits_and_text_enumerate_build_no_deal(argv, capsys, monkeypatch):
    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(enumeration, "_deal", counting("_deal", enumeration._deal))
    monkeypatch.setattr(model, "validate_deal", counting("validate_deal", model.validate_deal))
    for cls in (model.Card, model.Deal):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.startswith(FIRST_LINES[argv])
    assert calls == []


@pytest.mark.parametrize("which", ["full-deck", "red-set"])
def test_audits_build_no_parameter_set(which, capsys, monkeypatch):
    # both audits run on masks; a decoder that built a parameter set per deal fails here
    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for cls in (bijections.FullDeckParams, bijections.RedSetParams):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    code, out, _ = run(capsys, "audit", "--n", "4", "--which", which)
    assert code == 0
    assert out.endswith("PASS\n")
    assert calls == []


# stdout sha256 of each command, recorded before the audits and the text
# form of enumerate moved from Deal objects to routing codes
GOLDEN_STDOUT = {
    ("enumerate", "--n", "4"):
        "a486877083262b0e33f76cfec16af42a0c2dbac68b2200040a2ecfbc1eddf69d",
    ("enumerate", "--n", "4", "--full"):
        "4d65b6a4f533c74ef06918ec8d466fa4cfc9ba0d8e06fa569e584dc4e92486a3",
    ("enumerate", "--n", "4", "--red-denoms", "1,3"):
        "803132d9ca3b9994e541b6ef5928499fdf2296eb7e3133e6ccb270598f8d33f6",
    ("enumerate", "--n", "4", "--format", "csv"):
        "f89e69dcc1f3f521f9a69b89bbb93655df4e30c5b8e2d99fd2fa03991f2ae169",
    # recorded while table still built Deal objects
    ("table", "--n", "4"):
        "581007d0a1619bf10255e2e22494cfd62a8280502aa3b087b55bd925197af421",
    ("audit", "--n", "4", "--which", "full-deck"):
        "f1a14bf4eea8affea36cbe6ed34f001e2e278a7977056f911762afe774ae0381",
    ("audit", "--n", "4", "--which", "red-set"):
        "871b4d2125bc4951b8f4b33f906b471b6c1447e6df3338426a521f94b1d67f46",
    # recorded before both audits went through one shared check
    ("audit", "--n", "5", "--which", "full-deck"):
        "b6dec3c71d9e35f496b4af4105bb8373c4b3ce2ee7382dfb25d3fd1a62287aae",
    ("audit", "--n", "5", "--which", "red-set"):
        "9ffc7f737195b3ff9eba2e472b8eaa7a206f88132c1f7de1ed1bd020b482cbf9",
    # recorded from the dense list-of-rows stencil, before each row was packed
    # into one int; n = 100 and 200 run the packed walk at its widest cells
    ("verify", "--max-n", "200"):
        "6bf854655ccacd38aebdf65b40fcf5e2c304d9782ff3c710038ccd14076422af",
    ("ct", "--n", "200"):
        "722ac9b948cb312819996a8fd87019429c5cf6d232d556225ddd678a17af61f0",
    ("ct", "--n", "100", "--poly"):
        "60d317579d0f2d0e401bd09ac2c3b0e2126d9d4ff2c2a7475288268c4d32a9ba",
    # recorded from the square walk, before it stored one twelfth of the power
    ("ct", "--n", "200", "--poly"):
        "a06362a7572f7b4de09dba35a1b2ae32d6fc0d9eb4c4d8448ee40785fc9a539c",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=" ".join)
def test_stdout_matches_the_recorded_digest(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


class TestCt:
    def test_constant_term(self, capsys):
        code, out, _ = run(capsys, "ct", "--n", "2")
        assert code == 0
        assert out == "15\n"

    def test_poly_of_power_zero(self, capsys):
        code, out, _ = run(capsys, "ct", "--n", "0", "--poly")
        assert code == 0
        assert out == "1\n"

    def test_poly_of_base(self, capsys):
        code, out, _ = run(capsys, "ct", "--n", "1", "--poly")
        assert code == 0
        assert out == "x + y + x*y^-1 + 3 + x^-1*y + y^-1 + x^-1\n"

    def test_poly_is_the_full_power_without_general_products(self, capsys, monkeypatch):
        base, _, _ = identity_polynomials()
        expected = (base ** 30).to_text()
        muls = []
        original = LaurentPoly.__mul__

        def counting_mul(self, other):
            muls.append(1)
            return original(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
        code, out, _ = run(capsys, "ct", "--n", "30", "--poly")
        assert code == 0
        assert out == expected + "\n"
        assert muls == []

    def test_poly_is_written_a_degree_at_a_time_without_a_polynomial(self, capsys, monkeypatch):
        base, _, _ = identity_polynomials()
        expected = (base ** 30).to_text() + "\n"
        calls, written = [], []

        def spy(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for name in ("__init__", "to_text"):
            monkeypatch.setattr(LaurentPoly, name, spy(name, getattr(LaurentPoly, name)))
        monkeypatch.setattr(sys, "stdout", Recorder(sys.stdout, written))
        code, out, _ = run(capsys, "ct", "--n", "30", "--poly")
        assert code == 0
        assert out == expected
        assert calls == []
        # one write per total degree -30..30, and the newline
        assert "".join(written) == out
        assert len(written) <= 2 * 30 + 2

    def test_negative_n(self, capsys):
        code, _, err = run(capsys, "ct", "--n", "-3")
        assert code == 2

    @pytest.mark.parametrize("form", [(), ("--poly",)], ids=["term", "poly"])
    @pytest.mark.parametrize(
        "n, message",
        [("201", "n=201 exceeds the constant-term guard (200)"), ("-1", "need n >= 0, got -1")],
    )
    def test_poly_beyond_the_guard_is_usage_error(self, capsys, form, n, message):
        # --poly takes the library's guard and its message, like the bare term
        code, out, err = run(capsys, "ct", "--n", n, *form)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestBfile:
    def test_main_sequence(self, capsys):
        code, out, _ = run(capsys, "bfile", "--seq", "main", "--max-n", "4")
        assert code == 0
        assert out == "0 1\n1 3\n2 15\n3 93\n4 639\n"

    def test_franel_sequence(self, capsys):
        code, out, _ = run(capsys, "bfile", "--seq", "franel", "--max-n", "4")
        assert code == 0
        assert out == "0 1\n1 2\n2 10\n3 56\n4 346\n"

    def test_prefix_sum_sequence(self, capsys):
        code, out, _ = run(capsys, "bfile", "--seq", "prefix-sum", "--max-n", "3")
        assert code == 0
        assert out == "0 1\n1 3\n2 11\n3 45\n"

    @pytest.mark.parametrize("seq", ["main", "franel", "prefix-sum"])
    def test_negative_max_n_is_usage_error(self, capsys, seq):
        # each walk checks its bound on its first step, in the library's words
        code, out, err = run(capsys, "bfile", "--seq", seq, "--max-n", "-1")
        assert (code, out, err) == (2, "", "error: need n >= 0, got -1\n")

    def test_main_sequence_calls_no_franel_or_comb(self, capsys, monkeypatch):
        lasts = {
            "main": counting.rhs_sum(40),
            "franel": counting.franel(40),
            "prefix-sum": counting.red_prefix_sum(40),
        }
        calls = []
        franel, comb = counting.franel, math.comb

        def counting_franel(n):
            calls.append("franel")
            return franel(n)

        def counting_comb(n, k):
            calls.append("comb")
            return comb(n, k)

        monkeypatch.setattr(counting, "franel", counting_franel)
        monkeypatch.setattr(math, "comb", counting_comb)
        for seq, last in lasts.items():
            code, out, _ = run(capsys, "bfile", "--seq", seq, "--max-n", "40")
            assert code == 0
            lines = out.splitlines()
            assert len(lines) == 41
            assert lines[40] == f"40 {last}"
        # Pascal rows come from additions and C(2k, k) from C(2k - 2, k - 1), so no
        # franel(k) or C(n, k) is recomputed
        assert (calls.count("franel"), calls.count("comb")) == (0, 0)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit before 3.10.7"
    )
    def test_a_term_past_the_int_digit_limit_is_written(self, capsys):
        # a(700) has 668 digits; lowered to 640, the limit would stop the file at n = 675
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, "bfile", "--seq", "main", "--max-n", "700")
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        lines = out.splitlines()
        assert (code, err, len(lines)) == (0, "", 701)
        assert lines[700] == f"700 {counting.rhs_sum(700)}"


class TestTable:
    def test_groups_and_numbering(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n=2 total=15"
        assert lines[1].split() == ["S", "#", "avoid", "red", "avoid", "green", "avoid", "blue"]
        body = lines[2:]
        assert len(body) == 15
        # largest denomination set first, then singletons, then the empty set
        assert body[0].startswith("{1,2}")
        assert body[10].startswith("{1}")
        assert body[12].startswith("{2}")
        assert body[14].startswith("{}")
        assert body[14].split()[1] == "15"

    def test_empty_deck(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "0")
        assert code == 0
        assert out.splitlines()[0] == "n=0 total=1"


def broken_pipe(*args):
    raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def python(*args, env=(), **kwargs):
    """Run a fresh interpreter with the package on its path and stdout block-buffered.

    ``env`` adds to the environment, and can set PYTHONUNBUFFERED again.
    """
    environ = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    environ.pop("PYTHONUNBUFFERED", None)  # as a shell runs it, so output waits for the last flush
    return subprocess.run([sys.executable, *args], env={**environ, **dict(env)}, **kwargs)


class TestClosedStdout:
    def test_a_reader_that_stops_early_ends_the_command_quietly(self):
        # ~200 KB of deals, more than a pipe holds, so the writer meets the closed pipe
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "trideal", "enumerate", "--n", "5"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        # 128 + SIGPIPE, never the mismatch code 1
        assert (proc.wait(), first, err) == (141, b"n=5 total=4653\n", b"")

    @pytest.mark.parametrize("method", ["write", "flush"])
    def test_main_returns_141_when_stdout_breaks(self, capsys, monkeypatch, method):
        # a write inside the handler, or the flush after it, meets the closed pipe
        stdout = SimpleNamespace(write=len, flush=lambda: None)
        setattr(stdout, method, broken_pipe)
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(["ct", "--n", "3"])
        assert (code, capsys.readouterr().err) == (141, "")

    @pytest.mark.parametrize(
        "argv, status, err",
        [
            (("ct", "--n", "3"), 141, b""),
            (("ct", "--n", "3", "--poly"), 141, b""),
            (("count", "--n", "3"), 141, b""),
            (("enumerate", "--n", "3"), 141, b""),
            (("table", "--n", "2"), 141, b""),
            (("bfile", "--seq", "main", "--max-n", "3"), 141, b""),
            (("audit", "--n", "3", "--which", "red-set"), 141, b""),
            (("verify", "--max-n", "3"), 141, b""),
            (("ct", "--n", "201"), 2, b"error: n=201 exceeds the constant-term guard (200)\n"),
            # argparse drops the help it cannot write, as into a pipe whose reader has gone
            (("--help",), 0, b""),
            (("ct", "--help"), 0, b""),
        ],
    )
    def test_stdout_closed_at_start(self, argv, status, err):
        # as `trideal ... >&-` runs it: fd 1 is closed, so sys.stdout is None
        proc = python(
            "-m", "trideal", *argv, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1)
        )
        assert (proc.returncode, proc.stderr) == (status, err)

    def test_main_returns_141_when_stdout_is_none(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        code = main(["enumerate", "--n", "2"])
        assert (code, capsys.readouterr().err) == (141, "")

    def test_main_leaves_a_broken_stdout_on_the_same_pipe(self, monkeypatch):
        # the in-process API returns 141 and never repoints its host's descriptor
        read_end, write_end = os.pipe()
        os.close(read_end)
        pipe = os.fstat(write_end)
        stdout = open(write_end, "w")
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(["ct", "--n", "3"])  # main's own flush meets the pipe
        monkeypatch.undo()
        after = os.fstat(write_end)
        # what the buffer still holds meets the pipe as the file closes
        with pytest.raises(BrokenPipeError):
            stdout.close()
        assert code == 141
        assert (after.st_dev, after.st_ino) == (pipe.st_dev, pipe.st_ino)


class TestRun:
    """``cli.run``, the process entry: exit statuses and output as ``main`` gives them."""

    def test_an_atexit_handler_registered_before_run_still_runs(self):
        script = (
            "import atexit, sys\n"
            "from trideal import cli\n"
            "atexit.register(print, 'handler ran')\n"
            "sys.argv = ['trideal', 'ct', '--n', '3']\n"
            "cli.run()\n"
        )
        proc = python("-c", script, capture_output=True)
        # what the handler writes is flushed too
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"93\nhandler ran\n", b"")

    @pytest.mark.parametrize(
        "argv, status",
        [(("--help",), 0), (("ct", "--help"), 0), (("ct", "--n", "3", "--bogus"), 2)],
    )
    def test_help_and_usage_errors_exit_with_argparses_status_and_text(
        self, capsys, monkeypatch, argv, status
    ):
        monkeypatch.setenv("COLUMNS", "80")  # help wraps to the same width in both
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        out, err = capsys.readouterr()
        proc = python("-m", "trideal", *argv, capture_output=True)
        assert excinfo.value.code == status
        assert (proc.returncode, proc.stdout, proc.stderr) == (status, out.encode(), err.encode())

    def test_an_unexpected_exception_prints_its_traceback_and_exits_1(self):
        script = (
            "import sys\n"
            "from trideal import cli, laurent\n"
            "def boom(n):\n"
            "    raise RuntimeError('boom')\n"
            "laurent.sequence_term = boom\n"
            "sys.argv = ['trideal', 'ct', '--n', '3']\n"
            "cli.run()\n"
        )
        proc = python("-c", script, capture_output=True)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.startswith(b"Traceback (most recent call last):\n")
        assert proc.stderr.endswith(b"\nRuntimeError: boom\n")

    def test_output_larger_than_a_pipe_arrives_whole(self, capsys):
        code, out, err = run(capsys, "ct", "--n", "55", "--poly")
        assert (code, err) == (0, "") and len(out) > 1 << 16
        proc = python("-m", "trideal", "ct", "--n", "55", "--poly", capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode(), b"")

    def test_help_into_a_closed_pipe_exits_0_quietly_however_stdout_is_buffered(self):
        # block-buffered, --help is still held when main returns, so run's flush meets the pipe
        def closed_reader(env):
            read_end, write_end = os.pipe()
            os.close(read_end)
            with open(write_end, "wb") as stdout:
                argv = ("-m", "trideal", "--help")
                proc = python(*argv, env=env, stdout=stdout, stderr=subprocess.PIPE)
            return proc.returncode, proc.stderr

        assert closed_reader({}) == closed_reader({"PYTHONUNBUFFERED": "1"}) == (0, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
    def test_a_flush_that_fails_for_another_reason_is_still_reported(self):
        # only a closed pipe is dropped: a full disk leaves through the normal exit
        with open("/dev/full", "wb") as stdout:
            proc = python("-m", "trideal", "--help", stdout=stdout, stderr=subprocess.PIPE)
        assert proc.returncode != 0 and b"OSError" in proc.stderr

    def test_stderr_closed_at_start(self):
        # as `trideal ... 2>&-` runs it: sys.stderr is None, so run flushes stdout alone
        proc = python(
            "-m", "trideal", "ct", "--n", "3", stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2)
        )
        assert (proc.returncode, proc.stdout) == (0, b"93\n")


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    # argparse's own help and usage errors, recorded on Python 3.11 before the
    # options moved into one table that both parsers read; stdout sha256 at
    # COLUMNS=80. argparse words its help and errors differently from one minor
    # version to the next, so these pins are checked only on the version they
    # were recorded on
    recorded_argparse = pytest.mark.skipif(
        sys.version_info[:2] != (3, 11), reason="argparse output recorded on Python 3.11"
    )

    HELP_STDOUT = {
        (): "532052b9da244f787c1f786d75063dfe03d0330a3ae2e5912c8dd69240fd39d7",
        ("verify",): "87e10d9d591aa020df9bc2848677c367ea4e06854e65d3843c73846ade747f46",
        ("count",): "f2333966bee2eb1977ad5bf7e5e2baf97145eb41ff1666ead0d1f2f67c26168e",
        ("enumerate",): "c1eeaf8a1ec1023317480b3f9884fa994731096503fa7c1a62c1169d25008df8",
        ("audit",): "53cb0beb3384e75cf9c48d18c5f92524dc1b9994c8544930ac903c2a2d3d32c0",
        ("ct",): "244f8ed4acd65ca1cf3863070f341638d67a8f2fb6521b1e5faed81939d6fe70",
        ("bfile",): "38438a803089268c0e3a1de60eadc809202f649f451b227eec79e51cef1d85f4",
        ("table",): "829238776dac13ce56d1c1e17e3eb68762ea075c036eb27b939397ccf393b56e",
    }

    @recorded_argparse
    @pytest.mark.parametrize("command", list(HELP_STDOUT), ids=lambda c: " ".join(c) or "top")
    def test_help_matches_the_recorded_digest(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--help"])
        captured = capsys.readouterr()
        assert (excinfo.value.code, captured.err) == (0, "")
        assert hashlib.sha256(captured.out.encode()).hexdigest() == self.HELP_STDOUT[command]

    @pytest.mark.parametrize(
        "argv, err",
        [
            (
                ("frobnicate",),
                "usage: trideal [-h] {verify,count,enumerate,audit,ct,bfile,table} ...\n"
                "trideal: error: argument command: invalid choice: 'frobnicate' (choose from "
                "'verify', 'count', 'enumerate', 'audit', 'ct', 'bfile', 'table')\n",
            ),
            (
                ("audit", "--n", "2"),
                "usage: trideal audit [-h] --n N --which {full-deck,red-set} [--allow-large]\n"
                "trideal audit: error: the following arguments are required: --which\n",
            ),
            (
                ("count", "--n", "2", "--by", "bogus"),
                "usage: trideal count [-h] --n N [--by {s-size,red-distinct}]\n"
                "                     [--format {text,csv,bfile}] [--allow-large]\n"
                "trideal count: error: argument --by: invalid choice: 'bogus' "
                "(choose from 's-size', 'red-distinct')\n",
            ),
            (
                ("ct", "--n", "abc"),
                "usage: trideal ct [-h] --n N [--poly]\n"
                "trideal ct: error: argument --n: invalid int value: 'abc'\n",
            ),
            (
                ("enumerate", "--n", "2", "--full", "--red-denoms", "1"),
                "usage: trideal enumerate [-h] --n N [--full | --red-denoms LIST]\n"
                "                         [--format {text,csv}] [--allow-large]\n"
                "trideal enumerate: error: argument --red-denoms: "
                "not allowed with argument --full\n",
            ),
            (
                (),
                "usage: trideal [-h] {verify,count,enumerate,audit,ct,bfile,table} ...\n"
                "trideal: error: the following arguments are required: command\n",
            ),
        ],
        ids=lambda value: " ".join(value)[:40] if isinstance(value, tuple) else None,
    )
    @recorded_argparse
    def test_usage_error_matches_the_recorded_message(self, capsys, monkeypatch, argv, err):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        captured = capsys.readouterr()
        assert (excinfo.value.code, captured.out, captured.err) == (2, "", err)

    @pytest.mark.parametrize(
        "argv, out",
        [
            (("verify", "--max", "3"), "\n".join(SEQUENCE_LINES[:4]) + "\n"),
            (("ct", "--n=3"), "93\n"),
        ],
    )
    def test_abbreviations_and_attached_values_are_still_accepted(self, capsys, argv, out):
        assert run(capsys, *argv) == (0, out, "")


def benchmark_argv():
    """The command lines the benchmark runs, read from its workload list."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return [cmd.argv for cmd in module.all_commands()]


def option_orders(argv):
    """``argv`` with its options, each a flag and any value, in every order."""
    options = []
    for token in argv[1:]:
        if token.startswith("--"):
            options.append([token])
        else:
            options[-1].append(token)
    return [[argv[0], *chain.from_iterable(order)] for order in permutations(options)]


# the well-formed command lines these tests run, covering every subcommand,
# flag and kind of value; each is also checked with its options reordered
WELL_FORMED = dict.fromkeys([
    ("verify",),
    ("verify", "--max-n", "5"),
    ("verify", "--max-n", "-1"),
    ("verify", "--max-n", "5000"),
    ("count", "--n", "2", "--by", "s-size"),
    ("count", "--n", "2", "--by", "red-distinct", "--format", "csv", "--allow-large"),
    ("count", "--n", "1", "--format", "bfile"),
    ("count", "--n", "9"),
    ("enumerate", "--n", "1"),
    ("enumerate", "--n", "2", "--full", "--format", "csv", "--allow-large"),
    ("enumerate", "--n", "2", "--red-denoms", "1,3", "--format", "text"),
    ("enumerate", "--n", "2", "--red-denoms", ""),
    ("enumerate", "--n", "3", "--red-denoms", "1_0"),
    ("enumerate", "--n", "3", "--red-denoms", " 1"),
    ("enumerate", "--n", "-1", "--red-denoms", "1", "--allow-large"),
    ("enumerate", "--n", "6", "--full"),
    ("audit", "--n", "2", "--which", "full-deck"),
    ("audit", "--n", "-1", "--which", "red-set", "--allow-large"),
    ("ct", "--n", "2"),
    ("ct", "--n", "0", "--poly"),
    ("ct", "--n", "-3"),
    ("ct", "--n", "007"),
    ("bfile", "--seq", "main", "--max-n", "4"),
    ("bfile", "--seq", "franel"),
    ("bfile", "--seq", "prefix-sum", "--max-n", "-1"),
    ("table", "--n", "2"),
    ("table", "--n", "0", "--allow-large"),
    *GOLDEN_STDOUT,
    *benchmark_argv(),
])

# command lines argparse must judge: its answer differs, or takes a form the
# strict parser does not read
LEFT_TO_ARGPARSE = [
    (),
    ("frobnicate",),
    ("--n", "3", "ct"),
    ("-h",),
    ("--help",),
    ("ct", "-h"),
    ("ct", "--n", "3", "--help"),
    ("ct", "--n", "3", "--n", "4"),
    ("enumerate", "--n", "2", "--full", "--full"),
    ("ct", "--n=3"),
    ("enumerate", "--n", "2", "--red-denoms=1"),
    ("verify", "--max", "3"),
    ("count", "--n", "2", "--allow"),
    ("ct", "--", "--n", "3"),
    ("ct", "--n", "3", "--"),
    ("ct", "--n"),
    ("enumerate", "--n", "2", "--red-denoms"),
    ("enumerate", "--n", "2", "--red-denoms", "--full"),
    ("enumerate", "--n", "2", "--red-denoms", "-1"),
    ("ct", "--n", "--poly"),
    ("count", "--n", "2", "--by", "--format"),
    ("ct", "--n", "9" * 5000),
    ("enumerate", "--n", "2", "--full", "--red-denoms", "1"),
    ("enumerate", "--n", "2", "--red-denoms", "1", "--full"),
    ("audit", "--n", "2"),
    ("ct",),
    ("bfile",),
    ("count", "--n", "2", "--by", "bogus"),
    ("bfile", "--seq", "Main"),
    ("ct", "--n", "abc"),
    ("ct", "--n", ""),
    ("ct", "--n", " 3"),
    ("ct", "--n", "+3"),
    ("ct", "--n", "1_0"),
    ("ct", "--n", "\u0663"),
    ("ct", "--n", "3", "--max-n", "4"),
    ("ct", "--n", "3", "extra"),
]


class TestStrictParser:
    @pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
    def test_returns_the_namespace_argparse_returns_in_every_option_order(self, argv):
        reference = cli.build_parser()
        for order in option_orders(argv):
            assert vars(cli._parse(order)) == vars(reference.parse_args(order))

    def test_main_reads_sys_argv_on_the_strict_path(self, monkeypatch):
        reference, parse, seen = cli.build_parser(), cli._parse, []

        def spy(argv):
            args = parse(argv)
            seen.append(dict(vars(args)))
            args.func = lambda args: 0
            return args

        monkeypatch.setattr(cli, "_parse", spy)
        # main reaches argparse only when the strict parser gives up
        monkeypatch.setattr(cli, "build_parser", None)
        for argv in WELL_FORMED:
            for order in option_orders(argv):
                monkeypatch.setattr(sys, "argv", ["trideal", *order])
                assert main() == 0
                assert seen.pop() == vars(reference.parse_args())

    @pytest.mark.parametrize(
        "argv", LEFT_TO_ARGPARSE, ids=lambda argv: " ".join(argv)[:40] or "empty"
    )
    def test_leaves_every_other_command_line_to_argparse(self, argv):
        assert cli._parse(list(argv)) is None
