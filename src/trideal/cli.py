"""Command-line front end: verify, count, enumerate, audit, ct, bfile, table.

Exit codes: 0 when everything succeeds or verifies, 1 on a verification
mismatch, 2 on usage errors (bad flags, guard violations, malformed input).
All results go to stdout, diagnostics to stderr; output is deterministic
for a fixed invocation.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Sequence

from . import bijections, counting, enumeration, laurent
from .model import deal_record, deal_to_text, denom_set_text, hand_text

MISMATCH = 1
USAGE_ERROR = 2


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _mismatch(message: str) -> int:
    print(message, file=sys.stderr)
    return MISMATCH


def _check_enumeration(n: int, expected_total: int) -> int:
    """Cross-check the brute-force totals and histograms against closed forms."""
    by_size = enumeration.histogram(n, "s_size")
    by_red = enumeration.histogram(n, "red_distinct")
    total = sum(by_size.values())
    if total != expected_total:
        return _mismatch(f"MISMATCH n={n} enumerated={total} expected={expected_total}")
    for k in range(n + 1):
        want = counting.binomial(n, k) * counting.franel(k)
        if by_size[k] != want:
            return _mismatch(
                f"MISMATCH n={n} k={k} statistic=s_size expected={want} actual={by_size[k]}"
            )
        want = counting.red_distinct_count(n, k)
        if by_red[k] != want:
            return _mismatch(
                f"MISMATCH n={n} k={k} statistic=red_distinct expected={want} actual={by_red[k]}"
            )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Check lhs = rhs = constant term for every n up to --max-n.

    Below the exhaustive guard the brute-force enumeration is cross-checked
    as well (totals and both histograms); above it only the closed forms and
    the constant term are compared.
    """
    max_n = args.max_n
    if max_n < 0:
        return _usage(f"--max-n must be >= 0, got {max_n}")
    if max_n > laurent.CT_GUARD:
        return _usage(f"--max-n beyond {laurent.CT_GUARD} is not supported (constant-term cost)")
    base, _, _ = laurent.identity_polynomials()
    power = laurent.LaurentPoly.constant(1)
    for n in range(max_n + 1):
        lhs = counting.lhs_sum(n)
        rhs = counting.rhs_sum(n)
        ct = power.constant_term()
        if not lhs == rhs == ct:
            return _mismatch(f"MISMATCH n={n} lhs={lhs} rhs={rhs} ct={ct}")
        if n <= enumeration.EXHAUSTIVE_GUARD:
            status = _check_enumeration(n, lhs)
            if status:
                return status
        print(f"n={n} lhs=rhs=ct={lhs} OK")
        power = power * base
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    """Histogram the enumerated deals by one statistic."""
    statistic = args.by.replace("-", "_")
    buckets = enumeration.histogram(args.n, statistic, allow_large=args.allow_large)
    rows = sorted(buckets.items())
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("k", "count"))
        writer.writerows(rows)
    elif args.format == "bfile":
        for k, count in rows:
            print(f"{k} {count}")
    else:
        for k, count in rows:
            print(f"{k} {count}")
        print(f"total {sum(buckets.values())}")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    """Stream deals in canonical order, optionally restricted."""
    if args.full:
        deals = list(enumeration.enumerate_full_deck_deals(args.n, allow_large=args.allow_large))
    elif args.red_denoms is not None:
        denoms = _parse_denoms(args.red_denoms)
        deals = list(
            enumeration.enumerate_deals_with_red_denoms(
                args.n, denoms, allow_large=args.allow_large
            )
        )
    else:
        deals = list(enumeration.enumerate_deals(args.n, allow_large=args.allow_large))
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("s", "red", "green", "blue"))
        for deal in deals:
            record = deal_record(deal)
            writer.writerow(
                (
                    " ".join(str(d) for d in record["s"]),
                    " ".join(record["red"]),
                    " ".join(record["green"]),
                    " ".join(record["blue"]),
                )
            )
    else:
        print(f"n={args.n} total={len(deals)}")
        for deal in deals:
            print(deal_to_text(deal))
    return 0


def _parse_denoms(text: str) -> frozenset[int]:
    """Parse a comma-separated denomination list; the empty string means the empty set."""
    text = text.strip()
    if not text:
        return frozenset()
    try:
        return frozenset(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"malformed denomination list: {text!r}") from None


def _audit_full_deck(n: int, allow_large: bool) -> int:
    params = list(bijections.iter_full_deck_params(n))
    encoded = [bijections.encode_full_deck(p) for p in params]
    image = set(encoded)
    enumerated = list(enumeration.enumerate_full_deck_deals(n, allow_large=allow_large))
    expected = counting.franel(n)
    print(f"audit full-deck n={n}")
    print(f"params={len(params)} image={len(image)} enumerated={len(enumerated)} expected={expected}")
    if len(image) != len(params):
        seen: dict = {}
        for p, d in zip(params, encoded):
            if d in seen:
                return _mismatch(f"FAIL encode collision: {seen[d].to_text()} and {p.to_text()}")
            seen[d] = p
    if len(params) != expected or image != set(enumerated):
        return _mismatch(f"FAIL image of encode differs from enumeration at n={n}")
    for p, d in zip(params, encoded):
        if bijections.decode_full_deck(d) != p:
            return _mismatch(f"FAIL decode(encode) roundtrip at {p.to_text()}")
    for d in enumerated:
        if bijections.encode_full_deck(bijections.decode_full_deck(d)) != d:
            return _mismatch(f"FAIL encode(decode) roundtrip at {deal_to_text(d)}")
    print("roundtrips=OK")
    print("PASS")
    return 0


def _audit_red_set(n: int, allow_large: bool) -> int:
    print(f"audit red-set n={n}")
    total = 0
    for denoms in enumeration.subsets_lex(tuple(range(1, n + 1))):
        params = list(bijections.iter_red_set_params(n, denoms))
        encoded = [bijections.encode_red_set(p) for p in params]
        image = set(encoded)
        enumerated = list(
            enumeration.enumerate_deals_with_red_denoms(n, denoms, allow_large=allow_large)
        )
        expected = counting.red_set_count(n, len(denoms))
        label = f"D={denom_set_text(denoms)}"
        if len(image) != len(params):
            return _mismatch(f"FAIL {label}: encode is not injective")
        if len(params) != expected or image != set(enumerated):
            return _mismatch(
                f"FAIL {label}: params={len(params)} enumerated={len(enumerated)} expected={expected}"
            )
        for p, d in zip(params, encoded):
            if bijections.decode_red_set(d) != p:
                return _mismatch(f"FAIL {label}: decode(encode) roundtrip at {p.to_text()}")
        for d in enumerated:
            if bijections.encode_red_set(bijections.decode_red_set(d)) != d:
                return _mismatch(f"FAIL {label}: encode(decode) roundtrip at {deal_to_text(d)}")
        print(f"{label} params={len(params)} image={len(image)} enumerated={len(enumerated)} roundtrips=OK")
        total += len(params)
    print(f"total={total}")
    print("PASS")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Exhaustively audit one of the two bijections at a given n."""
    if args.which == "full-deck":
        return _audit_full_deck(args.n, args.allow_large)
    return _audit_red_set(args.n, args.allow_large)


def cmd_ct(args: argparse.Namespace) -> int:
    """Print the constant term of base**n, or the whole power with --poly."""
    if args.poly:
        if args.n < 0 or args.n > laurent.CT_GUARD:
            return _usage(f"--n must lie in 0..{laurent.CT_GUARD}")
        base, _, _ = laurent.identity_polynomials()
        print((base ** args.n).to_text())
    else:
        print(laurent.sequence_term(args.n))
    return 0


_SEQUENCES = {
    "main": counting.lhs_sum,
    "franel": counting.franel,
    "prefix-sum": counting.red_prefix_sum,
}


def cmd_bfile(args: argparse.Namespace) -> int:
    """Emit a sequence as b-file lines ``n a(n)`` starting at n=0."""
    if args.max_n < 0:
        return _usage(f"--max-n must be >= 0, got {args.max_n}")
    term = _SEQUENCES[args.seq]
    for n in range(args.max_n + 1):
        print(f"{n} {term(n)}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    """Print every deal grouped by denomination set, largest sets first."""
    deals = list(enumeration.enumerate_deals(args.n, allow_large=args.allow_large))
    groups: dict[tuple[int, ...], list] = {}
    for deal in deals:
        groups.setdefault(tuple(sorted(deal.s)), []).append(deal)
    ordered = sorted(groups, key=lambda s: (-len(s), s))
    header = ("S", "#", "avoid red", "avoid green", "avoid blue")
    rows: list[tuple[str, str, str, str, str]] = []
    number = 0
    for subset in ordered:
        for i, deal in enumerate(groups[subset]):
            number += 1
            rows.append(
                (
                    denom_set_text(subset) if i == 0 else "",
                    str(number),
                    hand_text(deal.red),
                    hand_text(deal.green),
                    hand_text(deal.blue),
                )
            )
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(5)]
    print(f"n={args.n} total={len(deals)}")
    for row in (header, *rows):
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trideal",
        description=(
            "Exact counting of color-avoiding three-hand card deals: brute-force "
            "enumeration, closed-form binomial sums, and Laurent-polynomial "
            "constant terms, all cross-checked."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check that all three counting routes agree")
    p.add_argument("--max-n", type=int, default=20, help="largest n to verify (default 20)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", help="histogram enumerated deals by a statistic")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--by", choices=("s-size", "red-distinct"), default="s-size")
    p.add_argument("--format", choices=("text", "csv", "bfile"), default="text")
    p.add_argument("--allow-large", action="store_true", help="override the exhaustive guard")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="stream all deals in canonical order")
    p.add_argument("--n", type=int, required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--full", action="store_true", help="only deals using every denomination")
    which.add_argument(
        "--red-denoms",
        metavar="LIST",
        help="only deals whose red hand shows exactly these denominations, e.g. 1,3 ('' for none)",
    )
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--allow-large", action="store_true", help="override the exhaustive guard")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("audit", help="exhaustively audit an encode/decode bijection")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--which", choices=("full-deck", "red-set"), required=True)
    p.add_argument("--allow-large", action="store_true", help="override the exhaustive guard")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("ct", help="constant term of the identity's base polynomial power")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poly", action="store_true", help="print the full polynomial instead")
    p.set_defaults(func=cmd_ct)

    p = sub.add_parser("bfile", help="emit a sequence in b-file format (n a(n) per line)")
    p.add_argument("--seq", choices=tuple(_SEQUENCES), required=True)
    p.add_argument("--max-n", type=int, default=20, help="largest index to emit (default 20)")
    p.set_defaults(func=cmd_bfile)

    p = sub.add_parser("table", help="print all deals grouped by denomination set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--allow-large", action="store_true", help="override the exhaustive guard")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except enumeration.GuardError as exc:
        hint = str(exc).split(";")[0]
        return _usage(f"{hint}; rerun with --allow-large")
    except ValueError as exc:
        return _usage(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
