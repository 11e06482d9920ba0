"""Command-line front end: verify, count, enumerate, audit, ct, bfile, table.

Exit codes: 0 when everything succeeds or verifies, 1 on a verification
mismatch, 2 on usage errors (bad flags, guard violations, malformed input),
141 when stdout is closed, at start or before the output is written (128 +
SIGPIPE, as a shell reports a tool that SIGPIPE ends).  Range and guard
errors carry the library's own message, the text the Python API raises;
the CLI checks only its argv.  All results go to stdout, diagnostics to
stderr; output is deterministic for a fixed invocation.

Every subcommand's options live in one table, ``_COMMANDS``, read by two
parsers.  ``_parse`` takes the well-formed command lines: a subcommand,
then each of its options at most once, as its exact flag with any value in
the next token (an ASCII integer, one of the listed choices, or text that
does not start with ``-``), every required option given and no two of an
exclusive group.  It returns the namespace argparse would, without
importing argparse.  Every other command line, ``--help``, abbreviations,
``--flag=value`` and every usage error included, goes to argparse through
``build_parser``, whose output is unchanged.

``main(argv)`` is the in-process API: it returns the exit status, or
argparse raises ``SystemExit`` for ``--help`` and usage errors.  A process
(``python -m trideal``, the installed ``trideal`` script) ends through
``run``: it runs the atexit handlers, flushes stdout and stderr, then
leaves by ``os._exit``, with no module teardown.  What a closed pipe
cannot take is dropped there: a reader that has gone takes nothing more.
"""

from __future__ import annotations

import atexit
import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, NoReturn, Sequence

from . import bijections, counting, enumeration, laurent
from .model import _INT, deal_to_text, denom_set_text

if TYPE_CHECKING:
    import argparse

MISMATCH = 1
USAGE_ERROR = 2
CLOSED_STDOUT = 141


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _mismatch(message: str) -> int:
    print(message, file=sys.stderr)
    return MISMATCH


def _check_enumeration(n: int, expected_total: int) -> int:
    """Cross-check the brute-force totals and histograms against closed forms."""
    by_size, by_red = enumeration._histograms(n, False)
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
    walks = zip(
        laurent.constant_terms(max_n), counting.lhs_terms(max_n), counting.rhs_terms(max_n)
    )
    for n, (ct, lhs, rhs) in enumerate(walks):
        if not lhs == rhs == ct:
            return _mismatch(f"MISMATCH n={n} lhs={lhs} rhs={rhs} ct={ct}")
        if n <= enumeration.EXHAUSTIVE_GUARD:
            status = _check_enumeration(n, lhs)
            if status:
                return status
        print(f"n={n} lhs=rhs=ct={lhs} OK")
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    """Histogram the enumerated deals by one statistic."""
    statistic = args.by.replace("-", "_")
    buckets = enumeration.histogram(args.n, statistic, allow_large=args.allow_large)
    sep = "," if args.format == "csv" else " "
    if args.format == "csv":
        print("k,count")
    for k, count in sorted(buckets.items()):
        print(f"{k}{sep}{count}")
    if args.format == "text":
        print(f"total {sum(buckets.values())}")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    """Stream deals in canonical order, optionally restricted.

    The oracle's join groups are formed, and the arguments checked, before
    anything is written, so a usage error leaves stdout empty.  The text
    form has ``enumeration`` count their deals for ``total=`` first.  Each
    head's lines go out in one write.  No CSV field holds a comma, quote or
    newline, so plain joins write what a CSV writer would.
    """
    denoms = None if args.red_denoms is None else _parse_denoms(args.red_denoms)
    groups = enumeration._join_groups(
        args.n, args.allow_large, full_deck=args.full, red_denoms=denoms
    )
    write = sys.stdout.write
    if args.format == "csv":
        write("s,red,green,blue\n")
    else:
        total = enumeration._deal_total(groups)
        write(f"n={args.n} total={total}\n")
    for block in enumeration._lines(groups, args.format):
        write(block)
    return 0


def _parse_denoms(text: str) -> frozenset[int]:
    """Parse a comma-separated list of distinct denominations; the empty string means none.

    Each denomination is written as ``str`` writes an int: no sign, space,
    underscore or leading zero.
    """
    tokens = text.split(",") if text else []
    if not all(re.fullmatch(_INT, tok) for tok in tokens):
        raise ValueError(f"malformed denomination list: {text!r}")
    denoms = list(map(int, tokens))
    if len(set(denoms)) != len(denoms):
        raise ValueError(f"repeated denomination in --red-denoms: {text!r}")
    return frozenset(denoms)


def _audit(
    n: int,
    kind: type,
    params: Iterable[int],
    encode: Callable[[int, int], int],
    decode: Callable[[int, int], int],
    enumerated: list[int],
    expected: int,
) -> str | None:
    """Check one bijection against the oracle's deals; return what failed, else None.

    Parameters and deals are masks (see ``bijections``).  Each parameter is
    encoded once into a key -> parameter table, which must match the deals
    and the closed form ``expected``.  One walk over the deals then decodes
    each and encodes it again, so a drifting encoder fails.  A ``kind``
    parameter set or a ``Deal`` is built only to name a failure.
    """
    table: dict[int, int] = {}
    for p in params:
        key = encode(n, p)
        if key in table:
            first, second = (bijections._params(kind, n, q).to_text() for q in (table[key], p))
            return f"encode collision: {first} and {second}"
        table[key] = p
    if not len(table) == len(enumerated) == expected or table.keys() != set(enumerated):
        return f"params={len(table)} enumerated={len(enumerated)} expected={expected}"
    for key in enumerated:
        p = decode(n, key)
        if p != table[key]:
            text = bijections._params(kind, n, table[key]).to_text()
            return f"decode(encode) roundtrip at {text}"
        if encode(n, p) != key:
            deal = enumeration._deal(n, key)
            return f"encode(decode) roundtrip at {deal_to_text(deal)}"
    return None


def _audit_full_deck(n: int, allow_large: bool) -> int:
    # the oracle runs first, so the guard fires before any parameter is built
    enumerated = enumeration._keys(n, allow_large, full_deck=True)
    print(f"audit full-deck n={n}")
    params = bijections._full_deck_masks(n)
    codec = bijections._encode_full_deck, bijections._decode_full_deck
    expected = counting.franel(n)
    failure = _audit(n, bijections.FullDeckParams, params, *codec, enumerated, expected)
    if failure:
        return _mismatch(f"FAIL {failure}")
    size = len(enumerated)
    print(f"params={size} image={size} enumerated={size} expected={size}")
    print("roundtrips=OK")
    print("PASS")
    return 0


def _audit_red_set(n: int, allow_large: bool) -> int:
    codec = bijections._encode_red_set, bijections._decode_red_set
    total = 0
    for denoms in enumeration.subsets_lex(tuple(range(1, n + 1))):
        enumerated = enumeration._keys(n, allow_large, red_denoms=denoms)
        # the first set, (), checks the arguments, so a usage error leaves stdout empty
        if not denoms:
            print(f"audit red-set n={n}")
        label = f"D={denom_set_text(denoms)}"
        params = bijections._red_set_masks(n, denoms)
        expected = counting.red_set_count(n, len(denoms))
        failure = _audit(n, bijections.RedSetParams, params, *codec, enumerated, expected)
        if failure:
            return _mismatch(f"FAIL {label}: {failure}")
        size = len(enumerated)
        print(f"{label} params={size} image={size} enumerated={size} roundtrips=OK")
        total += size
    print(f"total={total}")
    print("PASS")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Exhaustively audit one of the two bijections at a given n.

    Both audits go through ``_audit``, which compares the bijection's mask
    codec with the oracle's ``_keys``; a parameter set or a ``Deal`` is
    built only to name a failing one.
    """
    if args.which == "full-deck":
        return _audit_full_deck(args.n, args.allow_large)
    return _audit_red_set(args.n, args.allow_large)


def cmd_ct(args: argparse.Namespace) -> int:
    """Print the constant term of base**n, or the whole power with --poly.

    The power goes out one total degree a write, as the renderer forms it.
    """
    if args.poly:
        write = sys.stdout.write
        for chunk in laurent.base_power_text(args.n):
            write(chunk)
        write("\n")
    else:
        print(laurent.sequence_term(args.n))
    return 0


# Each entry maps max_n to the terms a(0), ..., a(max_n).
_SEQUENCES = {
    "main": counting.lhs_terms,
    "franel": counting._franel_terms,
    "prefix-sum": counting._red_prefix_terms,
}


def cmd_bfile(args: argparse.Namespace) -> int:
    """Emit a sequence as b-file lines ``n a(n)`` starting at n=0.

    Terms pass the int -> str digit limit (4300 digits by default, from
    ``--seq main --max-n 4506``), so it is lifted while the lines are
    written and restored afterwards.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        for n, term in enumerate(_SEQUENCES[args.seq](args.max_n)):
            print(f"{n} {term}")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    """Print every deal grouped by denomination set, largest sets first.

    Hands are rendered from the oracle's join groups, a head and a tail
    part at a time.  Every row is held, since all of them size the columns.
    """
    groups = enumeration._join_groups(args.n, args.allow_large)
    header = ("S", "#", "avoid red", "avoid green", "avoid blue")
    rows: list[tuple[str, ...]] = []
    for subset, join in sorted(groups, key=lambda group: (-len(group[0]), group[0])):
        label = denom_set_text(subset)
        for heads, tails in enumeration._hand_parts(subset, join, ","):
            for tail in tails:
                hands = (f"[{head}{part}]" for head, part in zip(heads, tail))
                rows.append((label, str(len(rows) + 1), *hands))
                label = ""
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(5)]
    print(f"n={args.n} total={len(rows)}")
    for row in (header, *rows):
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return 0


def _switch(text: str) -> dict:
    """A store_true option with its help text."""
    return {"action": "store_true", "default": False, "help": text}


_ALLOW_LARGE = _switch("override the exhaustive guard")
_N = {"type": int, "required": True}

# Each subcommand's help, handler, options and exclusive flags; each option
# maps its flag to the keywords argparse's add_argument takes for it.
_COMMANDS = {
    "verify": (
        "check that all three counting routes agree",
        cmd_verify,
        {"--max-n": {"type": int, "default": 20, "help": "largest n to verify (default 20)"}},
        (),
    ),
    "count": (
        "histogram enumerated deals by a statistic",
        cmd_count,
        {
            "--n": _N,
            "--by": {
                "choices": tuple(name.replace("_", "-") for name in enumeration.STATISTICS),
                "default": "s-size",
            },
            "--format": {"choices": ("text", "csv", "bfile"), "default": "text"},
            "--allow-large": _ALLOW_LARGE,
        },
        (),
    ),
    "enumerate": (
        "stream all deals in canonical order",
        cmd_enumerate,
        {
            "--n": _N,
            "--full": _switch("only deals using every denomination"),
            "--red-denoms": {
                "metavar": "LIST",
                "help": "only deals whose red hand shows exactly these denominations, "
                "e.g. 1,3 ('' for none)",
            },
            "--format": {"choices": ("text", "csv"), "default": "text"},
            "--allow-large": _ALLOW_LARGE,
        },
        ("--full", "--red-denoms"),
    ),
    "audit": (
        "exhaustively audit an encode/decode bijection",
        cmd_audit,
        {
            "--n": _N,
            "--which": {"choices": ("full-deck", "red-set"), "required": True},
            "--allow-large": _ALLOW_LARGE,
        },
        (),
    ),
    "ct": (
        "constant term of the identity's base polynomial power",
        cmd_ct,
        {"--n": _N, "--poly": _switch("print the full polynomial instead")},
        (),
    ),
    "bfile": (
        "emit a sequence in b-file format (n a(n) per line)",
        cmd_bfile,
        {
            "--seq": {"choices": tuple(_SEQUENCES), "required": True},
            "--max-n": {"type": int, "default": 20, "help": "largest index to emit (default 20)"},
        },
        (),
    ),
    "table": (
        "print all deals grouped by denomination set",
        cmd_table,
        {"--n": _N, "--allow-large": _ALLOW_LARGE},
        (),
    ),
}


def _value(option: dict, text: str | None) -> object:
    """An option's value from the token after its flag, or None if argparse must judge it."""
    if text is None:
        return None
    if "choices" in option:
        return text if text in option["choices"] else None
    if option.get("type") is int:
        digits = text[1:] if text.startswith("-") else text
        if not (digits.isascii() and digits.isdigit()):
            return None
        try:
            return int(text)
        except ValueError:  # past the int digit limit
            return None
    return None if text.startswith("-") else text


def _parse(argv: Sequence[str] | None) -> SimpleNamespace | None:
    """The namespace argparse would return for a well-formed command line, else None.

    ``argv=None`` reads ``sys.argv[1:]``, as argparse does.
    """
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options, exclusive = _COMMANDS[argv[0]]
    given: dict[str, object] = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        option = options.get(flag)
        if option is None or flag in given:
            return None
        switch = option.get("action") == "store_true"
        value = True if switch else _value(option, next(tokens, None))
        if value is None:
            return None
        given[flag] = value
    missing = any(option.get("required") and flag not in given for flag, option in options.items())
    if missing or len(given.keys() & set(exclusive)) > 1:
        return None
    values = {
        flag[2:].replace("-", "_"): given.get(flag, option.get("default"))
        for flag, option in options.items()
    }
    return SimpleNamespace(command=argv[0], **values, func=func)


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="trideal",
        description=(
            "Exact counting of color-avoiding three-hand card deals: brute-force "
            "enumeration, closed-form binomial sums, and Laurent-polynomial "
            "constant terms, all cross-checked."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, options, exclusive) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        group = p.add_mutually_exclusive_group() if exclusive else p
        for flag, option in options.items():
            (group if flag in exclusive else p).add_argument(flag, **option)
        p.set_defaults(func=func)
    return parser


def _closed_pipe(text: str) -> NoReturn:
    raise BrokenPipeError


def main(argv: Sequence[str] | None = None) -> int:
    if sys.stdout is None:
        # stdout was closed at start: every write, --help's too, meets a closed pipe
        sys.stdout = SimpleNamespace(write=_closed_pipe, flush=lambda: None)
    args = _parse(argv) or build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except enumeration.GuardError as exc:
        hint = str(exc).split(";")[0]
        return _usage(f"{hint}; rerun with --allow-large")
    except ValueError as exc:
        return _usage(str(exc))
    except BrokenPipeError:
        return CLOSED_STDOUT


def run() -> NoReturn:
    """End the process with ``main``'s status, skipping the interpreter's teardown.

    An int ``SystemExit`` from argparse gives the status too.  The atexit
    handlers run before the flush, as at a normal exit, so what they write
    is flushed; a flush into a closed pipe is dropped and the status stands.
    ``os._exit`` then ends the process without freeing every module's
    objects one by one.  Any other ``SystemExit`` or exception, a full
    disk's included, leaves through the normal exit, which reports it.
    """
    try:
        status = main()
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        status = exc.code
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the descriptor was closed at start
            try:
                stream.flush()
            except BrokenPipeError:
                pass
    os._exit(status)


if __name__ == "__main__":
    run()
