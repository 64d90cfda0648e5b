"""Command-line front end.

Tuples travel between subcommands as a line-oriented text format so every
pipeline is a shell one-liner:

    MODULUS 5 RANK 2 PUNCTURES 2
    AT 0
    1 3
    0 1
    AT 1
    1 0
    2 1

Labels are decimal residues or bare symbols; the matrix at infinity is
never stored (it is always derived from the product).  Reports are
line-oriented ``KEY: value`` text and are byte-identical across runs with
the same flags; nothing in them is random, and ``--seed`` is accepted and
ignored.  Exit status: 0 on success, 1 on NotCertified or cross-validation
disagreement, 2 on input errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, TextIO

from .certifier import Certificate, CrossReport, Hypotheses, certify, cross_validate
from .classical_groups import (
    FormSpace, classify_element, invariant_pairing, _derived_containment, _witness,
)
from .convolution import (
    INFINITY,
    Label,
    PuncturedTuple,
    middle_convolve,
    predict_rank,
)
from .errors import InvalidInput, MonodromyError, NonSplitSpectrum
from .families import hyperelliptic_system, twist_family_system
from .ff_linalg import Matrix, jordan_type, invariant_forms, _check_integer, _check_modulus, _check_products
from .group_engine import GeneratedGroup, _check_codes

__all__ = ["main", "parse_tuple", "emit_tuple"]


class TupleFileError(MonodromyError):
    """Malformed tuple file."""


def _parse_label(token: str) -> Label:
    if token.lstrip("-").isdigit():
        try:
            return int(token)
        except ValueError:  # digits int() does not read, e.g. superscripts
            pass
    return token


def parse_tuple(text: str) -> PuncturedTuple:
    """Parse the tuple format; comments (#) and blank lines are skipped."""
    lines = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise TupleFileError("empty tuple file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 6 or parts[0] != "MODULUS" or parts[2] != "RANK" or parts[4] != "PUNCTURES":
        raise TupleFileError(f"line {lineno}: bad header {header!r}")
    try:
        p, n, r = int(parts[1]), int(parts[3]), int(parts[5])
    except ValueError:
        raise TupleFileError(f"line {lineno}: non-integer header fields") from None
    if n < 1 or r < 1:
        raise TupleFileError(f"line {lineno}: rank and puncture count must be positive")
    try:
        _check_products(n, _check_modulus(p))
    except InvalidInput as exc:
        raise TupleFileError(f"line {lineno}: {exc}") from None
    body = lines[1:]
    expected = r * (n + 1)
    if len(body) != expected:
        raise TupleFileError(
            f"expected {expected} content lines after the header, found {len(body)}"
        )
    punctures: list[Label] = []
    matrices: list[Matrix] = []
    pos = 0
    for _ in range(r):
        lineno, at_line = body[pos]
        pos += 1
        tokens = at_line.split()
        if len(tokens) != 2 or tokens[0] != "AT":
            raise TupleFileError(f"line {lineno}: expected 'AT <label>', got {at_line!r}")
        label = _parse_label(tokens[1])
        rows = []
        for _ in range(n):
            lineno, row_line = body[pos]
            pos += 1
            entries = row_line.split()
            if len(entries) != n:
                raise TupleFileError(f"line {lineno}: expected {n} entries")
            try:
                row = [int(e) for e in entries]
            except ValueError:
                raise TupleFileError(f"line {lineno}: non-integer entry") from None
            for e in row:
                if not 0 <= e < p:
                    raise TupleFileError(
                        f"line {lineno}: residue {e} outside [0, {p})"
                    )
            rows.append(row)
        punctures.append(label)
        matrices.append(Matrix(rows, p))
    try:
        return PuncturedTuple(punctures, matrices)
    except InvalidInput as exc:
        raise TupleFileError(str(exc)) from None


def emit_tuple(t: PuncturedTuple) -> str:
    out = [f"MODULUS {t.p} RANK {t.rank} PUNCTURES {len(t.punctures)}"]
    for label, m in zip(t.punctures, t.matrices):
        out.append(f"AT {label}")
        for row in m.array:
            out.append(" ".join(str(int(x)) for x in row))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------


def _read_tuple(args, stdin: TextIO) -> PuncturedTuple:
    try:
        if getattr(args, "file", None) and args.file != "-":
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = stdin.read()
    except UnicodeDecodeError as exc:
        raise TupleFileError(f"tuple file is not UTF-8 text: {exc}") from None
    return parse_tuple(text)


def _parse_labels(csv: str) -> list[Label]:
    return [_parse_label(tok.strip()) for tok in csv.split(",") if tok.strip()]


def _prime(token: str) -> int:
    """``--prime``: an integer whose int64 products stay exact; the family tests primality."""
    try:
        p = int(token)
        _check_products(1, p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return p


def _print_certificate(cert: Certificate, space: FormSpace, out: TextIO) -> None:
    print(f"PARITY: {space.parity}", file=out)
    print(f"DIM: {space.dim}", file=out)
    print(f"PRIME: {space.p}", file=out)
    for check in cert.checks:
        status = "PASS" if check.passed else "FAIL"
        detail = f" {check.detail}" if check.detail else ""
        print(f"CHECK {check.name}: {status}{detail}", file=out)
    print(f"CONCLUSION: {cert.conclusion}", file=out)


def _print_cross(report: CrossReport, space: FormSpace, out: TextIO) -> None:
    _print_certificate(report.certificate, space, out)
    print(f"EXACT_ORDER: {report.exact_order}", file=out)
    print(
        f"EXACT_CONTAINS_DERIVED: {'yes' if report.exact_contains_derived else 'no'}",
        file=out,
    )
    if report.exact_class is not None:
        print(f"EXACT_CLASS: {report.exact_class}", file=out)
    print(f"AGREEMENT: {'yes' if report.agreement else 'no'}", file=out)


def _cmd_classify(args, stdin, stdout) -> int:
    t = _read_tuple(args, stdin)
    print(f"MODULUS: {t.p}", file=stdout)
    print(f"RANK: {t.rank}", file=stdout)
    forms = invariant_forms(t.matrices)
    space = invariant_pairing(forms) if len(forms) == 1 else None
    if space is not None:
        print(f"PAIRING: {space.parity}", file=stdout)
    else:
        print(f"PAIRING: none (invariant-form space has dimension {len(forms)})", file=stdout)
    for label in list(t.punctures) + [INFINITY]:
        m = t.matrix_at(label)
        try:
            jordan = str(jordan_type(m))
        except NonSplitSpectrum:
            jordan = "nonsplit"
        if space is not None:
            cls = classify_element(m, space)
            print(
                f"AT {label} CLASS {cls.tag} DROP {cls.drop} JORDAN {jordan}",
                file=stdout,
            )
        else:
            print(f"AT {label} CLASS n/a JORDAN {jordan}", file=stdout)
    return 0


def _cmd_order(args, stdin, stdout) -> int:
    """Print the order of the group the tuple generates.

    A tuple of identities, or one whose vector codes do not fit in 64
    bits, never solves the n^2 x n^2 form system: the first has the empty
    chain, the second is refused first.  With a lone invariant pairing
    the order is that of ``_derived_containment``: a full witness orbit,
    or else a chain that stops at the isometry bound.  A witness is a
    transvection of an alternating space, or a reflection of a symmetric
    space of dimension n >= 5, or n = 3 or 4 at p >= 5 (``_witness``), so
    Sp(2, 3) and O+(4, p) for p >= 5 walk the orbit too.  Without a lone
    pairing the chain stops at its determinant bound.
    """
    t = _read_tuple(args, stdin)
    limit = _check_integer(args.limit, "limit", least=0)
    space = None
    if not all(m.is_identity() for m in t.matrices):
        _check_codes(t.p, t.rank)
        forms = invariant_forms(t.matrices)
        space = invariant_pairing(forms) if len(forms) == 1 else None
    if space is None:
        order = GeneratedGroup(t.matrices, limit).order()
    else:
        witness = _witness(space, t.matrices, [classify_element(g, space) for g in t.matrices])
        order = _derived_containment(t.matrices, space, limit, witness)[2]
    print(f"ORDER: {order}", file=stdout)
    return 0


def _cmd_convolve(args, stdin, stdout) -> int:
    t = _read_tuple(args, stdin)
    out = middle_convolve(t, args.lam)
    stdout.write(emit_tuple(out))
    return 0


def _cmd_predict(args, stdin, stdout) -> int:
    t = _read_tuple(args, stdin)
    data = t.local_data()
    infinity = data.pop(INFINITY)
    rank = predict_rank(list(data.values()), infinity, args.lam)
    print(f"PREDICTED_RANK: {rank}", file=stdout)
    return 0


def _cmd_hyperelliptic(args, stdin, stdout) -> int:
    points = _parse_labels(args.points) if args.points else None
    system = hyperelliptic_system(args.genus, args.prime, points)
    stdout.write(emit_tuple(system.tuple))
    return 0


def _cmd_twist_family(args, stdin, stdout) -> int:
    system = twist_family_system(_parse_labels(args.roots), args.prime)
    stdout.write(emit_tuple(system.tuple))
    return 0


def _hypotheses_from(args, stdin) -> tuple[Hypotheses, FormSpace]:
    t = _read_tuple(args, stdin)
    space = invariant_pairing(invariant_forms(t.matrices))
    if space is None:
        raise TupleFileError("no non-degenerate invariant pairing of definite parity")
    s0 = set()
    for tok in filter(str.strip, args.s0.split(",")):
        try:
            s0.add(int(tok))
        except ValueError:
            raise TupleFileError(f"--s0: {tok.strip()!r} is not an integer index") from None
    return Hypotheses(space, t.matrices, s0, args.r), space


def _cmd_certify(args, stdin, stdout) -> int:
    h, space = _hypotheses_from(args, stdin)
    cert = certify(h)
    _print_certificate(cert, space, stdout)
    return 0 if cert.certified else 1


def _cmd_cross_validate(args, stdin, stdout) -> int:
    h, space = _hypotheses_from(args, stdin)
    report = cross_validate(h, limit=args.limit)
    _print_cross(report, space, stdout)
    return 0 if report.certificate.certified and report.agreement else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monodromy",
        description="middle convolution and big-monodromy certificates over F_p",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="accepted and ignored: no command is randomized"
    )
    parser.add_argument(
        "--limit", type=int, default=10**7, help="orbit storage cap (vectors)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tuple_arg(sp):
        sp.add_argument("file", nargs="?", default="-", help="tuple file ('-' = stdin)")

    sp = sub.add_parser("classify", help="per-puncture classes and Jordan data")
    add_tuple_arg(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("order", help="order of the generated matrix group")
    add_tuple_arg(sp)
    sp.set_defaults(func=_cmd_order)

    sp = sub.add_parser("convolve", help="middle convolution MC_lambda")
    sp.add_argument("--lambda", dest="lam", type=int, required=True)
    add_tuple_arg(sp)
    sp.set_defaults(func=_cmd_convolve)

    sp = sub.add_parser(
        "predict",
        help="convolution rank from local data only (at lambda 1 the plain"
        " formula, not the rank n of MC_1)",
    )
    sp.add_argument("--lambda", dest="lam", type=int, required=True)
    add_tuple_arg(sp)
    sp.set_defaults(func=_cmd_predict)

    sp = sub.add_parser("hyperelliptic", help="hyperelliptic family tuple")
    sp.add_argument("--genus", type=int, required=True)
    sp.add_argument("--prime", type=_prime, required=True)
    sp.add_argument("--points", default=None, help="comma-separated branch points")
    sp.set_defaults(func=_cmd_hyperelliptic)

    sp = sub.add_parser("twist-family", help="quadratic twist family tuple")
    sp.add_argument("--roots", required=True, help="comma-separated twist roots")
    sp.add_argument("--prime", type=_prime, required=True)
    sp.set_defaults(func=_cmd_twist_family)

    sp = sub.add_parser("certify", help="evaluate the big-monodromy criterion")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--s0", default="", help="comma-separated exempt indices")
    add_tuple_arg(sp)
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("cross-validate", help="certificate plus exact computation")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--s0", default="", help="comma-separated exempt indices")
    add_tuple_arg(sp)
    sp.set_defaults(func=_cmd_cross_validate)

    return parser


def main(
    argv: Optional[Sequence[str]] = None,
    stdin: Optional[TextIO] = None,
    stdout: Optional[TextIO] = None,
) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, stdin, stdout)
    except (MonodromyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
