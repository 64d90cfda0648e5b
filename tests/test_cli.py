"""The command-line front end: formats, pipelines, exit codes."""

import contextlib
import io
import subprocess
import sys
from collections import Counter
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodromy.classical_groups import _pair_form
from monodromy.cli import emit_tuple, main, parse_tuple, TupleFileError
from monodromy.convolution import PuncturedTuple
from monodromy.families import hyperelliptic_system, twist_family_system
from monodromy.ff_linalg import Matrix, invariant_forms
from monodromy.group_engine import GeneratedGroup
from pairing_reference import pair_form_full_scan
import form_spaces


def run_cli(argv, stdin_text=""):
    out = io.StringIO()
    rc = main(argv, stdin=io.StringIO(stdin_text), stdout=out)
    return rc, out.getvalue()


SAMPLE = """\
MODULUS 5 RANK 2 PUNCTURES 2
AT 0
1 3
0 1
AT 1
1 0
2 1
"""


class TestTupleFormat:
    def test_parse_sample(self):
        t = parse_tuple(SAMPLE)
        assert t.p == 5 and t.rank == 2
        assert t.punctures == (0, 1)
        assert t.matrix_at(0) == Matrix([[1, 3], [0, 1]], 5)

    def test_round_trip_bit_exact(self):
        t = parse_tuple(SAMPLE)
        assert emit_tuple(t) == SAMPLE
        assert parse_tuple(emit_tuple(t)) == t

    def test_round_trip_with_symbols(self):
        t = PuncturedTuple([0, "s1"], [Matrix([[2]], 3), Matrix([[2]], 3)])
        assert parse_tuple(emit_tuple(t)) == t

    def test_comments_and_blanks_skipped(self):
        text = "# a comment\n\n" + SAMPLE + "\n# trailing\n"
        assert parse_tuple(text) == parse_tuple(SAMPLE)

    def test_rejects_residue_out_of_range(self):
        bad = SAMPLE.replace("1 3", "1 5")
        with pytest.raises(TupleFileError):
            parse_tuple(bad)

    def test_rejects_non_prime_modulus(self):
        with pytest.raises(TupleFileError):
            parse_tuple(SAMPLE.replace("MODULUS 5", "MODULUS 9"))

    def test_rejects_bad_header(self):
        with pytest.raises(TupleFileError):
            parse_tuple("MODULUS 5 RANK 2\n")

    def test_rejects_wrong_matrix_shape(self):
        with pytest.raises(TupleFileError):
            parse_tuple(SAMPLE.replace("1 3", "1 3 2"))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(TupleFileError):
            parse_tuple(SAMPLE.replace("AT 1", "AT 0"))

    def test_rejects_a_text_of_comments_only(self):
        with pytest.raises(TupleFileError, match="empty tuple file"):
            parse_tuple("# a comment\n\n   \n# another\n")


class TestSubcommands:
    def test_hyperelliptic_emits_tuple(self):
        rc, out = run_cli(["hyperelliptic", "--genus", "1", "--prime", "3"])
        assert rc == 0
        t = parse_tuple(out)
        assert t.rank == 2 and t.p == 3

    def test_hyperelliptic_then_certify_full_sp(self):
        rc, tuple_text = run_cli(["hyperelliptic", "--genus", "1", "--prime", "3"])
        assert rc == 0
        rc, report = run_cli(["certify", "--r", "1"], tuple_text)
        assert rc == 0
        assert "CONCLUSION: FullSp" in report

    def test_twist_family_cross_validate(self):
        rc, tuple_text = run_cli(["twist-family", "--roots", "2,3", "--prime", "5"])
        assert rc == 0
        t = parse_tuple(tuple_text)
        assert t.rank == 5
        rc, report = run_cli(["cross-validate", "--r", "2"], tuple_text)
        assert rc == 0
        assert "DIM: 5" in report
        assert "AGREEMENT: yes" in report
        assert "EXACT_CLASS:" in report

    def test_certify_identity_tuple_not_certified(self):
        text = "MODULUS 5 RANK 2 PUNCTURES 2\nAT 0\n1 0\n0 1\nAT 1\n1 0\n0 1\n"
        rc, report = run_cli(["certify", "--r", "1"], text)
        assert rc == 1
        assert "CONCLUSION: NotCertified" in report

    @pytest.mark.parametrize("p,n", [(5, 3), (7, 4)])
    def test_certify_identity_tuple_of_rank_three_and_more(self, p, n):
        # every basis form is elementary, so no B_i + b B_j is non-degenerate;
        # the greedy sum of symmetric parts is, and the trivial group is
        # reducible
        rows = "".join(" ".join(str(int(i == j)) for j in range(n)) + "\n" for i in range(n))
        text = f"MODULUS {p} RANK {n} PUNCTURES 1\nAT 0\n" + rows
        for command in (["certify", "--r", "1"], ["cross-validate", "--r", "1"]):
            rc, report = run_cli(command, text)
            assert rc == 1
            assert f"PARITY: symmetric\nDIM: {n}\n" in report
            assert "CONCLUSION: NotCertified(irreducibility)" in report

    def test_certify_identity_tuple_at_large_prime(self):
        # a 4-dimensional space of invariant forms, searched once per pair
        text = "MODULUS 1009 RANK 2 PUNCTURES 1\nAT 0\n1 0\n0 1\n"
        rc, report = run_cli(["certify", "--r", "1"], text)
        assert rc == 1
        assert "PARITY: symmetric" in report
        assert "CONCLUSION: NotCertified(irreducibility)" in report

    def test_certify_identity_tuple_of_rank_three_at_a_larger_prime(self, monkeypatch):
        # 45 pairs of elementary forms, none non-degenerate: each pair tries
        # b = 0..3 and the b solved from each parity condition, not all of F_p
        calls = []
        det = Matrix.det
        monkeypatch.setattr(Matrix, "det", lambda m: calls.append(1) or det(m))
        text = "MODULUS 10007 RANK 3 PUNCTURES 1\nAT 0\n1 0 0\n0 1 0\n0 0 1\n"
        rc, report = run_cli(["certify", "--r", "1"], text)
        assert rc == 1
        assert "PARITY: symmetric\nDIM: 3\n" in report
        assert "CONCLUSION: NotCertified(irreducibility)" in report
        assert len(calls) < 1000

    def test_certify_at_a_large_r(self):
        # (2001)! has 5,739 digits, past Python's default limit on int-to-str
        rc, tuple_text = run_cli(["twist-family", "--roots", "2", "--prime", "7"])
        rc, report = run_cli(["certify", "--r", "2000"], tuple_text)
        assert rc == 1
        assert "CHECK order_or_pseudoreflection: FAIL (r+1)!=(2001)! offenders=2:order=7\n" in report
        assert "CONCLUSION: NotCertified(order_or_pseudoreflection)" in report

    def test_classify(self):
        rc, tuple_text = run_cli(["hyperelliptic", "--genus", "1", "--prime", "5"])
        rc, out = run_cli(["classify"], tuple_text)
        assert rc == 0
        assert "PAIRING: alternating" in out
        assert "AT 0 CLASS Transvection DROP 1 JORDAN (1,2)" in out
        assert "AT infinity" in out

    @pytest.mark.parametrize(
        "command",
        [["classify"], ["order"], ["certify", "--r", "2"], ["cross-validate", "--r", "2"]],
    )
    def test_invariant_forms_solved_once(self, command, monkeypatch):
        import monodromy.cli as cli
        import monodromy.families as families

        rc, tuple_text = run_cli(["twist-family", "--roots", "2,3", "--prime", "5"])
        solve = families.invariant_forms
        calls = []

        def counted(gens):
            calls.append(len(gens))
            return solve(gens)

        monkeypatch.setattr(cli, "invariant_forms", counted)
        monkeypatch.setattr(families, "invariant_forms", counted)
        rc, out = run_cli(command, tuple_text)
        assert rc == 0 and ("symmetric" in out or out == "ORDER: 9360000\n")
        assert len(calls) == 1

    def test_order(self):
        rc, tuple_text = run_cli(["hyperelliptic", "--genus", "1", "--prime", "3"])
        rc, out = run_cli(["order"], tuple_text)
        assert rc == 0
        assert "ORDER: 24" in out

    def test_convolve_pipeline(self):
        kummer = "MODULUS 5 RANK 1 PUNCTURES 2\nAT 0\n4\nAT 1\n4\n"
        rc, out = run_cli(["convolve", "--lambda", "-1"], kummer)
        assert rc == 0
        t = parse_tuple(out)
        assert t.rank == 2

    def test_predict(self):
        kummer = "MODULUS 5 RANK 1 PUNCTURES 2\nAT 0\n4\nAT 1\n4\n"
        rc, out = run_cli(["predict", "--lambda", "-1"], kummer)
        assert rc == 0
        assert "PREDICTED_RANK: 2" in out

    def test_input_error_exit_code(self):
        rc, _ = run_cli(["order"], "MODULUS 9 RANK 1 PUNCTURES 1\nAT 0\n1\n")
        assert rc == 2

    def test_precondition_failure_exit_code(self):
        # rank-1 tuple with one nontrivial puncture cannot be convolved
        text = "MODULUS 5 RANK 1 PUNCTURES 2\nAT 0\n4\nAT 1\n1\n"
        rc, _ = run_cli(["convolve", "--lambda", "-1"], text)
        assert rc == 2

    def test_file_argument(self, tmp_path):
        path = tmp_path / "tuple.txt"
        path.write_text(SAMPLE)
        rc, out = run_cli(["order", str(path)])
        assert rc == 0
        assert out.startswith("ORDER:")


class TestInputErrors:
    """Each rejected input exits 2 with one ``error:`` line; other errors are not caught."""

    def test_undecodable_tuple_file(self, tmp_path, capsys):
        path = tmp_path / "tuple.bin"
        path.write_bytes(b"MODULUS 5 RANK 1 PUNCTURES 1\nAT 0\n\xff\n")
        assert run_cli(["classify", str(path)]) == (2, "")
        assert capsys.readouterr().err.startswith("error: tuple file is not UTF-8 text")

    def test_undecodable_stdin(self, capsys):
        stdin = io.TextIOWrapper(io.BytesIO(b"MODULUS 5 \xc3( RANK 1"), encoding="utf-8")
        assert main(["order"], stdin=stdin, stdout=io.StringIO()) == 2
        assert capsys.readouterr().err.startswith("error: tuple file is not UTF-8 text")

    @pytest.mark.parametrize("token", ["x", "1.5"])
    def test_exempt_index_that_is_no_integer(self, token, capsys):
        text = emit_tuple(hyperelliptic_system(1, 5).tuple)
        assert run_cli(["certify", "--r", "1", "--s0", f"0,{token}"], text) == (2, "")
        assert capsys.readouterr().err == f"error: --s0: {token!r} is not an integer index\n"

    def test_a_bare_value_error_escapes(self, monkeypatch):
        import monodromy.cli as cli

        def broken(gens):
            raise ValueError("not an input error")

        monkeypatch.setattr(cli, "invariant_forms", broken)
        with pytest.raises(ValueError, match="not an input error"):
            run_cli(["classify"], SAMPLE)


def _record_groups(monkeypatch) -> list:
    """Make the groups ``order`` builds inspectable after a run.

    With a lone invariant pairing the chain is built by the derived
    containment test in ``classical_groups``, otherwise by the CLI itself.
    """
    import monodromy.classical_groups as classical
    import monodromy.cli as cli

    groups = []

    class Recorded(GeneratedGroup):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            groups.append(self)

    monkeypatch.setattr(cli, "GeneratedGroup", Recorded)
    monkeypatch.setattr(classical, "GeneratedGroup", Recorded)
    return groups


class TestOrderBound:
    """``order`` with a lone invariant pairing: a full witness orbit, or a chain stopped at its bound."""

    @pytest.mark.parametrize(
        "argv,expected",
        [
            # |Sp(6,5)|, |Sp(8,3)|, |O(5,5)|/2 and |O+(4,7)|/2, as printed by
            # full builds; a witness orbit gives each with no chain
            (["hyperelliptic", "--genus", "3", "--prime", "5"], "ORDER: 457002000000000\n"),
            (["hyperelliptic", "--genus", "4", "--prime", "3"], "ORDER: 131569513308979200\n"),
            (["twist-family", "--roots", "2,3", "--prime", "5"], "ORDER: 9360000\n"),
            (["twist-family", "--roots", "2", "--prime", "7"], "ORDER: 112896\n"),
        ],
    )
    def test_order_is_byte_identical(self, argv, expected, monkeypatch):
        _, tuple_text = run_cli(argv)
        groups = _record_groups(monkeypatch)
        rc, out = run_cli(["order"], tuple_text)
        assert rc == 0 and out == expected
        assert groups == []
        if argv[1:3] == ["--roots", "2"]:  # O(4,7): the full build is cheap
            assert out == f"ORDER: {GeneratedGroup(parse_tuple(tuple_text).matrices).order()}\n"

    def test_twist_order_matches_the_full_build(self):
        _, tuple_text = run_cli(["twist-family", "--roots", "2,3", "--prime", "5"])
        full = GeneratedGroup(parse_tuple(tuple_text).matrices).order()
        assert run_cli(["order"], tuple_text) == (0, f"ORDER: {full}\n")

    @pytest.mark.parametrize(
        "text,forms",
        [
            # a generic GL(3, 5) tuple: no invariant form
            ("MODULUS 5 RANK 3 PUNCTURES 2\nAT 0\n1 2 0\n0 1 3\n1 0 1\n"
             "AT 1\n2 0 1\n1 1 0\n0 3 2\n", 0),
            # the identity tuple: every form is invariant
            ("MODULUS 5 RANK 2 PUNCTURES 2\nAT 0\n1 0\n0 1\nAT 1\n1 0\n0 1\n", 4),
        ],
    )
    def test_order_without_a_lone_form_builds_in_full(self, text, forms, monkeypatch):
        # no pairing bound: the chain stops at |SL(3,5)| |<det 2>| = 372000 * 4,
        # which the generic tuple reaches, with the orbits of the full build;
        # the identity tuple has an empty chain, which computes no bound
        t = parse_tuple(text)
        assert len(invariant_forms(t.matrices)) == forms
        full = GeneratedGroup(t.matrices, bound=2 * 372000 * 4)
        assert not full.stopped
        groups = _record_groups(monkeypatch)
        assert run_cli(["order"], text) == (0, f"ORDER: {full.order()}\n")
        chain = groups[0]
        assert [(lvl.col, len(lvl.trans)) for lvl in chain.levels] == [
            (lvl.col, len(lvl.trans)) for lvl in full.levels
        ]
        if forms == 0:
            assert chain.bound == chain.order() == 372000 * 4 and chain.stopped
        else:
            assert chain.levels == [] and chain.bound is None and not chain.stopped

    @pytest.mark.parametrize("shear,expected", [(False, (0, "ORDER: 1\n")), (True, (2, ""))])
    def test_no_form_system_without_a_chain(self, shear, expected, monkeypatch):
        # at rank 40 over F_3 vector codes overflow int64, so a chain is
        # refused; a tuple of identities needs none.  Neither solves the
        # 1600-unknown form system.
        import monodromy.cli as cli

        calls = []

        def counted(gens):
            calls.append(len(gens))
            return []

        monkeypatch.setattr(cli, "invariant_forms", counted)
        rows = [["0"] * 40 for _ in range(40)]
        for i in range(40):
            rows[i][i] = "1"
        rows[0][1] = "1" if shear else "0"
        text = "MODULUS 3 RANK 40 PUNCTURES 1\nAT 0\n" + "".join(" ".join(r) + "\n" for r in rows)
        assert run_cli(["order"], text) == expected
        assert calls == []

    def test_family_check_failure_exits_2(self, monkeypatch, capsys):
        import monodromy.families as families

        # a convolution that keeps the input rank fails the rank check
        monkeypatch.setattr(families, "middle_convolve", lambda t, lam: t)
        rc, out = run_cli(["hyperelliptic", "--genus", "2", "--prime", "5"])
        assert rc == 2 and out == ""
        assert capsys.readouterr().err == "error: convolution rank disagrees with 2g\n"


# the only invariant form of this tuple is the degenerate E_33
DEGENERATE_LINE = (
    "MODULUS 5 RANK 3 PUNCTURES 2\nAT 0\n1 4 0\n0 2 0\n0 0 1\nAT 1\n0 3 0\n3 3 0\n0 0 1\n"
)


class TestDegenerateLine:
    """A lone degenerate invariant form is no pairing: no class, no form bound, no certificate."""

    def test_the_line_is_e33(self):
        e33 = Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]], 5)
        assert invariant_forms(parse_tuple(DEGENERATE_LINE).matrices) == [e33]

    def test_classify_reports_no_pairing(self):
        assert run_cli(["classify"], DEGENERATE_LINE) == (
            0,
            "MODULUS: 5\nRANK: 3\nPAIRING: none (invariant-form space has dimension 1)\n"
            "AT 0 CLASS n/a JORDAN (1,1)(1,1)(2,1)\nAT 1 CLASS n/a JORDAN (1,1)(4,2)\n"
            "AT infinity CLASS n/a JORDAN (1,1)(1,1)(3,1)\n",
        )

    def test_order_builds_without_a_bound(self, monkeypatch):
        # without a pairing bound the chain takes |SL(3,5)| |<1, 2>| = 372000 * 4,
        # which a group of order 480 never reaches
        groups = _record_groups(monkeypatch)
        assert run_cli(["order"], DEGENERATE_LINE) == (0, "ORDER: 480\n")
        assert groups[0].bound == 372000 * 4 and not groups[0].stopped

    @pytest.mark.parametrize("command", ["certify", "cross-validate"])
    def test_certificates_exit_2(self, command, capsys):
        assert run_cli([command, "--r", "1"], DEGENERATE_LINE) == (2, "")
        err = capsys.readouterr().err
        assert err == "error: no non-degenerate invariant pairing of definite parity\n"


class TestDeterminism:
    def test_reports_byte_identical_across_runs(self):
        _, tuple_text = run_cli(["twist-family", "--roots", "2", "--prime", "5"])
        _, first = run_cli(["--seed", "0", "cross-validate", "--r", "2"], tuple_text)
        _, second = run_cli(["--seed", "0", "cross-validate", "--r", "2"], tuple_text)
        assert first == second

    def test_seed_is_ignored(self):
        _, tuple_text = run_cli(["twist-family", "--roots", "2,3,4", "--prime", "1000003"])
        first, second = (run_cli(["--seed", seed, "certify", "--r", "2"], tuple_text) for seed in ("0", "7"))
        assert first == second
        assert first[0] == 0 and "CHECK irreducibility: PASS method=drop-one\n" in first[1]

    def test_undecided_irreducibility_exits_1(self):
        _, gens = form_spaces.without_drop_one()
        rc, out = run_cli(["certify", "--r", "8"], emit_tuple(PuncturedTuple([0, 1], gens)))
        assert rc == 1
        assert "CHECK irreducibility: FAIL undecided: F_3^8 has 3280 lines" in out
        assert out.endswith("CONCLUSION: NotCertified(irreducibility)\n")

    def test_family_emission_deterministic(self):
        a = run_cli(["hyperelliptic", "--genus", "2", "--prime", "3"])
        b = run_cli(["hyperelliptic", "--genus", "2", "--prime", "3"])
        assert a == b


# header fields, labels and entries that the format rejects or reads oddly
_JUNK = st.sampled_from(["", "-", "x", "1.5", "\u00b2", "--5", "+3", "AT", "RANK", "9" * 40])
_COMMANDS = st.sampled_from(
    [
        ["classify"],
        ["order"],
        ["predict", "--lambda", "-1"],
        ["convolve", "--lambda", "-1"],
        ["convolve", "--lambda", "2"],
        ["certify", "--r", "1"],
        ["certify", "--r", "2", "--s0", "0"],
        ["cross-validate", "--r", "2"],
    ]
)


@st.composite
def _tuple_texts(draw) -> str:
    """Tuple files near the format: random header fields, ranks, residues and
    labels, junk tokens, comments, and bodies cut short or run long.

    Each text carries at most a few faults, so many of them parse and reach
    the subcommands.
    """
    faults = draw(
        st.lists(
            st.sampled_from(["field", "modulus", "size", "label", "entry", "row", "cut"]),
            max_size=2,
        )
    )
    if "modulus" in faults:
        p = draw(st.sampled_from([2, 9, 1, 0, -7, 3037000493, 10**18 + 3]))
    else:
        p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, 3))
    if "size" in faults:
        n, r = draw(st.sampled_from([(0, r), (n, 0), (-1, r), (n, -1)]))
    fields = ["MODULUS", str(p), "RANK", str(n), "PUNCTURES", str(r)]
    if "field" in faults:
        fields[draw(st.integers(0, 5))] = draw(_JUNK)
    lines = [" ".join(fields)]
    identity = draw(st.booleans())
    for k in range(max(r, 0)):
        label = str(k)
        if "label" in faults and draw(st.booleans()):
            label = draw(st.one_of(st.integers(-2, 9).map(str), _JUNK, st.just("infinity")))
        lines.append(f"AT {label}")
        for i in range(max(n, 0)):
            if identity:
                row = [str(int(i == j)) for j in range(n)]
            else:
                row = [str(draw(st.integers(0, max(p - 1, 0)))) for _ in range(n)]
            if "entry" in faults and draw(st.booleans()):
                row[-1 if row else 0:] = [draw(st.one_of(_JUNK, st.just(str(p))))]
            if "row" in faults and draw(st.booleans()):
                row = row[:-1] if draw(st.booleans()) else row + ["1"]
            lines.append(" ".join(row))
        if draw(st.integers(0, 9)) == 9:
            lines.append("# a comment")
    if "cut" in faults:
        cut = draw(st.sampled_from([1, 2, -1]))
        lines = lines[:-cut] if cut > 0 else lines + ["1"]
    return "\n".join(lines) + "\n"


_FUZZ_MODULI = (2, 3, 4, 5, 7, 9, 11, 13)


def _fuzz_case(rng: Random) -> tuple[list[str], bytes]:
    """Arguments for one tuple subcommand, and a tuple file with at most one fault.

    The modulus need not be an odd prime and the rank and puncture count
    may be 0.  The fault is a repeated label, a residue outside [0, p), a
    ragged row, or bytes that are not UTF-8.  A tuple's matrices are all
    dense, all diagonal with entries +-1 (so the tuple preserves a
    pairing), or each upper or lower triangular with a nonzero diagonal;
    most are invertible, and many tuples reach the subcommand.
    """
    p = rng.choice(_FUZZ_MODULI)
    n, r = rng.randrange(5), rng.randrange(5)
    fault = rng.choice(["none", "none", "label", "residue", "ragged", "bytes"])
    labels = [str(k) if k < p else f"s{k}" for k in range(r)]
    if fault == "label" and r > 1:
        labels[-1] = labels[0]
    lines = [f"MODULUS {p} RANK {n} PUNCTURES {r}"]
    rows = []
    kind = rng.choice(["triangular", "signs", "dense"])
    for label in labels:
        lines.append(f"AT {label}")
        shape = rng.choice(["upper", "lower"]) if kind == "triangular" else kind
        for i in range(n):
            row = []
            for j in range(n):
                free = {"dense": True, "upper": j > i, "lower": j < i}.get(shape, False)
                if free:
                    row.append(rng.randrange(p))
                elif i != j:
                    row.append(0)
                else:
                    row.append(rng.choice([1, p - 1]) if shape == "signs" else rng.randrange(1, p))
            rows.append(len(lines))
            lines.append(row)
    if rows and fault in ("residue", "ragged"):
        row = lines[rng.choice(rows)]
        if fault == "residue":
            row[rng.randrange(n)] = rng.choice([p, p + 1, -1, 10**20])
        elif rng.random() < 0.5:
            row.pop()
        else:
            row.append(1)
    text = "\n".join(line if isinstance(line, str) else " ".join(map(str, line)) for line in lines)
    data = (text + "\n").encode()
    if fault == "bytes":
        at = rng.randrange(len(data) + 1)
        data = data[:at] + rng.choice([b"\xff", b"\xc3(", b"\x80", b"\xe2\x82"]) + data[at:]
    lam = rng.choice(["-1", "1", "2", "0", str(p)])
    r_flag = rng.choice(["1", "2", "3", "0", "-1", "x"])
    s0 = rng.choice(["", "0", "0,1", "1,", "-1", "9", "x", "1.5", ","])
    command = rng.choice(
        [
            ["classify"],
            ["order"],
            ["convolve", "--lambda", lam],
            ["predict", "--lambda", lam],
            ["certify", "--r", r_flag, "--s0", s0],
            ["cross-validate", "--r", r_flag, "--s0", s0],
        ]
    )
    return ["--limit", "20000"] + command, data


class TestFuzz:
    """Malformed and odd inputs end in a typed error or an exit status, never a traceback."""

    def test_seeded_malformed_inputs_exit_0_1_or_2(self):
        rng = Random(21)
        codes = Counter()
        for _ in range(300):
            argv, data = _fuzz_case(rng)
            stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    rc = main(argv, stdin=stdin, stdout=io.StringIO())
                except SystemExit as exc:  # argparse's usage errors, as for --r x
                    rc = exc.code
            assert rc in (0, 1, 2), (argv, data)
            if rc == 2:
                assert err.getvalue().startswith(("error: ", "usage: ")), (argv, data)
            codes[rc] += 1
        # the cases reach every outcome, not only the parser's errors
        assert set(codes) == {0, 1, 2}, codes

    def test_negative_limit_is_refused_before_the_witness_walk(self, capsys):
        # the witness orbit settles Sp(4,5), so no group is built; the walk
        # checks the limit as a group build does
        _, text = run_cli(["hyperelliptic", "--genus", "2", "--prime", "5"])
        assert run_cli(["--limit", "-1", "cross-validate", "--r", "1"], text) == (2, "")
        assert capsys.readouterr().err == "error: limit must be an integer >= 0, got -1\n"

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(text=_tuple_texts())
    def test_parse_tuple_raises_only_tuple_file_errors(self, text):
        try:
            t = parse_tuple(text)
        except TupleFileError:
            return
        assert parse_tuple(emit_tuple(t)) == t

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(text=_tuple_texts(), command=_COMMANDS, limit=st.sampled_from([10**7, 5]))
    def test_main_exits_0_1_or_2(self, text, command, limit):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                rc, _ = run_cli(["--limit", str(limit)] + command, text)
            except SystemExit as exc:  # argparse's own usage errors
                rc = exc.code
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        command=st.sampled_from(["hyperelliptic", "twist-family"]),
        prime=st.sampled_from(["3", "5", "7", "9", "-5", "x", "1000000000000000003"]),
        arg=st.sampled_from(["1", "2", "0", "-1", "x", "2,3", "0,1", "2,2"]),
    )
    def test_family_commands_exit_0_or_2(self, command, prime, arg):
        flag = "--genus" if command == "hyperelliptic" else "--roots"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                rc, _ = run_cli([command, flag, arg, "--prime", prime])
            except SystemExit as exc:
                rc = exc.code
        assert rc in (0, 2)
        assert "Traceback" not in err.getvalue()

    def test_huge_modulus_is_rejected_before_the_primality_test(self):
        text = "MODULUS 1000000000000000003 RANK 1 PUNCTURES 1\nAT 0\n1\n"
        with pytest.raises(TupleFileError, match="too large"):
            parse_tuple(text)
        with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
            run_cli(["hyperelliptic", "--genus", "1", "--prime", "1000000000000000003"])
        assert exc.value.code == 2

    def test_label_of_digits_int_does_not_read(self):
        # "\u00b2" (superscript two) counts as a digit but is no integer
        with pytest.raises(TupleFileError, match="bad symbolic label"):
            parse_tuple("MODULUS 5 RANK 1 PUNCTURES 1\nAT \u00b2\n2\n")
        assert parse_tuple("MODULUS 5 RANK 1 PUNCTURES 1\nAT --5\n2\n").punctures == ("--5",)


def _random_forms(rng: Random, n: int, p: int, k: int) -> list[Matrix]:
    """k forms: symmetric, alternating, general and rank one, and forms f that
    make the form before them plus c f a given symmetric or alternating S at
    one c in F_p^*, often above n."""
    forms = []
    for _ in range(k):
        x = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        kind = rng.randrange(5)
        if kind == 0:
            f = x + x.T
        elif kind == 1:
            f = x - x.T
        elif kind == 2:
            f = x
        elif kind == 3:
            f = np.outer(x[0], x[:, 0])
        else:
            prev = forms[-1].array if forms else x
            c = rng.randrange(1, p)
            f = (x + rng.choice((1, -1)) * x.T - prev) * pow(c, -1, p)
        forms.append(Matrix(f % p, p))
    return forms


class TestPairForm:
    """``_pair_form`` tries a few b per pair and finds what a scan of F_p finds."""

    @pytest.mark.parametrize("p", [5, 7])
    def test_matches_full_scan_on_identity_tuples(self, p):
        for n in range(1, 5):
            basis = invariant_forms([Matrix.identity(n, p)])
            want = pair_form_full_scan(basis)
            assert _pair_form(basis) == (None if want is None else want[3]), n

    def test_matches_full_scan_on_random_bases(self):
        rng = Random(12)
        found = beyond = 0
        for _ in range(300):
            p = rng.choice([3, 5, 7, 11, 13, 31])
            n = rng.randrange(1, 5)
            basis = _random_forms(rng, n, p, rng.randrange(1, 5))
            want = pair_form_full_scan(basis)
            got = _pair_form(basis)
            if want is None:
                assert got is None
                continue
            assert got == want[3]
            found += 1
            beyond += want[2] > n
        assert found >= 100 and beyond >= 10


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "monodromy.cli", "hyperelliptic", "--genus", "1", "--prime", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("MODULUS 3 RANK 2 PUNCTURES 2")


def test_package_entry_point_matches_the_cli_module():
    tuple_text = run_cli(["hyperelliptic", "--genus", "1", "--prime", "5"])[1]
    outputs = [
        subprocess.run(
            [sys.executable, "-m", module, "order"],
            input=tuple_text,
            capture_output=True,
            text=True,
        )
        for module in ("monodromy", "monodromy.cli")
    ]
    assert [proc.returncode for proc in outputs] == [0, 0]
    assert outputs[0].stdout == outputs[1].stdout == "ORDER: 120\n"
