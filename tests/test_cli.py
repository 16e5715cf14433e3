import argparse

import pytest

from invpat.cli import build_parser, main
from invpat.containment import Mode
from invpat.enumeration import FORMULAS


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_count_formula_column(capsys):
    status, out, _ = run(capsys, "count", "--patterns", "321", "--mode", "I",
                         "--to", "8", "--formula")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "exhaustive", "formula", "match"]
    assert lines[-1].split() == ["8", "70", "70", "yes"]
    assert all(line.endswith("yes") for line in lines[1:])


def test_count_formula_with_a_repeated_pattern(capsys):
    # the formula is looked up by the set, so a repeat still finds it
    status, out, err = run(capsys, "count", "--patterns", "321 321", "--mode", "I",
                           "--to", "5", "--formula")
    assert status == 0, err
    assert out == run(capsys, "count", "--patterns", "321", "--mode", "I",
                      "--to", "5", "--formula")[1]
    status, _, err = run(capsys, "count", "--patterns", "321 132", "--mode", "I",
                         "--to", "5", "--formula")
    assert status == 2 and "no closed form" in err


def test_count_empty_patterns(capsys):
    status, out, _ = run(capsys, "count", "--patterns", "", "--mode", "I",
                         "--to", "6")
    assert status == 0
    got = [int(line.split()[-1]) for line in out.strip().splitlines()[1:]]
    assert got == [1, 2, 4, 10, 26, 76]


def test_count_formula_matchings(capsys):
    status, out, _ = run(capsys, "count", "--patterns", "2143", "--mode", "F",
                         "--to", "10", "--formula")
    assert status == 0
    assert out.strip().splitlines()[-1].split() == ["10", "120", "120", "yes"]
    status, _, err = run(capsys, "count", "--patterns", "3412", "--mode", "F",
                         "--to", "6", "--formula")
    assert status == 2 and "no closed form" in err
    status, _, err = run(capsys, "count", "--patterns", "321", "--mode", "F",
                         "--to", "6", "--formula")
    assert status == 2 and "fixed point" in err


@pytest.mark.parametrize("mode, last", [("I", ["10", "9496", "9496", "yes"]),
                                        ("F", ["10", "945", "945", "yes"])],
                         ids=["I", "F"])
def test_count_formula_of_the_empty_set(capsys, mode, last):
    # the empty set's closed form is the involution or matching numbers
    status, out, err = run(capsys, "count", "--patterns", "", "--mode", mode,
                           "--to", "10", "--formula")
    assert status == 0, err
    lines = out.strip().splitlines()
    assert lines[-1].split() == last
    assert all(line.endswith("yes") for line in lines[1:])


def test_count_matchings_needs_an_even_size(capsys):
    status, out, err = run(capsys, "count", "--patterns", "", "--mode", "F", "--to", "1")
    assert status == 2
    assert out == ""
    assert "--to must be at least 2" in err
    status, out, _ = run(capsys, "count", "--patterns", "", "--mode", "F", "--to", "2")
    assert status == 0 and out.strip().splitlines()[-1].split() == ["n=2", "1"]


def test_count_matchings_rows(capsys):
    status, out, _ = run(capsys, "count", "--patterns", "2143", "--mode", "F",
                         "--to", "12", "--format", "rows")
    assert status == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n\tcount"
    assert [r.split("\t") for r in rows[1:]] == \
        [["2", "1"], ["4", "2"], ["6", "6"], ["8", "24"],
         ["10", "120"], ["12", "720"]]


def test_count_formula_rows(capsys, monkeypatch):
    status, out, _ = run(capsys, "count", "--patterns", "2143", "--mode", "F",
                         "--to", "8", "--formula", "--format", "rows")
    assert status == 0
    assert [r.split("\t") for r in out.strip().splitlines()] == \
        [["n", "exhaustive", "formula", "match"], ["2", "1", "1", "yes"],
         ["4", "2", "2", "yes"], ["6", "6", "6", "yes"], ["8", "24", "24", "yes"]]
    # a wrong closed form, asked once per row, prints NO and fails
    asked = []

    def wrong(n):
        asked.append(n)
        return 7

    key = ((2, 1, 4, 3), Mode.F)
    monkeypatch.setitem(FORMULAS, key, ("wrong", wrong))
    status, out, _ = run(capsys, "count", "--patterns", "2143", "--mode", "F",
                         "--to", "4", "--formula", "--format", "rows")
    assert status == 1 and asked == [2, 4]
    assert out.splitlines()[1:] == ["2\t1\t7\tNO", "4\t2\t7\tNO"]


def test_count_refined(capsys):
    status, out, _ = run(capsys, "count", "--patterns", "", "--mode", "I",
                         "--to", "4", "--refine-fixed-points", "--format", "rows")
    assert status == 0
    assert "4\t0\t3" in out and "4\t4\t1" in out


def test_count_refined_text(capsys):
    status, out, _ = run(capsys, "count", "--patterns", "", "--mode", "I",
                         "--to", "3", "--refine-fixed-points")
    assert status == 0
    assert [line.split() for line in out.strip().splitlines()[1:]] == \
        [["n=1", "fixed=1", "1"], ["n=2", "fixed=0", "1"], ["n=2", "fixed=2", "1"],
         ["n=3", "fixed=1", "3"], ["n=3", "fixed=3", "1"]]


@pytest.mark.parametrize("mode, to, rows, text", [
    ("I", "3", ["1\t1\t0", "2\t0\t0", "3\t1\t0"],
     [["n=1", "fixed=1", "0"], ["n=2", "fixed=0", "0"], ["n=3", "fixed=1", "0"]]),
    ("F", "4", ["2\t0\t0", "4\t0\t0"], [["n=2", "fixed=0", "0"], ["n=4", "fixed=0", "0"]]),
])
def test_count_refined_prints_sizes_without_avoiders(capsys, mode, to, rows, text):
    # like the unrefined table, every size gets a row: one 0 at fixed = n mod 2
    pattern = "1" if mode == "I" else "21"
    argv = ["count", "--patterns", pattern, "--mode", mode, "--to", to, "--refine-fixed-points"]
    status, out, _ = run(capsys, *argv, "--format", "rows")
    assert status == 0 and out.splitlines() == ["n\tfixed\tcount"] + rows
    status, out, _ = run(capsys, *argv)
    assert status == 0 and [line.split() for line in out.splitlines()[1:]] == text


def test_count_formula_is_not_refined(capsys):
    # the closed forms are totals, so there is nothing to compare a
    # refined table with
    status, out, err = run(capsys, "count", "--patterns", "321", "--mode", "I",
                           "--to", "5", "--formula", "--refine-fixed-points")
    assert status == 2 and out == ""
    assert "--refine-fixed-points" in err


def test_basis_table_rows(capsys):
    status, out, _ = run(capsys, "basis", "--patterns", "123", "--ambient", "F")
    assert status == 0
    for word in ("214365", "341265", "215634", "351624", "456123"):
        assert word in out
    status, out, _ = run(capsys, "basis", "--patterns", "213", "--ambient", "I")
    assert status == 0
    assert {"213", "42513", "546213"} <= set(out.split())


def test_basis_pattern_file(tmp_path, capsys):
    f = tmp_path / "pats.txt"
    f.write_text("# one pattern per line\n321\n")
    status, out, _ = run(capsys, "basis", "--patterns-file", str(f),
                         "--ambient", "I")
    assert status == 0 and "321" in out


@pytest.mark.parametrize("command, extra", [
    ("count", ["--to", "3"]),
    ("basis", ["--ambient", "I"]),
])
def test_missing_patterns_file_is_a_usage_error(tmp_path, capsys, command, extra):
    missing = tmp_path / "missing.txt"
    status, out, err = run(capsys, command, "--patterns-file", str(missing), *extra)
    assert status == 2 and out == ""
    assert err.startswith("error: ") and "missing.txt" in err


def test_basis_errors(capsys):
    status, _, err = run(capsys, "basis", "--patterns", "", "--ambient", "I")
    assert status == 2 and "at least one pattern" in err
    status, _, err = run(capsys, "basis", "--patterns", "321",
                         "--ambient", "classical")
    assert status == 2
    status, _, err = run(capsys, "count", "--patterns", "231", "--mode", "I",
                         "--to", "4")
    assert status == 2 and "involution" in err


def test_verify_mcgovern(capsys):
    status, out, _ = run(capsys, "verify-mcgovern", "--part", "2", "--to", "10")
    assert status == 0
    assert "equal at all sizes <= 10" in out


def test_verify_mcgovern_exits_1_on_a_counterexample(capsys, monkeypatch):
    # without the two smoothness patterns, a size-6 involution avoids the
    # set in the two-relation order but contains one of its patterns classically
    import invpat.mcgovern as mcgovern

    monkeypatch.setattr(mcgovern, "PI_SMOOTH", mcgovern.PI)
    status, out, _ = run(capsys, "verify-mcgovern", "--part", "1", "--to", "9")
    assert status == 1
    lines = out.splitlines()
    assert lines[-2].startswith("  n=6 ") and lines[-2].endswith(
        " coarse=57        full=55        UNEQUAL counterexample=216543")
    assert lines[-1] == "  => EQUALITY FAILS at size 6"


@pytest.mark.parametrize("part", ["2", "0"])
def test_verify_mcgovern_part2_needs_an_even_size(capsys, part):
    status, out, err = run(capsys, "verify-mcgovern", "--part", part, "--to", "1")
    assert status == 2 and out == ""
    assert "--to must be at least 2" in err


def test_verify_mcgovern_progress(capsys):
    status, out, err = run(capsys, "verify-mcgovern", "--part", "0", "--to", "6",
                           "--progress")
    assert status == 0 and "equal at all sizes <= 6" in out
    lines = err.strip().splitlines()
    assert [line.split()[:3] for line in lines] == \
        [[f"part={part}", f"n={n}", f"members={m}"]
         for part, n, m in ((1, 1, 1), (1, 2, 2), (1, 3, 4), (1, 4, 8), (1, 5, 18),
                            (1, 6, 36), (2, 2, 1), (2, 4, 3), (2, 6, 14))]
    assert all(line.split()[3].startswith("elapsed=") and line.endswith(" members/s")
               for line in lines)


@pytest.mark.parametrize("argv", [
    ["count", "--patterns", "321", "--to", "-3"],
    ["count", "--patterns", "321", "--to", "0"],
    ["identities", "--recurrence", "--to", "-2"],
    ["verify-mcgovern", "--to", "0"],
    ["verify-mcgovern", "--to", "8", "--workers", "2"],
    ["verify-mcgovern", "--to", "8", "--checkpoint", "sweep.txt"],
    ["verify-mcgovern", "--long-run"],
    ["verify-mcgovern", "--to", "8", "--format", "rows"],
])
def test_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == "" and "error" in out.err


@pytest.mark.parametrize("argv", [
    ["count", "--patterns", "", "--mode", "F", "--to", "1"],
    ["count", "--patterns", "321", "--to", "5", "--formula", "--refine-fixed-points"],
    ["count", "--patterns", "3412", "--to", "5", "--formula"],
    ["basis", "--patterns", "", "--ambient", "I"],
    ["basis", "--patterns", "321", "--ambient", "classical"],
    ["verify-mcgovern", "--part", "0", "--to", "1"],
    ["bijection", "--omega", "21", "--labels", "1"],
    ["bijection", "--omega-inv", "UDUD", "--labels", "1,,1"],
    ["identities"],
    # a bad pattern list fails before any identity prints its line
    ["identities", "--stanley", "--m", "3", "--to", "10", "--fixed-points", "zzz"],
    ["identities", "--fixed-points", "2143", "--to", "6", "--egf", "zzz"],
    ["count", "--patterns", "1,,2", "--to", "3"],
    ["identities", "--recurrence", "--m", "7", "--to", "6"],
])
def test_usage_errors_leave_through_main(capsys, argv):
    status, out, err = run(capsys, *argv)
    assert status == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_a_comma_pattern_with_an_empty_field_is_named(capsys):
    # the comma form once leaked int()'s message about the empty field
    status, out, err = run(capsys, "count", "--patterns", "1,,2", "--to", "3")
    assert (status, out, err) == (2, "", "error: cannot parse permutation from '1,,2'\n")


def test_bijection_round_trip(capsys):
    status, out, _ = run(capsys, "bijection", "--omega", "21")
    assert status == 0 and "UD (1)" in out
    status, out, _ = run(capsys, "bijection", "--omega-inv", "UD",
                         "--labels", "1")
    assert status == 0 and "-> 21" in out
    status, out, _ = run(capsys, "bijection", "--omega", "645231")
    assert status == 0
    word = out.split("->")[1].split("(")[0].strip()
    labels = out.split("(")[1].rstrip(")\n")
    status2, out2, _ = run(capsys, "bijection", "--omega-inv", word,
                           "--labels", labels)
    assert status2 == 0 and "645231" in out2


def test_bijection_of_the_empty_involution(capsys):
    status, out, _ = run(capsys, "bijection", "--omega", "")
    assert (status, out) == (0, "() -> () ()\n")
    status, out, _ = run(capsys, "bijection", "--omega-inv", "", "--labels", "")
    assert (status, out) == (0, "() () -> ()\n")


def test_bijection_errors(capsys):
    status, _, err = run(capsys, "bijection", "--omega", "132")
    assert status == 2 and "132" in err
    # UDL is fine (the level step sits at height zero); ULD is not
    status, out, _ = run(capsys, "bijection", "--omega-inv", "UDL",
                         "--labels", "1")
    assert status == 0 and "-> 213" in out
    status, _, err = run(capsys, "bijection", "--omega-inv", "ULD",
                         "--labels", "1")
    assert status == 2
    # the errors name the path as given, not the Dyck word left once
    # its level steps are stripped
    status, _, err = run(capsys, "bijection", "--omega-inv", "LLUD",
                         "--labels", "1,1")
    assert status == 2 and "'LLUD'" in err and "'UD'" not in err
    status, _, err = run(capsys, "bijection", "--omega-inv", "LUDL",
                         "--labels", "2")
    assert status == 2 and "out of range 1..1 in 'LUDL'" in err


@pytest.mark.parametrize("labels", ["1,,1", ",1,1,", ",", "1,1,"])
def test_bijection_rejects_empty_label_fields(capsys, labels):
    status, out, err = run(capsys, "bijection", "--omega-inv", "UDUD",
                           "--labels", labels)
    assert status == 2 and out == "" and "empty field" in err


@pytest.mark.parametrize("labels, bad", [("x", "x"), ("1.5", "1.5"), ("1,x", "x"),
                                         ("1.5,1", "1.5"), ("1, ", " ")])
def test_bijection_names_a_label_that_is_not_an_integer(capsys, labels, bad):
    status, out, err = run(capsys, "bijection", "--omega-inv", "UDUD", "--labels", labels)
    assert status == 2 and out == ""
    assert err == f"error: field {bad!r} is not an integer in --labels {labels!r}\n"


def test_bijection_labels_need_a_path(capsys):
    # a path with no down steps takes no labels, given or empty
    for argv in (["--labels", ""], []):
        status, out, _ = run(capsys, "bijection", "--omega-inv", "LL", *argv)
        assert (status, out) == (0, "LL () -> 12\n")
    for labels in ("7,7", ""):
        status, out, err = run(capsys, "bijection", "--omega", "21", "--labels", labels)
        assert status == 2 and out == "" and "--omega" in err


@pytest.mark.parametrize("m", ["0", "-1"])
def test_stanley_names_m_below_one(capsys, m):
    status, out, err = run(capsys, "identities", "--stanley", "--m", m, "--to", "4")
    assert (status, out, err) == (2, "", "error: m must be positive\n")


def test_identities(capsys):
    status, out, _ = run(capsys, "identities", "--stanley", "--m", "2",
                         "--to", "10")
    assert status == 0 and "equal" in out
    status, out, _ = run(capsys, "identities", "--recurrence", "--dseries",
                         "--to", "12")
    assert status == 0 and "holds" in out and "yes" in out
    status, out, _ = run(capsys, "identities", "--egf", "2143", "--to", "8")
    assert status == 0
    status, out, _ = run(capsys, "identities", "--fixed-points", "2143",
                         "--to", "8")
    assert status == 0 and "holds" in out
    status, _, err = run(capsys, "identities")
    assert status == 2


def test_invalid_input_is_a_clean_error(capsys):
    status, _, err = run(capsys, "count", "--patterns", "zzz", "--mode", "I",
                         "--to", "3")
    assert status == 2 and "error" in err


# one job of each kind: plain and formula counts in text and rows, a
# basis, a sweep, a bijection, an argparse usage error (SystemExit 2) and
# a ValueError that main reports
MIX = [
    ["count", "--patterns", "321", "--mode", "I", "--to", "7", "--formula"],
    ["count", "--patterns", "2143", "--mode", "F", "--to", "8", "--formula",
     "--format", "rows"],
    ["basis", "--patterns", "2143 1324", "--ambient", "Iprime", "--format", "rows"],
    ["verify-mcgovern", "--part", "1", "--to", "8"],
    ["bijection", "--omega", "563412"],
    ["count", "--patterns", "321", "--to", "0"],
    ["count", "--patterns", "", "--mode", "F", "--to", "1"],
]


def outcome(capsysbinary, argv):
    """Exit status (or SystemExit code), stdout and stderr of one main call."""
    try:
        status = main(list(argv))
    except SystemExit as exc:
        status = ("exit", exc.code)
    out = capsysbinary.readouterr()
    return status, out.out, out.err


def test_repeated_main_calls_share_nothing_but_the_parser(monkeypatch, capsysbinary):
    # the mix run twice in one process, forwards then backwards, on one
    # cached parser, against each job run on a parser of its own; the
    # cached pass builds the top parser and one per subcommand on its
    # first call and none after
    fresh = {}
    for argv in MIX:
        build_parser.cache_clear()
        fresh[tuple(argv)] = outcome(capsysbinary, argv)
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    build_parser.cache_clear()
    jobs = MIX + MIX[::-1]
    assert [outcome(capsysbinary, argv) for argv in jobs] == \
        [fresh[tuple(argv)] for argv in jobs]
    assert len(built) == 6
    assert fresh[tuple(MIX[-2])][0] == ("exit", 2) and fresh[tuple(MIX[-1])][0] == 2
    assert all(status == 0 for status, _, _ in list(fresh.values())[:5])


def test_help_is_plain_text(capsys):
    # the module docstring's reST markup stays out of every --help, and
    # the top level still lists the subcommands
    commands = ["count", "basis", "verify-mcgovern", "bijection", "identities"]
    for argv in [["--help"]] + [[command, "--help"] for command in commands]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr().out
        assert exc.value.code == 0, argv
        assert "``" not in out and ":func:" not in out, argv
        if argv == ["--help"]:
            assert all(command in out for command in commands)
