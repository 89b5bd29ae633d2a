"""The CLI's quick parse against argparse, both built from `cli._COMMANDS`.

Wherever `_quick_args` reads a command line, argparse reads the same
fields from it (all but `error`, which only argparse's parse needs), and
every canonical command line the table allows takes the quick path.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcubes import cli

PARSER = cli.build_parser()
COMMANDS = list(cli._COMMANDS)
FLAGS = sorted({flag for *_, options in cli._COMMANDS.values() for flag, _ in options} | {"--out"})


def _argparse_fields(argv) -> dict:
    fields = vars(PARSER.parse_args(argv))
    del fields["error"]
    return fields


def _spellings(flag: str) -> list[str]:
    return [flag, flag[:-1], flag[:4], f"{flag}=7", f"{flag}=g.txt", flag.upper()]


words = st.one_of(
    st.sampled_from(COMMANDS + ["bogus", "constr", "", "-h", "--help", "--", "-"]),
    st.sampled_from([s for flag in FLAGS for s in _spellings(flag)]),
    st.sampled_from([
        "0", "7", "007", "-3", "-0", "+3", " 3", "1_0", "٣", "３", "²", "9" * 19, "2", "8", "9",
        "claw", "alpha", "best", "Best", "clawx", "uniform", "unit-jitter", "nested-heavy", "unit",
        "-", "", "g.txt", "r.json", "--out", "-h",
    ]),
    st.text(max_size=4),
)


def _value(keywords: dict):
    if "choices" in keywords:
        return st.sampled_from([str(c) for c in keywords["choices"]])
    if "type" in keywords:
        return st.from_regex(r"\A[0-9]{1,18}\Z")
    return st.from_regex(r"\A[^-][^\x00]{0,8}\Z")


@st.composite
def canonical(draw) -> list[str]:
    command = draw(st.sampled_from(COMMANDS))
    _, _, positionals, options = cli._COMMANDS[command]
    groups = [[draw(st.from_regex(r"\A[a-z0-9_./]{0,8}\Z"))] for _ in positionals]
    for flag, keywords in (cli._OUT, *options):
        if keywords.get("required") or draw(st.booleans()):
            group = [flag] if keywords.get("action") else [flag, draw(_value(keywords))]
            # anywhere among the positionals, which keep their order
            groups.insert(draw(st.integers(0, len(groups))), group)
    return [command, *(word for group in groups for word in group)]


@settings(max_examples=500, deadline=None)
@given(canonical())
def test_every_canonical_command_line_takes_the_quick_path(argv):
    quick = cli._quick_args(argv)
    assert quick is not None, argv
    assert _argparse_fields(argv) == vars(quick)


@st.composite
def near_canonical(draw) -> list[str]:
    """A canonical command line with a word replaced, inserted or dropped."""
    argv = draw(canonical())
    at = draw(st.integers(0, len(argv)))
    edit = draw(st.sampled_from(["replace", "insert", "drop"]))
    if edit == "insert" or at == len(argv):
        return argv[:at] + [draw(words)] + argv[at:]
    return argv[:at] + ([draw(words)] if edit == "replace" else []) + argv[at + 1 :]


@settings(max_examples=1500, deadline=None)
@given(st.one_of(
    st.builds(lambda command, rest: [command, *rest],
              st.sampled_from(COMMANDS + ["bogus", "-h", ""]), st.lists(words, max_size=8)),
    near_canonical(),
))
def test_quick_parse_agrees_with_argparse(argv):
    quick = cli._quick_args(argv)
    if quick is not None:
        assert _argparse_fields(argv) == vars(quick)
        assert quick.func is cli._COMMANDS[argv[0]][0]


def test_post_parse_errors_go_through_argparse(capsys):
    for argv, message in [
        (["gen", "--n", "0"], "--n must be between 1 and 1000000"),
        (["exact", "g.txt", "--max-b", "0"], "--max-b must be at least 1"),
    ]:
        assert cli._quick_args(argv) is not None
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage: intervalcubes {argv[0]} ")
        assert err.endswith(f"intervalcubes {argv[0]}: error: {message}\n")
