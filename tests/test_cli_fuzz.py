"""Hypothesis fuzz of the CLI parser: a malformed flag value exits 1 or 2.

Each example takes a cheap, valid command line for one subcommand, appends
one flag with a token that is malformed or out of range for that flag
(non-integers, negatives, zero, empty strings, unknown choices, n far above
the caps), and checks that the run stops with exit 1 (bad input) or 2
(budget), prints nothing on stdout, and shows no traceback.  The base
command is one that reads the flag, so the token cannot be ignored.  Valid
but expensive command lines are out of scope.
"""

import contextlib
import io
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from designgap import cli

NOT_INTEGERS = ("", " ", "abc", "1.5", "1e3", "0x10", "nan", "--", "4 4")
NEGATIVE = ("-1", "-7", "-100000000000000")
COUNT = NOT_INTEGERS + NEGATIVE + ("0",)
FAR_ABOVE_CAPS = ("40", "64", "1000", "1000000", "1" + "0" * 30, "1" + "0" * 400)
UNKNOWN_CHOICES = ("", "nope", "ORTHOGONAL", "orthogonal ", "all", "-")
REGIONS = ("", ",", "a", "1,,x", "-1", "99", "1.5", "0,99")

BAD_TOKENS = {
    "--n": COUNT + FAR_ABOVE_CAPS,
    "--samples": COUNT,
    "--threads": COUNT,
    "--seed": NOT_INTEGERS + NEGATIVE + (str(2**63), "1" + "0" * 30),
    "--d": COUNT + ("1",) + FAR_ABOVE_CAPS[3:],
    "--dL": COUNT,
    "--ball": NOT_INTEGERS + NEGATIVE + ("0",),
    "--component": NOT_INTEGERS + NEGATIVE + ("0",),
    "--S-size": NOT_INTEGERS + NEGATIVE + ("0",),
    "--N": NOT_INTEGERS + NEGATIVE,
    "--gates": NOT_INTEGERS + NEGATIVE,
    "--depth": NOT_INTEGERS + NEGATIVE,
    "--p-shallow": ("", "abc", "nan", "inf", "-inf", "-0.5", "1.5", "1e400"),
    "--p-haar": ("", "abc", "nan", "inf", "-inf", "-0.5", "1.5", "1e400"),
    "--r": ("", "abc", "1/0", "-1/2", "3/2", "nan", "1/", "inf"),
    "--sweep": ("", "a:b", "8:2", "4", "4:8:0", "4:8:-2", ":", "4:8:1:2", "-4:8", "5:7"),
    "--region": REGIONS,
    "--r-region": REGIONS,
    "--vertex": ("", "Q", "xy?", "X" * 50, "X", "+X"),
    "--adjacency": ("", "ring", "grid", "grid 0x0", "grid 2x", "grid 1x1", "grid -1x-2", "chainx"),
    "--config": ("", "no-such-file.json", "/", "."),
}
STORE_TRUE_TOKENS = ("extra", "-", "1")

# per subcommand: the default base, and bases for flags it does not read
BASES = {
    "graph": (
        ["graph", "--group", "matchgate", "--n", "3", "--census"],
        {
            "--vertex": [["graph", "--group", "matchgate", "--n", "3", "--balls"]],
            "--r-region": [["graph", "--group", "matchgate", "--n", "3", "--r-region", "0,1"]],
            "--n": [
                ["graph", "--group", "matchgate", "--n", "3", "--census"],
                ["graph", "--group", "unitary", "--n", "3", "--diameter"],
                ["graph", "--group", "orthogonal", "--n", "3", "--balls"],
            ],
        },
    ),
    "bounds": (
        ["bounds", "--formula", "matchgate-depth", "--n", "6"],
        {
            "--n": [["bounds", "--formula", "matchgate-depth", "--n", "6"]],
            "--d": [["bounds", "--formula", "orthogonal", "--d", "16", "--dL", "4"]],
            "--dL": [["bounds", "--formula", "symplectic", "--d", "16", "--dL", "4"]],
            "--p-shallow": [["bounds", "--formula", "discrimination", "--p-shallow", "0.5", "--p-haar", "0.2"]],
            "--p-haar": [["bounds", "--formula", "discrimination", "--p-shallow", "0.5", "--p-haar", "0.2"]],
            "--r": [["bounds", "--formula", "pauli-compatible", "--r", "1/3"]],
            "--ball": [["bounds", "--formula", "neighborhood-ratio", "--ball", "3", "--component", "10"]],
            "--component": [["bounds", "--formula", "neighborhood-ratio", "--ball", "3", "--component", "10"]],
            "--S-size": [["bounds", "--formula", "simple-gatecount", "--S-size", "4", "--N", "2", "--component", "10"]],
            "--N": [["bounds", "--formula", "simple-gatecount", "--S-size", "4", "--N", "2", "--component", "10"]],
            "--sweep": [["bounds", "--formula", "matchgate-depth", "--sweep", "4:8"]],
        },
    ),
    "moments": (
        ["moments", "--quantity", "fs-indicator", "--group", "orthogonal", "--n", "2", "--samples", "10"],
        {
            "--n": [
                ["moments", "--quantity", "fs-indicator", "--group", "orthogonal", "--n", "2", "--samples", "10"],
                ["moments", "--quantity", "weingarten-check", "--group", "symplectic", "--n", "2", "--samples", "10"],
                ["moments", "--quantity", "second-moment-trace", "--group", "unitary", "--n", "2", "--samples", "10"],
                ["moments", "--quantity", "spread-uniformity", "--group", "matchgate", "--n", "2", "--samples", "10"],
            ],
            "--vertex": [["moments", "--quantity", "second-moment-trace", "--n", "3", "--samples", "5"]],
            "--region": [["moments", "--quantity", "second-moment-trace", "--n", "3", "--samples", "5"]],
            "--d": [["moments", "--quantity", "mixed-commutant", "--source", "haar_unitary", "--d", "4", "--samples", "10"]],
        },
    ),
    "discriminate": (
        ["discriminate", "--experiment", "depth", "--group", "orthogonal", "--n", "3", "--samples", "5"],
        {
            "--n": [
                ["discriminate", "--experiment", "depth", "--group", "orthogonal", "--n", "3", "--samples", "5"],
                ["discriminate", "--experiment", "depth", "--group", "matchgate", "--n", "4", "--samples", "5"],
                ["discriminate", "--experiment", "gate-count", "--n", "3", "--gates", "1", "--samples", "5"],
                ["discriminate", "--experiment", "mixed-unitary", "--n", "2", "--samples", "5"],
            ],
            "--gates": [["discriminate", "--experiment", "gate-count", "--n", "3", "--gates", "1", "--samples", "5"]],
        },
    ),
    "fs-indicator": (
        ["fs-indicator", "--group", "orthogonal", "--n", "2", "--samples", "10"],
        {
            "--n": [
                ["fs-indicator", "--group", kind, "--n", "2", "--samples", "10"]
                for kind in ("matchgate", "orthogonal", "symplectic", "unitary", "mixed_unitary", "clifford")
            ]
            + [["fs-indicator", "--group", "matchgate", "--n", "2", "--samples", "10", "--parity-sector", "even"]],
        },
    ),
    "mixed-unitary": (["mixed-unitary", "--n", "2", "--samples", "5"], {}),
    # every flag of reproduce is checked before the run starts
    "reproduce": (["reproduce", "--id", "eq6"], {}),
}
REPRODUCE_FLAGS = ("--id", "--seed", "--threads", "--format", "--config")


def _subparsers():
    parser = cli.build_parser()
    for action in parser._subparsers._group_actions:
        return action.choices
    raise AssertionError("no subcommands")


def _cases():
    """(subcommand, flag, base argv list, bad tokens) for every fuzzed flag."""
    cases = []
    for name, sub in _subparsers().items():
        default, per_flag = BASES[name]
        for action in sub._actions:
            if not action.option_strings or action.option_strings[0] in ("-h", "--out"):
                continue
            flag = action.option_strings[0]
            if name == "reproduce" and flag not in REPRODUCE_FLAGS:
                continue
            if action.nargs == 0:
                tokens = STORE_TRUE_TOKENS
            elif action.choices is not None:
                tokens = UNKNOWN_CHOICES
            elif name == "bounds" and flag == "--n":
                tokens = COUNT  # a formula input: any n >= 1 is valid
            else:
                tokens = BAD_TOKENS[flag]
            cases.append((name, flag, per_flag.get(flag, [default]), tokens))
    return cases


CASES = _cases()


def test_every_subcommand_and_flag_is_fuzzed():
    assert {c[0] for c in CASES} == set(_subparsers())
    assert len(CASES) > 60


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_malformed_flag_values_exit_cleanly(data):
    name, flag, bases, tokens = data.draw(st.sampled_from(CASES), label="flag")
    base = data.draw(st.sampled_from(bases), label="base")
    token = data.draw(st.sampled_from(tokens), label="token")
    argv = [*base, flag, token]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    assert code in (1, 2), (argv, code, err.getvalue()[-300:])
    assert out.getvalue() == "", argv
    assert "Traceback" not in err.getvalue(), argv
    assert elapsed < 5.0, (argv, elapsed)
