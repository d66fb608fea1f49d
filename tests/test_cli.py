import argparse
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pathcycle import cli
from pathcycle.cli import build_parser, run
from pathcycle.factor import PathCycleSystem, degree_spec_from_terminals
from pathcycle.families import gen_prop1_odd, write_instance
from pathcycle.graphs import MAX_PARSE_EDGES, serialize_graph, serialize_terminals
from pathcycle.tutte import evaluate_pair

from .conftest import complete_graph, cycle_graph, star_graph


@pytest.fixture()
def files(tmp_path):
    def make(name: str, text: str) -> str:
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return make


@pytest.fixture()
def c6(files):
    return files("c6.graph", serialize_graph(cycle_graph(6)))


@pytest.fixture()
def c5(files):
    return files("c5.graph", serialize_graph(cycle_graph(5)))


@pytest.fixture()
def empty_w(files):
    return files("empty.terminals", "\n")


@pytest.fixture()
def w02(files):
    return files("w02.terminals", serialize_terminals((0, 2)))


def test_solve_cycle(capsys, c6, empty_w):
    assert run(["solve", "--graph", c6, "--terminals", empty_w]) == 0
    assert capsys.readouterr().out == "cycle: 0 1 2 3 4 5\n"


def test_solve_infeasible(capsys, c5, w02):
    assert run(["solve", "--graph", c5, "--terminals", w02]) == 1
    assert capsys.readouterr().out == "INFEASIBLE\n"


def test_oracle_agrees_with_solve(capsys, c5, c6, w02, empty_w):
    assert run(["oracle", "--graph", c5, "--terminals", w02]) == 1
    assert run(["oracle", "--graph", c6, "--terminals", empty_w]) == 0
    out = capsys.readouterr().out
    assert "INFEASIBLE" in out and "cycle: 0 1 2 3 4 5" in out


def test_oracle_validates_its_system_before_printing(monkeypatch, capsys, c6, empty_w):
    # a decomposition that drops the cycle no longer covers the graph
    monkeypatch.setattr(cli, "decompose_system", lambda factor, w: PathCycleSystem((), ()))
    with pytest.raises(AssertionError, match="do not partition"):
        run(["oracle", "--graph", c6, "--terminals", empty_w])
    assert capsys.readouterr().out == ""


def test_oracle_bound_exceeded(files, empty_w):
    big = files("k8.graph", serialize_graph(complete_graph(8)))
    assert run(["oracle", "--graph", big, "--terminals", empty_w]) == 3


def test_oracle_edge_bound_above_limit_is_usage_error(files, empty_w, capsys):
    # the search recurses once per edge: a bound of 2000 used to overflow the stack
    big = files("c1500.graph", serialize_graph(cycle_graph(1500)))
    code = run(["oracle", "--graph", big, "--terminals", empty_w, "--max-edges", "2000"])
    assert code == 2
    assert "exceeds the oracle's limit of 64" in capsys.readouterr().err


def test_graph_over_the_edge_limit_is_input_error(files, empty_w, capsys):
    # the header alone is refused, so no edge line is read or stored
    big = files("big.graph", f"p 10 {MAX_PARSE_EDGES + 1}\ne 0 1\n")
    assert run(["solve", "--graph", big, "--terminals", empty_w]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line 1: {MAX_PARSE_EDGES + 1} edges exceeds the limit of {MAX_PARSE_EDGES}" in captured.err


def test_oracle_negative_edge_bound_is_usage_error(files, empty_w, capsys):
    c4 = files("c4.graph", serialize_graph(cycle_graph(4)))
    assert run(["oracle", "--graph", c4, "--terminals", empty_w, "--max-edges", "-1"]) == 2
    assert "edge bound -1 is negative" in capsys.readouterr().err
    assert run(["oracle", "--graph", c4, "--terminals", empty_w, "--max-edges", "0"]) == 3


def test_certify_exhaustive_finds_witness(capsys, c5, w02):
    assert run(["certify", "--graph", c5, "--terminals", w02, "--exhaustive"]) == 1
    out = capsys.readouterr().out
    assert "S:\n" in out and "T: 1 3" in out and "delta: -2" in out


def test_certify_exhaustive_feasible(capsys, c6, empty_w):
    assert run(["certify", "--graph", c6, "--terminals", empty_w, "--exhaustive"]) == 0
    assert "NO-CERTIFICATE" in capsys.readouterr().out


def test_certify_explicit_pair(capsys, c5, w02):
    code = run(["certify", "--graph", c5, "--terminals", w02, "--s", "", "--t", "1,3"])
    assert code == 1
    assert "delta: -2" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["certify", "discharge"])
@pytest.mark.parametrize("flag", ["--s", "--t"])
def test_malformed_vertex_list_names_its_flag(capsys, c5, w02, command, flag):
    # int() would read "+1" as 1 and "1_0" as 10
    for bad in ("1,,3", "+1,3", "1_0,3", "1,3 3"):
        lists = {"--s": "", "--t": "1,3", flag: bad}
        argv = [command, "--graph", c5, "--terminals", w02] + [
            x for opt, text in lists.items() for x in (opt, text)
        ]
        if command == "discharge":
            argv += ["--r", "2"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} {bad!r} is not a comma-separated list of vertices\n"


@pytest.mark.parametrize("command", ["certify", "discharge"])
@pytest.mark.parametrize("flag", ["--s", "--t"])
def test_repeated_vertex_in_a_list_is_usage_error(capsys, c5, w02, command, flag):
    # certify --s 1,1 --t 3 used to print "S: 1" and exit 0
    for bad, vertex in (("1,1", 1), ("4, 1,4", 4)):
        lists = {"--s": "", "--t": "3", flag: bad}
        argv = [command, "--graph", c5, "--terminals", w02] + [
            x for opt, text in lists.items() for x in (opt, text)
        ]
        if command == "discharge":
            argv += ["--r", "2"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} {bad!r} repeats vertex {vertex}\n"


def test_pair_api_takes_a_repeated_vertex_once():
    g = cycle_graph(5)
    f = degree_spec_from_terminals(g, (0, 2))
    assert evaluate_pair(g, f, (1, 1), (3,)) == evaluate_pair(g, f, (1,), (3,))


def test_certify_requires_a_mode(c5, w02):
    assert run(["certify", "--graph", c5, "--terminals", w02]) == 2


@pytest.mark.parametrize(
    "modes",
    [
        ["--exhaustive", "--witness", "@missing"],
        ["--exhaustive", "--s", "", "--t", "1,3"],
        ["--witness", "@witness", "--s", "", "--t", "1,3"],
    ],
)
def test_certify_takes_one_mode(files, capsys, c5, w02, modes):
    witness = files("c5.witness", "S:\nT: 1 3\ndelta: -2\nodd: 2\ncomp: 0 4\ncomp: 2\n")
    paths = {"@missing": witness + ".missing", "@witness": witness}
    argv = ["certify", "--graph", c5, "--terminals", w02] + [paths.get(m, m) for m in modes]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "certify needs exactly one of" in captured.err


def test_certify_bound_exceeded(files):
    from .conftest import cycle_graph as cg

    big = files("c16.graph", serialize_graph(cg(16)))
    wfile = files("w.terminals", "\n")
    assert run(["certify", "--graph", big, "--terminals", wfile, "--exhaustive"]) == 3


def test_generate_verify_certify_roundtrip(capsys, tmp_path):
    prefix = str(tmp_path / "fam")
    assert run([
        "generate", "--family", "prop2-r4", "--n", "6", "--out", prefix,
    ]) == 0
    capsys.readouterr()
    assert run([
        "verify", "--graph", f"{prefix}.graph", "--regular", "4",
        "--star-free", "4", "--edge-connectivity", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert run([
        "certify", "--graph", f"{prefix}.graph",
        "--terminals", f"{prefix}.terminals",
        "--witness", f"{prefix}.witness",
    ]) == 1
    assert "delta: -2" in capsys.readouterr().out


def test_generate_witness_replay_prop1_odd(capsys, tmp_path):
    prefix = str(tmp_path / "odd")
    assert run(["generate", "--family", "prop1-odd", "--r", "5", "--k", "6",
                "--out", prefix]) == 0
    capsys.readouterr()
    assert run(["certify", "--graph", f"{prefix}.graph",
                "--terminals", f"{prefix}.terminals",
                "--witness", f"{prefix}.witness"]) == 1
    assert "delta: -2" in capsys.readouterr().out
    assert run(["solve", "--graph", f"{prefix}.graph",
                "--terminals", f"{prefix}.terminals"]) == 1


def test_roundtrip_every_family_at_smallest_parameters(capsys, tmp_path):
    """generate -> verify -> certify (witness mode) for each family."""
    plans = [
        (["--family", "prop1-odd", "--r", "5", "--k", "6"], "5", True),
        (["--family", "prop1-even", "--r", "6", "--k", "6"], "6", True),
        (["--family", "prop1-bipartite", "--r", "4", "--n", "12"], "4", False),
        (["--family", "prop2-r4", "--n", "6"], "4", True),
        (["--family", "prop2-general", "--r", "6", "--m", "50"], "6", True),
        (["--family", "prop2-r5", "--m", "96"], "5", True),
    ]
    for i, (flags, r, has_witness) in enumerate(plans):
        prefix = str(tmp_path / f"fam{i}")
        assert run(["generate", *flags, "--out", prefix]) == 0
        capsys.readouterr()
        assert run(["verify", "--graph", f"{prefix}.graph", "--regular", r]) == 0
        if has_witness:
            assert run([
                "certify", "--graph", f"{prefix}.graph",
                "--terminals", f"{prefix}.terminals",
                "--witness", f"{prefix}.witness",
            ]) == 1
            assert "delta: -2" in capsys.readouterr().out


def test_certify_witness_mismatch_is_input_error(capsys, tmp_path, c5, w02):
    bad = tmp_path / "bad.witness"
    bad.write_text("S:\nT: 1 3\ndelta: 0\nodd: 2\ncomp: 0 4\ncomp: 2\n")
    assert run(["certify", "--graph", c5, "--terminals", w02,
                "--witness", str(bad)]) == 2


def test_certify_witness_must_agree_with_the_replay(capsys, files, c5, w02):
    # S = {}, T = {1, 3} has delta -2 and the odd components {0, 4} and {2}
    argv = ["certify", "--graph", c5, "--terminals", w02, "--witness"]
    for name, text, named in [
        ("none", "S:\nT: 1 3\ndelta: -2\nodd: 0\n", "odd components differ"),
        ("delta", "S:\nT: 1 3\ndelta: 0\nodd: 2\ncomp: 0 4\ncomp: 2\n",
         "claims deficiency 0, the pair recomputes to -2"),
        ("comp", "S:\nT: 1 3\ndelta: -2\nodd: 2\ncomp: 0\ncomp: 2 4\n", "odd components differ"),
        ("order", "S:\nT: 1 3\ndelta: -2\nodd: 2\ncomp: 2\ncomp: 0 4\n", "odd components differ"),
    ]:
        assert run(argv + [files(f"{name}.witness", text)]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        assert named in captured.err, name
    two_t = files("two-t.witness", "S:\nT: 1 3\nT: 1\ndelta: -2\nodd: 0\n")
    assert run(argv + [two_t]) == 2
    assert "line 3: repeated T line" in capsys.readouterr().err


def test_certify_witness_replays_an_unsorted_pair(capsys, files, c5, w02):
    argv = ["certify", "--graph", c5, "--terminals", w02, "--witness"]
    assert run(argv + [files("t.witness", "S:\nT: 3 1\ndelta: -2\nodd: 2\ncomp: 0 4\ncomp: 2\n")]) == 1
    assert capsys.readouterr().out == "S:\nT: 1 3\ndelta: -2\nodd: 2\ncomp: 0 4\ncomp: 2\n"
    # S = {2, 0}, T = {} leaves {1} and {3, 4}, both f-even: delta = f(S) = 2
    assert run(argv + [files("s.witness", "S: 2 0\nT:\ndelta: 2\nodd: 0\n")]) == 0
    assert capsys.readouterr().out == "S: 0 2\nT:\ndelta: 2\nodd: 0\n"


def test_certify_witness_rejects_a_repeated_vertex(capsys, files, c5, w02):
    # T: 3 1 1 used to replay as T = {1, 3} and exit 1
    argv = ["certify", "--graph", c5, "--terminals", w02, "--witness"]
    for text, named in [
        ("S:\nT: 3 1 1\ndelta: -2\nodd: 2\ncomp: 0 4\ncomp: 2\n",
         "line 2: duplicate vertex index in the T line"),
        ("c S repeats 0\nS: 0 2 0\nT:\ndelta: 2\nodd: 0\n",
         "line 2: duplicate vertex index in the S line"),
    ]:
        assert run(argv + [files("dup.witness", text)]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == "", text
        assert named in captured.err, text


def test_verify_failure_code(capsys, files):
    p3 = files("p3.graph", serialize_graph(cycle_graph(3)))
    assert run(["verify", "--graph", p3, "--regular", "3"]) == 1


def test_verify_large_star_is_found_without_deep_recursion(capsys, files):
    # K_{1,1500} is its own witness: the centre and all of its leaves
    star = files("star.graph", serialize_graph(star_graph(1500)))
    assert run(["verify", "--graph", star, "--star-free", "1500"]) == 1
    witness = (0, tuple(range(1, 1501)))
    assert capsys.readouterr().out == f"star-free-1500: FAIL {witness!r}\n"


def test_verify_terminal_modes(capsys, files, c5):
    wfile = files("w.terminals", "0 2\n")
    assert run(["verify", "--graph", c5, "--terminals", wfile,
                "--mode", "nbhd1"]) == 1
    assert run(["verify", "--graph", c5, "--terminals", wfile]) == 2  # no mode


def test_verify_mode_requires_terminals(capsys, c5):
    assert run(["verify", "--graph", c5, "--regular", "2", "--mode", "nbhd1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "--mode requires --terminals\n"


def test_verify_requires_some_check(c5):
    assert run(["verify", "--graph", c5]) == 2


@pytest.mark.parametrize(
    "flag, k",
    [pytest.param("--edge-connectivity", k, id=k) for k in ("0", "-3")]
    + [(flag, k) for flag in ("--regular", "--star-free") for k in ("0", "-3")],
)
def test_verify_edge_connectivity_below_one_is_usage_error(capsys, c5, flag, k):
    # K <= 0 holds on every graph, so a PASS would check nothing
    assert run(["verify", "--graph", c5, flag, k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{flag} must be positive, got {k}\n"


def test_generate_random_requires_seed(tmp_path):
    assert run(["generate", "--family", "random", "--r", "4", "--n", "20",
                "--out", str(tmp_path / "r")]) == 2


def test_generate_random_with_seed(tmp_path, capsys):
    assert run(["generate", "--family", "random", "--r", "4", "--n", "20",
                "--seed", "3", "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    assert run(["solve", "--graph", str(tmp_path / "r.graph"),
                "--terminals", str(tmp_path / "r.terminals")]) == 0


def test_generate_unknown_family(tmp_path):
    assert run(["generate", "--family", "nope", "--out", str(tmp_path / "x")]) == 2


def test_generate_missing_parameters(tmp_path):
    assert run(["generate", "--family", "prop1-odd", "--r", "5",
                "--out", str(tmp_path / "x")]) == 2


def test_generate_usage_messages(tmp_path, capsys):
    assert run(["generate", "--family", "nope", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "unknown family 'nope'\n"
    assert run(["generate", "--family", "random", "--r", "4",
                "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "family random requires --n, --seed\n"


def test_generate_rejects_flags_the_family_does_not_take(tmp_path, capsys):
    assert run(["generate", "--family", "prop1-odd", "--r", "5", "--k", "6", "--n", "3",
                "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "family prop1-odd does not take --n\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flags",
    [
        ["--family", "prop1-bipartite", "--r", "3000", "--n", "9000"],
        ["--family", "prop1-odd", "--r", "201", "--k", "202"],
    ],
)
def test_generate_oversized_instance_is_usage_error(tmp_path, capsys, flags):
    started = time.perf_counter()
    assert run(["generate", *flags, "--out", str(tmp_path / "x")]) == 2
    assert time.perf_counter() - started < 1.0
    assert "above the limit of" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("out", ["", ".", ".."])
def test_generate_out_without_a_file_name_is_usage_error(tmp_path, monkeypatch, capsys, out):
    # such a prefix would write '.graph' and its siblings, unlinking any there
    monkeypatch.chdir(tmp_path)
    (tmp_path / ".graph").write_text("not this instance's\n")
    assert run(["generate", "--family", "prop2-r4", "--n", "6", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"--out {out!r} does not end in a file name\n"
    assert [p.name for p in tmp_path.iterdir()] == [".graph"]
    assert (tmp_path / ".graph").read_text() == "not this instance's\n"


def test_discharge_cli(capsys, tmp_path):
    inst = gen_prop1_odd(5, 6)
    write_instance(inst, tmp_path / "odd")
    code = run([
        "discharge", "--graph", str(tmp_path / "odd.graph"),
        "--terminals", str(tmp_path / "odd.terminals"),
        "--s", "0,1", "--t", "30", "--r", "5",
    ])
    out = capsys.readouterr().out
    assert "conservation: PASS" in out and "charge-identity: PASS" in out
    assert code in (0, 1)


def test_bad_graph_file_reports_usage_error(files, empty_w, capsys):
    bad = files("bad.graph", "p 2 1\ne 0 0\n")
    assert run(["solve", "--graph", bad, "--terminals", empty_w]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["graph", "terminals", "witness", "--s"])
def test_non_ascii_input_is_usage_error(tmp_path, capsys, target):
    # int() reads U+FF12 as 2 and U+0661 as 1, so each input must be ASCII
    texts = {
        "graph": "p 3 2\ne 0 1\ne 1 2\n",
        "terminals": "0 2\n",
        "witness": "S: 1\nT:\ndelta: 0\nodd: 2\ncomp: 0\ncomp: 2\n",
        "--s": "1",
    }

    def certify():
        for name in ("graph", "terminals", "witness"):
            (tmp_path / name).write_bytes(texts[name].encode())
        mode = ["--witness", str(tmp_path / "witness")] if target == "witness" else [
            "--s", texts["--s"], "--t", ""]
        return run(["certify", "--graph", str(tmp_path / "graph"),
                    "--terminals", str(tmp_path / "terminals"), *mode])

    assert certify() == 0
    capsys.readouterr()
    old, new = {"graph": ("1 2", "1 \uff12"), "terminals": ("2", "\uff12"),
                "witness": ("S: 1", "S: \u0661"), "--s": ("1", "\u0661")}[target]
    texts[target] = texts[target].replace(old, new)
    assert certify() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("is not a comma-separated list" if target == "--s" else "is not ASCII") in captured.err


def test_vertex_count_above_cap_is_usage_error(files, empty_w, capsys):
    huge = files("huge.graph", "p 1000000000 0\n")
    assert run(["solve", "--graph", huge, "--terminals", empty_w]) == 2
    assert "exceeds the limit" in capsys.readouterr().err


def test_cli_import_leaves_numpy_unloaded(files, c6, empty_w):
    # numpy is loaded only by the exhaustive certificate scan, and c20 is
    # refused before the scan starts
    c20 = files("c20.graph", serialize_graph(cycle_graph(20)))
    calls = [
        ["verify", "--graph", c6, "--regular", "2", "--edge-connectivity", "2",
         "--star-free", "3"],
        ["solve", "--graph", c6, "--terminals", empty_w],
        ["certify", "--graph", c20, "--terminals", empty_w, "--exhaustive"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import contextlib, io, sys\n"
        "from pathcycle.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [run(argv) for argv in {calls!r}]\n"
        "print('numpy' in sys.modules, codes)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False [0, 0, 3]"


def test_run_calls_share_one_parser(capsys, files, c6, empty_w):
    # each command gives the same exit code and output after others as it
    # does as the first command of a process
    oracle = ["oracle", "--graph", c6, "--terminals", empty_w]
    sequences = [
        [["solve", "--graph", c6, "--nope", "y"], ["verify", "--graph", c6, "--regular", "2"]],
        [oracle + ["--max-edges", "x"], oracle],
        [oracle + ["--max-edges", "2"], oracle],
    ]

    def outcome(argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def first(argv):
        build_parser.cache_clear()
        return outcome(argv)

    for argvs in sequences:
        alone = [first(argv) for argv in argvs]
        build_parser.cache_clear()
        assert [outcome(argv) for argv in argvs] == alone
    assert [code for code, _, _ in alone] == [3, 0]  # --max-edges 2, then the default 24


def test_missing_file(empty_w):
    assert run(["solve", "--graph", "/nonexistent.graph",
                "--terminals", empty_w]) == 2


def test_unknown_flag():
    assert run(["solve", "--graph", "x", "--nope", "y"]) == 2


def test_readme_command_line_section_names_every_subcommand_and_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    missing = []
    for name, sub in subparsers.choices.items():
        if f"pathcycle {name} " not in section:
            missing.append(name)
        for action in sub._actions:
            for opt in action.option_strings:
                if opt.startswith("--") and opt != "--help" and not re.search(
                    re.escape(opt) + r"(?![\w-])", section
                ):
                    missing.append(f"{name} {opt}")
    assert not missing, f"README 'Command line' section lacks: {missing}"
