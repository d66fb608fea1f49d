"""Input contract fuzzing: parsers raise only GraphFormatError, and the CLI
answers any small input with an exit code instead of a traceback."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pathcycle.cli import run
from pathcycle.errors import GraphFormatError
from pathcycle.factor import degree_spec_from_terminals
from pathcycle.graphs import Graph, decode_ascii, parse_graph, parse_terminals, serialize_graph
from pathcycle.tutte import evaluate_pair, format_certificate, parse_certificate

from .conftest import cycle_graph

# Tokens of all three file formats, so that generated text gets past the
# first checks; numbers stay small apart from one beyond every bound.
TOKENS = ["p", "e", "c", "S:", "T:", "delta:", "odd:", "comp:", "0", "1", "2", "3",
          "7", "-1", "99999999999", "x", "1.5", ""]

token_lines = st.lists(
    st.lists(st.sampled_from(TOKENS), max_size=5).map(" ".join), max_size=8
).map("\n".join)


@st.composite
def graph_texts(draw):
    """Well-formed graph files with their edge lines in any order."""
    n = draw(st.integers(min_value=0, max_value=7))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    return "\n".join([f"p {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges])


texts = st.one_of(token_lines, st.text(max_size=40), graph_texts())
raw_inputs = st.one_of(texts, texts.map(str.encode), st.binary(max_size=40))


@given(raw_inputs)
@settings(max_examples=200, deadline=None)
def test_parsers_raise_only_format_errors(data):
    for parse in (parse_graph, parse_terminals, parse_certificate,
                  lambda text: parse_terminals(text, cycle_graph(4))):
        try:
            parsed = parse(data)
        except GraphFormatError:
            continue
        if parse is parse_graph:
            # the parser builds without the constructor's checks: it must
            # still give the graph that the checked constructor gives
            lines = [line.split() for line in decode_ascii(data).splitlines()]
            edges = [(int(f[1]), int(f[2])) for f in lines if f[:1] == ["e"]]
            checked = Graph(parsed.n, edges)
            assert parsed.edges == checked.edges and parsed._adj == checked._adj


@st.composite
def cli_cases(draw):
    """Files and arguments for one CLI call: mostly well-formed, so that the
    answers reach past the input checks, and now and then broken."""
    rarely = st.integers(0, 5).map(lambda x: x == 0)
    n = draw(st.integers(min_value=0, max_value=7))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, draw(st.lists(st.sampled_from(possible), unique=True) if possible else st.just([])))
    graph = draw(token_lines) if draw(rarely) else serialize_graph(g)
    vertex = st.integers(-1, n) if draw(rarely) else st.integers(0, max(n - 1, 0))
    w, s, t = (draw(st.lists(vertex, unique=True, max_size=4)) for _ in range(3))
    if not draw(rarely):
        w = w[:len(w) // 2 * 2]
        t = [v for v in t if v not in s]
    try:
        witness = format_certificate(evaluate_pair(g, degree_spec_from_terminals(g, w), s, t))
    except ValueError:
        witness = f"S: {' '.join(map(str, s))}\nT: {' '.join(map(str, t))}\ndelta: 0\n"
    if draw(rarely):
        witness = draw(token_lines)
    s_arg, t_arg = (draw(st.text(max_size=4)) if draw(rarely) else ",".join(map(str, x))
                    for x in (s, t))
    files = {"@graph": graph, "@terminals": " ".join(map(str, w)), "@witness": witness}
    small = st.integers(min_value=-1, max_value=5) if draw(rarely) else st.integers(1, 5)
    verify = ["verify", "--graph", "@graph"]
    for flag in ("--regular", "--edge-connectivity", "--star-free"):
        if draw(st.booleans()):
            verify += [flag, str(draw(small))]
    if draw(st.booleans()):
        verify += ["--terminals", "@terminals"]
        if not draw(rarely):
            verify += ["--mode", draw(st.sampled_from(["distance3", "nbhd1"]))]
    argv = draw(st.sampled_from([
        ["solve", "--graph", "@graph", "--terminals", "@terminals"],
        ["oracle", "--graph", "@graph", "--terminals", "@terminals"],
        ["oracle", "--graph", "@graph", "--terminals", "@terminals",
         "--max-edges", str(draw(st.integers(-1, 80)))],
        ["certify", "--graph", "@graph", "--terminals", "@terminals", "--witness", "@witness"],
        ["certify", "--graph", "@graph", "--terminals", "@terminals", "--s", s_arg, "--t", t_arg],
        verify,
        ["discharge", "--graph", "@graph", "--terminals", "@terminals", "--s", s_arg, "--t", t_arg,
         "--r", str(draw(st.integers(2, 6) if draw(rarely) else st.integers(4, 6)))],
    ]))
    return files, argv


@given(cli_cases())
@settings(max_examples=200, deadline=None)
def test_cli_answers_every_small_input_with_an_exit_code(case):
    files, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in files.items():
            paths[name] = str(Path(tmp) / name[1:])
            Path(paths[name]).write_text(text)
        argv = [paths.get(arg, arg) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    # only the oracle can be undecided: no case runs certify --exhaustive
    assert code in ((0, 1, 2, 3) if argv[0] == "oracle" else (0, 1, 2)), (argv, code)
