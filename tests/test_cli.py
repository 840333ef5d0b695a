"""CLI: output shapes, exit codes, determinism."""

import argparse
import importlib.util
import inspect
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from algconn import cli
from algconn.cli import _build_parser, _load_graph, main
from algconn.families import bethe_tree, named, path
from algconn.graphs import _canonical_graph, graph6_decode, graph6_encode
from algconn.search import DEFAULT_SAMPLES, ConjectureReport, verify_conjecture_tree2

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lambda2_named(capsys):
    code, out, err = run_cli(capsys, "lambda2", "named:petersen")
    assert code == 0 and err == ""
    rec = json.loads(out)
    assert rec["command"] == "lambda2"
    assert rec["results"]["lambda2"] == pytest.approx(2.0)
    assert rec["results"]["n"] == 10 and rec["results"]["m"] == 15
    assert "wall_time" not in rec


def test_lambda2_literal_and_vector(capsys):
    code, out, _ = run_cli(capsys, "lambda2", "Ch", "--vector")
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["lambda2"] == pytest.approx(2 - math.sqrt(2))
    vec = rec["results"]["fiedler_vector"]
    assert len(vec) == 4
    assert sum(vec) == pytest.approx(0, abs=1e-9)


def test_lambda2_from_file(capsys, tmp_path):
    f = tmp_path / "graphs.g6"
    f.write_text(graph6_encode(path(5)) + "\n" + graph6_encode(path(3)) + "\n")
    code, out, _ = run_cli(capsys, "lambda2", str(f))
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["n"] == 5  # first line wins
    # every line must decode, not only the first
    f.write_text(graph6_encode(path(5)) + "\nnot-graph6!!\n")
    code, out, err = run_cli(capsys, "lambda2", str(f))
    assert code == 1
    assert out == "" and err.startswith("error:")


def test_graph_source_grammar(capsys, tmp_path):
    assert _load_graph("named:petersen") == named("petersen")
    f = tmp_path / "graphs.g6"
    f.write_text(graph6_encode(path(5)) + "\n" + graph6_encode(path(3)) + "\n")
    assert _load_graph(str(f)) == path(5)  # a file gives its first graph
    assert _load_graph("Ch") == graph6_decode("Ch")  # a literal decodes
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    for source, message in (
        ("named:nope", "unknown graph 'nope'"),
        (str(empty), "no graph6 line found"),
    ):
        code, out, err = run_cli(capsys, "lambda2", source)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err


def test_bounds_heawood(capsys):
    code, out, _ = run_cli(capsys, "bounds", "named:heawood")
    rec = json.loads(out)
    assert code == 0
    assert rec["results"]["lambda2"] == pytest.approx(3 - math.sqrt(2))
    by_name = {e["name"]: e for e in rec["results"]["bounds"]}
    girth = by_name["girth_cubic"]
    assert girth["applicable"] and girth["attained"]
    assert girth["value"] == pytest.approx(3 - math.sqrt(2))
    assert not by_name["tree_layered"]["applicable"]


def test_bounds_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "named:heawood", "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "name,value,applicable,certified,attained,note"
    assert len(lines) == 8  # header + 7 bounds
    girth_row = [l for l in lines if l.startswith("girth_cubic")]
    assert len(girth_row) == 1 and ",true," in girth_row[0]


def test_tree_split(capsys):
    code, out, _ = run_cli(capsys, "tree-split", graph6_encode(path(9)))
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["vertex"] == 4
    assert rec["results"]["component_sizes"] == [4, 4]
    assert rec["results"]["spectral_bound"] >= rec["results"]["lambda2"] - 1e-12


def test_enumerate_streams_graph6(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "trees", "-n", "4", "-d", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    for line in lines:
        g = graph6_decode(line)
        assert g.n == 4 and g.m == 3

    code, out, _ = run_cli(capsys, "enumerate", "cubic", "-n", "6")
    assert len(out.strip().split("\n")) == 2

    code, out, _ = run_cli(
        capsys, "enumerate", "graphs", "-n", "5", "-m", "6", "--min-degree", "2"
    )
    assert len(out.strip().split("\n")) == 3


def test_enumerate_max_lambda2(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "trees", "-n", "10", "-d", "3", "--max-lambda2"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["enumerated"] == 37
    assert len(rec["results"]["maximizers"]) == 1


def test_enumerate_max_lambda2_families(capsys):
    for line, maximizers in (
        ("cubic -n 10", ["I?LRCecq?"]),
        ("graphs -n 7 -m 10 --min-degree 2", ["F?B~o"]),
        ("graphs -n 5 -m 7 --min-degree 2", ["DF{", "DNw"]),  # a tie
    ):
        argv = line.split()
        family = argv[0]
        code, out, _ = run_cli(capsys, "enumerate", *argv, "--max-lambda2")
        assert code == 0
        rec = json.loads(out)
        assert rec["parameters"]["family"] == family
        assert list(rec["results"]) == [
            "family", "enumerated", "best_lambda2", "maximizers"
        ]
        assert rec["results"]["family"] == family
        assert rec["results"]["maximizers"] == maximizers
        code, out, _ = run_cli(
            capsys, "enumerate", *argv, "--max-lambda2", "--format", "csv"
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "family,enumerated,best_lambda2,maximizers"
        assert row.startswith(family + ",")
        assert row.endswith("," + ";".join(maximizers))


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "k2", "-n", "6")
    assert code == 0
    assert json.loads(out)["results"]["passed"] is True
    # in CSV a dict cell is ;-joined key=value pairs
    code, out, _ = run_cli(capsys, "verify", "k2", "-n", "6", "--format", "csv")
    assert code == 0
    header, row = out.strip("\n").split("\n")
    assert header == "name,params,exhaustive,checked,passed,detail,witnesses"
    assert row.startswith("conjecture_k2,n=6;m=8;min_degree=2,true,11,true,")

    # n = 10 is exhaustive through the Fiedler reduction
    code, out, _ = run_cli(capsys, "verify", "k2", "-n", "10")
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["exhaustive"] and rec["results"]["checked"] == 357

    # sampled-only pass reports exit 3: past n = 24 (here n = 26)
    code, out, _ = run_cli(
        capsys, "verify", "tree2", "-d", "5", "-K", "2", "--samples", "5"
    )
    assert code == 3
    rec = json.loads(out)
    assert rec["results"]["passed"] is True and not rec["results"]["exhaustive"]

    # past the 64 vertices of a canonical form (n = 94) it still samples
    code, out, _ = run_cli(
        capsys, "verify", "tree2", "-d", "3", "-K", "5", "--samples", "5"
    )
    assert code == 3
    rec = json.loads(out)
    assert rec["results"]["passed"] is True and rec["results"]["params"]["n"] == 94

    code, _, _ = run_cli(capsys, "verify", "tree2", "-d", "3", "-K", "2")
    assert code == 0

    # exhaustive wherever the tree family is enumerable, n = 22 included
    code, out, _ = run_cli(capsys, "verify", "tree2", "-d", "3", "-K", "3")
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["exhaustive"] and rec["results"]["checked"] == 254371
    balanced = graph6_encode(_canonical_graph(bethe_tree(3, 3)))
    assert rec["results"]["witnesses"] == [balanced]


def test_verify_fail_exits_2(capsys, monkeypatch):
    failed = ConjectureReport(
        name="conjecture_k2",
        params={"n": 6, "m": 8, "min_degree": 2},
        exhaustive=True,
        checked=1,
        passed=False,
        detail="forced failure",
        witnesses=("E?Fw",),
    )
    monkeypatch.setattr(cli, "verify_conjecture_k2", lambda n, threads: failed)
    code, out, err = run_cli(capsys, "verify", "k2", "-n", "6")
    assert code == 2 and err == ""
    rec = json.loads(out)
    assert rec["results"]["passed"] is False
    assert rec["results"]["witnesses"] == ["E?Fw"]


def test_verify_echoes_only_the_options_it_reads(capsys):
    _, out, _ = run_cli(capsys, "verify", "cubic", "-K", "2")
    assert json.loads(out)["parameters"] == {"conjecture": "cubic", "K": 2}

    _, out, _ = run_cli(capsys, "verify", "k2", "-n", "6")
    assert json.loads(out)["parameters"] == {"conjecture": "k2", "n": 6}

    _, out, _ = run_cli(
        capsys, "verify", "tree2", "-d", "5", "-K", "2", "--samples", "5"
    )
    assert json.loads(out)["parameters"] == {
        "conjecture": "tree2",
        "d": 5,
        "K": 2,
        "samples": 5,
        "seed": 0,
    }

    # exhaustive: the sample options are not read, so not echoed
    _, out, _ = run_cli(capsys, "verify", "tree2", "-d", "3", "-K", "2")
    assert json.loads(out)["parameters"] == {
        "conjecture": "tree2",
        "d": 3,
        "K": 2,
    }


def test_samples_default_is_the_library_default():
    parser = _build_parser()
    args = parser.parse_args(["verify", "tree2"])
    default = inspect.signature(verify_conjecture_tree2).parameters["samples"].default
    assert args.samples == default == DEFAULT_SAMPLES


def test_augment_csv(capsys):
    code, out, _ = run_cli(capsys, "augment", "-n", "4", "-m", "6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "step,i,j,lambda2"
    assert len(lines) == 7
    assert float(lines[-1].split(",")[-1]) == pytest.approx(4.0)
    # an empty trace still prints its header
    code, out, _ = run_cli(capsys, "augment", "-n", "5", "-m", "0")
    assert code == 0 and out == "step,i,j,lambda2\n"


def test_compare_csv_and_note(capsys):
    code, out, _ = run_cli(capsys, "compare", "-n", "12", "--m-list", "18,20")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("m,augmented,bipartite_b,bipartite,regular_d")
    assert len(lines) == 3
    # m=20: 2m/n = 10/3 is not an integer -> flagged, regular cells empty
    row20 = lines[2].split(",")
    assert row20[0] == "20" and row20[4] == ""
    assert "not an integer" in lines[2]


def test_consensus(capsys):
    code, out, _ = run_cli(capsys, "consensus", "named:petersen", "--seed", "7")
    assert code == 0
    rec = json.loads(out)
    assert rec["results"]["rel_gap"] < 0.02
    assert rec["results"]["rate"] == pytest.approx(2.0, rel=0.02)


def test_timing_flag(capsys):
    _, out, _ = run_cli(capsys, "lambda2", "Ch", "--timing")
    assert "wall_time" in json.loads(out)
    _, out, _ = run_cli(capsys, "lambda2", "Ch", "--format", "csv", "--timing")
    assert out.split("\n")[0].endswith("wall_time")
    # the wall time on the first row, an empty cell on every later one
    code, out, _ = run_cli(capsys, "augment", "-n", "4", "-m", "3", "--timing")
    assert code == 0
    header, *rows = out.strip("\n").split("\n")
    assert header == "step,i,j,lambda2,wall_time"
    cells = [row.split(",") for row in rows]
    assert [c[:4] for c in cells] == [
        ["1", "0", "1", "0"], ["2", "0", "2", "0"], ["3", "0", "3", "1"]
    ]
    assert float(cells[0][4]) >= 0
    assert [c[4:] for c in cells[1:]] == [[""], [""]]


def test_timing_on_empty_table(capsys):
    # one row of empty cells carries the wall time
    code, out, _ = run_cli(capsys, "augment", "-n", "5", "-m", "0", "--timing")
    assert code == 0
    header, row = out.strip("\n").split("\n")
    assert header == "step,i,j,lambda2,wall_time"
    cells = row.split(",")
    assert cells[:4] == ["", "", "", ""]
    assert float(cells[4]) >= 0


def test_usage_errors_exit_1(capsys):
    for argv in (
        ["lambda2", "not-a-graph!!"],
        ["lambda2", "named:nonesuch"],
        ["tree-split", "named:petersen"],
        ["enumerate", "trees"],
        ["enumerate", "graphs", "-n", "5"],
        ["verify", "k2", "-n", "99"],
        ["verify", "tree2", "-d", "3", "-K", "3", "--samples", "0"],
        ["verify", "tree2", "-d", "3", "-K", "3", "--samples", "-5"],
        ["verify", "cubic", "-K", "2", "--samples", "-3"],
        ["verify", "k2", "-n", "6", "--samples", "0"],
        ["augment", "-n", "1", "-m", "0"],
        ["augment", "-n", "4097", "-m", "0"],
        ["compare", "-n", "4097", "--m-list", "4096"],
        ["compare", "-n", "9", "--m-list", ","],
        # above the worker ceiling: a parse error, before any work
        ["verify", "k2", "-n", "6", "--threads", "100000"],
        # far below the stability limit: 10 / lambda2 / dt is 5e9 steps here
        ["consensus", "A_", "--dt", "1e-9"],
        # parse errors: each command takes only the options it reads
        ["verify", "k2", "-n", "abc"],
        ["verify", "bogus"],
        ["verify", "k2", "-n", "6", "--samples", "5"],
        ["verify", "cubic", "-K", "2", "--seed", "1"],
        ["verify", "tree2", "-d", "3", "-K", "3", "--exhaustive"],
        ["enumerate", "cubic", "-n", "14", "-d", "3"],
        ["enumerate", "trees", "-n", "6", "-m", "5"],
        # only the commands that can run a sweep take --threads (and augment)
        ["lambda2", "A_", "--threads", "1"],
        ["verify", "cubic", "-K", "2", "--threads", "1"],
        ["compare", "-n", "9", "--m-list", "12", "--threads", "1"],
        # disconnected: one message whatever lambda2's float noise
        ["consensus", "C?"],
        ["consensus", "EwCW"],
        ["consensus", "FgCGG"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == "" and err.startswith("error:")
        if argv[0] == "consensus":
            message = "too fine" if "--dt" in argv else "requires a connected graph"
            assert message in err


def test_oversized_reference_tree_exits_1_at_once(capsys):
    # bethe_tree(3, 20) has 3,145,726 vertices: rejected before it is built
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "tree2", "-d", "3", "-K", "20")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert "exceeds 4096 vertices" in err


def _readme_examples():
    # every `algconn ...` line of the README's sh blocks, less the synopses
    lines, in_sh = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("algconn ") and "[" not in line:
            lines.append(line.split("#")[0])
    return lines


# the option strings of every sub-command, positionals by name
_SHARED = ("--format", "--timing")
_OPTIONS = {
    "lambda2": ("source", "--vector"),
    "bounds": ("source",),
    "tree-split": ("source",),
    "enumerate trees": ("-n", "-d", "--max-lambda2", "--threads"),
    "enumerate cubic": ("-n", "--max-lambda2", "--threads"),
    "enumerate graphs": ("-n", "-m", "--min-degree", "--max-lambda2", "--threads"),
    "verify k2": ("-n", "--threads"),
    "verify tree2": ("-d", "-K", "--samples", "--seed", "--threads"),
    "verify cubic": ("-K",),
    "augment": ("-n", "-m", "--threads"),
    "compare": ("-n", "--m-list"),
    "consensus": ("source", "--seed", "--t-end", "--dt"),
}


def _option_inventory(parser, prefix=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        options = [a.option_strings or [a.dest] for a in parser._actions]
        return {" ".join(prefix): sum(options, [])}
    table = {}
    for name, sub in subs[0].choices.items():
        table.update(_option_inventory(sub, (*prefix, name)))
    return table


def test_option_inventory():
    # an option added or removed shows up here
    table = {cmd: ["-h", "--help", *_SHARED, *own] for cmd, own in _OPTIONS.items()}
    assert _option_inventory(_build_parser()) == table


def test_threads_range_checked_when_parsed(capsys):
    # a count outside resolve_threads' range is a usage error on every
    # command that takes --threads, a plain stream and augment included
    lines = {
        "enumerate trees": "-n 4",
        "enumerate cubic": "-n 6",
        "enumerate graphs": "-n 4 -m 3",
        "verify k2": "-n 6",
        "verify tree2": "-K 2",
        "augment": "-n 3 -m 2",
    }
    assert set(lines) == {cmd for cmd, own in _OPTIONS.items() if "--threads" in own}
    for cmd, rest in lines.items():
        for k in ("0", "65", "-5"):
            code, out, err = run_cli(capsys, *f"{cmd} {rest} --threads {k}".split())
            assert code == 1 and out == "", (cmd, k)
            assert err.startswith("error:") and "threads must be in 1..64" in err


def test_benchmark_command_lines_parse(monkeypatch):
    # perfbench runs each workload's argv with --threads 1 appended
    # (perfbench/run.py); a parser change which would break the benchmark
    # fails here.  workloads.py imports only the standard library.
    target = README.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", target)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for @dataclass
    spec.loader.exec_module(workloads)
    assert len(workloads.WORKLOADS) == 4
    parser = _build_parser()
    for w in workloads.WORKLOADS.values():
        assert parser.parse_args([*w.argv, "--threads", "1"]).threads == 1, w.name


def test_readme_examples_parse():
    examples = _readme_examples()
    assert len(examples) == 12
    parser = _build_parser()
    for line in examples:
        argv = shlex.split(line)[1:]
        assert parser.parse_args(argv).func, line


def test_stdout_deterministic(capsys):
    runs = [
        run_cli(capsys, "verify", "tree2", "-d", "5", "-K", "2", "--samples", "5")[1]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    runs = [run_cli(capsys, "compare", "-n", "10", "--m-list", "15")[1] for _ in range(2)]
    assert runs[0] == runs[1]


def test_module_entry_point(package_pythonpath):
    proc = subprocess.run(
        [sys.executable, "-m", "algconn", "lambda2", "named:petersen"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_pythonpath},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["lambda2"] == 2.0
