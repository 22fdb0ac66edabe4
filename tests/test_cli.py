"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_command(capsys):
    rc = main([
        "run", "--app", "bfs", "--graph", "rmat", "--scale", "8",
        "--hosts", "4", "--layer", "lci",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "bfs" in out and "rounds" in out
    assert "total" in out and "comm" in out


def test_run_command_with_trace(tmp_path, capsys):
    trace = str(tmp_path / "t.json")
    rc = main([
        "run", "--app", "bfs", "--graph", "rmat", "--scale", "8",
        "--hosts", "4", "--layer", "lci",
        "--obs", str(tmp_path / "o.json"), "--obs-chrome", trace,
    ])
    assert rc == 0
    with open(trace) as f:
        data = json.load(f)
    assert any(e["ph"] == "X" and e["cat"] == "compute"
               for e in data["traceEvents"])


def test_run_mpi_layer_on_stampede1(capsys):
    rc = main([
        "run", "--app", "cc", "--graph", "kron", "--scale", "8",
        "--hosts", "4", "--layer", "mpi-probe", "--machine", "stampede1",
        "--mpi", "mvapich2",
    ])
    assert rc == 0
    assert "cc" in capsys.readouterr().out


def test_sweep_command(capsys):
    rc = main([
        "sweep", "--app", "bfs", "--graph", "rmat", "--scale", "8",
        "--hosts", "2", "4",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    for layer in ("lci", "mpi-probe", "mpi-rma"):
        assert layer in out


def test_sweep_gemini_excludes_rma(capsys):
    rc = main([
        "sweep", "--app", "bfs", "--graph", "rmat", "--scale", "8",
        "--hosts", "2", "--system", "gemini",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mpi-rma" not in out


def test_micro_command(capsys):
    rc = main(["micro", "--sizes", "8", "--threads", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "latency" in out and "message rate" in out
    assert "queue" in out


def test_inputs_command(capsys):
    rc = main(["inputs", "--scale", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max D_out" in out


def test_invalid_choice_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--app", "nonsense"])


@pytest.mark.parametrize("argv, flag", [
    ("run --hosts 0", "--hosts"),
    ("chaos --hosts 0", "--hosts"),
    ("profile --hosts 0", "--hosts"),
    ("commstats --hosts 0", "--hosts"),
    ("serve --hosts 0", "--hosts"),
    ("sweep --hosts 0", "--hosts"),
    ("sweep --hosts 4 0", "--hosts"),
    ("run --hosts x", "--hosts"),
    ("run --scale -1", "--scale"),
    ("serve --tape-queries 0", "--tape-queries"),
    ("serve --ppr-rounds 0", "--ppr-rounds"),
    ("serve --tape-gap -1", "--tape-gap"),
    ("serve --max-batch 0", "--max-batch"),
    ("run --app pagerank --pagerank-rounds 0", "--pagerank-rounds"),
    ("run --app pagerank --pagerank-rounds -1", "--pagerank-rounds"),
    ("micro --threads 0", "--threads"),
    ("micro --sizes -5", "--sizes"),
])
def test_bad_scenario_flag_is_one_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [err.splitlines()[-1]]
    assert f"error: argument {flag}: " in errors[0]


_TAPE = "repro-serve-tape/v1"


@pytest.mark.parametrize("verb, doc, code", [
    ("explain", [], 1),
    ("serve", [], 2),
    ("serve", {"format": _TAPE}, 2),
    ("serve", {"format": _TAPE, "spec": {}, "queries": []}, 2),
])
def test_wrong_shape_json_is_one_error_line(verb, doc, code, tmp_path,
                                            capsys):
    """Valid JSON of the wrong shape: the verb's unreadable-file exit."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = {
        "explain": ["explain", str(path)],
        "serve": ["serve", "--scale", "6", "--hosts", "2",
                  "--tape", str(path)],
    }[verb]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


_SCENARIO = {"graph": "rmat", "layer": "lci", "system": "abelian",
             "machine": "stampede2", "seed": 1}
_OUTPUTS = {"obs": None}

#: ``parse_args([verb])`` of every verb, as the parser read it before
#: the scenario flags were shared (``commstats`` and ``explain`` have
#: since lost their baseline / ``--comm`` flags, ``bench-core`` its
#: ``--repeats``).
DEFAULTS = {
    "run": {**_SCENARIO, **_OUTPUTS, "app": "bfs", "scale": 12,
            "hosts": 16, "mpi_impl": "intelmpi", "pagerank_rounds": 20,
            "obs_chrome": None, "obs_prom": None, "comm_path": None},
    "chaos": {**_SCENARIO, **_OUTPUTS, "app": "bfs", "scale": 10,
              "hosts": 4, "plan": "flaky-link", "fault_seed": None,
              "list_plans": False, "obs_chrome": None},
    "explain": {"timeline": "t.json", "check": False, "top": 5,
                "per_round": False},
    "sweep": {"app": "pagerank", "graph": "kron", "scale": 12,
              "hosts": [4, 16, 64], "system": "abelian",
              "pagerank_rounds": 10},
    "micro": {"sizes": [8, 512, 4096, 65536], "threads": [1, 4, 16, 64]},
    "inputs": {"scale": 14},
    "calibrate": {},
    "serve": {**_SCENARIO, **_OUTPUTS, "scale": 10, "hosts": 4,
              "max_batch": 8, "ppr_rounds": 10, "tape": None,
              "tape_queries": 48, "tape_seed": 7, "tape_gap": 2e-4,
              "save_tape": None, "report": None, "fault_plan": None,
              "fault_seed": None, "obs_prom": None, "comm": False},
    "bench-serve": {"out": None, "check": None},
    "profile": {**_SCENARIO, "app": "bfs", "scale": 10, "hosts": 8,
                "mpi_impl": "intelmpi", "pagerank_rounds": 20, "top": 15,
                "json_path": None, "collapsed_path": None},
    "commstats": {**_SCENARIO, "app": "bfs", "scale": 10, "hosts": 8,
                  "mpi_impl": "intelmpi", "pagerank_rounds": 20,
                  "fault_plan": None, "json_path": None, "csv_path": None,
                  "heatmap_path": None, "prom_path": None},
    "bench-core": {"out": None, "check": None},
    "lint": {"paths": [], "json_path": None, "sarif_path": None},
}


@pytest.mark.parametrize("verb", sorted(DEFAULTS))
def test_verb_defaults(verb):
    argv = [verb, "t.json"] if verb == "explain" else [verb]
    assert vars(build_parser().parse_args(argv)) == {
        "command": verb, **DEFAULTS[verb]}
