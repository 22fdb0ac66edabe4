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
