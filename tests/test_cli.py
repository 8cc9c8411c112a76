"""Command-line interface: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fcnot
from fcnot import sim
from fcnot.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# synth


def test_synth_text_diagram(capsys):
    code, out, _ = run(capsys, "synth", "--func", "x1 & x2",
                       "--construction", "general-lowwidth", "--out", "text")
    assert code == 0
    lines = out.rstrip("\n").splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("x1_0:")
    assert "H" in lines[2] and "S" in lines[2]


def test_synth_qasm(capsys):
    code, out, _ = run(capsys, "synth", "--func", "x1 & x2",
                       "--construction", "general-lowwidth", "--out", "qasm")
    assert code == 0
    assert out.startswith("qubit q[3];\nbit c[1];\n")
    assert "p(1*pi/4)" in out


def test_synth_merge_s_flag(capsys):
    _, plain, _ = run(capsys, "synth", "--func", "x1 & x2",
                      "--construction", "general-lowwidth", "--out", "qasm")
    _, merged, _ = run(capsys, "synth", "--func", "x1 & x2",
                       "--construction", "general-lowwidth", "--out", "qasm",
                       "--merge-s")
    assert plain.count("s q[2];") == merged.count("s q[2];") + 1
    assert "p(1*pi/4) q[2];" in merged  # -(theta_0 - pi/2) = pi/4


@pytest.mark.parametrize("value", ["0", "-2", "2.5", "many"])
def test_synth_nonpositive_max_columns_exits_2(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--func", "x1 & x2", "--construction", "and-depth1",
              "--max-columns", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "positive" in captured.err


def test_synth_oversized_diagram_exits_3(capsys):
    # general-depth1 at n = 11 would draw a diagram of about 460 MB
    code, out, err = run(capsys, "synth", "--func", "x1 & x11",
                         "--construction", "general-depth1")
    assert code == 3
    assert out == ""
    assert "--out qasm" in err
    code, out, _ = run(capsys, "synth", "--func", "x1 & x11",
                       "--construction", "general-depth1", "--out", "qasm")
    assert code == 0
    assert out.startswith("qubit q[4095];")


def test_synth_max_columns_wraps(capsys):
    code, out, _ = run(capsys, "synth", "--func", "x1 & x2",
                       "--construction", "general-lowwidth", "--max-columns", "1")
    assert code == 0
    assert "…" in out


def test_synth_malformed_expression_exits_2(capsys):
    code, _, err = run(capsys, "synth", "--func", "x1 & ~",
                       "--construction", "general-lowwidth")
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize("text", ["x" + "9" * 5000, "0x1:" + "9" * 5000],
                         ids=["subscript", "hex-count"])
def test_stats_5000_digit_variable_count_exits_2(capsys, text):
    code, out, err = run(capsys, "stats", "--func", text, "--construction", "general-lowwidth")
    assert (code, out) == (2, "")
    assert "out of range" in err


def test_synth_rejects_unknown_construction(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--func", "x1", "--construction", "nope"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_pass_exit_0(capsys):
    code, out, _ = run(capsys, "verify", "--func", "x1 & x2",
                       "--construction", "and-depth1")
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "PASS"


def test_verify_unverifiable_exit_3(capsys, monkeypatch):
    # every emitted circuit is under the verifier's work bound, so lower it
    monkeypatch.setattr(sim, "WORK_BOUND", 1)
    code, out, _ = run(capsys, "verify", "--func", "x1 & x2",
                       "--construction", "general-lowwidth")
    assert code == 3
    assert json.loads(out)["verdict"] == "UNVERIFIABLE"


@pytest.mark.parametrize("text", ["(" * 3000 + "x1" + ")" * 3000, "~" * 3000 + "x1"],
                         ids=["parentheses", "negations"])
def test_verify_deeply_nested_expression_exits_2(capsys, text):
    code, _, err = run(capsys, "verify", "--func", text,
                       "--construction", "and-depth1")
    assert code == 2
    assert "nested too deeply" in err


def test_verify_reproducible_bytes(capsys):
    args = ("verify", "--func", "0x96:3", "--construction", "anddg-lowwidth",
            "--seed", "7")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# stats


def test_stats_general_lowwidth(capsys):
    code, out, _ = run(capsys, "stats", "--func", "x1 & x2",
                       "--construction", "general-lowwidth")
    assert code == 0
    record = json.loads(out)
    assert record == {
        "qubits": 3, "ancillas": 0, "cnot": 6, "r1_total": 7,
        "r1_non_clifford": 7, "rotation_depth": record["rotation_depth"],
        "measurements": 0,
    }
    assert record["rotation_depth"] >= 1


def test_stats_general_depth1(capsys):
    _, out, _ = run(capsys, "stats", "--func", "x1 & x2",
                    "--construction", "general-depth1")
    record = json.loads(out)
    assert record["ancillas"] == 4
    assert record["rotation_depth"] == 1


def test_stats_anddg_lowwidth(capsys):
    _, out, _ = run(capsys, "stats", "--func", "x1 & x2",
                    "--construction", "anddg-lowwidth")
    record = json.loads(out)
    assert record["r1_non_clifford"] == 0
    assert record["measurements"] == 1


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_and2(capsys):
    code, out, _ = run(capsys, "spectrum", "--func", "x1 & x2")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [int(r[1]) for r in rows] == [2, 2, 2, -2]
    assert [r[2] for r in rows] == ["pi/4", "pi/4", "pi/4", "-pi/4"]
    assert [r[3] for r in rows] == ["no"] * 4


def test_spectrum_constant_zero(capsys):
    _, out, _ = run(capsys, "spectrum", "--func", "0x0:2")
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [int(r[1]) for r in rows] == [4, 0, 0, 0]
    assert rows[0][2] == "pi/2"
    assert [r[3] for r in rows] == ["yes"] * 4


def test_spectrum_majority_of_three(capsys):
    majority = "(x1 & x2) | (x1 & x3) | (x2 & x3)"
    _, out, _ = run(capsys, "spectrum", "--func", majority)
    rows = [line.split() for line in out.splitlines()[1:]]
    # value checked against the dense-transform oracle of its +-1 table
    assert [int(r[1]) for r in rows] == [0, 4, 4, 0, 4, 0, 0, -4]


# ---------------------------------------------------------------------------
# table


def test_table_n1_has_four_rows(capsys):
    code, out, _ = run(capsys, "table", "--n", "1",
                       "--construction", "and-lowwidth")
    assert code == 0
    lines = out.rstrip("\n").splitlines()
    assert len(lines) == 5  # header plus one row per function
    assert lines[0].startswith("function,")


def test_table_n2_exhaustive_all_pass(capsys):
    _, out, _ = run(capsys, "table", "--n", "2",
                    "--construction", "general-lowwidth")
    lines = out.rstrip("\n").splitlines()
    assert len(lines) == 17
    assert all(line.endswith(",PASS") for line in lines[1:])


def test_table_sampled_row_count(capsys):
    _, out, _ = run(capsys, "table", "--n", "4",
                    "--construction", "and-depth1", "--sample", "10",
                    "--seed", "3")
    lines = out.rstrip("\n").splitlines()
    assert len(lines) == 11


def test_table_requires_sample_for_large_n(capsys):
    code, _, err = run(capsys, "table", "--n", "4",
                       "--construction", "and-depth1")
    assert code == 2
    assert "--sample" in err


def test_table_samples_wide_functions(capsys):
    code, out, _ = run(capsys, "table", "--n", "7",
                       "--construction", "general-lowwidth", "--sample", "2")
    assert code == 0
    lines = out.rstrip("\n").splitlines()
    assert len(lines) == 3
    assert all(line.endswith(",PASS") for line in lines[1:])


@pytest.mark.parametrize("n", ["0", "17"])
def test_table_rejects_out_of_range_n(capsys, n):
    code, out, err = run(capsys, "table", "--n", n,
                         "--construction", "and-depth1", "--sample", "1")
    assert code == 2
    assert out == ""
    assert "--n" in err


@pytest.mark.parametrize("sample", ["0", "-1"])
def test_table_rejects_sample_below_one(capsys, sample):
    code, out, err = run(capsys, "table", "--n", "4",
                         "--construction", "and-depth1", "--sample", sample)
    assert code == 2
    assert out == ""
    assert "--sample" in err


def test_table_rejects_negative_seed(capsys):
    code, out, err = run(capsys, "table", "--n", "1",
                         "--construction", "general-depth1", "--sample", "2", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "--seed" in err


def test_table_deterministic_bytes(capsys):
    args = ("table", "--n", "2", "--construction", "anddg-depth1", "--seed", "5")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# a reader that stops early


@pytest.mark.parametrize("argv", [
    ("spectrum", "--func", "0x0:16"),
    ("synth", "--func", "(x1 & x2 & ~x3) ^ x7", "--construction", "general-depth1"),
    ("synth", "--func", "(x1 & x2 & ~x3) ^ x12", "--construction", "anddg-depth1",
     "--out", "qasm"),
])
def test_closed_output_pipe_ends_quietly(argv):
    """Closing standard output after one line, as ``| head -1`` does, ends
    the command with status 141 and nothing on standard error.  Every output
    is far larger than a pipe holds, so the closed pipe is always met.  Output
    is buffered, as by default: unbuffered (``PYTHONUNBUFFERED``), the
    interpreter drops the rest of a single write cut short by the closed pipe
    without an error, so the command may never meet it."""
    src = str(Path(fcnot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "fcnot.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 141
