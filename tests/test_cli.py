"""End-to-end CLI behaviour: exit codes, determinism, file formats."""

import csv
import dataclasses
import functools
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import cosphere
from cosphere import cli, phase, poset as poset_mod, reeb, strata, torus
from cosphere.cli import main
from cosphere.poset import IsotropyPoset, OrbitType, poset_to_json
from cosphere.torus import TorusActionSpec, build_isotropy_poset, spec_to_json
from order_oracles import pair_covers
from test_strata import (
    assert_piece_table_matches_the_reference,
    result_to_json,
    valid_posets,
)
from test_torus import weight_specs

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "lattice_golden.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce_prints_the_report(capsys):
    code, out, _ = run(capsys, "reduce", "--fixture", "t2-on-r4")
    assert code == 0
    report = json.loads(out)
    assert report["piece_count"] == 8
    assert report["poset_valid"] is True
    assert report["smooth_total_space"] is False
    assert len(report["hasse"]) == 10


def test_reduce_accepts_spec_and_poset_files_identically(tmp_path, capsys):
    spec = TorusActionSpec(k=2, n=2, weights=((1, 0), (0, 1)))
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec_to_json(spec)))
    poset_file = tmp_path / "poset.json"
    poset_file.write_text(json.dumps(poset_to_json(build_isotropy_poset(spec))))

    code_a, out_a, _ = run(capsys, "reduce", "--action", str(spec_file))
    code_b, out_b, _ = run(capsys, "reduce", "--action", str(poset_file))
    assert code_a == code_b == 0
    assert out_a == out_b


def test_reduce_writes_the_out_file(tmp_path, capsys):
    target = tmp_path / "sub" / "report.json"
    code, out, _ = run(capsys, "reduce", "--fixture", "s1-on-r2", "--out", str(target))
    assert code == 0
    assert "wrote" in out
    report = json.loads(target.read_text())
    assert report["piece_count"] == 2
    assert report["smooth_total_space"] is True


def test_missing_action_file_is_an_io_error(capsys):
    code, _, err = run(capsys, "reduce", "--action", "/no/such/file.json")
    assert code == 3
    assert "io error" in err


def test_bad_inputs_exit_2(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(capsys, "reduce", "--action", str(garbled))[0] == 2

    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    assert run(capsys, "reduce", "--action", str(array))[0] == 2

    neither = tmp_path / "neither.json"
    neither.write_text('{"foo": 1}')
    assert run(capsys, "reduce", "--action", str(neither))[0] == 2

    # both sources at once, and the required one missing
    assert run(capsys, "reduce", "--fixture", "s1-on-r2", "--action", str(neither))[0] == 2
    assert run(capsys, "verify")[0] == 2

    # not UTF-8 (a UTF-16 byte order mark), and nested past the parser's
    # recursion limit: one error line each, nothing on stdout
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b'\xff\xfe{"k": 1, "n": 1, "weights": [[1]]}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for path in (utf16, deep):
        code, out, err = run(capsys, "reduce", "--action", str(path))
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1

    broken = tmp_path / "broken_poset.json"
    broken.write_text(json.dumps({
        "dim_Q": 2, "dim_G": 1,
        "types": [{"label": "e", "dim_H": 0, "dim_Q_of": 9}],
        "order": [],
    }))
    assert run(capsys, "reduce", "--action", str(broken))[0] == 2

    # labels and order entries that are not JSON strings are malformed, not
    # spelled by str() into types such as ['e'] or 1
    circle = {"dim_Q": 2, "dim_G": 1,
              "types": [{"label": "e", "dim_H": 0, "dim_Q_of": 2},
                        {"label": "S^1", "dim_H": 1, "dim_Q_of": 0}],
              "order": [["e", "S^1"]]}
    for label, order, bad in ((["e"], [[["e"], "S^1"]], "['e']"), (1, [[1, "S^1"]], "1"),
                              (None, [], "None"), ("e", [["e", ["S^1"]]], "['S^1']"),
                              ("e", [[0, "S^1"]], "0")):
        poset = tmp_path / "nonstring_poset.json"
        poset.write_text(json.dumps({**circle, "types": [{**circle["types"][0], "label": label},
                                                         circle["types"][1]],
                                     "order": order}))
        assert run(capsys, "reduce", "--action", str(poset)) == (2, "", (
            f"error: malformed isotropy poset JSON: a label must be a string, not {bad}\n"))

    # so are finite tags, which str() once spelled as "['2']" or "True"; the
    # lattice command draws nothing
    z2 = {**circle, "types": [circle["types"][0],
                              {"label": "Z2", "dim_H": 0, "dim_Q_of": 2, "finite_tag": "2"}],
          "order": [["e", "Z2"]]}
    for tag, bad in ((["2"], "['2']"), (True, "True"), (2, "2")):
        poset = tmp_path / "tagged_poset.json"
        poset.write_text(json.dumps({**z2, "types": [z2["types"][0],
                                                     {**z2["types"][1], "finite_tag": tag}]}))
        drawn = tmp_path / "tagged"
        assert run(capsys, "lattice", "--action", str(poset), "--out", str(drawn)) == (2, "", (
            f"error: malformed isotropy poset JSON: a finite_tag must be a string, not {bad}\n"))
        assert not drawn.exists()
    poset.write_text(json.dumps(z2))
    assert run(capsys, "lattice", "--action", str(poset), "--out", str(drawn))[0] == 0

    # a < b < a: the closure holds (a, a), so the poset is refused as it is
    # built, naming the reflexive pairs
    cyclic = tmp_path / "cyclic_poset.json"
    cyclic.write_text(json.dumps({
        "dim_Q": 2, "dim_G": 1,
        "types": [{"label": "a", "dim_H": 0, "dim_Q_of": 2},
                  {"label": "b", "dim_H": 1, "dim_Q_of": 1}],
        "order": [["a", "b"], ["b", "a"]],
    }))
    assert run(capsys, "reduce", "--action", str(cyclic)) == (
        2, "", "error: invalid isotropy poset: order is not irreflexive: ('a', 'a'); "
        "order is not antisymmetric: 'a' and 'b'; order is not irreflexive: ('b', 'b')\n")

    # a spec over the orbit-type cap is refused, naming its type count
    (over,) = [r for r in json.loads(GOLDEN.read_text()) if r["types"] > poset_mod.MAX_TYPES]
    spec = tmp_path / "over_cap.json"
    spec.write_text(json.dumps({k: over[k] for k in ("k", "n", "weights")}))
    assert run(capsys, "reduce", "--action", str(spec)) == (
        2, "", f"error: {over['types']} orbit types exceeds the cap of {poset_mod.MAX_TYPES}\n")

    # so is a poset file over the cap, by the cap alone, before any order work
    m = poset_mod.MAX_TYPES + 1
    chain = tmp_path / "chain_poset.json"
    chain.write_text(json.dumps({
        "dim_Q": 2 * m, "dim_G": 1,
        "types": [{"label": f"t{i}", "dim_H": 0, "dim_Q_of": 2 * m - i}
                  | ({"finite_tag": str(i + 1)} if i else {}) for i in range(m)],
        "order": [[f"t{i}", f"t{i + 1}"] for i in range(m - 1)],
    }))
    assert run(capsys, "reduce", "--action", str(chain)) == (
        2, "", f"error: invalid isotropy poset: {m} orbit types exceeds the cap of {m - 1}\n")

    # fields that are not integers, including floats and bools, which must
    # not be truncated to the report of another spec
    for bad in ({"k": "x", "n": 1, "weights": [[1]]},
                {"k": 1, "n": 1, "weights": [["1.5"]]},
                {"k": 1, "n": 1, "weights": [[1.5]]},
                {"k": 1.9, "n": 1, "weights": [[1]]},
                {"k": 1, "n": 1, "weights": [[True]]}):
        spec = tmp_path / "bad_spec.json"
        spec.write_text(json.dumps(bad))
        code, _, err = run(capsys, "reduce", "--action", str(spec))
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1

    # poset fields that are not integers are refused, not truncated
    good = poset_to_json(build_isotropy_poset(TorusActionSpec(k=1, n=2, weights=((1, 1),))))
    for field, value in (("dim_G", 2.9), ("dim_Q", 4.5), ("dim_H", "1"),
                         ("dim_Q_of", 2.5), ("dim_H", True)):
        bad = json.loads(json.dumps(good))
        if field in bad:
            bad[field] = value
        else:
            bad["types"][-1][field] = value
        poset_file = tmp_path / "bad_poset.json"
        poset_file.write_text(json.dumps(bad))
        code, _, err = run(capsys, "reduce", "--action", str(poset_file))
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert f"{field} must be an integer, not {value!r}" in err

    for args in (["verify", "--fixture", "s1-on-r2", "--count", "-5"],
                 ["flow", "--fixture", "s1-on-r2", "--step", "0"],
                 ["flow", "--fixture", "s1-on-r2", "--t-end", "-1"],
                 ["flow", "--fixture", "s1-on-r2", "--t-end", "nan"],
                 # run sizes past MAX_SAMPLES and MAX_STEPS
                 ["verify", "--fixture", "s1-on-r2", "--count", "1000000000000"],
                 ["verify", "--fixture", "s1-on-r2", "--count", str(phase.MAX_SAMPLES + 1)],
                 ["examples", "--count", str(phase.MAX_SAMPLES + 1),
                  "--out", str(tmp_path / "examples")],
                 ["flow", "--fixture", "s1-on-r2", "--step", "1e-300"],
                 ["flow", "--fixture", "s1-on-r2", "--t-end", "1e300"],
                 # negative seeds, also where every probe seed would be positive
                 ["flow", "--fixture", "s1-on-r2", "--seed", "-1"],
                 ["verify", "--fixture", "s1-on-r2", "--count", "10", "--seed", "-1"],
                 ["verify", "--fixture", "s1-on-r2", "--count", "10", "--seed", "-5000000"],
                 ["examples", "--count", "10", "--seed", "-1",
                  "--out", str(tmp_path / "examples")],
                 # membership bands that are not finite and positive
                 ["flow", "--fixture", "s1-on-r2", "--t-end", "0.1", "--tolerance", "nan"],
                 ["verify", "--fixture", "s1-on-r2", "--count", "10", "--tolerance", "nan"],
                 ["verify", "--fixture", "t2-on-r4", "--count", "10", "--tolerance", "-1"],
                 ["verify", "--fixture", "s1-on-r2", "--count", "10", "--tolerance", "inf"],
                 ["verify", "--fixture", "s1-on-r2", "--count", "10", "--tolerance", "0"],
                 ["examples", "--count", "10", "--tolerance", "nan",
                  "--out", str(tmp_path / "examples")]):
        code, _, err = run(capsys, *args)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1

    # every refusal comes before any output: nothing on stdout, no file, and
    # the seed is checked also where --start leaves it unread
    refused = tmp_path / "refused"
    for args in (["flow", "--fixture", "s1-on-r2", "--start", "0,0,1,0", "--seed", "-1"],
                 ["flow", "--fixture", "s1-on-r2", "--start", "0,0,1,0", "--seed", "-1",
                  "--out", str(refused / "f.csv")],
                 ["verify", "--fixture", "s1-on-r2", "--seed", "-1", "--out", str(refused)],
                 ["examples", "--count", "10", "--seed", "-1", "--out", str(refused)],
                 ["examples", "--count", "10", "--tolerance", "nan", "--out", str(refused)],
                 ["verify", "--fixture", "s1-on-r2", "--count", str(phase.MAX_SAMPLES + 1),
                  "--out", str(refused)],
                 ["flow", "--fixture", "s1-on-r2", "--step", "1e-300",
                  "--out", str(refused / "f.csv")]):
        code, out, err = run(capsys, *args)
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not refused.exists()

    # examples runs both fixtures, so argparse refuses a --fixture for it
    with pytest.raises(SystemExit) as exc:
        main(["examples", "--fixture", "s1-on-r2", "--count", "10", "--out", str(refused)])
    assert exc.value.code == 2
    assert not refused.exists()


def test_reduce_refuses_a_torus_rank_past_the_plane_cap(tmp_path, capsys):
    # k rows per support lattice: refused as the spec is built, before any
    # normal form, however many rows the file holds
    rng = np.random.default_rng(0)
    for k in (torus.MAX_PLANES + 1, 1000):
        weights = rng.integers(-torus.MAX_WEIGHT, torus.MAX_WEIGHT + 1, size=(k, 12))
        weights[0] = 1  # no zero column
        spec = tmp_path / f"k{k}.json"
        spec.write_text(json.dumps({"k": k, "n": 12, "weights": weights.tolist()}))
        start = time.process_time()
        code, out, err = run(capsys, "reduce", "--action", str(spec))
        assert time.process_time() - start < 0.2
        assert (code, out) == (2, "")
        assert err == f"error: k = {k} torus factors: each support lattice has k rows, " \
            f"capped at {torus.MAX_PLANES}\n"
    weights = [[1, 0], [0, 1]] + [[j % 5 - 2, 1] for j in range(torus.MAX_PLANES - 2)]
    spec = tmp_path / "k12.json"
    spec.write_text(json.dumps({"k": torus.MAX_PLANES, "n": 2, "weights": weights}))
    code, out, _ = run(capsys, "reduce", "--action", str(spec))
    assert code == 0 and json.loads(out)["poset_valid"] is True


def test_argparse_rejects_unknown_subcommands():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# each subcommand's flags in --help order, as (option, type, default)
PARSER_FLAGS = {
    "lattice": [("--action", None, None), ("--fixture", None, None), ("--out", None, None)],
    "reduce": [("--action", None, None), ("--fixture", None, None), ("--out", None, None)],
    "verify": [("--fixture", None, None), ("--out", None, None), ("--seed", int, 0),
               ("--count", int, 10000), ("--tolerance", float, 1e-8)],
    "flow": [("--fixture", None, None), ("--out", None, None), ("--seed", int, 0),
             ("--t-end", float, 2.0), ("--step", float, 1e-3), ("--tolerance", float, 1e-8),
             ("--start", None, None)],
    "examples": [("--out", None, None), ("--seed", int, 0), ("--count", int, 10000),
                 ("--t-end", float, 2.0), ("--step", float, 1e-3),
                 ("--tolerance", float, 1e-8)],
}


def test_parser_flags_and_defaults_are_pinned(capsys):
    (commands,) = [a.choices for a in cli.PARSER._actions if a.choices]
    assert list(commands) == list(PARSER_FLAGS)
    for name, parser in commands.items():
        flags = [(a.option_strings[-1], a.type, a.default)
                 for a in parser._actions if a.option_strings != ["-h", "--help"]]
        assert flags == PARSER_FLAGS[name], name
        # usage names each value by its flag, --tolerance TOLERANCE among them
        usage = parser.format_usage()
        for flag, _, _ in PARSER_FLAGS[name]:
            if flag != "--fixture":
                assert f"[{flag} {flag[2:].upper().replace('-', '_')}]" in usage, (name, flag)
    # the commands that need a source refuse none or two with one error line
    for args in (["verify"], ["flow"], ["reduce"], ["lattice"],
                 ["reduce", "--fixture", "s1-on-r2", "--action", "spec.json"],
                 ["lattice", "--fixture", "s1-on-r2", "--action", "spec.json"]):
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1


def test_lattice_writes_deterministic_dot_files(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(capsys, "lattice", "--fixture", "t2-on-r4", "--out", str(out_a))[0] == 0
    assert run(capsys, "lattice", "--fixture", "t2-on-r4", "--out", str(out_b))[0] == 0
    iso = (out_a / "isotropy.dot").read_text()
    assert iso == (out_b / "isotropy.dot").read_text()
    assert '"e" -> "S^1×e";' in iso
    cl = (out_a / "cl_strata.dot").read_text()
    assert cl == (out_b / "cl_strata.dot").read_text()
    assert cl.count(" -> ") == 10


def test_verify_writes_report_and_samples(tmp_path, capsys):
    out_dir = tmp_path / "verify"
    code, out, _ = run(
        capsys, "verify", "--fixture", "t2-on-r4",
        "--count", "150", "--out", str(out_dir),
    )
    assert code == 0
    assert "verify t2-on-r4: PASS" in out
    report = json.loads((out_dir / "report.json").read_text())
    assert report["passed"] is True

    rows = list(csv.reader(io.StringIO((out_dir / "samples.csv").read_text())))
    header = rows[0]
    assert header[:4] == ["x_1", "x_2", "x_3", "x_4"]
    assert header[-2:] == ["stratum", "residual"]
    assert "J_1" in header and "p4_2" in header
    assert len(rows) == 151
    strata_seen = {r[header.index("stratum")] for r in rows[1:]}
    assert "CC(e)" in strata_seen


@pytest.mark.parametrize("fixture, seed, count", [
    ("s1-on-r2", 0, 1200), ("t2-on-r4", 7, 150),
])
def test_verify_samples_are_the_first_verified_samples(fixture, seed, count, tmp_path,
                                                        capsys, monkeypatch):
    # record what the battery draws: its first call is the generic probe
    drawn = []

    def recording(*args, **kwargs):
        drawn.append(phase.zero_level_arrays(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(cosphere.checks, "zero_level_arrays", recording)
    code, _, _ = run(capsys, "verify", "--fixture", fixture, "--seed", str(seed),
                     "--count", str(count), "--out", str(tmp_path))
    assert code == 0
    header, *rows = csv.reader(io.StringIO((tmp_path / "samples.csv").read_text()))
    dim = 4 * cosphere.get_fixture(fixture).spec.n  # the x and u columns
    assert header[:dim] == [f"{c}_{i + 1}" for c in "xu" for i in range(dim // 2)]
    x, u = drawn[0]
    assert len(rows) == min(count, 1000) and len(x) == count
    # bit for bit, signed zeros included
    assert np.array([[float(c) for c in row[:dim]] for row in rows]).view(np.int64).tolist() \
        == np.hstack([x, u])[:len(rows)].view(np.int64).tolist()


def test_verify_with_no_generic_samples_fails_as_a_verdict(tmp_path, capsys):
    # zero rows are an empty sample, not a crash: the generic probe fails
    code, out, err = run(
        capsys, "verify", "--fixture", "t2-on-r4", "--count", "0",
        "--out", str(tmp_path),
    )
    assert (code, err) == (1, "")
    assert "verify t2-on-r4: FAIL" in out
    assert json.loads((tmp_path / "report.json").read_text())["probes"][0]["count"] == 0
    assert (tmp_path / "samples.csv").read_text().count("\n") == 1


def test_verify_output_is_byte_stable(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out_dir in (out_a, out_b):
        code, _, _ = run(
            capsys, "verify", "--fixture", "s1-on-r2",
            "--count", "100", "--out", str(out_dir),
        )
        assert code == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "samples.csv").read_bytes() == (out_b / "samples.csv").read_bytes()


def test_flow_csv_from_a_seam_start(tmp_path, capsys):
    target = tmp_path / "traj.csv"
    code, out, _ = run(
        capsys, "flow", "--fixture", "t2-on-r4",
        "--start", "0,0,0,0,1,0,0,0",
        "--t-end", "0.5", "--step", "0.01",
        "--out", str(target),
    )
    assert code == 0
    summary = json.loads(out[: out.index("wrote")])
    assert summary["passed"] is True
    assert summary["rows"] == 51

    rows = list(csv.reader(io.StringIO(target.read_text())))
    header = rows[0]
    assert header[0] == "t"
    col = header.index("stratum")
    assert rows[1][col] == "Seam(T^2>e×S^1)"
    assert rows[-1][col] == "CC(e×S^1)"
    assert all(r[col] == "CC(e×S^1)" for r in rows[2:])


@pytest.mark.parametrize("start, row, label", [
    ("0.30003,0,0,0,-1,0,0,0", 300, "Seam(T^2>e×S^1)"),
    ("0.30003,0,0.2,0,-0.6,0,0.8,0", 500, "Seam(S^1×e>e)"),
    ("0,0,0.40002,0,0,0,-1,0", 400, "Seam(T^2>S^1×e)"),
])
def test_flow_csv_labels_every_row_within_the_band(capsys, start, row, label):
    # on that row each line passes 2e-5 to 3e-5 from the origin of one
    # plane, where p1 - p3 = 2 |x_j|^2 is inside the band but p2 = 2 x_j . u_j
    # is not
    code, out, _ = run(
        capsys, "flow", "--fixture", "t2-on-r4", "--start", start, "--t-end", "1"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1001
    assert rows[row]["stratum"] == label
    assert all(r["stratum"] != "(unresolved)" for r in rows)
    assert all(float(r["residual"]) < phase.MEMBERSHIP_BAND for r in rows)


def test_flow_labels_every_row_far_from_the_origin(tmp_path, capsys):
    # from t = 92 on the base point has |x| > 90, where the cone value's
    # rounding, about eps p1^2, exceeds a band of 1e-8 that does not scale
    # with p1^2
    target = tmp_path / "long.csv"
    code, out, _ = run(capsys, "flow", "--fixture", "s1-on-r2", "--t-end", "300",
                       "--step", "0.5", "--out", str(target))
    summary = json.loads(out[: out.index("wrote")])
    assert (code, summary["unresolved"], summary["passed"], summary["rows"]) == (0, 0, True, 601)
    rows = list(csv.DictReader(io.StringIO(target.read_text())))
    assert len(rows) == 601 and all(r["stratum"] == "CC(e)" for r in rows)
    # a start with |x| = 100: p1_1 = 10,001, and the t = 0.01 row as well
    code, out, _ = run(capsys, "flow", "--fixture", "t2-on-r4",
                       "--start", "100,0,0,0,1,0,0,0", "--t-end", "0.01", "--step", "0.01")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0 and [r["stratum"] for r in rows] == ["CC(e×S^1)"] * 2


def test_flow_fails_on_unresolved_rows(tmp_path, capsys):
    # a band of 1e-300 leaves rows unlocated: the summary counts them and
    # the run fails, with the CSV written all the same
    target = tmp_path / "tight.csv"
    code, out, _ = run(capsys, "flow", "--fixture", "t2-on-r4", "--t-end", "0.1",
                       "--tolerance", "1e-300", "--out", str(target))
    summary = json.loads(out[: out.index("wrote")])
    labels = [r["stratum"] for r in csv.DictReader(io.StringIO(target.read_text()))]
    assert code == 1 and summary["passed"] is False
    assert summary["unresolved"] == labels.count("(unresolved)") > 0
    assert all(v <= phase.IDENTITY_TOL for v in summary["drift"].values())


def test_flow_rejects_bad_starts(capsys):
    # off the zero level: u has angular mass
    code, _, err = run(
        capsys, "flow", "--fixture", "t2-on-r4", "--start", "1,0,0,0,0,1,0,0"
    )
    assert code == 2
    assert "zero level" in err
    assert run(capsys, "flow", "--fixture", "t2-on-r4", "--start", "1,0")[0] == 2
    code, _, err = run(
        capsys, "flow", "--fixture", "t2-on-r4", "--start", "0,0,0,0,2,0,0,0"
    )
    assert code == 2
    # not a number, and numbers that are not finite
    for start in ("a,b,c,d", "nan,nan,nan,nan", "nan,0,1,0", "0,0,inf,0"):
        code, _, err = run(capsys, "flow", "--fixture", "s1-on-r2", "--start", start)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    # a good start with a membership band that is not finite and positive
    for band in ("nan", "0", "-1e-8", "inf"):
        code, _, err = run(capsys, "flow", "--fixture", "s1-on-r2", "--start", "0,0,1,0",
                           "--t-end", "0.1", f"--tolerance={band}")
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert "band must be finite and positive" in err


def test_flow_stdout_matches_file_output(tmp_path, capsys):
    # a short run, and the default 2,001 rows, spelled in eight blocks
    for fixture, extra, lines in (("s1-on-r2", ["--t-end", "0.2", "--step", "0.05"], 6),
                                  ("t2-on-r4", [], 2002)):
        args = ["flow", "--fixture", fixture, "--seed", "4", *extra]
        code, out, _ = run(capsys, *args)
        assert code == 0
        target = tmp_path / "t.csv"
        code2, _, _ = run(capsys, *args, "--out", str(target))
        assert code2 == 0
        assert out == target.read_text()
        assert out.count("\n") == lines
    assert lines > 7 * cli._CSV_BLOCK


def test_flow_fails_before_the_first_row_without_a_file(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise phase.PhaseError("no piece for you")

    monkeypatch.setattr(phase, "locate_rows", refuse)
    target = tmp_path / "t.csv"
    code, _, err = run(capsys, "flow", "--fixture", "s1-on-r2", "--out", str(target))
    assert (code, err) == (2, "error: no piece for you\n")
    assert not target.exists()


def test_verdicts_fail_on_nan(capsys, monkeypatch):
    # the builtin max returns its first argument past a NaN: max(0.0, nan) is 0.0
    nan = math.nan
    monkeypatch.setattr(reeb, "conservation_report", lambda tables: {
        "p4_drift": 0.0, "plane_mass_drift": nan, "cosphere_sum_drift": nan})
    code, out, _ = run(capsys, "flow", "--fixture", "s1-on-r2", "--t-end", "0.1",
                       "--out", os.devnull)
    assert code == 1 and '"passed": false' in out
    fx = cosphere.get_fixture("s1-on-r2")
    checks = cosphere.checks.flow_checks(fx, starts=10)["checks"]
    assert checks == {"closed_form_matches_exact": True, "rk4_endpoint": True,
                      "rk4_drift": False, "seam_flow_lands_in_cc": True}

    # a NaN at the second grid time, and in the endpoint's u only
    flowed_tables, flow_exact = reeb.flowed_tables, reeb.flow_exact
    monkeypatch.setattr(reeb, "flowed_tables",
                        lambda tables, t: flowed_tables(tables, t) + (nan if t == 0.5 else 0.0))
    monkeypatch.setattr(reeb, "flow_exact", lambda point, t: types.SimpleNamespace(
        x=flow_exact(point, t).x, u=np.full_like(point.u, nan)))
    report = cosphere.checks.flow_checks(fx, starts=10)
    assert math.isnan(report["closed_vs_exact_max"])
    assert math.isnan(report["rk4_endpoint_error"])
    assert not report["checks"]["closed_form_matches_exact"]
    assert not report["checks"]["rk4_endpoint"]


def record_public_calls(monkeypatch) -> tuple[set[str], set[str]]:
    """Wrap every function of ``cosphere.__all__`` wherever a cosphere module
    bound it.  Returns (public function names, names called so far); the
    second set fills as the wrappers run."""
    called: set[str] = set()
    public = {
        id(obj): (name, obj)
        for name in cosphere.__all__
        if callable(obj := getattr(cosphere, name)) and not isinstance(obj, type)
    }

    def recorder(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "cosphere" and not mod_name.startswith("cosphere."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in public:
                monkeypatch.setattr(mod, attr, recorder(*public[id(obj)]))
    return {name for name, _ in public.values()}, called


def exercise_api(fixture, seed):
    """Call every public operation of the package once on the fixture."""
    spec = fixture.spec
    poset = torus.build_isotropy_poset(spec)
    result = strata.cl_stratification(poset)

    assert poset_mod.transitive_closure(poset.under) == poset.under
    poset_mod.principal_type(poset)
    back = poset_mod.poset_from_json(poset_mod.poset_to_json(poset))
    assert back == poset
    poset_mod.poset_to_dot(poset)

    assert torus.spec_from_json(torus.spec_to_json(spec)) == spec

    assert (not strata.semifree_diagnostics(poset)) == result.smooth_total_space

    x, u = phase.zero_level_arrays(spec, seed=seed, count=4)
    p = phase.PhasePoint(x[0], u[0])
    image = phase.hilbert_map(spec, p)
    phase.check_reduced_membership(fixture, image)
    phase.k0_project(image)

    reeb.flow_exact(p, 0.5)
    reeb.flow_rk4(p, t_end=0.1, step=0.01)


def test_examples_runs_the_full_battery_and_covers_the_api(tmp_path, capsys, monkeypatch):
    public, called = record_public_calls(monkeypatch)
    code, out, _ = run(
        capsys, "examples", "--count", "150",
        "--t-end", "0.5", "--step", "0.01",
        "--out", str(tmp_path / "artifacts"),
    )
    assert code == 0
    assert "examples: PASS" in out
    assert "s1-on-r2" in out and "t2-on-r4" in out
    # the frontier of each fixture counted by pairs and by covering arrows
    assert "  frontier: 19 pairs, 10 covering arrows" in out.splitlines()
    for name in ("s1-on-r2", "t2-on-r4"):
        exercise_api(cosphere.get_fixture(name), seed=0)
    assert called == public
    # every artifact the battery promises actually exists
    for name in ("s1-on-r2", "t2-on-r4"):
        base = tmp_path / "artifacts" / name
        for artifact in ("isotropy.dot", "cl_strata.dot", "reduce.json",
                         "report.json", "samples.csv", "trajectory.csv"):
            assert (base / artifact).exists()


def test_examples_passes_its_arguments_to_every_command(tmp_path, capsys):
    # a band of 1e-300 leaves almost every row unlocated, so verify fails;
    # the flow export still runs, on the same band
    argv = ["--seed", "3", "--t-end", "0.3", "--step", "0.01", "--tolerance", "1e-300"]
    code, out, _ = run(capsys, "examples", "--count", "150", *argv,
                       "--out", str(tmp_path / "examples"))
    assert code == 1 and "examples: FAIL" in out
    for name in ("s1-on-r2", "t2-on-r4"):
        solo = tmp_path / "solo" / name
        run(capsys, "lattice", "--fixture", name, "--out", str(solo))
        run(capsys, "reduce", "--fixture", name, "--out", str(solo / "reduce.json"))
        run(capsys, "verify", "--fixture", name, "--count", "150", "--seed", "3",
            "--tolerance", "1e-300", "--out", str(solo))
        run(capsys, "flow", "--fixture", name, *argv, "--out", str(solo / "trajectory.csv"))
        for artifact in ("isotropy.dot", "cl_strata.dot", "reduce.json",
                         "report.json", "samples.csv", "trajectory.csv"):
            assert (tmp_path / "examples" / name / artifact).read_bytes() == \
                (solo / artifact).read_bytes(), (name, artifact)
        assert "(unresolved)" in (solo / "trajectory.csv").read_text()


# ------------------------------------------------------- the JSON writer

def json_oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def reduce_text(result) -> str:
    return "".join(cli._reduce_report(result))


def test_reports_match_the_json_module(tmp_path, capsys):
    for ref in json.loads(GOLDEN.read_text()):
        if ref["types"] > poset_mod.MAX_TYPES:
            continue
        spec = TorusActionSpec(k=ref["k"], n=ref["n"],
                               weights=tuple(map(tuple, ref["weights"])))
        result = strata.cl_stratification(build_isotropy_poset(spec))
        assert reduce_text(result) == json_oracle(result_to_json(result))
    # the largest report the cap admits, as `reduce` writes it: 64 types,
    # 599 pieces and 30,434 frontier pairs
    (top,) = [r for r in json.loads(GOLDEN.read_text()) if r["types"] == poset_mod.MAX_TYPES]
    spec_file = tmp_path / "top.json"
    spec_file.write_text(json.dumps({"k": top["k"], "n": top["n"], "weights": top["weights"]}))
    report_file = tmp_path / "top-report.json"
    code, _, _ = run(capsys, "reduce", "--action", str(spec_file), "--out", str(report_file))
    text = report_file.read_text()
    assert code == 0 and len(json.loads(text)["frontier"]) == top["frontier_pairs"] == 30434
    assert text == json_oracle(json.loads(text))
    code, _, _ = run(capsys, "verify", "--fixture", "t2-on-r4", "--count", "200",
                     "--out", str(tmp_path / "verify"))
    text = (tmp_path / "verify" / "report.json").read_text(encoding="utf-8")
    assert code == 0 and text == json_oracle(json.loads(text))
    code, out, _ = run(
        capsys, "flow", "--fixture", "s1-on-r2", "--t-end", "0.5",
        "--out", str(tmp_path / "flow.csv"),
    )
    summary = out[: out.index("wrote")]
    assert code == 0 and summary == json_oracle(json.loads(summary))


def hand_poset(labels, dim_q_of, dim_h, order, dim_g, dim_q):
    types = tuple(OrbitType(label, h, is_identity=(i == 0))
                  for i, (label, h) in enumerate(zip(labels, dim_h)))
    return IsotropyPoset.from_pairs(types, order, dict(zip(labels, dim_q_of)), dim_g, dim_q)


# one type: empty frontier and hasse
ONE_TYPE = hand_poset(("e",), (3,), (0,), (), 0, 3)
# a transitive action: no starred type, so empty cl_strata, contact_strata
# and starred
NO_STARRED = hand_poset(("e",), (2,), (0,), (), 2, 2)
# the two-plane lattice with labels that JSON escapes and a % template
# would read as a conversion
E, A, B, T = 'e%s"', 'S^1×"a"', "b\\%d×", "T^2%%"
ESCAPED_LABELS = hand_poset((E, A, B, T), (4, 2, 2, 0), (0, 1, 1, 2),
                            {(E, A), (E, B), (A, T), (B, T), (E, T)}, 2, 4)


@given(st.one_of(valid_posets(), weight_specs(max_n=5)))
@example(ONE_TYPE)
@example(NO_STARRED)
@example(ESCAPED_LABELS)
def test_reduce_report_is_the_json_of_its_oracle(source):
    if isinstance(source, TorusActionSpec):
        source = build_isotropy_poset(source)
    result = strata.cl_stratification(source)
    oracle = result_to_json(result)
    text = reduce_text(result)
    assert text == json_oracle(oracle)
    assert json.loads(text) == oracle


def test_reduce_report_edge_cases_reach_their_shapes():
    one = result_to_json(strata.cl_stratification(ONE_TYPE))
    assert one["frontier"] == one["hasse"] == [] and one["piece_count"] == 1
    empty = result_to_json(strata.cl_stratification(NO_STARRED))
    assert empty["cl_strata"] == empty["contact_strata"] == empty["starred"] == []
    escaped = result_to_json(strata.cl_stratification(ESCAPED_LABELS))
    assert (escaped["piece_count"], len(escaped["frontier"]), len(escaped["hasse"])) == (8, 19, 10)
    assert {E, A, B} == set(escaped["starred"])


def escaped_poset_file(tmp_path) -> Path:
    path = tmp_path / "escaped.json"
    path.write_text(json.dumps(poset_to_json(ESCAPED_LABELS)), encoding="utf-8")
    return path


def test_lattice_never_builds_the_frontier(tmp_path, capsys, monkeypatch):
    # the DOT files draw the covers; only `reduce` reads the frontier
    sources = [("--fixture", "s1-on-r2"), ("--fixture", "t2-on-r4"),
               ("--action", str(escaped_poset_file(tmp_path)))]

    def dot_files(tag):
        for i, source in enumerate(sources):
            out = tmp_path / tag / str(i)
            assert run(capsys, "lattice", *source, "--out", str(out))[0] == 0
            yield [(out / name).read_bytes() for name in ("isotropy.dot", "cl_strata.dot")]

    drawn = list(dot_files("before"))

    def refuse(result):
        raise AssertionError("the frontier was built")

    monkeypatch.setattr(strata, "frontier", refuse)
    with pytest.raises(AssertionError):
        strata.cl_stratification(ESCAPED_LABELS).frontier
    assert list(dot_files("after")) == drawn


def test_reduce_builds_the_frontier_once(capsys, monkeypatch):
    plain = run(capsys, "reduce", "--fixture", "t2-on-r4")
    builds = []
    build, stratify = strata.frontier, strata.cl_stratification

    def counted(result):
        builds.append(result)
        return build(result)

    def traced(poset):
        # a tracer counts the frontier pairs of every stratification
        result = stratify(poset)
        assert len(result.frontier) == 19
        return result

    monkeypatch.setattr(strata, "frontier", counted)
    monkeypatch.setattr(strata, "cl_stratification", traced)
    assert run(capsys, "reduce", "--fixture", "t2-on-r4") == plain
    assert len(builds) == 1


def test_reduce_reads_only_the_piece_table(tmp_path, capsys, monkeypatch):
    # the writer builds no Stratum and no view of the result, the frontier
    # included, and writes the same bytes as with them
    sources = [("--fixture", "s1-on-r2"), ("--fixture", "t2-on-r4"),
               ("--action", str(escaped_poset_file(tmp_path)))]
    plain = [run(capsys, "reduce", *source) for source in sources]
    built, results = [], []
    stratum, stratify = strata.Stratum, strata.cl_stratification

    def counted(*args, **kwargs):
        built.append(args or kwargs)
        return stratum(*args, **kwargs)

    def kept(poset):
        results.append(stratify(poset))
        return results[-1]

    def refuse(result):
        raise AssertionError("result.frontier was read")

    monkeypatch.setattr(strata, "Stratum", counted)
    monkeypatch.setattr(strata, "cl_stratification", kept)
    monkeypatch.setattr(strata.StratificationResult, "frontier", property(refuse))
    assert [run(capsys, "reduce", *source) for source in sources] == plain
    assert built == [] and len(results) == len(sources)
    assert not any({"cl_strata", "contact_strata", "starred"} & set(vars(r)) for r in results)


def test_escaped_piece_table_matches_the_reference():
    assert_piece_table_matches_the_reference(ESCAPED_LABELS)


DOT_STRING = r'"((?:[^"\\]|\\.)*)"'
DOT_NODE = re.compile(rf"  {DOT_STRING} \[label={DOT_STRING}\];")
DOT_EDGE = re.compile(rf"  {DOT_STRING} -> {DOT_STRING};")


def unescape_dot(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text)


def test_dot_files_escape_quotes_and_backslashes(tmp_path, capsys):
    # every line of both files is a well-formed node or edge, and the
    # unescaped names are the labels, the pieces and their covers
    out = tmp_path / "dot"
    assert run(capsys, "lattice", "--action", str(escaped_poset_file(tmp_path)),
               "--out", str(out))[0] == 0
    result = strata.cl_stratification(ESCAPED_LABELS)
    expected = {
        "isotropy.dot": ("isotropy", "({})\\n", {E, A, B, T},
                         set(pair_covers(ESCAPED_LABELS.order))),
        "cl_strata.dot": ("cl_strata", "{}\\n", {s.name for s in result.cl_strata},
                          {(a, b) for a, covered in result.hasse.rows for b in covered}),
    }
    for name, (graph, label_start, nodes, edges) in expected.items():
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        assert lines[:2] == [f"digraph {graph} {{", '  rankdir="BT";'] and lines[-1] == "}"
        drawn_nodes, drawn_edges = set(), set()
        for line in lines[2:-1]:
            node, edge = DOT_NODE.fullmatch(line), DOT_EDGE.fullmatch(line)
            assert node or edge, line
            if node:
                assert node[2].startswith(label_start.format(node[1])), line
                drawn_nodes.add(unescape_dot(node[1]))
            else:
                drawn_edges.add((unescape_dot(edge[1]), unescape_dot(edge[2])))
        assert (drawn_nodes, drawn_edges) == (nodes, edges)


# -------------------------------------------------------- the CSV writer

def csv_oracle(fixture, x, u, band, times=None) -> str:
    """The CSV text as ``csv.writer`` wrote it, one ``repr`` per float cell."""
    tables = phase.invariant_tables(x, u)
    piece, residuals = phase.locate_rows(fixture, phase.reduced_images(tables), band)
    names = [fixture.result.pieces[p] if p >= 0 else "(unresolved)" for p in piece]
    numbers = np.concatenate(
        [x, u, phase.momenta(fixture.spec, tables),
         tables.reshape(len(x), 4 * fixture.spec.n), residuals[:, None]],
        axis=1,
    )
    rows = [
        [repr(v) for v in row[:-1]] + [name, repr(row[-1])]
        for row, name in zip(numbers.tolist(), names)
    ]
    spec = fixture.spec
    header = (
        [f"x_{i+1}" for i in range(2 * spec.n)]
        + [f"u_{i+1}" for i in range(2 * spec.n)]
        + [f"J_{i+1}" for i in range(spec.k)]
        + [f"p{c}_{j+1}" for j in range(spec.n) for c in (1, 2, 3, 4)]
        + ["stratum", "residual"]
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if times is None:
        writer.writerow(header)
        writer.writerows(rows)
    else:
        writer.writerow(["t"] + header)
        writer.writerows([repr(t)] + row for t, row in zip(times.tolist(), rows))
    return buf.getvalue()


ODD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5]
csv_floats = st.sampled_from(ODD_FLOATS + [0.0, 1.0, 1 / 3]) | st.floats()
csv_labels = st.text(st.sampled_from(',"%\n\r ×ab()'), max_size=6)


@given(st.data())
def test_csv_lines_match_the_csv_writer(data):
    fx = cosphere.get_fixture(data.draw(st.sampled_from(["s1-on-r2", "t2-on-r4"])))
    width = 4 * fx.spec.n
    # points that resolve (at least one in the principal cell) ...
    x, u = phase.zero_level_arrays(
        fx.spec, seed=data.draw(st.integers(0, 999)), count=data.draw(st.integers(1, 6))
    )
    # ... each odd float in every column, and drawn rows: all (unresolved)
    odd = [np.roll(np.resize(ODD_FLOATS, width), shift) for shift in range(width)]
    drawn = data.draw(st.lists(st.lists(csv_floats, min_size=width, max_size=width),
                               max_size=6))
    points = np.concatenate([np.hstack([x, u]), np.array(odd + drawn)])
    points = points[data.draw(st.permutations(range(len(points))))]
    x, u = points[:, :width // 2], points[:, width // 2:]
    # the principal piece's label needs quoting; the others are drawn
    principal = fx.probes[0][0]
    labels = data.draw(st.lists(csv_labels, min_size=len(fx.result.pieces),
                                max_size=len(fx.result.pieces)))
    labels[principal] = 'a,"b%s'
    fx = dataclasses.replace(fx, result=dataclasses.replace(fx.result, pieces=tuple(labels)))
    times = data.draw(st.none() | st.lists(csv_floats, min_size=len(points),
                                           max_size=len(points)).map(np.array))
    with np.errstate(all="ignore"):
        tables = phase.invariant_tables(x, u)
        lines, unresolved = cli._csv_lines(fx, x, u, tables, phase.MEMBERSHIP_BAND, times)
        text = "".join(lines)
        assert text == csv_oracle(fx, x, u, phase.MEMBERSHIP_BAND, times)
    column = [row[-2] for row in csv.reader(io.StringIO(text, newline=""))][1:]
    assert column.count("(unresolved)") == unresolved >= width
    assert labels[principal] in column


def _float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# equal cells within a block and across its edges: 0.0 and -0.0 are two bit
# patterns spelled apart, the two NaN payloads two spelled alike
BLOCK_POOL = np.array([0.0, -0.0, _float_of_bits(0x7FF8000000000001),
                       _float_of_bits(0xFFF8000000000002), math.inf, -math.inf,
                       5e-324, 1 / 3])


@pytest.mark.parametrize("timed", [False, True])
@pytest.mark.parametrize("extra", [-1, 0, 1, cli._CSV_BLOCK + 1])
@pytest.mark.parametrize("name", ["s1-on-r2", "t2-on-r4"])
def test_csv_lines_across_block_edges(name, extra, timed):
    assert len(set(BLOCK_POOL.view(np.int64).tolist())) == len(BLOCK_POOL)
    fx = cosphere.get_fixture(name)
    rows = cli._CSV_BLOCK + extra
    rng = np.random.default_rng(rows)
    # a few points that resolve, then cells drawn from the pool
    x, u = phase.zero_level_arrays(fx.spec, seed=rows, count=5)
    width = 4 * fx.spec.n
    drawn = BLOCK_POOL[rng.integers(len(BLOCK_POOL), size=(rows - 5, width))]
    points = np.concatenate([np.hstack([x, u]), drawn])
    x, u = points[:, :width // 2], points[:, width // 2:]
    times = BLOCK_POOL[rng.integers(len(BLOCK_POOL), size=rows)] if timed else None
    assert {0, -2**63} <= set(points[:cli._CSV_BLOCK].view(np.int64).ravel().tolist())
    with np.errstate(all="ignore"):
        tables = phase.invariant_tables(x, u)
        text = "".join(cli._csv_lines(fx, x, u, tables, phase.MEMBERSHIP_BAND, times)[0])
        assert text == csv_oracle(fx, x, u, phase.MEMBERSHIP_BAND, times)
    assert text.count("\n") == rows + 1
    assert {"0.0", "-0.0", "nan", "inf", "-inf", "5e-324"} <= set(re.split("[,\n]", text))


def test_flow_stdout_is_utf8_whatever_the_locale(tmp_path):
    # a start near the seam Seam(T^2>e×S^1): each row is in CC(e×S^1)
    src = str(Path(cosphere.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONIOENCODING="ascii", PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
            "-m", "cosphere.cli", "flow", "--fixture", "t2-on-r4",
            "--start", "0.30003,0,0,0,-1,0,0,0", "--t-end", "0.1"]
    target = tmp_path / "gap.csv"
    to_stdout = subprocess.run(argv, env=env, capture_output=True, timeout=300)
    to_file = subprocess.run(argv + ["--out", str(target)], env=env,
                             capture_output=True, timeout=300)
    assert (to_stdout.returncode, to_stdout.stderr) == (0, b"")
    assert (to_file.returncode, to_file.stderr) == (0, b"")
    assert to_stdout.stdout == target.read_bytes()
    assert to_stdout.stdout.count(",CC(e×S^1),".encode()) == 101


def test_verify_takes_a_seed_past_64_bits(capsys):
    code, out, _ = run(capsys, "verify", "--fixture", "s1-on-r2", "--count", "10",
                       "--seed", "1000000000000000000000000000000")
    assert code == 0
    assert out.endswith("verify s1-on-r2: PASS\n")


def test_verify_and_flow_never_import_numpy_random(tmp_path):
    # the sampler's stream is integer arithmetic in phase, so neither
    # battery nor a seeded flow export loads numpy's generators
    script = (
        "import sys\n"
        "from cosphere import checks, cli\n"
        "from cosphere.fixtures import get_fixture\n"
        f"out = {str(tmp_path)!r}\n"
        "for name in ('s1-on-r2', 't2-on-r4'):\n"
        "    assert checks.verify_fixture(get_fixture(name), seed=7, count=200)['passed']\n"
        "    assert checks.flow_checks(get_fixture(name), seed=7, starts=50)['passed']\n"
        "    code = cli.main(['flow', '--fixture', name, '--seed', '7', '--out', f'{out}/{name}.csv'])\n"
        "    assert code == 0, code\n"
        "sys.exit('numpy.random' in sys.modules)\n"
    )
    src = str(Path(cosphere.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "t2-on-r4.csv").is_file()
