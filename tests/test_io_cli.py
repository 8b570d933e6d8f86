from __future__ import annotations

import dataclasses
import gc
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from moment2d import (
    AtomicMeasure,
    ContractionParameter,
    IsometricPair,
    MomentTable,
    SamplerSpec,
    SchemaError,
    SymmetricPair,
    Tolerances,
    build_gns,
    build_isometric_pair,
    build_operators,
    canonical_extension,
    e1,
    e2,
    e3,
    e3_class,
    moments_of_measure,
    pair_resolvent_of_measure,
    pair_resolvent_symmetric,
    prepare_pair,
    solve_canonical,
    verify_solution,
)
import moment2d
from moment2d import cli, io, resolvents
from moment2d.cli import main
from moment2d.errors import Moment2dError


def _scalar_pair() -> SymmetricPair:
    return SymmetricPair(dim=1,
                         a1_domain=np.zeros((1, 0), dtype=complex),
                         a1_action=np.zeros((1, 0), dtype=complex),
                         a2_domain=np.eye(1, dtype=complex),
                         a2_action=np.zeros((1, 1), dtype=complex),
                         h00=np.array([1.0 + 0j]),
                         j_matrix=np.eye(1, dtype=complex))


def test_dumps_prints_17_significant_digits():
    text = io.dumps({"x": 1.0 / 3.0})
    assert "0.33333333333333331" in text
    assert json.loads(text)["x"] == 1.0 / 3.0
    assert io.dumps([True, 1, None]) == io.dumps([True, 1, None])


def test_dumps_keeps_the_sign_of_zero():
    assert io.dumps(-0.0) == "-0.0"
    for x in (0.0, -1.5, 1.0 / 3.0, 1e-300, -5e-324, -1e300):
        assert io.dumps(x) == "%.17g" % x
    text = io.dumps(io.complex_matrix_to_json([[complex(-0.0, -0.0)]]))
    assert text == "[[[-0.0, -0.0]]]"
    back = io.complex_matrix_from_json(json.loads(text), "m")
    assert back.view(np.uint64).tolist() == [[1 << 63, 1 << 63]]
    measure = AtomicMeasure(np.array([[-0.0, 1.0], [0.5, -0.0]]),
                            np.array([0.25, 0.75]))
    back = io.measure_from_json(json.loads(io.dumps(
        io.measure_to_json(measure))))
    assert back.points.tobytes() == measure.points.tobytes()
    assert back.weights.tobytes() == measure.weights.tobytes()


def test_moment_table_round_trip():
    table = e2().table
    back = io.moment_table_from_json(io.moment_table_to_json(table))
    assert back.max_m == table.max_m and back.max_n == table.max_n
    assert np.array_equal(back.values, table.values)


def test_moment_table_schema_errors():
    good = io.moment_table_to_json(e2().table)
    incomplete = dict(good)
    incomplete["entries"] = good["entries"][:-1]
    with pytest.raises(SchemaError):
        io.moment_table_from_json(incomplete)
    duplicated = dict(good)
    duplicated["entries"] = good["entries"] + [good["entries"][0]]
    with pytest.raises(SchemaError):
        io.moment_table_from_json(duplicated)
    shifted = dict(good)
    shifted["entries"] = good["entries"][:-1] + [[9, 9, 1.0]]
    with pytest.raises(SchemaError):
        io.moment_table_from_json(shifted)
    with pytest.raises(SchemaError):
        io.moment_table_from_json({"max_m": 0, "max_n": 0})


def test_measure_round_trip_and_schema_errors():
    mu = e2().measure
    back = io.measure_from_json(io.measure_to_json(mu))
    assert np.array_equal(back.points, mu.points)
    assert np.array_equal(back.weights, mu.weights)
    with pytest.raises(SchemaError):
        io.measure_from_json({"atoms": [[0.0, 0.0, 0.0]]})
    with pytest.raises(SchemaError):
        io.measure_from_json({"atoms": [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]})
    with pytest.raises(SchemaError):
        io.measure_from_json({"atoms": [[0.0, 0.0]]})


def test_pair_round_trip():
    for pair in (e3().pair, _scalar_pair()):
        back = io.pair_from_json(io.pair_to_json(pair))
        assert back.dim == pair.dim
        assert back.a2_selfadjoint == pair.a2_selfadjoint
        for field in ("a1_domain", "a1_action", "a2_domain", "a2_action",
                      "j_matrix"):
            assert np.array_equal(getattr(back, field), getattr(pair, field))
        assert np.array_equal(back.h00, pair.h00)
    bad = io.pair_to_json(e3().pair)
    bad["a2_selfadjoint"] = "yes"
    with pytest.raises(SchemaError):
        io.pair_from_json(bad)


def test_a_pair_read_from_json_forms_its_a1_gram_product_once(monkeypatch):
    # The decoder's orthonormality check of a1_domain and the rank check
    # of cayley() read the same ||Q^H Q - E||_F.
    calls = []
    real = io.gram_defect

    def counted(q):
        calls.append(q)
        return real(q)

    gns = importlib.import_module("moment2d.gns")
    for module in (io, gns):
        monkeypatch.setattr(module, "gram_defect", counted)
    pair = io.pair_from_json(io.pair_to_json(e3_class(20, 2, 1).pair))
    build_isometric_pair(pair)
    assert [q is pair.a1_domain for q in calls] == [True, False]
    assert calls[1] is pair.a2_domain
    assert pair.a1_gram_defect == real(pair.a1_domain)


@pytest.mark.parametrize("field", ["a1_domain", "a2_domain"])
def test_pair_from_json_refuses_a_domain_basis_that_is_not_orthonormal(
        field, tmp_path: Path, capsys):
    # Twice the basis and twice the action span the same operator on
    # paper, but the full matrix action @ domain^H is 4 times too large.
    obj = io.pair_to_json(e3().pair)
    action = field.replace("domain", "action")
    for key in (field, action):
        obj[key] = [[[2.0 * x for x in cell] for cell in row]
                    for row in obj[key]]
    k = len(obj[field][0])
    message = (f"{field} columns must be orthonormal (residual "
               f"||Q^H Q - I||_F = {3.0 * np.sqrt(k):.3e})")
    with pytest.raises(SchemaError, match=re.escape(message)):
        io.pair_from_json(obj)
    path = tmp_path / "pair.json"
    io.write_json(obj, str(path))
    assert main(["eval-resolvent", str(path), "--l1-start", "2j",
                 "--l2-start", "2j"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _flag_false(obj):
    obj["a2_selfadjoint"] = False


def _a2_not_hermitian(obj):
    obj["a2_action"][0][1] = [0.5, 0.0]


def _a2_partial(obj):
    for key in ("a2_domain", "a2_action"):
        obj[key] = [row[:2] for row in obj[key]]


def _j_doubled(obj):
    obj["j_matrix"] = [[[2.0 * x for x in cell] for cell in row]
                       for row in obj["j_matrix"]]


def _j_cyclic(obj):
    # Unitary but not symmetric, so J conj(J) = J^2 is not the identity.
    obj["j_matrix"] = io.complex_matrix_to_json(np.roll(np.eye(3), 1, axis=0))


_J_MESSAGE = "j_matrix must be a conjugation: unitary with J conj(J) = I"


@pytest.mark.parametrize("edit, message", [
    (_flag_false, "a2_selfadjoint is false, but A2 is self-adjoint"),
    (_a2_not_hermitian, "a2_selfadjoint is true, but A2 is not self-adjoint"),
    (_a2_partial, "a2_selfadjoint is true, but A2 is not self-adjoint"),
    (_j_doubled, _J_MESSAGE),
    (_j_cyclic, _J_MESSAGE),
])
def test_pair_from_json_refuses_a_pair_that_contradicts_itself(
        edit, message, tmp_path: Path, capsys):
    obj = io.pair_to_json(e3().pair)
    edit(obj)
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        io.pair_from_json(obj)
    path = tmp_path / "pair.json"
    io.write_json(obj, str(path))
    out = tmp_path / "out"
    for argv in (["solve-canonical", str(path), "--output-dir", str(out)],
                 ["eval-resolvent", str(path), "--l1-start", "2j",
                  "--l2-start", "1+1j"]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_cli_eval_resolvent_refuses_a_cayley_transform_with_a_fixed_vector(
        tmp_path: Path, capsys):
    # A1 e1 = 1e10 e1: its Cayley transform moves e1 by 2e-10, below the
    # subspace tolerance, so D(A) = (E - V) D(V) loses a dimension.
    e = np.eye(3, dtype=complex)
    pair = SymmetricPair(dim=3, a1_domain=e[:, :2],
                         a1_action=np.column_stack([1e10 * e[:, 0],
                                                    0.5 * e[:, 1] + e[:, 2]]),
                         a2_domain=e, a2_action=np.zeros((3, 3)),
                         h00=e[:, 1], j_matrix=e)
    path = tmp_path / "pair.json"
    io.write_json(io.pair_to_json(pair), str(path))
    assert main(["eval-resolvent", str(path), "--l1-start", "2j",
                 "--l2-start", "1+1j"]) == 3
    assert capsys.readouterr() == (
        "", "error: Cayley transform of A1 has a fixed vector on D(V); A1 "
            "is outside the numerically supported range\n")


def test_cli_solve_canonical_refuses_a_cayley_transform_with_a_fixed_vector(
        tmp_path: Path, capsys):
    e = np.eye(3, dtype=complex)
    pair = SymmetricPair(dim=3, a1_domain=e[:, :2],
                         a1_action=np.column_stack([1e10 * e[:, 0],
                                                    0.5 * e[:, 1] + e[:, 2]]),
                         a2_domain=e, a2_action=np.zeros((3, 3)),
                         h00=e[:, 1], j_matrix=e)
    path = tmp_path / "pair.json"
    io.write_json(io.pair_to_json(pair), str(path))
    out = tmp_path / "out"
    assert main(["solve-canonical", str(path), "--output-dir", str(out)]) == 3
    assert capsys.readouterr() == (
        "", "error: Cayley transform of A1 has a fixed vector on D(V); A1 "
            "is outside the numerically supported range\n")
    assert not out.exists()


def test_pair_to_json_writes_the_flag_derived_from_a2():
    rng = np.random.default_rng(0)
    mu = AtomicMeasure(rng.uniform(-2, 2, size=(3, 2)),
                       rng.uniform(0.1, 1, size=3))
    truncated = build_operators(build_gns(moments_of_measure(mu, 2, 2), 1, 1))
    pairs = [e1().pair, e2().pair, e3().pair, e3_class(6, 2, 3).pair,
             build_operators(build_gns(e2().table, 2, 2)), _scalar_pair(),
             truncated]
    assert [pair.a2_selfadjoint for pair in pairs] == [True] * 6 + [False]
    for pair in pairs:
        obj = io.pair_to_json(pair)
        assert obj["a2_selfadjoint"] == pair.a2_selfadjoint
        assert io.pair_from_json(obj).a2_selfadjoint == pair.a2_selfadjoint


def test_complex_matrix_round_trip():
    m = np.array([[1 + 2j, 0], [-1j, 3]], dtype=complex)
    back = io.complex_matrix_from_json(io.complex_matrix_to_json(m), "m")
    assert np.array_equal(back, m)
    empty = np.zeros((2, 0), dtype=complex)
    back0 = io.complex_matrix_from_json(io.complex_matrix_to_json(empty),
                                        "m", rows=2, cols=0)
    assert back0.shape == (2, 0)
    with pytest.raises(SchemaError):
        io.complex_matrix_from_json([[[1.0]]], "m")
    with pytest.raises(SchemaError):
        io.complex_matrix_from_json(io.complex_matrix_to_json(m), "m", rows=3)
    for cols, shape in ((None, (0, 0)), (3, (0, 3))):
        none = io.complex_matrix_from_json([], "m", cols=cols)
        assert none.shape == shape and none.dtype == complex
    vec = io.complex_vector_from_json([[1.0, -2.0], [0, 3]], "v", length=2)
    assert np.array_equal(vec, np.array([1 - 2j, 3j]))
    assert io.complex_vector_from_json([], "v").shape == (0,)


@pytest.mark.parametrize("parse, obj, message", [
    (io.complex_matrix_from_json, [[[1.0]]], "m[0][0] must be [re, im]"),
    (io.complex_matrix_from_json, [[5]], "m[0][0] must be a JSON array"),
    (io.complex_matrix_from_json, [[["a", 0]]], "m[0][0][0] must be a number"),
    (io.complex_matrix_from_json, [[[0, float("nan")]]],
     "m[0][0][1] must be finite"),
    (io.complex_matrix_from_json, [[[0, 0], [0, 0]], [[0, 0]]],
     "m[1] has 1 entries, expected 2"),
    (io.complex_matrix_from_json, [7], "m[0] must be a JSON array"),
    (io.complex_matrix_from_json, {}, "m must be a JSON array"),
    (io.complex_vector_from_json, [[1.0, 2.0, 3.0]], "m[0] must be [re, im]"),
    (io.complex_vector_from_json, [None], "m[0] must be a JSON array"),
    (io.complex_vector_from_json, [[True, 0]], "m[0][0] must be a number"),
    (io.complex_vector_from_json, [[0, float("inf")]], "m[0][1] must be finite"),
    (io.complex_vector_from_json, "x", "m must be a JSON array"),
    (io.complex_matrix_from_json, [[[10 ** 400, 0]]],
     "m[0][0][0] must be finite"),
    (io.complex_matrix_from_json, [[[0, 0]], [[0, -10 ** 400]]],
     "m[1][0][1] must be finite"),
    (io.complex_vector_from_json, [[0, 0], [0, 10 ** 400]],
     "m[1][1] must be finite"),
])
def test_complex_json_schema_messages(parse, obj, message):
    with pytest.raises(SchemaError) as exc:
        parse(obj, "m")
    assert str(exc.value) == message


def test_decoders_refuse_integers_beyond_the_double_range():
    huge = 10 ** 400
    with pytest.raises(SchemaError, match=r"^entries\[1\]\[2\] must be finite$"):
        io.moment_table_from_json({"max_m": 1, "max_n": 0,
                                   "entries": [[0, 0, 1.0], [1, 0, -huge]]})
    with pytest.raises(SchemaError, match=r"^atoms\[0\]\[2\] must be finite$"):
        io.measure_from_json({"atoms": [[0.0, 0.0, huge]]})


def _json_cells(pair_obj: dict):
    """``(field, rows)`` of every complex array of a pair's JSON object;
    the vector ``h00`` is one row."""
    for field in ("a1_domain", "a1_action", "a2_domain", "a2_action",
                  "j_matrix"):
        yield field, pair_obj[field]
    yield "h00", [pair_obj["h00"]]


def test_whole_array_decoding_is_bit_identical_to_the_cell_walk():
    obj = io.pair_to_json(e3_class(40, 2, 3).pair)
    rng = np.random.default_rng(40)
    specials = [-0.0, 5e-324, -5e-324, 2.5e-310, -1.0e-308]
    for _, rows in _json_cells(obj):
        for row in rows:
            for cell in row:
                # The imaginary parts are all zero: any tiny value or
                # signed zero there leaves the pair valid.
                assert cell[1] == 0.0
                cell[1] = specials[int(rng.integers(len(specials)))]
                if cell[0] == 0.0:
                    cell[0] = -0.0
    obj = json.loads(json.dumps(obj))
    pair = io.pair_from_json(obj)
    negative_zeros = 0
    for field, rows in _json_cells(obj):
        want = oracles.complex_matrix_per_cell(rows, len(rows[0]))
        if field == "h00":
            got = io.complex_vector_from_json(rows[0], field)
            assert np.array_equal(pair.h00.view(np.uint64),
                                  want[0].view(np.uint64))
            want = want[0]
        else:
            got = io.complex_matrix_from_json(rows, field)
            assert np.array_equal(getattr(pair, field).view(np.uint64),
                                  want.view(np.uint64))
        assert got.dtype == complex and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        negative_zeros += int(np.sum(np.signbit(got.imag) & (got.imag == 0)))
    assert negative_zeros > 0


def test_decoders_keep_the_accepted_number_types():
    cells = [[np.float64(1.5), np.float64(-0.0)], [2, 0.25]]
    got = io.complex_matrix_from_json([cells], "m")
    want = np.array([[complex(1.5, -0.0), complex(2.0, 0.25)]])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(io.complex_vector_from_json(cells, "v"), want[0])
    for bad in (np.int64(1), True):
        with pytest.raises(SchemaError) as exc:
            io.complex_matrix_from_json([[[0.0, 0.0], [bad, 0.0]]], "m")
        assert str(exc.value) == "m[0][1][0] must be a number"
        with pytest.raises(SchemaError) as exc:
            io.complex_vector_from_json([[0.0, bad]], "v")
        assert str(exc.value) == "v[0][1] must be a number"


def test_flat_decoding_keeps_every_bit_and_names_the_bad_cell():
    # Integers that round, integers past 2^64, signed zeros and floats.
    parts = [0, -3, 2 ** 53 + 1, 2 ** 63 + 123, 2 ** 64 + 1, -(10 ** 308),
             -0.0, 0.0, 1.5, -2.5e-310]
    cells = [[parts[i], parts[-1 - i]] for i in range(len(parts))]
    rows = [cells[:5], cells[5:]]
    want = oracles.complex_matrix_per_cell(rows, 5)
    for got in (io.complex_matrix_from_json(rows, "m"),
                io.complex_vector_from_json(cells, "v").reshape(2, 5)):
        assert got.dtype == complex
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for bad, message in (
            ([True, 0.0], "[0] must be a number"),
            ([0.0, "1.0"], "[1] must be a number"),
            ([1.0], " must be [re, im]"),
            ([1.0, 2.0, 3.0], " must be [re, im]"),
            ([float("nan"), 0.0], "[0] must be finite"),
            ([0.0, float("-inf")], "[1] must be finite"),
            ([-(10 ** 400), 0.0], "[0] must be finite")):
        with pytest.raises(SchemaError) as exc:
            io.complex_matrix_from_json([cells[:5], cells[5:8] + [bad]
                                         + cells[9:]], "m")
        assert str(exc.value) == "m[1][3]" + message
        with pytest.raises(SchemaError) as exc:
            io.complex_vector_from_json(cells[:8] + [bad] + cells[9:], "v")
        assert str(exc.value) == "v[8]" + message


def test_report_json_has_exactly_the_contract_keys():
    report = verify_solution(e2().measure, e2().table, determinate=True,
                             u2_seed="determinate")
    data = io.report_to_json(report)
    assert set(data) == {"atoms", "max_abs_moment_error", "degrees_checked",
                         "determinate", "u2_seed"}
    assert data["determinate"] is True
    assert data["degrees_checked"] == [4, 4]


def test_read_json_rejects_malformed_files(tmp_path: Path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        io.read_json(str(bad))


def test_read_json_names_a_file_that_is_not_utf8(tmp_path: Path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{}")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(bad))}: not UTF-8"):
        io.read_json(str(bad))
    files = _write_demo(tmp_path, capsys)
    for argv in (["eval-resolvent", str(bad), "--l1-start", "2j",
                  "--l2-start", "2j"],
                 ["eval-resolvent", str(files["e3-pair.json"]), "--phi",
                  str(bad), "--l1-start", "2j", "--l2-start", "2j"],
                 ["check", str(bad)],
                 ["check", str(files["e2-table.json"]), "--config", str(bad)],
                 ["verify", str(files["e2-measure.json"]), str(bad)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8 text: "), err


def _pair_file(tmp_path: Path, dim: int = 40, seed: int = 1):
    pair = e3_class(dim, 2, seed).pair
    path = tmp_path / f"pair-{dim}-{seed}.json"
    io.write_json(io.pair_to_json(pair), path)
    return pair, str(path)


def test_reading_a_pair_file_runs_no_collection(tmp_path: Path):
    pair, path = _pair_file(tmp_path)
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        read = io.load(path, io.pair_from_json)
        # The parsed lists are freed by the time load returns, so these
        # few allocations do not reach the collection threshold.
        spare = [[] for _ in range(100)]
    finally:
        gc.callbacks.remove(count)
    assert starts == [] and len(spare) == 100
    assert np.array_equal(read.a1_action, pair.a1_action)
    assert np.array_equal(read.j_matrix, pair.j_matrix)


def test_load_restores_the_collector_state(tmp_path: Path):
    _, path = _pair_file(tmp_path, dim=5)
    bad = tmp_path / "bad-pair.json"
    obj = io.read_json(path)
    bad.write_text(json.dumps(dict(obj, j_matrix=[
        [[2 * x for x in cell] for cell in row] for row in obj["j_matrix"]])))
    seen = []

    def decode(obj):
        seen.append(gc.isenabled())
        return io.pair_from_json(obj)

    for caller_enabled in (True, False):
        if not caller_enabled:
            gc.disable()
        try:
            assert io.load(path, decode).dim == 5
            assert gc.isenabled() is caller_enabled
            with pytest.raises(SchemaError, match="j_matrix"):
                io.load(str(bad), decode)
            assert gc.isenabled() is caller_enabled
        finally:
            gc.enable()
    assert seen == [False] * 4


def test_cli_eval_resolvent_matches_a_direct_evaluation_bit_for_bit(
        tmp_path: Path, capsys):
    pair, path = _pair_file(tmp_path)
    iso = build_isometric_pair(pair)
    ext = canonical_extension(pair, iso, np.eye(iso.defect_dim, dtype=complex))
    phi = iso.ninf_basis.conj().T @ ext.u24
    phi_path = tmp_path / "phi.json"
    io.write_json(io.complex_matrix_to_json(phi), phi_path)
    prepared = prepare_pair(iso, ContractionParameter.const(phi),
                            h_embed=pair.h00[:, None])
    # Grid points the CLI's linspace gives exactly.
    lam1 = [complex(-1, 0.5), complex(0, 1.5), complex(1, 2.5)]
    lam2 = [complex(-0.5, -1), complex(0.5, -2), complex(1.5, -3)]
    values = pair_resolvent_symmetric(prepared, lam1, lam2)[..., 0, 0]
    expected = [[a.real, a.imag, b.real, b.imag, v.real, v.imag]
                for a, line in zip(lam1, values) for b, v in zip(lam2, line)]
    argv = ["eval-resolvent", path, "--phi", str(phi_path),
            "--l1-start=-1+0.5j", "--l1-stop=1+2.5j", "--l1-count=3",
            "--l2-start=-0.5-1j", "--l2-stop=1.5-3j", "--l2-count=3"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "# excluded: 0"
    assert [[float(x) for x in line.split(",")]
            for line in lines[1:-1]] == expected
    assert main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == expected


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                -2.5e-310, 1e308, -1e308, 1.7976931348623157e308,
                float("nan"), float("inf"), float("-inf"), 1.0 / 3.0]
_NUMBERS = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS),
                     st.integers(), st.integers(10 ** 38, 10 ** 45),
                     st.integers(-10 ** 45, -10 ** 38))
_LEAVES = st.one_of(_NUMBERS, st.booleans(), st.none(), st.text(max_size=45),
                    st.floats().map(np.float64),
                    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))
_NUMBER_LISTS = st.lists(st.lists(_NUMBERS, max_size=4), max_size=5)
_TREES = st.recursive(
    st.one_of(_LEAVES, _NUMBER_LISTS, st.lists(_NUMBERS, max_size=6)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4)),
    max_leaves=30)


@given(st.one_of(_TREES, _NUMBER_LISTS), st.integers(0, 3))
@example([[1.0, 2.0], [3.0]], 0)
@example([[], [-0.0]], 1)
@example([[0, -0.0], [10 ** 39, 0.5]], 0)
@example([[True, 1]], 0)
@settings(max_examples=400, deadline=None)
def test_dumps_matches_the_recursive_writer_byte_for_byte(tree, indent):
    assert io.dumps(tree, indent) == oracles.dumps_recursive(tree, indent)


def _signed_zero_matrix(rng, shape) -> np.ndarray:
    """Random complex entries with about a third of the parts set to a
    signed zero or a subnormal."""
    parts = rng.normal(size=shape + (2,)) * 10.0 ** rng.integers(
        -5, 5, size=shape + (2,))
    pool = np.array([0.0, -0.0, 5e-324, -5e-324])
    pick = rng.random(shape + (2,)) < 1 / 3
    parts[pick] = pool[rng.integers(len(pool), size=int(pick.sum()))]
    return parts[..., 0] + 1j * parts[..., 1]


def test_converters_match_the_per_cell_writers_byte_for_byte():
    def same(new, old):
        return io.dumps(new) == oracles.dumps_recursive(old)
    rng = np.random.default_rng(28)
    for shape in ((1, 1), (3, 5), (7, 0), (0, 4), (12, 12), (40, 3)):
        mat = _signed_zero_matrix(rng, shape)
        assert same(io.complex_matrix_to_json(mat),
                    oracles.complex_matrix_to_json_per_cell(mat))
        vec = mat.reshape(-1)
        assert same(io.complex_vector_to_json(vec),
                    oracles.complex_vector_to_json_per_cell(vec))
    assert io.complex_matrix_to_json(np.zeros((3, 0))) == [[], [], []]
    for table in (e2().table, MomentTable(1, 2, [[0.0, -0.0, 5e-324],
                                                 [-1e308, 2.5, -5e-324]])):
        assert same(io.moment_table_to_json(table),
                    oracles.moment_table_to_json_per_entry(table))
    for measure in (e2().measure, AtomicMeasure(
            np.array([[-0.0, 5e-324], [0.5, -0.0]]), np.array([1e-300, 2.0])),
            AtomicMeasure(np.zeros((0, 2)), np.zeros(0))):
        assert same(io.measure_to_json(measure),
                    oracles.measure_to_json_per_atom(measure))


@pytest.mark.parametrize("dim", [5, 20, 40, 120])
def test_pair_json_matches_the_recursive_writer_byte_for_byte(dim, tmp_path):
    pair = e3_class(dim, 2, 1).pair
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    io.write_json(io.pair_to_json(pair), str(new))
    oracles.write_json_recursive(oracles.pair_to_json_per_cell(pair), str(old))
    assert new.read_bytes() == old.read_bytes()


# Parts with 17 significant digits: a cell of two of them, such as
# [-0.66666666666666663, 0.33333333333333331], is 40 or more characters.
_LONG_FLOATS = st.floats(-1e3, 1e3).map(lambda x: x / 3)
_GRID_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), _LONG_FLOATS)
_GRID_LEAVES = st.one_of(_GRID_FLOATS, st.integers(2 ** 53 + 1, 10 ** 45),
                         st.booleans(), _GRID_FLOATS.map(np.float64))


@st.composite
def _uniform_grids(draw):
    """Equally long rows of equally long cells of 1-3 numbers; plain
    floats only, or mixed with long ints, bools and numpy floats; with a
    tuple cell, a ragged cell or a ragged row now and then."""
    rows, cols, size = (draw(st.integers(1, 4)) for _ in range(3))
    leaves = draw(st.sampled_from([_GRID_FLOATS, _GRID_LEAVES]))
    grid = [[draw(st.lists(leaves, min_size=size, max_size=size))
             for _ in range(cols)] for _ in range(rows)]
    change = draw(st.sampled_from([None, None, "tuple", "cell", "row"]))
    i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
    if change == "tuple":
        grid[i][j] = tuple(grid[i][j])
    elif change == "cell":
        grid[i][j] = grid[i][j] + [draw(leaves)]
    elif change == "row":
        grid[i] = grid[i][:-1] if cols > 1 else grid[i] + grid[i]
    return grid


@given(_uniform_grids())
@example([[[-2 / 3, 1 / 3], [0.5, -0.0]], [[0.0, 1.0], [2.0, 3.0]]])
@example([[[10 ** 40, 1]], [[2, 3]]])
@example([[[[1.0, -0.0]], [[-2 / 3, -2 / 3]]]])
@settings(max_examples=300, deadline=None)
def test_dumps_matches_the_recursive_writer_on_uniform_grids(grid):
    for indent in range(4):
        assert io.dumps(grid, indent) == oracles.dumps_recursive(grid, indent)


def test_a_complex_matrix_with_long_cells_matches_the_recursive_writer(
        tmp_path):
    rng = np.random.default_rng(33)
    mat = (rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))) / 3
    mat[0] = mat[0].real
    mat[1, 1] = complex(-0.0, -0.0)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    io.write_json(io.complex_matrix_to_json(mat), str(new))
    oracles.write_json_recursive(oracles.complex_matrix_to_json_per_cell(mat),
                                 str(old))
    assert new.read_bytes() == old.read_bytes()
    lines = new.read_text().splitlines()
    assert lines[1].startswith("  [[") and "    [-0.0, -0.0]," in lines


def test_writing_a_pair_makes_as_many_dumps_calls_at_any_dim(tmp_path,
                                                             monkeypatch):
    calls = []

    def counted(obj, indent=0, _real=io.dumps):
        calls.append(indent)
        return _real(obj, indent)

    monkeypatch.setattr(io, "dumps", counted)
    counts = {}
    for dim in (5, 40):
        calls.clear()
        io.write_json(io.pair_to_json(e3_class(dim, 2, 1).pair),
                      str(tmp_path / f"pair-{dim}.json"))
        counts[dim] = len(calls)
    assert counts[5] == counts[40], counts


def test_write_json_keeps_the_old_file_when_the_value_is_refused(tmp_path):
    path = tmp_path / "x.json"
    io.write_json({"a": 1}, str(path))
    before = path.read_bytes()
    with pytest.raises(TypeError):
        io.write_json({"a": object()}, str(path))
    assert path.read_bytes() == before == b'{\n  "a": 1\n}\n'


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([x for x in _EDGE_FLOATS if np.isfinite(x)]))


def _bits(values) -> list:
    return np.asarray(values).view(np.uint64).tolist()


@given(rows=st.integers(0, 4), cols=st.integers(0, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_written_arrays_read_back_bit_for_bit(tmp_path_factory, rows, cols,
                                              data):
    path = str(tmp_path_factory.mktemp("round-trip") / "x.json")
    parts = data.draw(st.lists(_FINITE, min_size=2 * rows * cols,
                               max_size=2 * rows * cols))
    mat = np.array(parts, dtype=float).view(complex).reshape(rows, cols)
    io.write_json(io.complex_matrix_to_json(mat), path)
    back = io.complex_matrix_from_json(io.read_json(path), "m", cols=cols)
    assert back.shape == mat.shape and _bits(back) == _bits(mat)
    io.write_json(io.complex_vector_to_json(mat.reshape(-1)), path)
    back = io.complex_vector_from_json(io.read_json(path), "v")
    assert _bits(back) == _bits(mat.reshape(-1))
    if rows and cols:
        table = MomentTable(rows - 1, cols - 1, mat.real)
        io.write_json(io.moment_table_to_json(table), path)
        back = io.moment_table_from_json(io.read_json(path))
        assert _bits(back.values) == _bits(table.values)
    points = np.array(data.draw(st.lists(
        st.tuples(_FINITE, _FINITE), max_size=4, unique_by=lambda p: p)))
    weights = data.draw(st.lists(st.floats(1e-300, 1e300), min_size=len(
        points), max_size=len(points)))
    try:
        measure = AtomicMeasure(points, weights)
    except ValueError:  # two atoms within the merge tolerance
        return
    io.write_json(io.measure_to_json(measure), path)
    back = io.measure_from_json(io.read_json(path))
    assert _bits(back.points) == _bits(measure.points)
    assert _bits(back.weights) == _bits(measure.weights)


def test_eval_resolvent_csv_rows_print_17_significant_digits(tmp_path: Path,
                                                             capsys):
    files = _write_demo(tmp_path, capsys)
    grid = ["--l1-start", "-0+2j", "--l2-start", "0.5-2j", "--l2-stop",
            "1e-300-1e13j", "--l2-count", "3"]
    outputs = {}
    for fmt in ("csv", "json"):
        out = tmp_path / f"grid.{fmt}"
        assert main(["eval-resolvent", str(files["e3-pair.json"])] + grid
                    + ["--format", fmt, "--output", str(out)]) == 0
        outputs[fmt] = out.read_text()
    rows = json.loads(outputs["json"])["rows"]
    lines = outputs["csv"].splitlines()
    assert lines[1:-1] == [",".join("%.17g" % v for v in row) for row in rows]
    assert len(rows) == 3 and all(line.startswith("-0,2,")
                                  for line in lines[1:-1])
    assert outputs["json"].count("-0.0, 2,") == 3


def _write_demo(tmp_path: Path, capsys=None) -> dict:
    out = tmp_path / "demo"
    assert main(["demo", "--output-dir", str(out)]) == 0
    if capsys is not None:
        capsys.readouterr()
    return {p.name: p for p in out.iterdir()}


def test_cli_demo_writes_scenarios(tmp_path: Path, capsys):
    files = _write_demo(tmp_path)
    for name in ("e1-table.json", "e1-pair.json", "e1-measure.json",
                 "e2-table.json", "e2-pair.json", "e2-measure.json",
                 "e3-table.json", "e3-pair.json", "e3-phi.json"):
        assert name in files
    assert "e3-measure.json" not in files
    captured = capsys.readouterr()
    assert "e3 canonical family:" in captured.out
    assert "e2 solve-canonical: 1 solution(s)" in captured.out


def test_cli_check_psd_and_carleman(tmp_path: Path, capsys):
    files = _write_demo(tmp_path, capsys)
    assert main(["check", str(files["e2-table.json"])]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["psd_ok"] is True
    assert out["carleman"][0]["verdict"] == "diverging-trend"
    bad = tmp_path / "bad-table.json"
    io.write_json(io.moment_table_to_json(
        MomentTable(2, 0, np.array([[1.0], [0.0], [-1.0]]))), str(bad))
    assert main(["check", str(bad)]) == 2
    out2 = json.loads(capsys.readouterr().out)
    assert out2["psd_ok"] is False


def test_cli_solve_verify_round_trip(tmp_path: Path, capsys):
    files = _write_demo(tmp_path, capsys)
    sol_dir = tmp_path / "solutions"
    assert main(["solve-canonical", str(files["e2-table.json"]),
                 "--output-dir", str(sol_dir)]) == 0
    captured = capsys.readouterr()
    assert "solutions written: 1" in captured.out
    sol = sol_dir / "solution-0000.json"
    assert sol.exists()
    assert main(["verify", str(sol), str(files["e2-table.json"])]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["determinate"] is None
    assert report["max_abs_moment_error"] <= 1e-8
    # A wrong measure against the same table fails verification.
    assert main(["verify", str(files["e1-measure.json"]),
                 str(files["e2-table.json"])]) == 2


def test_cli_solve_canonical_writes_no_negative_zero(tmp_path: Path, capsys):
    files = _write_demo(tmp_path, capsys)
    out = tmp_path / "solutions"
    assert main(["solve-canonical", str(files["e3-pair.json"]),
                 "--sampler", "exhaustive-phases", "--phases", "4",
                 "--output-dir", str(out)]) == 0
    # ``parse_int=float`` keeps the sign of a written ``-0``.
    coords = [x for path in sorted(out.iterdir())
              for atom in json.loads(path.read_text(), parse_int=float)["atoms"]
              for x in atom[:2]]
    assert any(x == 0.0 for x in coords)
    assert not any(x == 0.0 and np.signbit(x) for x in coords)


def test_cli_solve_canonical_makes_the_output_dir_on_success(
        tmp_path: Path, capsys, monkeypatch):
    files = _write_demo(tmp_path, capsys)
    existing = tmp_path / "existing"
    existing.mkdir()
    outputs = []
    for out in (tmp_path / "new" / "nested", existing):
        assert main(["solve-canonical", str(files["e3-pair.json"]),
                     "--sampler", "exhaustive-phases", "--phases", "4",
                     "--output-dir", str(out)]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        names = sorted(p.name for p in out.iterdir())
        outputs.append((stdout, {n: (out / n).read_bytes() for n in names}))
        lines = stdout.splitlines()
        assert lines[-1] == f"solutions written: {len(names)}"
        assert [line.split(":")[0] for line in lines[:-1]] == [
            f"OUT/{n}" for n in names]
    assert outputs[0] == outputs[1]
    # A stream with no solution still leaves the directory.
    monkeypatch.setattr(cli, "solve_canonical", lambda *a, **k: iter(()))
    empty = tmp_path / "empty"
    assert main(["solve-canonical", str(files["e3-pair.json"]),
                 "--output-dir", str(empty)]) == 0
    assert capsys.readouterr().out == "solutions written: 0\n"
    assert empty.is_dir() and not list(empty.iterdir())


def test_cli_verify_accepts_solution_files_as_measures(tmp_path: Path):
    mu = AtomicMeasure(np.array([[0.25, -1.5]]), np.array([2.0]))
    table = moments_of_measure(mu, 4, 4)
    table_path = tmp_path / "table.json"
    io.write_json(io.moment_table_to_json(table), str(table_path))
    m_path = tmp_path / "measure.json"
    io.write_json(io.measure_to_json(mu), str(m_path))
    assert main(["verify", str(m_path), str(table_path),
                 "--output", str(tmp_path / "report.json")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["atoms"] == [[0.25, -1.5, 2.0]]


def test_cli_eval_resolvent_closed_form(tmp_path: Path, capsys):
    files = _write_demo(tmp_path, capsys)
    assert main(["eval-resolvent", str(files["e1-pair.json"]),
                 "--l1-start", "2j", "--l1-stop", "3j", "--l1-count", "2",
                 "--l2-start", "2j", "--l2-stop", "3j", "--l2-count", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "l1_re,l1_im,l2_re,l2_im,value_re,value_im"
    assert lines[-1] == "# excluded: 0"
    values = [float(line.split(",")[4]) for line in lines[1:-1]]
    # 1/(l1 l2) over {2i,3i}^2: -1/4, -1/6, -1/6, -1/9.
    assert values == pytest.approx([-0.25, -1 / 6, -1 / 6, -1 / 9], abs=1e-12)


def test_cli_eval_resolvent_counts_excluded_points(tmp_path: Path, capsys):
    files = _write_demo(tmp_path, capsys)
    assert main(["eval-resolvent", str(files["e1-pair.json"]),
                 "--l1-start", "0.5", "--l2-start", "2j",
                 "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["excluded"] == 1
    assert out["rows"] == []


def test_cli_eval_resolvent_point_near_unit_circle(tmp_path: Path, capsys):
    # |z1| = |(l1 - i)/(l1 + i)| rounds to 1 for this l1, yet the point
    # is valid and keeps the closed form 1/(l1 l2).
    files = _write_demo(tmp_path, capsys)
    assert main(["eval-resolvent", str(files["e1-pair.json"]),
                 "--l1-start", "1e9+1j", "--l2-start", "2j",
                 "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["excluded"] == 0
    (row,) = out["rows"]
    value = complex(row[4], row[5])
    assert value == pytest.approx(1 / ((1e9 + 1j) * 2j), rel=1e-9)


def test_cli_eval_resolvent_takes_separate_negative_values(tmp_path: Path,
                                                           capsys):
    files = _write_demo(tmp_path, capsys)
    values = {"--l1-start": "-1+2j", "--l1-stop": "-0.5+1j",
              "--l2-start": "-2j", "--l2-stop": "-1-0.25j"}
    counts = ["--l1-count", "3", "--l2-count", "2"]
    outputs = []
    for joined in (True, False):
        argv = ["eval-resolvent", str(files["e3-pair.json"])] + counts
        for flag, value in values.items():
            argv += [f"{flag}={value}"] if joined else [flag, value]
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 1 + 6 + 1


def test_cli_eval_resolvent_grid_needs_stop(tmp_path: Path):
    files = _write_demo(tmp_path)
    assert main(["eval-resolvent", str(files["e1-pair.json"]),
                 "--l1-start", "2j", "--l1-count", "3",
                 "--l2-start", "2j"]) == 1


def test_cli_parameter_gate_exit_code(tmp_path: Path):
    pair_path = tmp_path / "scalar-pair.json"
    io.write_json(io.pair_to_json(_scalar_pair()), str(pair_path))
    phi_path = tmp_path / "phi.json"
    io.write_json(io.complex_matrix_to_json(np.array([[1.0 + 0j]])),
                  str(phi_path))
    code = main(["eval-resolvent", str(pair_path), "--phi", str(phi_path),
                 "--l1-start", "2j", "--l2-start", "2j"])
    assert code == 4


def test_cli_structure_gate_exit_code(tmp_path: Path, capsys):
    rng = np.random.default_rng(0)
    mu = AtomicMeasure(rng.uniform(-2, 2, size=(3, 2)),
                       rng.uniform(0.1, 1, size=3))
    table_path = tmp_path / "truncated.json"
    io.write_json(io.moment_table_to_json(moments_of_measure(mu, 2, 2)),
                  str(table_path))
    code = main(["solve-canonical", str(table_path),
                 "--d-m", "1", "--d-n", "1",
                 "--output-dir", str(tmp_path / "out")])
    assert code == 3
    assert "defect" in capsys.readouterr().err
    # Refused after the table was read: no output directory is left.
    assert not (tmp_path / "out").exists()


def test_cli_table_too_small_for_the_default_rectangle(tmp_path: Path,
                                                      capsys):
    mu = AtomicMeasure(np.array([[0.5, -0.5]]), np.array([1.0]))
    table_path = tmp_path / "small.json"
    io.write_json(io.moment_table_to_json(moments_of_measure(mu, 1, 4)),
                  str(table_path))
    code = main(["solve-canonical", str(table_path),
                 "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: table holds degrees (1, 4); the default rectangle needs "
        "degrees of at least (2, 2)\n")
    assert not (tmp_path / "out").exists()


def test_cli_check_refuses_an_entry_beyond_the_double_range(tmp_path: Path,
                                                             capsys):
    table = tmp_path / "huge.json"
    table.write_text('{"max_m": 0, "max_n": 0, "entries": [[0, 0, 1'
                     + "0" * 400 + "]]}")
    assert main(["check", str(table)]) == 1
    assert capsys.readouterr().err == "error: entries[0][2] must be finite\n"


def test_cli_eval_resolvent_gates_the_parameter_once(tmp_path: Path, capsys,
                                                     monkeypatch):
    files = _write_demo(tmp_path, capsys)
    calls = {"constant_admissibility": 0, "commutation_check": 0}
    for name in calls:
        def counted(*args, _name=name, _gate=getattr(resolvents, name),
                    **kwargs):
            calls[_name] += 1
            return _gate(*args, **kwargs)
        monkeypatch.setattr(resolvents, name, counted)
    # The l1 line passes through i: its middle row of 6 points is excluded.
    assert main(["eval-resolvent", str(files["e3-pair.json"]),
                 "--phi", str(files["e3-phi.json"]),
                 "--l1-start=-1+0.5j", "--l1-stop=1+1.5j", "--l1-count=7",
                 "--l2-start=-0.5-1j", "--l2-stop=1+2j", "--l2-count=6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 36 + 1 and lines[-1] == "# excluded: 6"
    assert calls == {"constant_admissibility": 1, "commutation_check": 1}


def test_cli_eval_resolvent_runs_the_operator_domain_svd_only_past_the_screen(
        tmp_path: Path, capsys, monkeypatch):
    files = _write_demo(tmp_path, capsys)
    calls = []
    real = IsometricPair.operator_domain

    def counted(self, **kwargs):
        calls.append(self)
        return real(self, **kwargs)

    monkeypatch.setattr(IsometricPair, "operator_domain", counted)
    grid = ["--l1-start", "2j", "--l2-start", "1+1j"]
    # Pairs the norm screen clears: neither build_isometric_pair nor the
    # forbidden operator of the admissibility gate builds the basis.
    assert main(["eval-resolvent", str(files["e3-pair.json"]),
                 "--phi", str(files["e3-phi.json"]), *grid]) == 0
    for defect in (1, 2, 3):
        path = tmp_path / f"e3-class-40-{defect}.json"
        io.write_json(io.pair_to_json(e3_class(40, defect, 0).pair), path)
        assert main(["eval-resolvent", str(path), *grid]) == 0
    assert calls == []
    # ||A1||_F = 500 is past the screen at subspace_tol 1e-3: one SVD, at
    # build, and the forbidden operator adds none.
    e = np.eye(3, dtype=complex)
    pair = SymmetricPair(dim=3, a1_domain=e[:, :2], a1_action=np.column_stack(
        [500.0 * e[:, 0], 0.5 * e[:, 1] + e[:, 2]]), a2_domain=e,
        a2_action=np.zeros((3, 3), dtype=complex), h00=e[:, 1], j_matrix=e)
    path = tmp_path / "past-screen.json"
    io.write_json(io.pair_to_json(pair), path)
    assert main(["eval-resolvent", str(path), "--subspace-tol", "1e-3",
                 *grid]) == 0
    assert len(calls) == 1


def test_cli_eval_resolvent_makes_one_grid_call(tmp_path: Path, capsys,
                                               monkeypatch):
    files = _write_demo(tmp_path, capsys)
    stacks = []

    def counted(full, points, singular, *args, _real=resolvents._solve_stack):
        stacks.append((singular, list(points)))
        return _real(full, points, singular, *args)

    monkeypatch.setattr(resolvents, "_solve_stack", counted)
    grids = []

    def grid(prepared, lam1, lam2, _real=cli.pair_resolvent_symmetric):
        grids.append((list(lam1), list(lam2)))
        return _real(prepared, lam1, lam2)

    monkeypatch.setattr(cli, "pair_resolvent_symmetric", grid)
    # 7 x 6 grid whose middle l1 row is excluded: 6 distinct l1 and 6
    # distinct l2 reach the solves.
    argv = ["eval-resolvent", str(files["e3-pair.json"]),
            "--phi", str(files["e3-phi.json"]),
            "--l1-start=-1+0.5j", "--l1-stop=1+1.5j", "--l1-count=7",
            "--l2-start=-0.5-1j", "--l2-stop=1+2j", "--l2-count=6"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 36 + 1 and lines[-1] == "# excluded: 6"
    assert len(grids) == 1
    lam1, lam2 = grids[0]
    assert len(lam1) == len(set(lam1)) == 6 == len(lam2) == len(set(lam2))
    # One stacked solve for the rows; the columns take no solve.
    assert stacks == [
        ("resolvent", [resolvents.cayley_point(lam) for lam in lam1])]


def test_cli_demo_phi_is_a_canonical_extension_of_e3(tmp_path: Path, capsys):
    files = _write_demo(tmp_path, capsys)
    assert main(["eval-resolvent", str(files["e3-pair.json"]),
                 "--phi", str(files["e3-phi.json"]),
                 "--l1-start", "2j", "--l1-stop", "-1+3j", "--l1-count", "3",
                 "--l2-start", "0.5-2j", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    report = next(iter(solve_canonical(
        e3().pair, sampler=SamplerSpec(kind="exhaustive-phases", phases=4))))
    assert report.u2_seed == "exhaustive-phases:4:0"
    assert len(rows) == 3
    for row in rows:
        want = pair_resolvent_of_measure(report.measure, complex(*row[0:2]),
                                         complex(*row[2:4]))
        assert abs(complex(*row[4:6]) - want) < 1e-9


def test_cli_eval_resolvent_far_lambda2_points_evaluate(tmp_path: Path,
                                                        capsys):
    # Their z2 lies within 1e-12 of the unit circle, or on it.
    files = _write_demo(tmp_path, capsys)
    report = next(iter(solve_canonical(
        e3().pair, sampler=SamplerSpec(kind="exhaustive-phases", phases=4))))
    assert report.u2_seed == "exhaustive-phases:4:0"
    for lam1 in ("2j", "0.5-2j"):
        for lam2 in ("1e13j", "30+1e-10j", "1e6+0.4j", "1e300j"):
            assert main(["eval-resolvent", str(files["e3-pair.json"]),
                         "--phi", str(files["e3-phi.json"]),
                         "--l1-start", lam1, "--l2-start", lam2,
                         "--format", "json"]) == 0
            rows = json.loads(capsys.readouterr().out)["rows"]
            assert len(rows) == 1
            want = pair_resolvent_of_measure(report.measure, complex(lam1),
                                             complex(lam2))
            assert abs(complex(*rows[0][4:6]) - want) < 1e-14


def test_cli_parameter_gate_fails_even_when_every_point_is_excluded(
        tmp_path: Path, capsys):
    pair_path = tmp_path / "scalar-pair.json"
    io.write_json(io.pair_to_json(_scalar_pair()), str(pair_path))
    phi_path = tmp_path / "phi.json"
    io.write_json(io.complex_matrix_to_json(np.array([[1.0 + 0j]])),
                  str(phi_path))
    assert main(["eval-resolvent", str(pair_path), "--phi", str(phi_path),
                 "--l1-start", "1j", "--l2-start", "2j"]) == 4
    assert capsys.readouterr().err.startswith("error: parameter is forbidden")


def test_cli_input_error_exit_codes(tmp_path: Path):
    assert main(["check", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "broken.json"
    bad.write_text("[1, 2")
    assert main(["check", str(bad)]) == 1
    files = _write_demo(tmp_path)
    assert main(["eval-resolvent", str(files["e1-pair.json"]),
                 "--l1-start", "nonsense", "--l2-start", "2j"]) == 1


def test_cli_config_file_supplies_flags(tmp_path: Path, capsys):
    files = _write_demo(tmp_path, capsys)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"l1_start": "2j", "l2_start": "2j"}))
    assert main(["eval-resolvent", str(files["e1-pair.json"]),
                 "--config", str(config)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert float(lines[1].split(",")[4]) == pytest.approx(-0.25, abs=1e-12)


def test_cli_reruns_are_byte_identical(tmp_path: Path, capsys):
    files = _write_demo(tmp_path)
    dirs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve-canonical", str(files["e3-pair.json"]),
                     "--sampler", "haar-random", "--seed", "9",
                     "--count", "2", "--output-dir", str(out)]) == 0
        dirs.append(out)
    capsys.readouterr()
    first = sorted(p.name for p in dirs[0].iterdir())
    second = sorted(p.name for p in dirs[1].iterdir())
    assert first == second and first
    for name in first:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_console_script_entry_point(tmp_path: Path):
    result = subprocess.run(
        [sys.executable, "-m", "moment2d.cli", "demo",
         "--output-dir", str(tmp_path / "demo")],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "wrote" in result.stdout


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    """Only ``--refine`` uses ``scipy.optimize``, and ``refine_measure``
    imports it, so no other run pays for loading it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(moment2d.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, moment2d; "
         "print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout) == (0, "False\n")


def test_cli_shared_parser_matches_fresh_processes(tmp_path: Path, capsys,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    # The package's own directory, since the fresh runs start in tmp_path.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(moment2d.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    runs = [
        ["demo", "--output-dir", "d"],
        ["check", "d/e2-table.json"],
        ["eval-resolvent", "d/e3-pair.json", "--l1-count", "x"],
        ["--help"],
        ["eval-resolvent", "d/e3-pair.json", "--phi", "d/e3-phi.json",
         "--l1-start", "2j", "--l1-stop", "-1+3j", "--l1-count", "2",
         "--l2-start", "0.5-2j"],
    ]
    fresh = []
    for argv in runs:
        result = subprocess.run(
            [sys.executable, "-m", "moment2d.cli"] + argv,
            capture_output=True, text=True, env=env)
        fresh.append((result.returncode, result.stdout, result.stderr))
    assert [code for code, _, _ in fresh] == [0, 0, 1, 0, 0]
    assert "invalid int value: 'x'" in fresh[2][2]
    assert fresh[3][1].startswith("usage: moment2d")
    for _ in range(2):
        for argv, want in zip(runs, fresh):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == want


# Exit code per error class, as documented in README's exit-code table.
README_EXIT_CODES = {
    "Moment2dError": 1, "SchemaError": 1, "IndexOutOfRangeError": 1,
    "NegativeDenominatorError": 1, "NotSupportedError": 1,
    "NotPsdError": 2,
    "InconsistentShiftError": 3, "DomainCollapseError": 3,
    "SingularShiftError": 3,
    "NotDirectSumError": 3, "NoDecompositionError": 3,
    "SingularMatrixError": 3, "ClusterAmbiguityError": 3,
    "NotSelfAdjointA2Error": 3, "StructureViolationError": 3,
    "FixedPointError": 4, "ContractionViolatedError": 4,
    "NotUnitaryError": 4, "CommutationViolatedError": 4,
    "ExcludedPointError": 4, "AdmissibilityFailedError": 4,
}


@pytest.mark.parametrize(
    "error_class", [Moment2dError] + Moment2dError.__subclasses__(),
    ids=lambda cls: cls.__name__)
def test_cli_exit_code_of_every_error_class(error_class, monkeypatch,
                                            capsys):
    def raise_it(args):
        raise error_class("boom")

    monkeypatch.setattr(cli, "cmd_demo", raise_it)
    assert main(["demo"]) == README_EXIT_CODES[error_class.__name__]
    assert capsys.readouterr().err == "error: boom\n"


def test_version_matches_pyproject():
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert match is not None
    assert moment2d.__version__ == match.group(1)


def _error_classes(cls=Moment2dError) -> set:
    return {cls}.union(*map(_error_classes, cls.__subclasses__()))


def test_package_exports_the_module_lists():
    modules = [importlib.import_module(f"moment2d.{name}") for name in (
        "moments", "gns", "cayley", "resolvents", "solutions", "scenarios",
        "errors")]
    names = ["__version__", "Tolerances", "DEFAULT_TOLERANCES"]
    names += [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(moment2d.__all__) == sorted(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(moment2d, name) is getattr(module, name), name
    defaults = importlib.import_module("moment2d.config")
    assert moment2d.Tolerances is defaults.Tolerances
    assert moment2d.DEFAULT_TOLERANCES is defaults.DEFAULT_TOLERANCES
    assert moment2d.cayley is modules[2].cayley
    exported = {getattr(moment2d, name) for name in moment2d.__all__
                if isinstance(getattr(moment2d, name), type)}
    assert {cls for cls in _error_classes()
            if cls.__module__.startswith("moment2d")} <= exported


@pytest.mark.parametrize("argv", [
    ["check", "e2-table.json"],
    ["solve-canonical", "e3-pair.json"],
    ["eval-resolvent", "e3-pair.json"],
    ["verify", "e2-measure.json", "e2-table.json"],
], ids=lambda argv: argv[0])
def test_cli_every_tolerance_field_is_settable(argv, tmp_path: Path,
                                               monkeypatch, capsys):
    files = _write_demo(tmp_path, capsys)
    argv = [argv[0]] + [str(files[name]) for name in argv[1:]]
    names = [f.name for f in dataclasses.fields(Tolerances)]
    values = {name: (i + 1) * 1e-3 for i, name in enumerate(names)}
    seen = []

    def spy(args):
        seen.append(dataclasses.asdict(real(args)))
        raise SchemaError("stop after the tolerances")

    real = cli._tolerances
    monkeypatch.setattr(cli, "_tolerances", spy)
    flags = [f"--{name.replace('_', '-')}={value!r}"
             for name, value in values.items()]
    assert main(argv + flags) == 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    assert main(argv + ["--config", str(config)]) == 1
    assert seen == [values, values]


def test_cli_config_keys_the_subcommand_does_not_read_are_errors(
        tmp_path: Path, capsys):
    files = _write_demo(tmp_path, capsys)
    measure = json.loads(files["e2-measure.json"].read_text())
    measure["atoms"][0][2] += 1e-9
    measure_path = tmp_path / "m.json"
    measure_path.write_text(json.dumps(measure))
    config = tmp_path / "c.json"

    def verify(keys: dict) -> int:
        config.write_text(json.dumps(keys))
        return main(["verify", str(measure_path), str(files["e2-table.json"]),
                     "--config", str(config)])

    assert verify({"verify_tol": 1e-12}) == 2
    capsys.readouterr()
    for key in ("verify-tol", "verfy_tol"):
        assert verify({key: 1e-12}) == 1
        assert capsys.readouterr().err.startswith(
            f"error: config key {key!r} is not read by verify")
    for key in ("phi", "refine", "output", "carleman_variant"):
        config.write_text(json.dumps({key: "x"}))
        assert main(["eval-resolvent", str(files["e3-pair.json"]),
                     "--config", str(config)]) == 1
        assert f"config key {key!r}" in capsys.readouterr().err


def test_cli_valid_config_per_subcommand_gives_unchanged_output(
        tmp_path: Path, capsys):
    files = _write_demo(tmp_path, capsys)
    table, pair = str(files["e2-table.json"]), str(files["e3-pair.json"])
    grid = {"l1_start": "-1+2j", "l1_stop": "1+2j", "l1_count": 3,
            "l2_start": "2j", "l2_stop": "3j", "l2_count": 2,
            "format": "json"}
    cases = [
        (["check", table], ["--carleman-variant", "single"],
         {"carleman_variant": "single", "rank_tol": 1e-9}),
        (["verify", str(files["e2-measure.json"]), table],
         ["--verify-tol", "1e-8"], {"verify_tol": 1e-8}),
        (["eval-resolvent", pair],
         [f"--{key.replace('_', '-')}={value}" for key, value in grid.items()],
         grid),
        (["solve-canonical", pair],
         ["--sampler", "exhaustive-phases", "--phases", "2", "--max-n", "4",
          "--output-dir", str(tmp_path / "out")],
         {"sampler": "exhaustive-phases", "phases": 2, "max_n": 4,
          "output_dir": str(tmp_path / "out")}),
    ]
    config = tmp_path / "c.json"
    for argv, flags, keys in cases:
        assert main(argv + flags) == 0
        want = capsys.readouterr()
        config.write_text(json.dumps(keys))
        assert main(argv + ["--config", str(config)]) == 0
        assert capsys.readouterr() == want


def test_cli_check_refuses_a_huge_declared_rectangle(tmp_path: Path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"max_m": 10**12, "max_n": 0,
                                "entries": [[0, 0, 1.0]]}))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: moment table is missing entry (1, 0)\n")
    with pytest.raises(SchemaError, match=r"missing entry \(0, 1\)"):
        io.moment_table_from_json({"max_m": 1, "max_n": 1,
                                   "entries": [[1, 1, 1.0], [0, 0, 1.0]]})


@pytest.mark.parametrize("command, key, value, what", [
    ("check", "rank_tol", True, "a number"),
    ("check", "psd_tol", None, "a number"),
    ("verify", "verify_tol", "1e-3", "a number"),
    ("check", "carleman_variant", 1, "a string"),
    ("solve-canonical", "count", "x", "an integer"),
    ("solve-canonical", "seed", True, "an integer"),
    ("solve-canonical", "phases", 2.7, "an integer"),
    ("solve-canonical", "d_m", 1.0, "an integer"),
    ("solve-canonical", "max_n", None, "an integer"),
    ("solve-canonical", "sampler", ["identity-only"], "a string"),
    ("solve-canonical", "output_dir", 5, "a string"),
    ("eval-resolvent", "l1_count", "3", "an integer"),
    ("eval-resolvent", "format", False, "a string"),
    ("eval-resolvent", "l1_start", [0, 2], "a string or a number"),
    ("eval-resolvent", "l2_stop", True, "a string or a number"),
], ids=lambda x: x if isinstance(x, str) else None)
def test_cli_config_values_must_have_the_flag_type(command, key, value, what,
                                                   tmp_path: Path, capsys):
    files = _write_demo(tmp_path, capsys)
    inputs = {"check": ["e2-table.json"],
              "verify": ["e2-measure.json", "e2-table.json"],
              "solve-canonical": ["e2-table.json"],
              "eval-resolvent": ["e3-pair.json"]}[command]
    config = tmp_path / "c.json"
    keys = {key: value}
    if command == "eval-resolvent":
        keys = {"l1_start": "2j", "l2_start": "2j", **keys}
    config.write_text(json.dumps(keys))
    argv = [command] + [str(files[name]) for name in inputs]
    assert main(argv + ["--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"error: config key {key!r} in {config} must be {what}\n")


def test_cli_config_grid_ends_may_be_numbers(tmp_path: Path, capsys):
    files = _write_demo(tmp_path, capsys)
    pair = str(files["e3-pair.json"])
    assert main(["eval-resolvent", pair, "--l1-start", "2j",
                 "--l2-start", "0.5"]) == 0
    want = capsys.readouterr()
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"l1_start": "2j", "l2_start": 0.5}))
    assert main(["eval-resolvent", pair, "--config", str(config)]) == 0
    assert capsys.readouterr() == want


def test_cli_solve_canonical_refuses_options_of_the_other_input(
        tmp_path: Path, capsys):
    files = _write_demo(tmp_path, capsys)
    pair, table = str(files["e3-pair.json"]), str(files["e2-table.json"])
    config = tmp_path / "c.json"
    out = ["--output-dir", str(tmp_path / "out")]
    config.write_text(json.dumps({"d_n": 1}))
    for argv, name in (([pair, "--d-m", "7", "--refine"], "d_m"),
                       ([pair, "--refine"], "refine"),
                       ([pair, "--config", str(config)], "d_n")):
        assert main(["solve-canonical"] + argv + out) == 1
        assert capsys.readouterr() == (
            "", f"error: {name} applies to a moment table, not to an "
                f"operator pair\n")
    config.write_text(json.dumps({"max_n": 3}))
    for argv in ([table, "--max-n", "3"], [table, "--config", str(config)]):
        assert main(["solve-canonical"] + argv + out) == 1
        assert capsys.readouterr() == (
            "", "error: max_n applies to an operator pair, not to a moment "
                "table\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["--help"], ["check", "--help"], ["solve-canonical", "--help"],
    ["eval-resolvent", "--help"], ["verify", "--help"], ["demo", "--help"],
], ids=lambda argv: argv[0])
def test_cli_help_matches_the_reference_parser(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        oracles.reference_parser().parse_args(argv)
    want = capsys.readouterr().out
    assert want.startswith("usage: moment2d")
    assert main(argv) == 0
    assert capsys.readouterr() == (want, "")


_GRID = {"l1_start": "2j", "l2_start": "2j"}
_TOLERANCE_KEYS = ("rank_tol, psd_tol, subspace_tol, cluster_tol, "
                   "atom_merge_tol, verify_tol")


# One fault per run; a value that a flag or a config key can set is tried
# both ways.
@pytest.mark.parametrize("command, flags, config, message", [
    pytest.param("solve-canonical", ["--sampler", "haar-random"], None,
                 "sampler haar-random requires --seed", id="seed-flag"),
    pytest.param("solve-canonical", [], {"sampler": "haar-random"},
                 "sampler haar-random requires --seed", id="seed-config"),
    pytest.param("solve-canonical", [], {"sampler": "bogus"},
                 "unknown sampler kind 'bogus'; expected one of "
                 "('identity-only', 'haar-random', 'exhaustive-phases')",
                 id="sampler-config"),
    pytest.param("solve-canonical", ["--sampler", "haar-random", "--seed",
                                     "1", "--count", "0"], None,
                 "haar-random sampler requires count >= 1", id="count-flag"),
    pytest.param("solve-canonical", [],
                 {"sampler": "haar-random", "seed": 1, "count": 0},
                 "haar-random sampler requires count >= 1", id="count-config"),
    pytest.param("solve-canonical", ["--sampler", "exhaustive-phases",
                                     "--phases", "0"], None,
                 "exhaustive-phases sampler requires phases >= 1",
                 id="phases-flag"),
    pytest.param("solve-canonical", [],
                 {"sampler": "exhaustive-phases", "phases": 0},
                 "exhaustive-phases sampler requires phases >= 1",
                 id="phases-config"),
    pytest.param("eval-resolvent", [], {**_GRID, "format": "xml"},
                 "format must be 'csv' or 'json'", id="format-config"),
    pytest.param("eval-resolvent", ["--l2-start", "2j"], None,
                 "missing --l1-start", id="start-flag"),
    pytest.param("eval-resolvent", [], {"l2_start": "2j"},
                 "missing --l1-start", id="start-config"),
    pytest.param("eval-resolvent", ["--l1-start", "2j", "--l2-start", "2j",
                                    "--l2-count", "3"], None,
                 "--l2-stop is required when --l2-count > 1", id="stop-flag"),
    pytest.param("eval-resolvent", [], {**_GRID, "l2_count": 3},
                 "--l2-stop is required when --l2-count > 1",
                 id="stop-config"),
    pytest.param("eval-resolvent", ["--l1-start", "2j", "--l2-start", "2j",
                                    "--l1-count", "0"], None,
                 "--l1-count must be >= 1", id="grid-count-flag"),
    pytest.param("eval-resolvent", [], {**_GRID, "l1_count": 0},
                 "--l1-count must be >= 1", id="grid-count-config"),
    pytest.param("check", ["--rank-tol", "0"], None,
                 "rank_tol must be strictly positive", id="tolerance-flag"),
    pytest.param("check", [], {"rank_tol": 0},
                 "rank_tol must be strictly positive", id="tolerance-config"),
    pytest.param("verify", [], [{"verify_tol": 1e-3}],
                 "config file must hold a JSON object", id="config-object"),
    pytest.param("check", [], {"bogus": 1},
                 "config key 'bogus' is not read by check; accepted keys: "
                 f"{_TOLERANCE_KEYS}, carleman_variant", id="keys-check"),
    pytest.param("solve-canonical", [], {"bogus": 1},
                 "config key 'bogus' is not read by solve-canonical; "
                 f"accepted keys: {_TOLERANCE_KEYS}, sampler, count, seed, "
                 "phases, d_m, d_n, max_n, output_dir", id="keys-solve"),
    pytest.param("eval-resolvent", [], {"bogus": 1},
                 "config key 'bogus' is not read by eval-resolvent; "
                 f"accepted keys: {_TOLERANCE_KEYS}, l1_start, l1_stop, "
                 "l1_count, l2_start, l2_stop, l2_count, format",
                 id="keys-eval"),
    pytest.param("verify", [], {"bogus": 1},
                 "config key 'bogus' is not read by verify; accepted keys: "
                 f"{_TOLERANCE_KEYS}", id="keys-verify"),
])
def test_cli_option_errors(command, flags, config, message, tmp_path: Path,
                           capsys):
    files = _write_demo(tmp_path, capsys)
    inputs = {"check": ["e2-table.json"],
              "verify": ["e2-measure.json", "e2-table.json"],
              "solve-canonical": ["e3-pair.json"],
              "eval-resolvent": ["e3-pair.json"]}[command]
    argv = [command] + [str(files[name]) for name in inputs] + flags
    if command == "solve-canonical":
        argv += ["--output-dir", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "c.json")]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_cli_check_refuses_a_bad_carleman_variant_on_any_table(
        tmp_path: Path, capsys):
    files = _write_demo(tmp_path, capsys)
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"max_m": 1, "max_n": 1, "entries": [
        [0, 0, 1.0], [1, 0, 0.5], [0, 1, 0.5], [1, 1, 0.25]]}))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"carleman_variant": "bogus"}))
    for table in (small, files["e2-table.json"]):
        assert main(["check", str(table), "--config", str(config)]) == 1
        assert capsys.readouterr() == (
            "", "error: variant must be 'pair' or 'single'\n")
    assert main(["check", str(small)]) == 0


@pytest.mark.parametrize("argv", [
    ["eval-resolvent", "--l1-start", "2j", "--l1-stop", "3j",
     "--l1-count", str(10**15), "--l2-start", "2j"],
    ["solve-canonical", "--sampler", "exhaustive-phases",
     "--phases", str(10**15), "--output-dir", "out"],
], ids=lambda argv: argv[0])
def test_cli_counts_too_large_to_allocate_are_input_errors(
        argv, tmp_path: Path, monkeypatch, capsys):
    # 10**15 numbers take 7.11 PiB, more than any user address space.
    files = _write_demo(tmp_path, capsys)
    monkeypatch.chdir(tmp_path)
    assert main([argv[0], str(files["e3-pair.json"])] + argv[1:]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: Unable to allocate ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "out").exists()


# Each text is written as is: ``1e999`` decodes to infinity.
@pytest.mark.parametrize("flags, config, message", [
    (["--l1-start", "nan"], None, "--l1-start must be finite"),
    ([], '{"l1_start": "nan", "l2_start": "2j"}', "--l1-start must be finite"),
    ([], '{"l1_start": 1e999, "l2_start": "2j"}', "--l1-start must be finite"),
    (["--l1-start", "2j", "--l1-stop", "inf", "--l1-count", "3"], None,
     "--l1-stop must be finite"),
    ([], '{"l1_start": "2j", "l1_stop": 1e999, "l1_count": 3, '
         '"l2_start": "2j"}', "--l1-stop must be finite"),
    (["--l1-start", "2j", "--l1-stop", "1e999j"], None,
     "--l1-stop must be finite"),
    (["--l1-start=-1e308", "--l1-stop", "1e308", "--l1-count", "3"], None,
     "--l1-start to --l1-stop overflows"),
    ([], '{"l1_start": -1e308, "l1_stop": 1e308, "l1_count": 3, '
         '"l2_start": "2j"}',
     "--l1-start to --l1-stop overflows"),
], ids=["start-flag", "start-config", "start-config-1e999", "stop-flag",
        "stop-config-1e999", "stop-count-1", "overflow-flag",
        "overflow-config"])
def test_cli_eval_resolvent_refuses_grid_bounds_that_are_not_finite(
        flags, config, message, tmp_path: Path, capsys):
    files = _write_demo(tmp_path, capsys)
    argv = ["eval-resolvent", str(files["e3-pair.json"])] + flags
    if config is None:
        argv += ["--l2-start", "2j"]
    else:
        (tmp_path / "c.json").write_text(config)
        argv += ["--config", str(tmp_path / "c.json")]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
