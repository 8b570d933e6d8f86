"""JSON serialization for tables, measures, operator pairs and reports.

All floating-point values are printed with 17 significant digits so
that parsing the output reproduces the binary doubles exactly and
reruns are byte-identical.  Complex matrices are stored as nested
arrays of ``[re, im]`` pairs; a ``dim x 0`` matrix is a list of ``dim``
empty rows.

The command line reads every file with :func:`load`, which parses and
decodes it with the cyclic garbage collector paused: ``json.loads``
makes one list per ``[re, im]`` cell, and each 700 new lists would start
a collection while all of them are alive.  The parsed object is freed
before the collector resumes, so its lists die by reference count.
``gc.disable`` is process-wide: another thread's allocations also go
uncollected for the few milliseconds of a decode.
"""

from __future__ import annotations

import gc
import json
from itertools import chain

import numpy as np

from .config import STRUCTURE_TOL
from .errors import SchemaError
from .gns import SymmetricPair
from .linalg import gram_defect, is_conjugation
from .moments import AtomicMeasure, MomentTable
from .solutions import SolutionReport

__all__ = [
    "dumps",
    "write_json",
    "read_json",
    "load",
    "moment_table_to_json",
    "moment_table_from_json",
    "measure_to_json",
    "measure_from_json",
    "complex_matrix_to_json",
    "complex_matrix_from_json",
    "complex_vector_to_json",
    "complex_vector_from_json",
    "pair_to_json",
    "pair_from_json",
    "report_to_json",
]


def _number_texts(values) -> list:
    """The texts of plain ``float`` and ``int`` values in one pass."""
    texts = [str(v) if type(v) is int else "%.17g" % v for v in values]
    # "-0" would read back as the integer 0 and lose the sign.
    if "-0" in texts:
        texts = ["-0.0" if text == "-0" else text for text in texts]
    return texts


def _list_parts(obj, indent: int) -> list:
    """The texts of a list's items, in one pass for the shapes that
    :func:`dumps` names, else with one :func:`dumps` call per item."""
    sizes, leaves, types = [], obj, set(map(type, obj))
    while (types <= {list, tuple} and len(set(map(len, leaves))) == 1
           and len(leaves[0])):
        sizes.append(len(leaves[0]))
        leaves = tuple(chain.from_iterable(leaves))
        types = set(map(type, leaves))
    if not types <= {float, int}:
        return [dumps(v, indent + 1) for v in obj]
    if not sizes:
        return _number_texts(obj)
    # A "%.17g" text is under 40 characters, so float cells stay inline.
    spec, args, widths = "%.17g", leaves, None
    if types != {float}:
        args = _number_texts(leaves)
        spec, widths = "%s", list(map(len, args))
    for depth, size in reversed(list(enumerate(sizes, indent + 1))):
        line = "\n" + "  " * (depth + 1)
        short = "[" + ", ".join([spec] * size) + "]"
        long = "[" + line + ("," + line).join([spec] * size) + line[:-2] + "]"
        formats = [short] * (len(args) // size) if widths is None else [
            long if w >= 40 else short
            for w in map(max, zip(*[iter(widths)] * size))]
        text = "\0".join(formats) % tuple(args)
        # As in _number_texts: "-0" would read back as the integer 0.
        if spec != "%s" and ("-0," in text or "-0]" in text):
            text = text.replace("-0,", "-0.0,").replace("-0]", "-0.0]")
        args, spec = text.split("\0"), "%s"
        widths = list(map(len, args))
    return args


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON text with 17-significant-digit floats.

    Every float is printed with ``"%.17g"``, so parsing the text gives
    back the same double; ``-0`` is written ``-0.0`` to keep the sign.
    Ints are printed with ``str``.  A list is written on one line when
    each of its items is under 40 characters and holds no newline, else
    one item per line; a dict always puts one key per line.  In one pass
    go a list of plain ``float``/``int`` values and a uniform grid of
    them: equally long lists of such values (table entries, ``[re, im]``
    cells), equally long lists of those (the rows of a complex matrix),
    and so on, with one ``%`` call per level.  Other values (``bool``,
    ``None``, numpy scalars, ...) and ragged or empty lists take the
    recursive path, which gives the same text.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _number_texts([float(obj)])[0]
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {dumps(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = _list_parts(obj, indent)
        if max(map(len, parts)) < 40:
            text = ", ".join(parts)
            if "\n" not in text:
                return "[" + text + "]"
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize value of type {type(obj).__name__}")


def write_json(obj, path: str):
    text = dumps(obj) + "\n"   # first: opening the file empties it
    with open(path, "w") as fh:
        fh.write(text)


def read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from exc


def load(path: str, decode):
    """``decode(read_json(path))`` with the cyclic collector paused.

    The collector resumes, if it was enabled, once ``decode`` returns or
    raises; a parsed object that ``decode`` does not keep is freed first.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return decode(read_json(path))
    finally:
        if enabled:
            gc.enable()


def _expect(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def _expect_dict(obj, what: str) -> dict:
    _expect(isinstance(obj, dict), f"{what} must be a JSON object")
    return obj


def _expect_list(obj, what: str) -> list:
    _expect(isinstance(obj, list), f"{what} must be a JSON array")
    return obj


def _expect_int(obj, what: str) -> int:
    _expect(isinstance(obj, int) and not isinstance(obj, bool),
            f"{what} must be an integer")
    return obj


def _expect_real(obj, what: str) -> float:
    _expect(isinstance(obj, (int, float)) and not isinstance(obj, bool),
            f"{what} must be a number")
    try:
        value = float(obj)
    except OverflowError:   # an integer beyond the double range
        value = np.inf
    _expect(np.isfinite(value), f"{what} must be finite")
    return value


def _get(obj: dict, key: str, what: str):
    _expect(key in obj, f"{what} is missing required field {key!r}")
    return obj[key]


def moment_table_to_json(table: MomentTable) -> dict:
    entries = [[m, n, s] for m, row in enumerate(table.values.tolist())
               for n, s in enumerate(row)]
    return {"max_m": table.max_m, "max_n": table.max_n, "entries": entries}


def moment_table_from_json(obj) -> MomentTable:
    obj = _expect_dict(obj, "moment table")
    max_m = _expect_int(_get(obj, "max_m", "moment table"), "max_m")
    max_n = _expect_int(_get(obj, "max_n", "moment table"), "max_n")
    _expect(max_m >= 0 and max_n >= 0, "max_m and max_n must be >= 0")
    entries = _expect_list(_get(obj, "entries", "moment table"), "entries")
    # Coverage is decided from the entries, so that a declared rectangle
    # far larger than the entries is refused before anything is allocated.
    given = {}
    for i, entry in enumerate(entries):
        row = _expect_list(entry, f"entries[{i}]")
        _expect(len(row) == 3, f"entries[{i}] must be [m, n, s]")
        m = _expect_int(row[0], f"entries[{i}][0]")
        n = _expect_int(row[1], f"entries[{i}][1]")
        s = _expect_real(row[2], f"entries[{i}][2]")
        _expect(0 <= m <= max_m and 0 <= n <= max_n,
                f"entries[{i}] index ({m}, {n}) outside the rectangle")
        _expect((m, n) not in given,
                f"entries[{i}] duplicates index ({m}, {n})")
        given[m, n] = s
    if len(given) < (max_m + 1) * (max_n + 1):
        # Row-major scan: at most len(given) + 1 steps to the first gap.
        m, n = next((m, n) for m in range(max_m + 1)
                    for n in range(max_n + 1) if (m, n) not in given)
        raise SchemaError(f"moment table is missing entry ({m}, {n})")
    values = np.empty((max_m + 1, max_n + 1))
    for (m, n), s in given.items():
        values[m, n] = s
    return MomentTable(max_m, max_n, values)


def measure_to_json(measure: AtomicMeasure) -> dict:
    atoms = np.column_stack((measure.points, measure.weights)).tolist()
    return {"atoms": atoms}


def measure_from_json(obj) -> AtomicMeasure:
    obj = _expect_dict(obj, "measure")
    atoms = _expect_list(_get(obj, "atoms", "measure"), "atoms")
    points = []
    weights = []
    for i, entry in enumerate(atoms):
        row = _expect_list(entry, f"atoms[{i}]")
        _expect(len(row) == 3, f"atoms[{i}] must be [t1, t2, w]")
        t1 = _expect_real(row[0], f"atoms[{i}][0]")
        t2 = _expect_real(row[1], f"atoms[{i}][1]")
        w = _expect_real(row[2], f"atoms[{i}][2]")
        _expect(w > 0, f"atoms[{i}] weight must be positive")
        points.append([t1, t2])
        weights.append(w)
    pts = np.array(points) if points else np.zeros((0, 2))
    try:
        return AtomicMeasure(pts, np.array(weights))
    except ValueError as exc:
        raise SchemaError(f"measure: {exc}") from exc


def complex_matrix_to_json(mat: np.ndarray) -> list:
    """Rows of ``[re, im]`` cells; a ``dim x 0`` matrix gives ``dim`` empty
    rows, and a vector gives one list of cells."""
    mat = np.asarray(mat, dtype=complex)
    return np.stack((mat.real, mat.imag), -1).tolist()


def _complex_cell(cell, what: str) -> complex:
    cell = _expect_list(cell, what)
    _expect(len(cell) == 2, f"{what} must be [re, im]")
    return complex(_expect_real(cell[0], f"{what}[0]"),
                   _expect_real(cell[1], f"{what}[1]"))


def _complex_cells(cells: list) -> np.ndarray | None:
    """The ``[re, im]`` cells as a complex array in one conversion.

    ``None`` unless every cell is a pair of finite plain ``int`` or
    ``float`` numbers; the caller then walks the cells one at a time,
    which decodes the values a subclass may hold or names the first bad
    cell.  The ``.view`` keeps every bit, signed zeros included.
    """
    if set(map(type, cells)) != {list} or set(map(len, cells)) != {2}:
        return None
    flat = list(chain.from_iterable(cells))   # numpy reads it faster flat
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        parts = np.array(flat, dtype=float)
    except OverflowError:   # an integer beyond the double range
        return None
    if not np.isfinite(parts).all():
        return None
    return parts.view(complex)


def complex_matrix_from_json(obj, what: str, rows: int | None = None,
                             cols: int | None = None) -> np.ndarray:
    data = _expect_list(obj, what)
    if rows is not None:
        _expect(len(data) == rows, f"{what} must have {rows} rows")
    width = cols
    if width is None:
        width = len(data[0]) if data and isinstance(data[0], list) else 0
    if all(type(row) is list and len(row) == width for row in data):
        values = _complex_cells(list(chain.from_iterable(data)))
        if values is not None:
            return values.reshape(len(data), width)
    out_rows = []
    for i, row in enumerate(data):
        row = _expect_list(row, f"{what}[{i}]")
        _expect(len(row) == width,
                f"{what}[{i}] has {len(row)} entries, expected {width}")
        out_rows.append([_complex_cell(cell, f"{what}[{i}][{j}]")
                         for j, cell in enumerate(row)])
    return np.array(out_rows, dtype=complex).reshape(len(out_rows), width)


def complex_vector_to_json(vec: np.ndarray) -> list:
    return complex_matrix_to_json(np.reshape(vec, -1))


def complex_vector_from_json(obj, what: str, length: int | None = None) -> np.ndarray:
    data = _expect_list(obj, what)
    if length is not None:
        _expect(len(data) == length, f"{what} must have {length} entries")
    values = _complex_cells(data)
    if values is not None:
        return values
    return np.array([_complex_cell(cell, f"{what}[{i}]")
                     for i, cell in enumerate(data)], dtype=complex)


def pair_to_json(pair: SymmetricPair) -> dict:
    return {
        "dim": pair.dim,
        "a1_domain": complex_matrix_to_json(pair.a1_domain),
        "a1_action": complex_matrix_to_json(pair.a1_action),
        "a2_domain": complex_matrix_to_json(pair.a2_domain),
        "a2_action": complex_matrix_to_json(pair.a2_action),
        "h00": complex_vector_to_json(pair.h00),
        "j_matrix": complex_matrix_to_json(pair.j_matrix),
        "a2_selfadjoint": pair.a2_selfadjoint,
    }


def pair_from_json(obj) -> SymmetricPair:
    obj = _expect_dict(obj, "operator pair")
    dim = _expect_int(_get(obj, "dim", "operator pair"), "dim")
    _expect(dim >= 1, "dim must be >= 1")
    ops, residuals = {}, {}
    for op in ("a1", "a2"):
        domain = complex_matrix_from_json(
            _get(obj, f"{op}_domain", "operator pair"), f"{op}_domain",
            rows=dim)
        # The operator's full matrix, action @ domain^H, needs this.
        k = domain.shape[1]
        residual = residuals[op] = gram_defect(domain)
        _expect(residual <= STRUCTURE_TOL * max(k, 1),
                f"{op}_domain columns must be orthonormal (residual "
                f"||Q^H Q - I||_F = {residual:.3e})")
        ops[f"{op}_domain"] = domain
        ops[f"{op}_action"] = complex_matrix_from_json(
            _get(obj, f"{op}_action", "operator pair"), f"{op}_action",
            rows=dim, cols=k)
    h00 = complex_vector_from_json(_get(obj, "h00", "operator pair"),
                                   "h00", length=dim)
    j_matrix = complex_matrix_from_json(_get(obj, "j_matrix", "operator pair"),
                                        "j_matrix", rows=dim, cols=dim)
    _expect(is_conjugation(j_matrix, STRUCTURE_TOL),
            "j_matrix must be a conjugation: unitary with J conj(J) = I")
    flag = _get(obj, "a2_selfadjoint", "operator pair")
    _expect(isinstance(flag, bool), "a2_selfadjoint must be a boolean")
    pair = SymmetricPair(dim=dim, **ops, h00=h00, j_matrix=j_matrix)
    # The same number as pair.a1_gram_defect, which cayley() reads.
    vars(pair)["a1_gram_defect"] = residuals["a1"]
    _expect(flag == pair.a2_selfadjoint,
            f"a2_selfadjoint is {dumps(flag)}, but A2 is "
            f"{'' if pair.a2_selfadjoint else 'not '}self-adjoint")
    return pair


def report_to_json(report: SolutionReport) -> dict:
    return {
        "atoms": measure_to_json(report.measure)["atoms"],
        "max_abs_moment_error": float(report.max_abs_moment_error),
        "degrees_checked": [int(report.degrees_checked[0]),
                            int(report.degrees_checked[1])],
        "determinate": report.determinate,
        "u2_seed": report.u2_seed,
    }
