"""Line-oriented text formats for structure-constant data.

Three block types share one scalar encoding (the exact text form of the
field: integers or fractions such as -3/2 over the rationals, residues over
a prime field) and one set of conventions: '#' starts a comment, blank
lines are ignored, every index is 0-based, and each document ends with a
literal "end" line so truncation is detectable.

hopf-algebra v1
    name NAME                (optional)
    field rational           (or: field prime P)
    dim N
    basis tok0 tok1 ...      (optional; whitespace-free tokens)
    mul i j : k c [k c ...]  (sparse row of e_i * e_j; absent rows are zero)
    unit : i c [i c ...]
    counit : i c [i c ...]
    comul i : j k c [...]    (sparse tensor of Delta(e_i))
    antipode j : i c [...]   (sparse image of e_j; absent columns are zero)
    end

matrix v1
    field ... / shape R C, then R dense rows of C scalars, then end.

module v1
    field ... / dim D, then one "action s" block per subalgebra basis
    element s with D dense rows each, then end.  Loaders are expected to
    validate the module law separately.

Emission is canonical (fixed ordering, normalized scalars, sparse rows
sorted, zero entries dropped), so emit -> parse -> emit is byte-identical.
Parse errors carry "label:line:" positions and raise InvalidInputError.
"""

from __future__ import annotations

from .algebra import StructureAlgebra
from .errors import InvalidInputError
from .hopfcore import HopfAlgebra
from .linalg import Matrix
from .scalars import Field, field_from_name

HOPF_HEADER = "hopf-algebra v1"
MATRIX_HEADER = "matrix v1"
MODULE_HEADER = "module v1"


def _err(label: str, lineno: int, msg: str) -> InvalidInputError:
    return InvalidInputError(f"{label}:{lineno}: {msg}")


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


class _Reader:
    """Cursor over the significant lines with positioned errors."""

    def __init__(self, text: str, label: str):
        self.label = label
        self.rows = list(_significant_lines(text))
        self.pos = 0
        self.last_lineno = self.rows[-1][0] if self.rows else 1

    def error(self, lineno: int, msg: str) -> InvalidInputError:
        return _err(self.label, lineno, msg)

    def next(self, what: str) -> tuple[int, str]:
        if self.pos >= len(self.rows):
            raise self.error(self.last_lineno, f"unexpected end of file, expected {what}")
        row = self.rows[self.pos]
        self.pos += 1
        return row

    def expect_header(self, header: str) -> None:
        lineno, line = self.next(f"header {header!r}")
        if line != header:
            raise self.error(lineno, f"expected header {header!r}, found {line!r}")

    def expect_keyword(self, keyword: str) -> tuple[int, list[str]]:
        lineno, line = self.next(f"{keyword!r} line")
        toks = line.split()
        if toks[0] != keyword:
            raise self.error(lineno, f"expected {keyword!r} line, found {line!r}")
        return lineno, toks[1:]

    def done(self) -> None:
        if self.pos < len(self.rows):
            lineno, line = self.rows[self.pos]
            raise self.error(lineno, f"unexpected content after 'end': {line!r}")


def _parse_int(rd: _Reader, lineno: int, tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise rd.error(lineno, f"{what} must be an integer, found {tok!r}") from None


def _parse_index(rd: _Reader, lineno: int, tok: str, dim: int, what: str) -> int:
    i = _parse_int(rd, lineno, tok, what)
    if not 0 <= i < dim:
        raise rd.error(lineno, f"{what} {i} out of range for dimension {dim}")
    return i


def _parse_scalar(rd: _Reader, lineno: int, field: Field, tok: str):
    try:
        return field.parse(tok)
    except InvalidInputError as exc:
        raise rd.error(lineno, str(exc)) from None


def _parse_field(rd: _Reader) -> Field:
    lineno, toks = rd.expect_keyword("field")
    try:
        return field_from_name(" ".join(toks))
    except InvalidInputError as exc:
        raise rd.error(lineno, str(exc)) from None


def _split_colon(rd: _Reader, lineno: int, toks: list[str], nhead: int):
    if len(toks) < nhead + 1 or toks[nhead] != ":":
        raise rd.error(
            lineno, f"expected {nhead} index token(s) followed by ':', found {' '.join(toks) or 'nothing'}"
        )
    return toks[:nhead], toks[nhead + 1 :]


def _parse_groups(rd: _Reader, lineno: int, field: Field, dim: int, toks, width: int, what: str):
    """Sparse payload: repeating groups of width-1 indices and one scalar."""
    if len(toks) % width != 0:
        raise rd.error(lineno, f"{what} entries come in groups of {width}, found {len(toks)} token(s)")
    out = []
    for g in range(0, len(toks), width):
        idx = tuple(
            _parse_index(rd, lineno, toks[g + t], dim, f"{what} index") for t in range(width - 1)
        )
        c = _parse_scalar(rd, lineno, field, toks[g + width - 1])
        out.append((*idx, c))
    return out


def parse_hopf_text(text: str, label: str = "<input>") -> HopfAlgebra:
    rd = _Reader(text, label)
    rd.expect_header(HOPF_HEADER)

    # optional name, then field and dim
    name = ""
    if rd.pos < len(rd.rows) and rd.rows[rd.pos][1].split()[0] == "name":
        name = rd.next("'name' line")[1][len("name") :].strip()
    field = _parse_field(rd)

    lineno, toks = rd.expect_keyword("dim")
    if len(toks) != 1:
        raise rd.error(lineno, "'dim' takes exactly one integer")
    dim = _parse_int(rd, lineno, toks[0], "dimension")
    if dim <= 0:
        raise rd.error(lineno, f"dimension must be positive, found {dim}")
    # the dim-sized vectors below are copies of this one, so a dim too large
    # to hold fails here, at its own line
    try:
        zeros = [field.zero()] * dim
    except (MemoryError, OverflowError):
        raise rd.error(lineno, f"dimension {dim} is too large to allocate") from None

    def dense(lineno: int, payload, what: str) -> list:
        """The dim-vector of a sparse payload, repeated indices summed."""
        vec = zeros.copy()
        for k, c in _parse_groups(rd, lineno, field, dim, payload, 2, what):
            vec[k] = field.normalize(vec[k] + c)
        return vec

    basis_names = None
    mul: dict = {}
    comul: dict = {}
    unit = None
    counit = None
    antipode_cols: dict = {}
    seen_mul: set = set()

    while True:
        lineno, line = rd.next("a body line or 'end'")
        toks = line.split()
        head = toks[0]
        if head == "end":
            if len(toks) != 1:
                raise rd.error(lineno, "'end' takes no arguments")
            break
        if head == "basis":
            if basis_names is not None:
                raise rd.error(lineno, "duplicate 'basis' line")
            if len(toks) - 1 != dim:
                raise rd.error(lineno, f"expected {dim} basis names, found {len(toks) - 1}")
            basis_names = tuple(toks[1:])
        elif head == "mul":
            heads, payload = _split_colon(rd, lineno, toks[1:], 2)
            i = _parse_index(rd, lineno, heads[0], dim, "mul row index")
            j = _parse_index(rd, lineno, heads[1], dim, "mul row index")
            if (i, j) in seen_mul:
                raise rd.error(lineno, f"duplicate mul row for basis pair ({i}, {j})")
            seen_mul.add((i, j))
            mul[(i, j)] = [
                (k, c) for k, c in _parse_groups(rd, lineno, field, dim, payload, 2, "mul")
            ]
        elif head == "unit":
            _, payload = _split_colon(rd, lineno, toks[1:], 0)
            if unit is not None:
                raise rd.error(lineno, "duplicate 'unit' line")
            unit = dense(lineno, payload, "unit")
        elif head == "counit":
            _, payload = _split_colon(rd, lineno, toks[1:], 0)
            if counit is not None:
                raise rd.error(lineno, "duplicate 'counit' line")
            counit = dense(lineno, payload, "counit")
        elif head == "comul":
            heads, payload = _split_colon(rd, lineno, toks[1:], 1)
            i = _parse_index(rd, lineno, heads[0], dim, "comul row index")
            if i in comul:
                raise rd.error(lineno, f"duplicate comul row for basis {i}")
            comul[i] = _parse_groups(rd, lineno, field, dim, payload, 3, "comul")
        elif head == "antipode":
            heads, payload = _split_colon(rd, lineno, toks[1:], 1)
            j = _parse_index(rd, lineno, heads[0], dim, "antipode column index")
            if j in antipode_cols:
                raise rd.error(lineno, f"duplicate antipode column for basis {j}")
            antipode_cols[j] = dense(lineno, payload, "antipode")
        else:
            raise rd.error(lineno, f"unknown directive {head!r}")
    rd.done()

    if unit is None:
        raise _err(label, rd.last_lineno, "missing 'unit' line")
    if counit is None:
        raise _err(label, rd.last_lineno, "missing 'counit' line")
    antipode = Matrix.from_columns(field, [antipode_cols.get(j, zeros) for j in range(dim)])
    alg = StructureAlgebra.from_sparse(field, dim, mul, unit, basis_names)
    return HopfAlgebra.from_sparse(alg, comul, counit, antipode, name)


def emit_hopf_text(H: HopfAlgebra) -> str:
    field = H.field
    z = field.zero()
    for nm in H.basis_names:
        if not nm or any(ch.isspace() for ch in nm):
            raise InvalidInputError(f"basis name {nm!r} is not a whitespace-free token")
    lines = [HOPF_HEADER]
    if H.name:
        lines.append(f"name {H.name}")
    lines.append(f"field {field.name}")
    lines.append(f"dim {H.dim}")
    lines.append("basis " + " ".join(H.basis_names))
    for i, j in sorted(H.alg.mul):
        row = sorted((k, c) for k, c in H.alg.mul[(i, j)] if field.normalize(c) != z)
        if row:
            payload = " ".join(f"{k} {field.fmt(c)}" for k, c in row)
            lines.append(f"mul {i} {j} : {payload}")
    lines.append(
        "unit : " + " ".join(f"{k} {field.fmt(c)}" for k, c in enumerate(H.unit) if c != z)
    )
    lines.append(
        "counit : " + " ".join(f"{k} {field.fmt(c)}" for k, c in enumerate(H.counit) if c != z)
    )
    for i in range(H.dim):
        row = sorted((j, k, c) for j, k, c in H.comul_row(i) if field.normalize(c) != z)
        if row:
            payload = " ".join(f"{j} {k} {field.fmt(c)}" for j, k, c in row)
            lines.append(f"comul {i} : {payload}")
    for j in range(H.dim):
        col = H.antipode.col(j)
        entries = [(i, c) for i, c in enumerate(col) if c != z]
        if entries:
            payload = " ".join(f"{i} {field.fmt(c)}" for i, c in entries)
            lines.append(f"antipode {j} : {payload}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc


def read_hopf_file(path: str) -> HopfAlgebra:
    return parse_hopf_text(_read_text(path), label=path)


def write_hopf_file(path: str, H: HopfAlgebra) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_hopf_text(H))


def _parse_dense_rows(rd: _Reader, field: Field, nrows: int, ncols: int, what: str):
    rows = []
    for _ in range(nrows):
        lineno, line = rd.next(f"{what} row")
        toks = line.split()
        if len(toks) != ncols:
            raise rd.error(lineno, f"expected {ncols} scalars in {what} row, found {len(toks)}")
        rows.append([_parse_scalar(rd, lineno, field, t) for t in toks])
    return rows


def parse_matrix_text(text: str, label: str = "<input>") -> tuple[Field, Matrix]:
    rd = _Reader(text, label)
    rd.expect_header(MATRIX_HEADER)
    field = _parse_field(rd)
    lineno, toks = rd.expect_keyword("shape")
    if len(toks) != 2:
        raise rd.error(lineno, "'shape' takes two integers")
    nrows = _parse_int(rd, lineno, toks[0], "row count")
    ncols = _parse_int(rd, lineno, toks[1], "column count")
    if nrows <= 0 or ncols <= 0:
        raise rd.error(lineno, "matrix shape must be positive")
    rows = _parse_dense_rows(rd, field, nrows, ncols, "matrix")
    lineno, line = rd.next("'end'")
    if line != "end":
        raise rd.error(lineno, f"expected 'end', found {line!r}")
    rd.done()
    return field, Matrix.from_rows(field, rows)


def read_matrix_file(path: str) -> tuple[Field, Matrix]:
    return parse_matrix_text(_read_text(path), label=path)


def parse_module_text(text: str, label: str = "<input>") -> tuple[Field, int, tuple[Matrix, ...]]:
    """Module data: one dense action matrix per subalgebra basis element.
    Returns (field, module dimension, action matrices); the caller checks
    the module law against its algebra."""
    rd = _Reader(text, label)
    rd.expect_header(MODULE_HEADER)
    field = _parse_field(rd)
    lineno, toks = rd.expect_keyword("dim")
    if len(toks) != 1:
        raise rd.error(lineno, "'dim' takes exactly one integer")
    d = _parse_int(rd, lineno, toks[0], "module dimension")
    if d <= 0:
        raise rd.error(lineno, "module dimension must be positive")
    mats = []
    while True:
        lineno, line = rd.next("an 'action' block or 'end'")
        if line == "end":
            break
        toks = line.split()
        if toks[0] != "action" or len(toks) != 2:
            raise rd.error(lineno, f"expected 'action s' or 'end', found {line!r}")
        s = _parse_int(rd, lineno, toks[1], "action index")
        if s != len(mats):
            raise rd.error(lineno, f"action blocks must appear in order; expected {len(mats)}, found {s}")
        mats.append(Matrix.from_rows(field, _parse_dense_rows(rd, field, d, d, "action")))
    rd.done()
    if not mats:
        raise _err(label, rd.last_lineno, "module file has no action blocks")
    return field, d, tuple(mats)


def read_module_file(path: str) -> tuple[Field, int, tuple[Matrix, ...]]:
    return parse_module_text(_read_text(path), label=path)
