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

Canonical rows.  The tables of StructureAlgebra and HopfAlgebra hold every
sparse row sorted by key, its scalars normalized and nonzero, each key once.
emit_hopf_text writes the rows as they are held, in a fixed line order, so
emission is canonical and emit -> parse -> emit is byte-identical.

A hopf-algebra file is read in one pass, a line at a time.  Each sparse body
line is split once; its scalars are converted by one Field.parse_all (over
GF(p) a map of int reduced mod p, over QQ a map of Field.parse), its head
and payload indices by one map(int, ...), range-checked by min and max.  A
row whose keys strictly ascend and whose scalars are all nonzero, as every
emitted row's do, is kept as it is; any other is cleaned once (repeated
keys summed, sorted, zeros dropped).  The tables go to the dataclass
constructors as they are, with no second cleaning, and the antipode is
assembled from its sparse columns.  A line whose bulk conversion or range
check fails, or which repeats one already read, is read again token by
token, so each parse error names the first bad token of the first bad line,
with the same message either way.
Parse errors carry "label:line:" positions and raise InvalidInputError.
"""

from __future__ import annotations

from operator import lt

from .algebra import StructureAlgebra, _clean_row, default_names
from .errors import InvalidInputError
from .hopfcore import HopfAlgebra
from .linalg import Matrix
from .scalars import Field, field_from_name

HOPF_HEADER = "hopf-algebra v1"
MATRIX_HEADER = "matrix v1"
MODULE_HEADER = "module v1"


def _err(label: str, lineno: int, msg: str) -> InvalidInputError:
    return InvalidInputError(f"{label}:{lineno}: {msg}")


def _significant_lines(text: str) -> list:
    lines = enumerate(map(str.strip, text.splitlines()), start=1)
    return [(lineno, line) for lineno, line in lines if line and line[0] != "#"]


class _Reader:
    """Cursor over the significant lines with positioned errors."""

    def __init__(self, text: str, label: str):
        self.label = label
        self.rows = _significant_lines(text)
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
    """Sparse payload: repeating groups of width-1 indices and one scalar,
    read token by token so that the first bad token in the line is named."""
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


def _canonical_row(field: Field, idx: list, cs: list, width: int) -> tuple:
    """The row of the entries with flat indices idx (width - 1 per entry) and
    normalized scalars cs, in the form the tables hold: (k, c) or (j, k, c)
    sorted by key, repeated keys summed, no zero scalar.  A row already in
    that form, as emit_hopf_text writes it, is kept as it is."""
    keys = idx if width == 2 else list(zip(idx[0::2], idx[1::2]))
    if all(cs) and all(map(lt, keys, keys[1:])):
        return tuple(zip(keys, cs)) if width == 2 else tuple(zip(idx[0::2], idx[1::2], cs))
    row = _clean_row(field, zip(keys, cs))
    return row if width == 2 else tuple((j, k, c) for (j, k), c in row)


# The sparse body lines: directive -> (head indices before the ':', width
# of a payload group, name of a head index, message for a repeated line).
# Each is read into a table keyed by the tuple of its head indices.
_ROW_LINES = {
    "mul": (2, 2, "mul row index", "duplicate mul row for basis pair ({}, {})"),
    "comul": (1, 3, "comul row index", "duplicate comul row for basis {}"),
    "antipode": (1, 2, "antipode column index", "duplicate antipode column for basis {}"),
    "unit": (0, 2, "", "duplicate 'unit' line"),
    "counit": (0, 2, "", "duplicate 'counit' line"),
}


def _read_row_by_token(
    rd: _Reader, lineno: int, field: Field, dim: int, toks: list, table: dict
) -> None:
    """Read one sparse body line token by token into its table, raising the
    error of its first bad token in the order the format checks them: the
    ':', each head index, a repeated line, the group count, then each
    payload group's indices and scalar."""
    nhead, width, what, repeated = _ROW_LINES[toks[0]]
    heads, payload = _split_colon(rd, lineno, toks[1:], nhead)
    key = tuple(_parse_index(rd, lineno, t, dim, what) for t in heads)
    if key in table:
        raise rd.error(lineno, repeated.format(*key))
    groups = _parse_groups(rd, lineno, field, dim, payload, width, toks[0])
    idx = [i for g in groups for i in g[:-1]]
    table[key] = _canonical_row(field, idx, [g[-1] for g in groups], width)


def parse_hopf_text(text: str, label: str = "<input>") -> HopfAlgebra:
    """The Hopf algebra of a hopf-algebra v1 text, its tables in canonical
    form; label names the text in error positions."""
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

    parse_all = field.parse_all
    tables: dict = {head: {} for head in _ROW_LINES}
    # directive -> (its table, head count, group width, offset of the first
    # scalar among the heads and the payload)
    specs = {
        head: (tables[head], nhead, width, nhead + width - 1)
        for head, (nhead, width, _, _) in _ROW_LINES.items()
    }
    basis_names = None
    rows = rd.rows
    for pos in range(rd.pos, len(rows)):
        lineno, line = rows[pos]
        toks = line.split()
        spec = specs.get(toks[0])
        if spec is not None:
            # the line's scalars in one Field.parse_all, its indices in one
            # map(int), range-checked by min and max; a line that fails or
            # repeats is read again by _read_row_by_token
            table, nhead, width, at = spec
            n = len(toks)
            if n > nhead + 1 and toks[nhead + 1] == ":" and (n - nhead - 2) % width == 0:
                del toks[nhead + 1], toks[0]
                try:
                    cs = parse_all(toks[at::width])
                    del toks[at::width]
                    vals = list(map(int, toks))
                except (ValueError, InvalidInputError):
                    vals = None
                if vals is not None and (not vals or (min(vals) >= 0 and max(vals) < dim)):
                    key = tuple(vals[:nhead])
                    if key not in table:
                        del vals[:nhead]
                        table[key] = _canonical_row(field, vals, cs, width)
                        continue
                toks = line.split()  # with its directive and ':' again
            _read_row_by_token(rd, lineno, field, dim, toks, table)
        elif toks[0] == "basis":
            if basis_names is not None:
                raise rd.error(lineno, "duplicate 'basis' line")
            if len(toks) - 1 != dim:
                raise rd.error(lineno, f"expected {dim} basis names, found {len(toks) - 1}")
            basis_names = tuple(toks[1:])
        elif toks[0] == "end":
            if len(toks) != 1:
                raise rd.error(lineno, "'end' takes no arguments")
            rd.pos = pos + 1
            break
        else:
            raise rd.error(lineno, f"unknown directive {toks[0]!r}")
    else:
        rd.pos = len(rows)
        rd.next("a body line or 'end'")  # no 'end' line: raises
    rd.done()

    vectors = []
    for head in ("unit", "counit"):
        if () not in tables[head]:
            raise _err(label, rd.last_lineno, f"missing {head!r} line")
        vec = zeros.copy()
        for k, c in tables[head][()]:
            vec[k] = c
        vectors.append(tuple(vec))
    mul = {key: row for key, row in tables["mul"].items() if row}
    comul = {i: row for (i,), row in tables["comul"].items()}
    for i in range(dim):
        comul.setdefault(i, ())
    antipode = Matrix.from_entries(
        field, dim, dim, (((i, j), c) for (j,), col in tables["antipode"].items() for i, c in col)
    )
    alg = StructureAlgebra(field, dim, mul, vectors[0], basis_names or default_names(dim))
    return HopfAlgebra(alg, comul, vectors[1], antipode, name)


def emit_hopf_text(H: HopfAlgebra) -> str:
    """The canonical text of H.  Its rows are written as the tables hold
    them, which is already sorted, normalized and free of zeros."""
    field = H.field
    fmt = field.fmt
    for nm in H.basis_names:
        if not nm or any(ch.isspace() for ch in nm):
            raise InvalidInputError(f"basis name {nm!r} is not a whitespace-free token")
    lines = [HOPF_HEADER]
    if H.name:
        lines.append(f"name {H.name}")
    lines.append(f"field {field.name}")
    lines.append(f"dim {H.dim}")
    lines.append("basis " + " ".join(H.basis_names))
    mul = H.alg.mul
    for i, j in sorted(mul):
        row = mul[(i, j)]
        if row:
            lines.append(f"mul {i} {j} : " + " ".join(f"{k} {fmt(c)}" for k, c in row))
    lines.append("unit : " + " ".join(f"{k} {fmt(c)}" for k, c in enumerate(H.unit) if c))
    lines.append("counit : " + " ".join(f"{k} {fmt(c)}" for k, c in enumerate(H.counit) if c))
    for i in range(H.dim):
        row = H.comul_row(i)
        if row:
            lines.append(f"comul {i} : " + " ".join(f"{j} {k} {fmt(c)}" for j, k, c in row))
    for j, col in enumerate(zip(*H.antipode.rows)):
        payload = " ".join(f"{i} {fmt(c)}" for i, c in enumerate(col) if c)
        if payload:
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
