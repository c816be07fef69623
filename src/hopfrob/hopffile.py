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
sparse row sorted by key, its scalars normalized and nonzero, each key once,
and no empty row: a line whose terms are none or cancel reads as no line.
emit_hopf_text writes them from their table arrays (structure_arrays,
comul_arrays, the antipode's nonzero_entries), never from tuple rows, in a
fixed line order, so emission is canonical and emit -> parse -> emit is
byte-identical.

A hopf-algebra file has two readers, and algebra.all_on_kernels, the
crossover above which every identity of verify_hopf runs on the int64
kernels (an admitted GF(p), dim > 12), chooses between them after the
header.  Above it the array reader (_read_arrays) reads the body straight
into the table arrays that structure_arrays and comul_arrays would build
from the rows: every token but the directives and the ':' goes through one
int pass, and range, repeated lines and canonical rows are checked on the
arrays.  mul and comul become views over them (algebra.TableView), whose
tuple rows are built on first read, so a verify builds none.  A body it
cannot take whole (a bad token, an integer beyond int64, an index out of
range, a repeated line, a row unsorted or holding a zero, any line out of
place or missing) goes to the line reader, as does every file below the
crossover or over QQ; so every error and every cleaned row comes from it.

The line reader reads the body in one pass, a line at a time.  Each sparse body
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

from itertools import accumulate, chain, compress
from operator import lt

from . import linalg
from .algebra import (
    StructureAlgebra,
    TableView,
    _clean_row,
    all_on_kernels,
    comul_arrays,
    default_names,
    read_only,
    structure_arrays,
)
from .errors import InvalidInputError
from .hopfcore import HopfAlgebra
from .linalg import Matrix, nonzero_entries
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

    if all_on_kernels(field, dim):
        H = _read_arrays(rd, field, zeros, name)
        if H is not None:
            return H

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

    for head in ("unit", "counit"):
        if () not in tables[head]:
            raise _err(label, rd.last_lineno, f"missing {head!r} line")
    mul = {key: row for key, row in tables["mul"].items() if row}
    comul = {i: row for (i,), row in tables["comul"].items() if row}
    antipode = (((i, j), c) for (j,), col in tables["antipode"].items() for i, c in col)
    rows = (tables["unit"][()], tables["counit"][()])
    return _assemble(field, zeros, name, basis_names, mul, comul, rows, antipode)


def _assemble(field: Field, zeros: list, name: str, basis_names, mul, comul, rows, antipode):
    """The Hopf algebra of read tables, of dim len(zeros): rows the (k, c)
    pairs of the unit and of the counit, each filled into a copy of zeros,
    antipode the ((i, j), c) entries of its matrix."""
    dim = len(zeros)
    vectors = []
    for row in rows:
        vec = zeros.copy()
        for k, c in row:
            vec[k] = c
        vectors.append(tuple(vec))
    alg = StructureAlgebra(field, dim, mul, vectors[0], basis_names or default_names(dim))
    antipode = Matrix.from_entries(field, dim, dim, antipode)
    return HopfAlgebra(alg, comul, vectors[1], antipode, name)


def _read_arrays(rd: _Reader, field: Field, zeros: list, name: str):
    """The Hopf algebra, of dim len(zeros), of the body lines of rd read
    straight into table arrays (_line_arrays), mul and comul TableViews over
    them, or None for a body the arrays cannot take whole (the module
    docstring says which), which the line reader then reads."""
    dim = len(zeros)
    lines: dict = {head: [] for head in _ROW_LINES}
    basis_names = None
    for _, line in rd.rows[rd.pos : -1]:
        toks = line.split()
        group = lines.get(toks[0])
        if group is not None:
            group.append(toks)
        elif toks[0] == "basis" and basis_names is None and len(toks) == dim + 1:
            basis_names = tuple(toks[1:])
        else:
            return None
    if rd.rows[-1][1] != "end":
        return None
    tables = {}
    for head, group in lines.items():
        nhead, width, *_ = _ROW_LINES[head]
        tables[head] = _line_arrays(group, nhead, width, dim, field.p)
        if tables[head] is None or (nhead == 0 and len(group) != 1):
            return None

    rows = [zip(k.tolist(), c.tolist()) for k, c in (tables["unit"], tables["counit"])]
    j, i, c = tables["antipode"]
    antipode = zip(zip(i.tolist(), j.tolist()), c.tolist())
    mul = TableView(tables["mul"], field.p, 2, dim)
    comul = TableView(tables["comul"], field.p, 1, dim)
    return _assemble(field, zeros, name, basis_names, mul, comul, rows, antipode)


def _line_arrays(lines: list, nhead: int, width: int, dim: int, p: int):
    """The read-only table arrays of the entries of the split sparse body
    lines of one directive, in file order (the head indices of each entry's
    line, its width - 1 payload indices, its scalar mod p), or None when
    the lines are not all well formed, in range, distinct and canonical.
    Every token but the directives and the ':' goes through one int pass."""
    import numpy as np

    sizes = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    groups, rest = np.divmod(sizes - nhead - 2, width)
    if len(lines) and (groups.min() < 0 or rest.any()):
        return None
    flat = list(chain.from_iterable(lines))
    starts = np.cumsum(sizes) - sizes
    skip = np.zeros(len(flat), dtype=bool)
    skip[starts] = skip[starts + nhead + 1] = True
    if not set(map(flat.__getitem__, (starts + nhead + 1).tolist())) <= {":"}:
        return None
    try:
        nums = np.fromiter(map(int, compress(flat, (~skip).tolist())), dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    # the heads of each line, then its payload as rows of width
    first = starts - 2 * np.arange(len(lines))
    heads = [nums[first + h] for h in range(nhead)]
    payload = np.ones(len(nums), dtype=bool)
    for h in range(nhead):
        payload[first + h] = False
    body = nums[payload].reshape(-1, width)
    index, vals = body[:, :-1], body[:, -1] % p
    if any(a.min(initial=0) < 0 or a.max(initial=0) >= dim for a in (*heads, index)):
        return None
    at = np.repeat(np.arange(len(lines)), groups)
    keys = index[:, 0] if width == 2 else index[:, 0] * dim + index[:, 1]
    line_keys = heads[0] * dim + heads[1] if nhead == 2 else heads[0] if nhead else at[:0]
    if (
        not vals.all()
        or len(np.unique(line_keys)) != len(line_keys)
        or ((np.diff(keys) <= 0) & (np.diff(at) == 0)).any()
    ):
        return None
    return read_only((*(h[at] for h in heads), *index.T, vals))


def emit_hopf_text(H: HopfAlgebra) -> str:
    """The canonical text of H, its tables written by _render from their
    table arrays under linalg.machine_prime's key (structure_arrays,
    comul_arrays, the antipode's nonzero_entries by column), whose entries
    are sorted, normalized and free of zeros already."""
    import numpy as np

    field, dim = H.field, H.dim
    for nm in H.basis_names:
        if not nm or any(ch.isspace() for ch in nm):
            raise InvalidInputError(f"basis name {nm!r} is not a whitespace-free token")
    head = [HOPF_HEADER, f"name {H.name}"] if H.name else [HOPF_HEADER]
    head += [f"field {field.name}", f"dim {dim}", "basis " + " ".join(H.basis_names)]
    p = linalg.machine_prime(field)
    i, j, k, c = structure_arrays(H.alg, p)
    tables = [("mul", (i, j), (k,), c)]
    for name, vec in (("unit", H.unit), ("counit", H.counit)):
        vec = np.array(vec, dtype=c.dtype)
        tables.append((name, (), (np.flatnonzero(vec),), vec[vec.astype(bool)]))
    m, u, v, d = comul_arrays(H, p)
    # the antipode by columns, each column's rows ascending
    rows, cols, vals = nonzero_entries(H.antipode)
    order = np.argsort(cols, kind="stable")
    antipode = ("antipode", (cols[order],), (rows[order],), vals[order].astype(c.dtype))
    tables += [("comul", (m,), (u, v), d), antipode]
    body = _render(tables, dim, field.fmt)
    # unit and counit have their line even when they vanish
    body[1:3] = [text or f"{name} : " for text, name in zip(body[1:3], ("unit", "counit"))]
    return "\n".join([*head, *filter(None, body), "end"]) + "\n"


def _render(tables: list, dim: int, fmt) -> list:
    """The body lines "directive h.. : t.. v t.. v ..." of each table
    (directive, heads, terms, vals), one text per table: heads the index
    columns naming each entry's line (none for unit and counit, whose
    entries make one line), terms its other index columns, vals its
    scalars, the entries of a line consecutive and in order.

    All tables are laid out as one grid, a row per entry, table by table:
    two head cells, two term cells and the scalar's, each group filled
    from the right.  The lines come in key order after one stable argsort
    of the rows, only when they are not in it already.  The cells that
    write something, read in row order, are the tokens of the text: each
    writes its separator, then its token, into one uint8 buffer of spaces
    at offsets that are running sums of those lengths.  Every index, and
    every scalar below 2^31 (int64 residues), is written by its decimal
    digits, vectorised; only an object scalar (the generic engine's) goes
    through fmt.  A line opens with a newline and the byte 1, which the
    decoded text of each table replaces by its directive."""
    import numpy as np

    counts = [len(t[3]) for t in tables]
    bounds = list(accumulate(counts, initial=0))
    grid = np.zeros((bounds[-1], 5), dtype=np.int32)
    # the separator code of each cell, on the rows after a line's first and
    # on that first row: 0 for none (an empty cell, or a head of a line
    # begun), 1 for " " before an index, 2 for " " before the scalar, 3 for
    # " : " before the first term, 4 for the opening "\n\1 " of a line, 5
    # for "\n\1 : " opening a line of no head
    pattern = []
    for t, (_, heads, terms, _) in enumerate(tables):
        h, f = 2 - len(heads), 4 - len(terms)
        for col, x in zip([*range(h, 2), *range(f, 4)], (*heads, *terms)):
            grid[bounds[t] : bounds[t + 1], col] = x
        first = [0] * h + [4] + [1] * (1 - h) if heads else [0, 0]
        first += [0] * (f - 2) + [3 if heads else 5] + [1] * (3 - f) + [2]
        pattern.append([[0] * f + [1] * (4 - f) + [2], first])
    pattern = np.array(pattern, dtype=np.uint8)
    vals = np.concatenate([t[3] for t in tables])
    table = np.repeat(np.arange(len(tables)), counts)
    key = (table * dim + grid[:, 0]) * dim + grid[:, 1]
    if (key[1:] < key[:-1]).any():
        order = np.argsort(key, kind="stable")
        key, grid, vals = key[order], grid[order], vals[order]
    text = vals.dtype == object
    if not text:
        grid[:, 4] = vals
    new = np.concatenate(([True], key[1:] != key[:-1]))
    code = pattern[table, new.view(np.uint8)]
    shown = code.astype(bool)
    # the tokens in text order, and the place of each row's scalar among them
    tok, code = grid[shown], code[shown]
    scalar = np.flatnonzero(code == 2)
    del grid, shown, key, table
    size = np.array([0, 1, 1, 3, 3, 5], dtype=np.int32)[code] + 1
    for e in range(1, len(str(tok.max(initial=0)))):
        size += tok >= 10**e
    if text:
        strs = list(map(fmt, vals.tolist()))
        size[scalar] += np.fromiter(map(len, strs), dtype=np.int32, count=len(strs)) - 1
    ends = np.cumsum(size, dtype=np.int64)
    out = np.full(int(ends[-1]) if len(ends) else 0, 32, dtype=np.uint8)
    rare = code >= 3
    at, code = (ends - size)[rare], code[rare]
    opens, colons = code >= 4, code != 4
    out[at[opens]] = 10
    out[at[opens] + 1] = 1
    out[at[colons] + code[colons] - 2] = 58
    # each digit token written from its last digit back
    digit = np.ones(len(tok), dtype=bool)
    digit[scalar] = not text
    last, x = (ends - 1)[digit], tok[digit]
    while len(x):
        x, d = np.divmod(x, 10)
        out[last] = d + 48
        keep = x.astype(bool)
        last, x = last[keep] - 1, x[keep]
    if text:
        lens = size[scalar] - 1
        at = np.repeat(ends[scalar] - np.cumsum(lens), lens) + np.arange(lens.sum())
        out[at] = np.frombuffer("".join(strs).encode("ascii"), dtype=np.uint8)
    body = out.tobytes().decode("ascii")
    starts = [int(ends[scalar[r - 1]]) if r else 0 for r in bounds]
    return [body[a + 1 : b].replace("\1", t[0]) for t, a, b in zip(tables, starts, starts[1:])]


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
