"""The hopf-algebra file reader: every parse error with its exact message and
line, the tokens it accepts, and the canonical tables it builds from rows
written in any order or form."""

import functools
from fractions import Fraction

import numpy as np
import pytest
from conftest import double_of, taft_over
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrob import hopffile, linalg
from hopfrob.algebra import (
    StructureAlgebra,
    TableView,
    all_on_kernels,
    comul_arrays,
    structure_arrays,
)
from hopfrob.catalog import cyclic_table, entry, group_algebra, names, taft
from hopfrob.double import drinfeld_double
from hopfrob.errors import InvalidInputError
from hopfrob.hopfcore import HopfAlgebra, dual_hopf
from hopfrob.hopffile import HOPF_HEADER, emit_hopf_text, parse_hopf_text
from hopfrob.linalg import Matrix
from hopfrob.scalars import GF, QQ, PrimeField

# line 6 is the first mul row, 10 the comul row, 11 the antipode column
GF7_FILE = """\
hopf-algebra v1
name tiny
field prime 7
dim 3
basis a b c
mul 0 0 : 0 1
mul 0 1 : 1 1
unit : 0 1
counit : 0 1
comul 0 : 0 0 1
antipode 0 : 0 1
end
"""
QQ_FILE = GF7_FILE.replace("prime 7", "rational").replace("mul 0 1 : 1 1", "mul 0 1 : 1 1/2")

# (line replaced, its new text, the message after "label:line: ")
ERRORS = [
    (6, "mul x 0 : 0 1", "mul row index must be an integer, found 'x'"),
    (6, "mul 0 3 : 0 1", "mul row index 3 out of range for dimension 3"),
    (10, "comul -1 : 0 0 1", "comul row index -1 out of range for dimension 3"),
    (11, "antipode 1.0 : 0 1", "antipode column index must be an integer, found '1.0'"),
    (6, "mul 0 0 0 1", "expected 2 index token(s) followed by ':', found 0 0 0 1"),
    (8, "unit 0 1", "expected 0 index token(s) followed by ':', found 0 1"),
    (11, "antipode", "expected 1 index token(s) followed by ':', found nothing"),
    (6, "mul 0 0 : 0 1 2", "mul entries come in groups of 2, found 3 token(s)"),
    (10, "comul 0 : 0 0", "comul entries come in groups of 3, found 2 token(s)"),
    (9, "counit : 0", "counit entries come in groups of 2, found 1 token(s)"),
    (6, "mul 0 0 : 3 1", "mul index 3 out of range for dimension 3"),
    (10, "comul 0 : 0 0 1 2 -1 1", "comul index -1 out of range for dimension 3"),
    (11, "antipode 0 : 7 1", "antipode index 7 out of range for dimension 3"),
    (8, "unit : 5 1", "unit index 5 out of range for dimension 3"),
    (6, "mul 0 0 : 0 1 z 1", "mul index must be an integer, found 'z'"),
    (10, "comul 0 : 0 e1 1", "comul index must be an integer, found 'e1'"),
    (7, "mul 0 1 : 1 1 0 1//2", "bad {kind} scalar '1//2'"),
    (9, "counit : 0 one", "bad {kind} scalar 'one'"),
    (11, "antipode 0 : 0 1/0", "bad {kind} scalar '1/0'"),
    # the first bad token in line order names the line's error
    (6, "mul 0 0 : 0 z 9 1", "bad {kind} scalar 'z'"),
    (6, "mul 0 0 : 9 z", "mul index 9 out of range for dimension 3"),
    (7, "mul 0 0 : 1 1", "duplicate mul row for basis pair (0, 0)"),
    (11, "comul 0 : 1 1 1", "duplicate comul row for basis 0"),
    (10, "antipode 0 : 0 1", None),  # the duplicate is the next line
    (9, "unit : 0 1", "duplicate 'unit' line"),
    (8, "counit : 0 1", None),
    (7, "frob 0 1 : 1 1", "unknown directive 'frob'"),
    (12, "end now", "'end' takes no arguments"),
]


@pytest.mark.parametrize("base, kind", [(GF7_FILE, "prime-field"), (QQ_FILE, "rational")])
@pytest.mark.parametrize("lineno, line, msg", ERRORS)
def test_every_parse_error_names_its_line(base, kind, lineno, line, msg):
    lines = base.splitlines()
    lines[lineno - 1] = line
    if msg is None:
        # a repeated line is reported where it repeats: the line after
        lineno += 1
        msg = {
            "antipode": "duplicate antipode column for basis 0",
            "counit": "duplicate 'counit' line",
        }[line.split()[0]]
    with pytest.raises(InvalidInputError) as exc:
        parse_hopf_text("\n".join(lines) + "\n", label="f.hopf")
    assert str(exc.value) == f"f.hopf:{lineno}: {msg.format(kind=kind)}"


def test_the_first_bad_line_in_file_order_is_reported():
    lines = GF7_FILE.splitlines()
    lines[6] = "mul 0 1 : 1 q"
    lines[5] = "mul 0 0 : 0 1 4 1"
    with pytest.raises(InvalidInputError) as exc:
        parse_hopf_text("\n".join(lines) + "\n", label="f.hopf")
    assert str(exc.value) == "f.hopf:6: mul index 4 out of range for dimension 3"


def _edge_doc(field: str, body: str) -> str:
    return f"hopf-algebra v1\nfield {field}\ndim 12\n{body}\nunit : 0 1\ncounit : 0 1\nend\n"


NOT_INT = "f:4: {what} must be an integer, found {tok!r}"
# the accepted value of each edge token, or None where it is refused
EDGE_INDEX = {
    "+3": 3, "-0": 0, "007": 7, "1_0": 10, "\u0665": 5, "3/0": None, "2/4": None, "0x1": None
}
EDGE_SCALAR = {
    "prime 7": {
        "+3": 3, "-0": 0, "007": 0, "1_0": 3, "\u0665": 5, "3/0": None, "2/4": None, "0x1": None
    },
    "rational": {
        "+3": Fraction(3), "-0": 0, "007": Fraction(7), "1_0": Fraction(10),
        "\u0665": Fraction(5), "3/0": None, "2/4": Fraction(1, 2), "0x1": None,
    },
}


@pytest.mark.parametrize("field", ["prime 7", "rational"])
@pytest.mark.parametrize("tok", list(EDGE_INDEX))
def test_edge_tokens_as_indices(field, tok):
    for body, what, read in (
        (f"mul {tok} 1 : 2 1", "mul row index", lambda H: [i for i, _ in H.alg.mul]),
        (f"mul 1 1 : {tok} 1", "mul index", lambda H: [k for k, _ in H.alg.mul[(1, 1)]]),
        (f"comul 1 : 2 {tok} 1", "comul index", lambda H: [k for _, k, _ in H.comul[1]]),
    ):
        want = EDGE_INDEX[tok]
        if want is None:
            with pytest.raises(InvalidInputError) as exc:
                parse_hopf_text(_edge_doc(field, body), label="f")
            assert str(exc.value) == NOT_INT.format(what=what, tok=tok)
        else:
            assert read(parse_hopf_text(_edge_doc(field, body))) == [want]


@pytest.mark.parametrize("field", ["prime 7", "rational"])
@pytest.mark.parametrize("tok", list(EDGE_INDEX))
def test_edge_tokens_as_scalars(field, tok):
    want = EDGE_SCALAR[field][tok]
    kind = "prime-field" if field == "prime 7" else "rational"
    for body, lineno, read in (
        (f"mul 1 1 : 2 {tok}", 4, lambda H: H.alg.mul.get((1, 1), ())),
        (f"antipode 1 : 2 {tok}", 4, lambda H: [(2, H.antipode.rows[2][1])]),
        ("", 5, lambda H: [(2, H.unit[2])]),
    ):
        text = _edge_doc(field, body) if body else _edge_doc(field, "").replace(
            "unit : 0 1", f"unit : 0 1 2 {tok}"
        )
        if want is None:
            with pytest.raises(InvalidInputError) as exc:
                parse_hopf_text(text, label="f")
            assert str(exc.value) == f"f:{lineno}: bad {kind} scalar {tok!r}"
            continue
        got = read(parse_hopf_text(text))
        if body.startswith("mul") and want == 0:
            assert got == ()  # a row that cleans to nothing is dropped
        else:
            assert list(got) == [(2, want)]
            assert type(got[0][1]) is type(GF(7).zero() if field == "prime 7" else QQ.zero())


# -- canonical tables ---------------------------------------------------------


def _raw_text(field, dim, mul, comul, cols, unit, counit) -> str:
    """A file holding the given rows exactly as written, in no set order."""

    def flat(entries):
        return " ".join(" ".join(str(x) for x in e) for e in entries)

    lines = ["hopf-algebra v1", f"field {field.name}", f"dim {dim}"]
    lines += [f"mul {i} {j} : {flat(row)}" for (i, j), row in mul.items()]
    lines += [f"comul {i} : {flat(row)}" for i, row in comul.items()]
    lines += [f"antipode {j} : {flat(col)}" for j, col in cols.items()]
    lines += [f"unit : {flat(unit)}", f"counit : {flat(counit)}", "end"]
    return "\n".join(lines) + "\n"


def _dense(field, dim, entries) -> list:
    vec = [field.zero()] * dim
    for k, c in entries:
        vec[k] = field.normalize(vec[k] + c)
    return vec


def _assert_canonical_parse(field, dim, mul, comul, cols, unit, counit):
    """Parsing the raw rows gives the tables from_sparse makes of them."""
    H = parse_hopf_text(_raw_text(field, dim, mul, comul, cols, unit, counit))
    scalar = field.parse
    raw = lambda row: [(*e[:-1], scalar(str(e[-1]))) for e in row]
    alg = StructureAlgebra.from_sparse(
        field, dim, {key: raw(row) for key, row in mul.items()}, _dense(field, dim, raw(unit))
    )
    antipode = Matrix.from_columns(
        field, [_dense(field, dim, raw(cols.get(j, ()))) for j in range(dim)]
    )
    want = HopfAlgebra.from_sparse(
        alg, {i: raw(row) for i, row in comul.items()}, _dense(field, dim, raw(counit)), antipode
    )
    assert H.alg.mul == want.alg.mul
    assert list(H.alg.mul) == list(want.alg.mul)
    assert H.comul == want.comul
    assert H.antipode == want.antipode
    assert (H.unit, H.counit) == (want.unit, want.counit)
    return H


def test_non_canonical_rows_parse_to_canonical_tables():
    F = GF(7)
    H = _assert_canonical_parse(
        F,
        3,
        mul={
            (0, 0): [(2, 1), (0, 9), (2, 3)],  # unsorted, repeated, unreduced
            (0, 1): [(1, 0)],  # an explicit zero: the row is dropped
            (1, 2): [(0, 3), (0, 4)],  # repeats that cancel mod 7
            (2, 2): [(1, -1), (0, 2)],
        },
        comul={0: [(1, 1, 5), (0, 0, 1), (1, 1, 2)], 1: [(0, 1, 0)], 2: [(2, 2, 1)]},
        cols={0: [(2, 4), (1, 0), (2, 3)], 2: [(1, 8), (0, 1)]},
        unit=[(0, 3), (0, 5), (2, 0)],
        counit=[(1, 1), (1, 6)],
    )
    assert H.alg.mul == {(0, 0): ((0, 2), (2, 4)), (2, 2): ((0, 2), (1, 6))}
    # the comul row of e_1 vanishes, and a table keeps no empty row
    assert H.comul == {0: ((0, 0, 1),), 2: ((2, 2, 1),)}
    assert H.antipode.col(0) == (0, 0, 0) and H.antipode.col(2) == (1, 1, 0)
    assert (H.unit, H.counit) == ((1, 0, 0), (0, 0, 0))


def test_non_canonical_rational_rows():
    H = _assert_canonical_parse(
        QQ,
        2,
        mul={(1, 1): [(1, "2/4"), (0, "-0"), (1, "1/2")], (0, 1): [(1, "2/4"), (0, "0/3")]},
        comul={1: [(1, 0, "-1/2"), (0, 1, "3/6"), (1, 0, "1/2")]},
        cols={1: [(1, "4/2")]},
        unit=[(0, "1")],
        counit=[(0, "6/6"), (1, "-0")],
    )
    assert H.alg.mul == {(1, 1): ((1, Fraction(1)),), (0, 1): ((1, Fraction(1, 2)),)}
    assert H.comul == {1: ((0, 1, Fraction(1, 2)),)}


_entry = st.tuples(st.integers(0, 3), st.integers(-9, 9))
_rows = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.lists(_entry, max_size=6)),
    max_size=5,
    unique_by=lambda r: r[:2],
)
_triples = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-9, 9)), max_size=8)


@settings(max_examples=60, deadline=None)
@given(rows=_rows, triples=_triples, rng=st.randoms(use_true_random=False))
def test_permuted_rows_parse_to_the_same_tables(rows, triples, rng):
    """Rows with repeated keys, zeros and unreduced scalars, their entries
    in any order, parse to the tables from_sparse makes of them."""
    mul = {(i, j): entries for i, j, entries in rows}
    comul = {2: triples}
    cols = {3: [e for _, _, entries in rows for e in entries]}
    tables = []
    for _ in range(2):
        H = _assert_canonical_parse(GF(5), 4, mul, comul, cols, [(0, 1)], [(0, 1)])
        tables.append((H.alg.mul, H.comul, H.antipode))
        shuffled = lambda table: {key: rng.sample(row, len(row)) for key, row in table.items()}
        mul, comul, cols = shuffled(mul), shuffled(comul), shuffled(cols)
    assert tables[0] == tables[1]


def test_parse_normalizes_entries_not_cells(monkeypatch):
    """The antipode of an empty-table file is built from its sparse columns:
    no scalar is normalized per cell of the dim x dim matrix."""
    calls = []
    orig = PrimeField.normalize

    def counted(self, x):
        calls.append(x)
        return orig(self, x)

    monkeypatch.setattr(PrimeField, "normalize", counted)
    dim = 300
    text = (
        f"hopf-algebra v1\nfield prime 7\ndim {dim}\n"
        "unit : 0 1\ncounit : 0 1\nantipode 0 : 0 1\nend\n"
    )
    H = parse_hopf_text(text)
    assert H.antipode.rows[0][0] == 1 and H.antipode.nrows == dim
    assert len(calls) <= 4 * dim


# -- the array reader ------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _array_object_text(name: str) -> str:
    """The emitted text of one object the array reader takes (admitted GF(p),
    dim above algebra._SPARSE_DIM)."""
    if name == "GF7[C64]":
        H = group_algebra(cyclic_table(64), GF(7), name=name)
    elif name == "D(taft(5, 11, 3))":
        H = drinfeld_double(taft(5, 11, 3))
    else:
        H = double_of(name[2:-1])
    return emit_hopf_text(H)


def _mutated(text: str, kind: str) -> str:
    """text with one change of the given kind, made on the middle mul line
    of at least two terms (of one, a second term added, when there is
    none), the middle comul line, the unit line or the last antipode line,
    or on the order of the mul, comul and antipode lines."""
    lines = text.splitlines()
    dim = int(next(line.split()[1] for line in lines if line.startswith("dim ")))
    muls = [t for t, line in enumerate(lines) if line.startswith("mul ")]
    muls = [t for t in muls if len(lines[t].split()) >= 8] or muls
    at = muls[len(muls) // 2]
    toks = lines[at].split()
    head, groups = toks[:4], list(zip(toks[4::2], toks[5::2]))
    if len(groups) == 1:
        groups.append((str((int(groups[0][0]) + 1) % dim), "1"))
    (k1, c1), (k2, c2) = sorted(groups[:2], key=lambda g: int(g[0]))
    rest = [t for g in groups[2:] for t in g]
    if kind == "scaled unit":
        unit = next(t for t, line in enumerate(lines) if line.startswith("unit "))
        u = lines[unit].split()
        scaled = [x if g % 2 == 0 else str(3 * int(x)) for g, x in enumerate(u[2:])]
        lines[unit] = " ".join(u[:2] + scaled)
    elif kind == "dropped antipode line":
        del lines[max(t for t, line in enumerate(lines) if line.startswith("antipode "))]
    elif kind == "missing end":
        del lines[-1]
    elif kind == "repeated mul line":
        lines.insert(at, lines[at])
    elif kind == "empty comul line":
        comuls = [t for t, line in enumerate(lines) if line.startswith("comul ")]
        lines[comuls[len(comuls) // 2]] = " ".join(lines[comuls[len(comuls) // 2]].split()[:3])
    elif kind == "body lines reversed":
        rows = ("mul", "comul", "antipode")
        body = [t for t, line in enumerate(lines) if line.split()[0] in rows]
        for t, line in zip(body, reversed([lines[t] for t in body])):
            lines[t] = line
    else:
        payload = {
            "zero scalar": [k1, "0", k2, c2, *rest],
            "unsorted row": [k2, c2, k1, c1, *rest],
            "repeated key": [k1, c1, k2, c2, *rest, k1, c1],
            "empty mul line": [],
            "out-of-range index": [str(dim), c1, k2, c2, *rest],
            "non-integer token": [k1, "x", k2, c2, *rest],
            "integer beyond int64": [k1, str(2**63 + int(c1)), k2, c2, *rest],
        }[kind]
        lines[at] = " ".join(head + payload)
    return "\n".join(lines) + "\n"


ARRAY_OBJECTS = ["D(taft-3-7-2)", "D(taft-4-5-2)", "D(taft(5, 11, 3))", "GF7[C64]"]
# each kind, and whether the array reader takes the file whole
MUTANTS = {
    None: True,
    "scaled unit": True,
    "dropped antipode line": True,
    "empty mul line": True,
    "empty comul line": True,
    "body lines reversed": True,
    "zero scalar": False,
    "unsorted row": False,
    "repeated key": False,
    "repeated mul line": False,
    "out-of-range index": False,
    "non-integer token": False,
    "integer beyond int64": False,
    "missing end": False,
}


def _parsed(text: str):
    """The Hopf algebra of text, or the message of its InvalidInputError."""
    try:
        return parse_hopf_text(text, label="f.hopf")
    except InvalidInputError as exc:
        return str(exc)


def _assert_same_object(A, B) -> None:
    """A and B have the same rows in the same key order, unit, counit,
    antipode and names, and equal table arrays: dtype, order, read-only."""
    assert list(A.alg.mul.items()) == list(B.alg.mul.items())
    assert list(A.comul.items()) == list(B.comul.items())
    assert (A.unit, A.counit, A.basis_names, A.name) == (B.unit, B.counit, B.basis_names, B.name)
    assert A.antipode == B.antipode and A.antipode._nonzero == B.antipode._nonzero
    p = A.field.p
    tables = [(structure_arrays(H.alg, p), comul_arrays(H, p)) for H in (A, B)]
    for x, y in zip(*tables):
        assert len(x) == len(y)
        for a, b in zip(x, y):
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
            assert not a.flags.writeable and not b.flags.writeable


@pytest.mark.parametrize("kind", list(MUTANTS))
@pytest.mark.parametrize("name", ARRAY_OBJECTS)
def test_array_reader_gives_the_line_readers_object_or_error(name, kind, monkeypatch):
    """Above the crossover a file is read straight into table arrays when
    the array reader can take it whole; on every object and mutant the
    result is the line reader's: the same HopfAlgebra, its tables read from
    arrays equal to those structure_arrays and comul_arrays build from the
    rows, or the same error message."""
    text = _array_object_text(name)
    if kind is not None:
        text = _mutated(text, kind)
    got = _parsed(text)
    assert isinstance(got, HopfAlgebra) and isinstance(got.alg.mul, TableView) or not MUTANTS[kind]
    monkeypatch.setattr(hopffile, "all_on_kernels", lambda field, dim: False)
    want = _parsed(text)
    assert not isinstance(getattr(getattr(want, "alg", None), "mul", None), TableView)
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_object(got, want)


@pytest.mark.parametrize("key", [*names(), "D(qs3)", "D(f5c5)", "D(taft-3-7-2)"])
def test_array_reader_runs_above_the_crossover_only(key, monkeypatch):
    """The array reader runs on an admitted GF(p) above the crossover only:
    on taft-4-5-2 (dim 16 over GF(5)), D(f5c5) (dim 25) and D(taft-3-7-2)
    (dim 81), and never on the other catalog entries, which are over QQ or
    of dim 9 at most, nor on D(qs3) (dim 36 over QQ)."""
    H = double_of(key[2:-1]) if key.startswith("D(") else entry(key).hopf
    ran = []
    read = hopffile._read_arrays
    monkeypatch.setattr(hopffile, "_read_arrays", lambda *args: ran.append(1) or read(*args))
    assert parse_hopf_text(emit_hopf_text(H)) == H
    above = key in ("taft-4-5-2", "D(f5c5)", "D(taft-3-7-2)")
    assert bool(ran) == all_on_kernels(H.field, H.dim) == above


# -- emission ----------------------------------------------------------------------


def _emit_by_rows(H: HopfAlgebra) -> str:
    """The reference for emit_hopf_text: every line formatted from the
    tables' tuple rows and the antipode's dense columns, one token at a
    time through Field.fmt."""
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
    for (i, j), row in sorted(H.alg.mul.items()):
        if row:
            lines.append(f"mul {i} {j} : " + " ".join(f"{k} {fmt(c)}" for k, c in row))
    lines.append("unit : " + " ".join(f"{k} {fmt(c)}" for k, c in enumerate(H.unit) if c))
    lines.append("counit : " + " ".join(f"{k} {fmt(c)}" for k, c in enumerate(H.counit) if c))
    for i in range(H.dim):
        row = H.comul.get(i, ())
        if row:
            lines.append(f"comul {i} : " + " ".join(f"{j} {k} {fmt(c)}" for j, k, c in row))
    for j, col in enumerate(zip(*H.antipode.rows)):
        payload = " ".join(f"{i} {fmt(c)}" for i, c in enumerate(col) if c)
        if payload:
            lines.append(f"antipode {j} : {payload}")
    lines.append("end")
    return "\n".join(lines) + "\n"


# the group algebra of C2 over GF(7), its mul, comul and antipode lines out
# of key order
SHUFFLED_FILE = """\
hopf-algebra v1
field prime 7
dim 2
antipode 1 : 1 1
mul 1 1 : 0 1
comul 1 : 1 1 1
mul 0 1 : 1 1
mul 1 0 : 1 1
mul 0 0 : 0 1
unit : 0 1
counit : 0 1 1 1
comul 0 : 0 0 1
antipode 0 : 0 1
end
"""

EMITTED = [
    *names(),
    *(f"{key}*" for key in names()),
    *(f"D({key})" for key in names()),
    "taft(3, 2^31 - 1)",
    "shuffled file",
    "zero counit",
]


def _emitted_object(name: str) -> HopfAlgebra:
    if name == "taft(3, 2^31 - 1)":  # residues of ten digits
        return taft_over(3, 2**31 - 1)
    if name == "shuffled file":
        return parse_hopf_text(SHUFFLED_FILE)
    if name == "zero counit":  # its line is still written, with no entry
        return parse_hopf_text(SHUFFLED_FILE.replace("counit : 0 1 1 1", "counit :"))
    if name.startswith("D("):
        return double_of(name[2:-1])
    if name.endswith("*"):
        return dual_hopf(entry(name[:-1]).hopf)
    return entry(name).hopf


@pytest.mark.parametrize("engine", ["int64", "generic"])
@pytest.mark.parametrize("name", EMITTED)
def test_emit_matches_the_row_by_row_reference(name, engine, monkeypatch, generic_engine):
    """emit_hopf_text, written from the table arrays, gives the bytes of
    the row-by-row reference on every catalog entry, its dual and its
    double (D(qs3) over QQ, up to D(taft-4-5-2)), a Taft algebra over
    2^31 - 1, a file whose lines come out of key order and the same with
    its counit zero, on both engines;
    and again on the object each reader makes of that text (the array
    reader on an admitted GF(p), the line reader on every field), whose
    arrays come in file order."""
    H = _emitted_object(name)
    if engine == "generic":
        generic_engine()
    text = emit_hopf_text(H)
    assert text == _emit_by_rows(H)
    readers = [False, *([True] if linalg.machine_prime(H.field) is not None else [])]
    for arrays in readers:
        monkeypatch.setattr(hopffile, "all_on_kernels", lambda field, dim: arrays)
        again = parse_hopf_text(text)
        assert isinstance(again.alg.mul, TableView) == arrays
        assert emit_hopf_text(again) == _emit_by_rows(again) == text
