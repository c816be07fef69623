"""End-to-end command-line behavior: exit codes, file formats, round trips,
and the pipelines behind each subcommand."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import count_calls, double_of, dual_cop_embedding_of, embedding_of

from hopfrob import algebra, cli, frobenius, hopfcore, hopffile, linalg, separability, subext
from hopfrob.algebra import StructureAlgebra
from hopfrob.catalog import entry, names
from hopfrob.cli import main
from hopfrob.errors import InvalidInputError
from hopfrob.hopffile import (
    emit_hopf_text,
    parse_hopf_text,
    parse_matrix_text,
    parse_module_text,
)

IOTA_QC2_IN_SWEEDLER = """\
matrix v1
field rational
shape 4 2
1 0
0 1
0 0
0 0
end
"""

SIGN_MODULE = """\
module v1
field rational
dim 1
action 0
1
action 1
-1
end
"""


def emit(tmp_path, key, fname=None):
    out = tmp_path / (fname or f"{key}.hopf")
    assert main(["catalog", "emit", key, "-o", str(out)]) == 0
    return out


# -- file format ----------------------------------------------------------------


@pytest.mark.parametrize("key", names())
def test_emit_parse_emit_is_byte_identical(key):
    text = emit_hopf_text(entry(key).hopf)
    again = emit_hopf_text(parse_hopf_text(text, label=key))
    assert text == again


def test_parse_recovers_structure():
    H = entry("sweedler").hopf
    H2 = parse_hopf_text(emit_hopf_text(H))
    assert H2.dim == H.dim
    assert H2.field == H.field
    assert H2.basis_names == H.basis_names
    assert H2.name == H.name
    assert H2.alg.mul == H.alg.mul
    assert H2.comul == H.comul
    assert H2.antipode == H.antipode


@pytest.mark.parametrize(
    "mangle, where",
    [
        (lambda t: t.replace("hopf-algebra v1", "hopf-algebra v2"), ":1:"),
        (lambda t: t.replace("dim 2", "dim two"), ":4:"),
        (lambda t: t.replace("mul 0 0 : 0 1", "mul 0 0 : 7 1"), "out of range"),
        (lambda t: t.replace("mul 0 0 : 0 1", "mul 0 0 : 0"), "groups of 2"),
        (lambda t: t + "mul 1 1 : 0 1\n", "unexpected content after 'end'"),
        (lambda t: t.replace("end\n", ""), "unexpected end of file"),
        (lambda t: t.replace("unit : 0 1\n", ""), "missing 'unit' line"),
        (lambda t: t.replace("comul 1", "comul 0"), "duplicate comul row"),
        (lambda t: t.replace("counit : 0 1 1 1", "counit : 0 1/0"), "bad rational"),
    ],
)
def test_parse_errors_are_position_annotated(mangle, where):
    text = emit_hopf_text(entry("qc2").hopf)
    with pytest.raises(InvalidInputError, match="qc2file") as exc:
        parse_hopf_text(mangle(text), label="qc2file")
    assert where in str(exc.value)


def test_comments_and_blank_lines_are_ignored():
    text = emit_hopf_text(entry("qc2").hopf)
    noisy = "# header comment\n\n" + text.replace("dim 2", "dim 2\n# inline note\n")
    assert emit_hopf_text(parse_hopf_text(noisy)) == text


def test_matrix_and_module_parsers():
    field, m = parse_matrix_text(IOTA_QC2_IN_SWEEDLER)
    assert (m.nrows, m.ncols) == (4, 2)
    field, dim, mats = parse_module_text(SIGN_MODULE)
    assert dim == 1 and len(mats) == 2

    with pytest.raises(InvalidInputError, match="expected 2 scalars"):
        parse_matrix_text(IOTA_QC2_IN_SWEEDLER.replace("1 0\n0 1", "1\n0 1"))
    with pytest.raises(InvalidInputError, match="must appear in order"):
        parse_module_text(SIGN_MODULE.replace("action 1", "action 5"))


# -- catalog, verify, round trip ------------------------------------------------


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    for key in names():
        assert key in out


def test_catalog_emit_to_stdout_matches_file(tmp_path, capsys):
    path = emit(tmp_path, "qc3")
    capsys.readouterr()
    assert main(["catalog", "emit", "qc3"]) == 0
    assert capsys.readouterr().out == path.read_text()


def test_catalog_emit_unknown_key(tmp_path, capsys):
    assert main(["catalog", "emit", "nope", "-o", str(tmp_path / "x.hopf")]) == 2
    assert "unknown catalog key" in capsys.readouterr().err


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_emit_then_verify_exits_zero(tmp_path):
    path = emit(tmp_path, "sweedler", "h4.hopf")
    assert main(["verify", str(path)]) == 0


def test_verify_field_assertion(tmp_path, capsys):
    path = emit(tmp_path, "f7c3")
    assert main(["verify", str(path), "--field", "prime 7"]) == 0
    assert main(["verify", str(path), "--field", "prime:7"]) == 0
    assert main(["verify", str(path), "--field", "rational"]) == 2
    assert "expected QQ" in capsys.readouterr().err


def test_verify_missing_file(capsys):
    assert main(["verify", "/nonexistent/path.hopf"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_verify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.hopf"
    bad.write_text("hopf-algebra v1\nfield rational\ndim 2\nmul 0 0 : 0 oops\nend\n")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.hopf:4:" in err and "oops" in err


# 2^61 entries of 8 bytes overflow the allocator's size check, so the list is
# refused before any memory is requested; 10^20 does not fit an index at all
@pytest.mark.parametrize("dim", [2**61, 10**20])
def test_verify_rejects_a_dim_too_large_to_allocate(tmp_path, capsys, dim):
    """The group algebra of C2 declaring an impossible dim fails closed with
    an input error at the dim line, not a traceback."""
    text = emit_hopf_text(entry("qc2").hopf).replace("dim 2\n", f"dim {dim}\n")
    path = tmp_path / "big.hopf"
    path.write_text("".join(line for line in text.splitlines(True) if not line.startswith("basis")))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"big.hopf:4: dimension {dim} is too large to allocate" in err


def test_verify_corrupted_antipode(tmp_path, capsys):
    path = emit(tmp_path, "sweedler", "h4.hopf")
    lines = [
        l for l in path.read_text().splitlines() if not l.startswith("antipode 2 ")
    ]
    corrupted = tmp_path / "corrupted.hopf"
    corrupted.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(corrupted)]) == 1
    out = capsys.readouterr().out
    assert "antipode law" in out and "basis 2" in out


# -- pipelines ------------------------------------------------------------------


def test_frobenius_output_and_report(tmp_path, capsys):
    path = emit(tmp_path, "sweedler", "h4.hopf")
    report = tmp_path / "frob.report"
    assert main(["frobenius", str(path), "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "ord(S)=4" in out
    assert "ord(nu)=2" in out
    assert "Radford: PASS" in out
    assert "N   = x + gx" in out
    lines = report.read_text().splitlines()
    assert lines[-1] == "overall PASS"
    assert all(l.endswith(" PASS") for l in lines[:-1])
    assert any(l.startswith("radford-conjugation-at-basis-g ") for l in lines)


def test_frobenius_rejects_non_hopf_input(tmp_path, capsys):
    path = emit(tmp_path, "sweedler", "h4.hopf")
    lines = [
        l for l in path.read_text().splitlines() if not l.startswith("antipode 2 ")
    ]
    corrupted = tmp_path / "corrupted.hopf"
    corrupted.write_text("\n".join(lines) + "\n")
    assert main(["frobenius", str(corrupted)]) == 1
    assert "antipode law" in capsys.readouterr().out


def test_separable_verdicts(tmp_path, capsys):
    qs3 = emit(tmp_path, "qs3")
    assert main(["separable", str(qs3)]) == 0
    out = capsys.readouterr().out
    assert "separable: yes" in out and "(Kanzaki): yes" in out
    h4 = emit(tmp_path, "sweedler")
    assert main(["separable", str(h4)]) == 0
    assert "separable: no" in capsys.readouterr().out


def test_double_builds_verifies_and_emits(tmp_path, capsys):
    src = emit(tmp_path, "qc2")
    out = tmp_path / "dqc2.hopf"
    assert main(["double", str(src), "-o", str(out)]) == 0
    assert "double has the square dimension" in capsys.readouterr().out
    D = parse_hopf_text(out.read_text(), label=str(out))
    assert D.dim == 4
    assert main(["verify", str(out)]) == 0


def test_dual_emits_verifiable_file(tmp_path):
    src = emit(tmp_path, "sweedler")
    out = tmp_path / "h4dual.hopf"
    assert main(["dual", str(src), "-o", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    assert parse_hopf_text(out.read_text()).dim == 4


def test_subcheck_accepts_good_pair(tmp_path, capsys):
    h4 = emit(tmp_path, "sweedler")
    qc2 = emit(tmp_path, "qc2")
    iota = tmp_path / "iota.mat"
    iota.write_text(IOTA_QC2_IN_SWEEDLER)
    report = tmp_path / "sub.report"
    code = main(
        ["subcheck", str(h4), str(qc2), "--iota", str(iota), "--report", str(report)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ambient algebra is free over the subalgebra" in out
    assert "trivial module: comparison map is bijective" in out
    assert "regular module: comparison map respects the ambient action" in out
    assert report.read_text().splitlines()[-1] == "overall PASS"


def test_subcheck_with_module_file(tmp_path, capsys):
    h4 = emit(tmp_path, "sweedler")
    qc2 = emit(tmp_path, "qc2")
    iota = tmp_path / "iota.mat"
    iota.write_text(IOTA_QC2_IN_SWEEDLER)
    mod = tmp_path / "sign.mod"
    mod.write_text(SIGN_MODULE)
    code = main(["subcheck", str(h4), str(qc2), "--iota", str(iota), "--module", str(mod)])
    assert code == 0
    assert "supplied module: comparison map is bijective" in capsys.readouterr().out


def test_subcheck_rejects_bad_module_on_load(tmp_path, capsys):
    h4 = emit(tmp_path, "sweedler")
    qc2 = emit(tmp_path, "qc2")
    iota = tmp_path / "iota.mat"
    iota.write_text(IOTA_QC2_IN_SWEEDLER)
    mod = tmp_path / "junk.mod"
    mod.write_text(SIGN_MODULE.replace("action 0\n1\n", "action 0\n2\n"))
    code = main(["subcheck", str(h4), str(qc2), "--iota", str(iota), "--module", str(mod)])
    assert code == 2
    assert "unit" in capsys.readouterr().err


def test_subcheck_flags_non_hopf_embedding(tmp_path, capsys):
    h4 = emit(tmp_path, "sweedler")
    qc2 = emit(tmp_path, "qc2")
    iota = tmp_path / "iota.mat"
    # g -> -g is an algebra map but not a coalgebra map
    iota.write_text(IOTA_QC2_IN_SWEEDLER.replace("0 1", "0 -1"))
    code = main(["subcheck", str(h4), str(qc2), "--iota", str(iota)])
    assert code == 1
    out = capsys.readouterr().out
    assert "[FAIL] counit is compatible" in out


def test_subcheck_rejects_wrong_shape_iota(tmp_path, capsys):
    h4 = emit(tmp_path, "sweedler")
    qc2 = emit(tmp_path, "qc2")
    iota = tmp_path / "iota.mat"
    iota.write_text("matrix v1\nfield rational\nshape 2 2\n1 0\n0 1\nend\n")
    assert main(["subcheck", str(h4), str(qc2), "--iota", str(iota)]) == 2
    assert "inclusion matrix" in capsys.readouterr().err


def test_subcheck_rejects_an_ambient_without_rank_one_integrals(tmp_path, capsys):
    """Without its comul lines the ambient file fails the counit law, so
    subcheck prints its axioms report and exits 1 before it seeks an
    integral.  Its dual has a zero product, so its left integral space is
    zero, and extension_report says so as invalid input, not a traceback."""
    h4 = emit(tmp_path, "sweedler")
    h4.write_text("".join(ln for ln in h4.read_text().splitlines(True) if not ln.startswith("comul")))
    qc2 = emit(tmp_path, "qc2")
    iota = tmp_path / "iota.mat"
    iota.write_text(IOTA_QC2_IN_SWEEDLER)
    capsys.readouterr()
    assert main(["subcheck", str(h4), str(qc2), "--iota", str(iota)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("axioms of sweedler: FAIL\n")
    assert "[FAIL] counit law  (fails at basis 0)\n" in out
    emb = subext.SubalgebraEmbedding(
        entry("qc2").hopf, parse_hopf_text(h4.read_text()), parse_matrix_text(IOTA_QC2_IN_SWEEDLER)[1]
    )
    with pytest.raises(InvalidInputError, match=r"integral space not rank one \(dimension 0\)"):
        subext.extension_report(emb)


IOTA_F7C3_IN_TAFT = """\
matrix v1
field prime 7
shape 9 3
1 0 0
0 0 0
0 0 0
0 1 0
0 0 0
0 0 0
0 0 1
0 0 0
0 0 0
end
"""


@pytest.mark.parametrize(
    "ambient,sub,iota,line,mutant,failing",
    [
        # Delta(x) = x (x) 1 + g (x) x becomes x (x) 1 + 2 g (x) x
        ("sweedler", "qc2", IOTA_QC2_IN_SWEEDLER, "comul 2 : 1 2 1 2 0 1", "comul 2 : 1 2 2 2 0 1", "sweedler"),
        ("taft-3-7-2", "f7c3", IOTA_F7C3_IN_TAFT, "comul 4 : 4 3 1 6 4 1", "comul 4 : 4 3 1 6 4 2", "taft-3-7-2"),
        ("taft-3-7-2", "f7c3", IOTA_F7C3_IN_TAFT, "antipode 7 : 1 5", "antipode 7 : 1 4", "taft-3-7-2"),
        ("sweedler", "qc2", IOTA_QC2_IN_SWEEDLER, "antipode 1 : 1 1", "antipode 1 : 1 -1", "qc2"),
    ],
    ids=["sweedler-comul", "taft-comul", "taft-antipode", "qc2-antipode"],
)
def test_subcheck_verifies_both_hopf_files(tmp_path, capsys, ambient, sub, iota, line, mutant, failing):
    """A one-constant change of the ambient or the sub file breaks its Hopf
    axioms; subcheck prints that file's axioms report and exits 1 (each
    ambient mutant here exited 0, every item PASS, when the files went
    unverified)."""
    paths = {key: emit(tmp_path, key) for key in (ambient, sub)}
    text = paths[failing].read_text()
    assert text.count(f"\n{line}\n") == 1
    paths[failing].write_text(text.replace(f"\n{line}\n", f"\n{mutant}\n"))
    mat = tmp_path / "iota.mat"
    mat.write_text(iota)
    report = tmp_path / "sub.report"
    args = ["subcheck", str(paths[ambient]), str(paths[sub]), "--iota", str(mat), "--report", str(report)]
    capsys.readouterr()
    assert main(args) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"axioms of {failing}: FAIL\n")
    assert "subalgebra embedding" not in out
    assert report.read_text().splitlines()[-1] == "overall FAIL"


def test_subcheck_rejects_field_mismatch(tmp_path, capsys):
    taft = emit(tmp_path, "taft-3-7-2")
    qc2 = emit(tmp_path, "qc2")
    iota = tmp_path / "iota.mat"
    iota.write_text(IOTA_QC2_IN_SWEEDLER)
    assert main(["subcheck", str(taft), str(qc2), "--iota", str(iota)]) == 2
    assert "over" in capsys.readouterr().err


def test_subcheck_prime_field_pair(tmp_path, monkeypatch):
    """f7c3 in taft-3-7-2 passes, and the product cover of each algebra is
    read off its mul table once, however many checks go through it (10
    times, 8 on H and 2 on K, when each check built its own)."""
    covers = []
    _spy_everywhere(monkeypatch, algebra, "product_cover", lambda args, out: covers.append(args[0]))
    taft = emit(tmp_path, "taft-3-7-2")
    f7c3 = emit(tmp_path, "f7c3")
    rows = ["0 0 0"] * 9
    for col, pos in enumerate((0, 3, 6)):
        parts = rows[pos].split()
        parts[col] = "1"
        rows[pos] = " ".join(parts)
    iota = tmp_path / "iota7.mat"
    iota.write_text("matrix v1\nfield prime 7\nshape 9 3\n" + "\n".join(rows) + "\nend\n")
    assert main(["subcheck", str(taft), str(f7c3), "--iota", str(iota)]) == 0
    assert sorted(A.dim for A in covers) == [3, 9]


def _pair_args(tmp_path, emb) -> list:
    """The subcheck arguments of the pair emb, its files written to tmp_path."""
    H, K = emb.H, emb.K
    ambient, sub, iota = (tmp_path / name for name in ("ambient.hopf", "sub.hopf", "iota.mat"))
    ambient.write_text(emit_hopf_text(H))
    sub.write_text(emit_hopf_text(K))
    rows = "\n".join(" ".join(H.field.fmt(c) for c in row) for row in emb.iota.rows)
    iota.write_text(f"matrix v1\nfield {H.field.name}\nshape {H.dim} {K.dim}\n{rows}\nend\n")
    return ["subcheck", str(ambient), str(sub), "--iota", str(iota)]


@pytest.mark.parametrize("key", ("qc2", "f2c2", "f7c3", "qc3"))
def test_subcheck_of_an_algebra_in_its_double(tmp_path, capsys, key):
    emb = embedding_of(f"{key}-double")
    report = tmp_path / "sub.report"
    assert main([*_pair_args(tmp_path, emb), "--report", str(report)]) == 0
    assert "[FAIL]" not in capsys.readouterr().out
    assert report.read_text().splitlines()[-1] == "overall PASS"


SMALL_KEYS = [k for k in names() if entry(k).hopf.dim <= 9]


@pytest.mark.parametrize("engine", ["default", "generic"])
@pytest.mark.parametrize("key", SMALL_KEYS)
def test_subcheck_of_the_dual_cop_in_the_double(
    tmp_path, capsys, monkeypatch, generic_engine, key, engine
):
    """H*^cop in D(H) through double.embed_dual, for each catalog entry of
    dim at most 9, on the default engines and on the Python-scalar one:
    subcheck exits 0 with every item PASS.  The basis vectors of D(H) alone
    give no free basis over H*^cop, so free_module_basis reaches its integer
    combinations, once."""
    if engine == "generic":
        generic_engine()
    fallback = count_calls(monkeypatch, subext, "_combinations")
    report = tmp_path / "sub.report"
    assert main([*_pair_args(tmp_path, dual_cop_embedding_of(key)), "--report", str(report)]) == 0
    assert "[FAIL]" not in capsys.readouterr().out
    assert report.read_text().splitlines()[-1] == "overall PASS"
    assert len(fallback) == 1


def test_subcheck_reports_an_exhausted_free_basis_search(tmp_path, capsys, monkeypatch):
    """With no combination to try, the search on sweedler*cop in D(sweedler)
    runs out: subcheck exits 1 and names the bound, which proves nothing
    about the pair (InconclusiveSearchError)."""
    monkeypatch.setattr(subext, "_combinations", lambda field, n, count: iter(()))
    assert main(_pair_args(tmp_path, dual_cop_embedding_of("sweedler"))) == 1
    assert capsys.readouterr().err == (
        "check failed: no free module basis among the 16 basis vectors and 50 integer "
        "combinations tried\n"
    )


def test_dedekind_demo(tmp_path, capsys):
    report = tmp_path / "ded.report"
    assert main(["dedekind-demo", "--seed", "11", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "ideal is not principal" in out
    lines = report.read_text().splitlines()
    assert "ideal-is-not-principal PASS" in lines
    assert lines[-1] == "overall PASS"


def test_machine_report_on_failure_lists_fail_lines(tmp_path, capsys):
    path = emit(tmp_path, "sweedler", "h4.hopf")
    lines = [
        l for l in path.read_text().splitlines() if not l.startswith("antipode 2 ")
    ]
    corrupted = tmp_path / "corrupted.hopf"
    corrupted.write_text("\n".join(lines) + "\n")
    report = tmp_path / "bad.report"
    assert main(["verify", str(corrupted), "--report", str(report)]) == 1
    content = report.read_text().splitlines()
    assert "antipode-law FAIL" in content
    assert content[-1] == "overall FAIL"
    capsys.readouterr()


# -- each derived object is built once per job ------------------------------------


def test_frobenius_builds_the_system_once(tmp_path, monkeypatch):
    path = emit(tmp_path, "sweedler")
    built = count_calls(monkeypatch, frobenius, "frobenius_system_from_norm")
    assert main(["frobenius", str(path)]) == 0
    assert len(built) == 1


def test_separable_builds_one_system_for_the_algebra_and_one_for_its_dual(
    tmp_path, monkeypatch
):
    assert entry("qc2").expected["separable"]
    path = emit(tmp_path, "qc2")
    built = count_calls(monkeypatch, frobenius, "frobenius_system_from_norm")
    assert main(["separable", str(path)]) == 0
    assert len(built) == 2


def test_separable_decides_the_algebra_and_its_dual_once_each(tmp_path, monkeypatch):
    path = emit(tmp_path, "qc2")
    decided = count_calls(monkeypatch, separability, "is_separable_hopf")
    assert main(["separable", str(path)]) == 0
    assert len(decided) == 2


def test_subcheck_computes_each_stage_once(tmp_path, monkeypatch):
    h4 = emit(tmp_path, "sweedler")
    qc2 = emit(tmp_path, "qc2")
    iota = tmp_path / "iota.mat"
    iota.write_text(IOTA_QC2_IN_SWEEDLER)
    # one integral data and one Nakayama matrix each for K and for H
    want = {
        (subext, "verify_embedding"): 1,
        (subext, "relative_nakayama"): 1,
        (subext, "beta_frobenius_structure"): 1,
        (frobenius, "build_integral_data"): 2,
        (frobenius, "nakayama_closed_form"): 2,
    }
    calls = {key: count_calls(monkeypatch, *key) for key in want}
    assert main(["subcheck", str(h4), str(qc2), "--iota", str(iota)]) == 0
    assert {key: len(c) for key, c in calls.items()} == want


def _spy_everywhere(monkeypatch, module, name, record) -> None:
    """Pass the arguments and the result of every call of module.name, through
    every hopfrob module that imports it, to record."""
    orig = getattr(module, name)

    def spy(*args, **kwargs):
        out = orig(*args, **kwargs)
        record(args, out)
        return out

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("hopfrob") and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, spy)


@pytest.mark.parametrize(
    "cmd, key", [("double", "taft-3-7-2"), ("frobenius", "taft-4-5-2"), ("frobenius", "D(qs3)")]
)
def test_residue_tables_are_built_once_per_table_and_prime(cmd, key, tmp_path, monkeypatch):
    """A `double` job (D(taft-3-7-2), dim 81 over GF(7)), a `frobenius` job
    (taft-4-5-2 and its dual, dim 16 over GF(5)) and a `frobenius` job over
    QQ (D(qs3), dim 36) build the table arrays of each table once per
    algebra and key, however many kernels, integral operators and
    automorphism checks read them, or take them from the TableView that
    the double and the dual hand their tables: D's own at the prime, or
    H*'s, relabelled from H's under the key of the engine.  The key is the prime over GF(p); over QQ it is
    None for the integral operators and the dual, whose values are then an
    object array, and each prime of the kernels.  Every integral operator
    is the one entry form, its values in the dtype of its engine."""
    path = _d36(tmp_path) if key == "D(qs3)" else emit(tmp_path, key)
    asked, built, operators = [], [], []
    for name in ("structure_arrays", "comul_arrays"):
        # the owners are held, so no two of them share an id
        _spy_everywhere(monkeypatch, algebra, name, lambda args, out: asked.append((*args, out)))
    _spy_everywhere(monkeypatch, algebra, "table_arrays", lambda args, out: built.append(args))
    _spy_everywhere(
        monkeypatch, hopfcore, "integral_operator", lambda args, out: operators.append(out)
    )
    assert main([cmd, str(path)]) == 0
    tables: dict = {}
    for owner, p, out in asked:
        assert tables.setdefault((id(owner), p), out) is out
    handed = {
        (id(owner), p)
        for owner, p, out in asked
        if out is getattr(owner.mul if hasattr(owner, "mul") else owner.comul, "arrays", None)
    }
    generic = key == "D(qs3)"
    engine = {"taft-3-7-2": 7, "taft-4-5-2": 5, "D(qs3)": None}[key]
    assert handed and {p for _, p in handed} == {engine}
    assert len(built) == len(tables) - len(handed) < len(asked)
    assert operators and {vals.dtype for *_, vals in operators} == {
        np.dtype(object if generic else np.int64)
    }
    owners = {owner for owner, p in tables if p is None}
    assert bool(owners) == generic
    assert sum(p is None for _, p, *_ in built) == len(owners) - len(handed) * generic


def _d36(tmp_path):
    path = tmp_path / "d36.hopf"
    path.write_text(emit_hopf_text(double_of("qs3")))
    return path


def _count_inverses(monkeypatch) -> list:
    calls = []
    inverse = linalg.Matrix.inverse
    monkeypatch.setattr(linalg.Matrix, "inverse", lambda self: calls.append(1) or inverse(self))
    return calls


def _count_eliminations(monkeypatch, dim: int) -> list:
    """The row counts of every elimination of at least dim rows, on either
    engine (linalg._rref_generic and _rref_modp_numpy)."""
    calls = []
    for name, at in (("_rref_generic", 1), ("_rref_modp_numpy", 0)):
        orig = getattr(linalg, name)

        def spy(*args, orig=orig, at=at):
            if len(args[at]) >= dim:
                calls.append(len(args[at]))
            return orig(*args)

        monkeypatch.setattr(linalg, name, spy)
    return calls


def test_frobenius_d36_builds_each_derived_object_once(tmp_path, monkeypatch):
    """`frobenius` on D(qs3) eliminates for two integral spaces (psi of H
    and the left integrals of H, which are the dual's), inverts four
    matrices (S in verify_hopf, the Gram matrices of H and of H*, and nu in
    its automorphism check: H* takes the transpose of S^-1, and b^-1 is
    S(b)) and builds two Gram matrices (the integral data of H and of H*,
    the latter on the norm N of H).  Those four inverses are its only
    eliminations of dim rows: each Gram inverse gives N, and nu is a
    product with it, where a solve for N, a rank and a solve for nu on H
    and a solve and a rank on H* took 7 eliminations and 2 inverses.  Both
    dual-basis checks read their Gram matrix from that data.  The job took
    3, 4 and 6 kernels, inverses and Gram matrices when each stage built
    its own, and 2, 2 and 4 when each dual-basis check built its Gram
    matrix again."""
    path = _d36(tmp_path)
    kernels = count_calls(monkeypatch, linalg, "iterated_kernel_sparse")
    grams = count_calls(monkeypatch, hopfcore, "pairing_matrix")
    inverses = _count_inverses(monkeypatch)
    eliminations = _count_eliminations(monkeypatch, 36)
    assert main(["frobenius", str(path)]) == 0
    assert (len(kernels), len(inverses), len(grams)) == (2, 4, 2)
    assert len(eliminations) == 4


def test_separable_d36_inverts_four_matrices(tmp_path, monkeypatch):
    """`separable` on D(qs3) inverts S, the Gram and Nakayama matrices of H
    and of H* (the Gram inverses give N and nu, the Nakayama ones are their
    automorphism checks) and the Kanzaki trace element; the inverse
    antipode of H* is the transpose of that of H.  Those six inverses are
    its only eliminations of dim rows (10 when N and nu were solved for and
    each Gram matrix's rank taken, with 4 inverses; 5 inverses before
    that)."""
    path = _d36(tmp_path)
    inverses = _count_inverses(monkeypatch)
    eliminations = _count_eliminations(monkeypatch, 36)
    assert main(["separable", str(path)]) == 0
    assert len(inverses) == len(eliminations) == 6


# -- the quantified identities of D(taft-3-7-2) run on the sparse kernels ------


def _d81(tmp_path):
    path = tmp_path / "d81.hopf"
    path.write_text(emit_hopf_text(double_of("taft-3-7-2")))
    return path


def test_verify_path_builds_no_tuple_row_on_d81(tmp_path, monkeypatch):
    """The dim-81 GF(7) file is read straight into table arrays, and
    `verify` on it, and a `frobenius` that rejects a copy with a scaled
    unit, build no tuple row: the line reader cleans none and no table
    builds its rows (linalg.table_rows).  A `frobenius` that accepts builds
    the rows of each of its four tables, mul and comul of H and of H*, at
    most once, and cleans no row (algebra._clean_row): H*'s tables are
    H's arrays relabelled, handed over as they are."""
    path = _d81(tmp_path)
    lines = path.read_text().splitlines()
    unit = next(t for t, line in enumerate(lines) if line.startswith("unit "))
    lines[unit] = lines[unit].replace(" 1", " 3")
    bad = tmp_path / "d81-bad.hopf"
    bad.write_text("\n".join(lines) + "\n")
    # the value array of each table whose rows are built, held so ids stay distinct
    built = []
    _spy_everywhere(monkeypatch, linalg, "table_rows", lambda args, out: built.append(args[2]))
    cleaned = count_calls(monkeypatch, hopffile, "_canonical_row")
    rows_cleaned = count_calls(monkeypatch, algebra, "_clean_row")
    assert main(["verify", str(path)]) == 0
    assert main(["verify", str(bad)]) == 1
    assert main(["frobenius", str(bad)]) == 1
    assert (built, cleaned) == ([], [])
    assert main(["frobenius", str(path)]) == 0
    assert len({id(vals) for vals in built}) == len(built) <= 4
    assert cleaned == rows_cleaned == []


@pytest.mark.parametrize("cmd", ["frobenius", "separable"])
def test_frobenius_layer_inverts_each_gram_matrix_once_on_d81(cmd, tmp_path, monkeypatch):
    """`frobenius` and `separable` on the array-read D(taft-3-7-2) eliminate
    dim rows four times, each on the int64 engine: S, the Gram matrices of
    H and of H* (N is G^-1 eps and nu = (G^-1)^T G), and nu in its
    automorphism check.  They took 7 when N and nu were solved for and each
    Gram matrix's rank taken."""
    path = _d81(tmp_path)
    eliminations = _count_eliminations(monkeypatch, 81)
    assert main([cmd, str(path)]) == 0
    assert len(eliminations) == 4


def test_dual_is_built_once_per_job_by_relabelling_on_d81(tmp_path, monkeypatch):
    """`frobenius` and `separable` on the array-read D(taft-3-7-2) each
    build H* once (hopfcore.dual_hopf, behind HopfAlgebra.dual), however
    many hit matrices, convolutions and group-like tests read it, and
    neither cleans a row (algebra._clean_row) nor goes through a from_sparse
    constructor: H*'s tables are H's arrays relabelled.  `dual -o` on that
    file builds no tuple row of H or H*: the dual's axioms run on the
    kernels and its file is written from its arrays.  `verify` builds no
    dual, on the kernels or on the loops (taft-4-5-2, dim 16)."""
    path = _d81(tmp_path)
    duals = count_calls(monkeypatch, hopfcore, "dual_hopf")
    for checked in (path, emit(tmp_path, "taft-4-5-2")):
        assert main(["verify", str(checked)]) == 0
    assert duals == []
    cleaned = count_calls(monkeypatch, algebra, "_clean_row")
    built = count_calls(monkeypatch, linalg, "table_rows")
    constructed = []
    for cls in (algebra.StructureAlgebra, hopfcore.HopfAlgebra):
        orig = cls.from_sparse
        spy = lambda *args, orig=orig, **kw: constructed.append(1) or orig(*args, **kw)
        monkeypatch.setattr(cls, "from_sparse", staticmethod(spy))
    for cmd in ("frobenius", "separable"):
        duals.clear()
        assert main([cmd, str(path)]) == 0
        assert len(duals) == 1, cmd
    assert cleaned == constructed == []
    built.clear()
    assert main(["dual", str(path), "-o", str(tmp_path / "d81-dual.hopf")]) == 0
    assert built == []


def test_double_without_output_builds_no_tuple_row_of_d(tmp_path, monkeypatch):
    """`double` on taft-4-5-2 hands D(taft-4-5-2) the table arrays of its
    construction: with or without -o no table of D builds its rows, as the
    file is written from the arrays too, and the only tables read into
    arrays from rows are the two of H (dim 16)."""
    path = emit(tmp_path, "taft-4-5-2")
    rows = count_calls(monkeypatch, linalg, "table_rows")
    arrays = []
    _spy_everywhere(
        monkeypatch, algebra, "table_arrays", lambda args, out: arrays.append(len(args[2]))
    )
    want = [16, len(entry("taft-4-5-2").hopf.alg.mul)]
    assert main(["double", str(path)]) == 0
    assert (rows, sorted(arrays)) == ([], want)
    assert main(["double", str(path), "-o", str(tmp_path / "d256.hopf")]) == 0
    assert (rows, sorted(arrays)) == ([], sorted(want * 2))


def test_verify_d81_runs_no_tensor_loop(tmp_path, monkeypatch):
    """Delta multiplicative is one sparse identity mod p, not a tensor_mult
    per basis pair (6,561 calls on the Python loops); coassociativity, the
    counit law and the antipode law are sparse identities too, not a
    delta2_row per basis vector (81) and the two hit matrices of the counit."""
    path = _d81(tmp_path)
    calls = [count_calls(monkeypatch, hopfcore, name) for name in ("tensor_mult", "hit_matrix")]
    delta2 = []
    delta2_row = hopfcore.HopfAlgebra.delta2_row
    monkeypatch.setattr(
        hopfcore.HopfAlgebra, "delta2_row", lambda *args: delta2.append(1) or delta2_row(*args)
    )
    assert main(["verify", str(path)]) == 0
    assert calls == [[], []]
    assert delta2 == []


def test_verify_d36_over_qq_runs_no_tensor_loop(tmp_path, monkeypatch):
    """Over QQ, Delta multiplicative on D(qs3) is one sparse identity mod
    each prime the bound asks for, not a tensor_mult per basis pair; so are
    coassociativity, the counit law, "counit is multiplicative" and the
    antipode law, not a delta2_row per basis vector (36), the two hit
    matrices of the counit and an is_augmentation pass."""
    path = tmp_path / "d36.hopf"
    path.write_text(emit_hopf_text(double_of("qs3")))
    names = ("tensor_mult", "hit_matrix", "is_augmentation")
    calls = [count_calls(monkeypatch, hopfcore, name) for name in names]
    delta2 = []
    delta2_row = hopfcore.HopfAlgebra.delta2_row
    monkeypatch.setattr(
        hopfcore.HopfAlgebra, "delta2_row", lambda *args: delta2.append(1) or delta2_row(*args)
    )
    assert main(["verify", str(path)]) == 0
    assert calls == [[], [], []]
    assert delta2 == []


def test_double_of_f5c5_keeps_the_full_basis_items(tmp_path, capsys):
    """D(f5c5) has dimension 25: the kernels check it on the generators of
    its product cover, with the item names of every other input."""
    path = emit(tmp_path, "f5c5")
    capsys.readouterr()
    assert main(["double", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] comultiplication is multiplicative\n" in out
    assert "[PASS] associativity\n" in out
    assert "certified" not in out


def test_frobenius_d81_convolutions_stay_linear(tmp_path, monkeypatch):
    """The dual antipode reads Delta(N) instead of one convolution per
    matrix entry and coproduct term (14,742 calls before), and the modular
    element of D and of its dual is read off one hit matrix, not one
    convolution per basis vector (162 calls before)."""
    path = _d81(tmp_path)
    calls = count_calls(monkeypatch, hopfcore, "convolution")
    assert main(["frobenius", str(path)]) == 0
    assert calls == []


def test_frobenius_d36_integral_layer_makes_no_algebra_product(tmp_path, monkeypatch):
    """In `frobenius` on D(qs3), the integral data and its re-check, Radford
    and the Nakayama closed form read multiplication and hit matrices built
    in one table pass each, not one StructureAlgebra.multiply per basis
    vector (the whole job made 396 before)."""
    path = _d36(tmp_path)
    inside, products = [], []
    layer = ("build_integral_data", "_check_integral_data", "verify_radford", "nakayama_closed_form")
    for name in layer:
        fn = getattr(frobenius, name)

        def traced(*args, _fn=fn):
            inside.append(1)
            try:
                return _fn(*args)
            finally:
                inside.pop()

        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("hopfrob") and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, traced)
    multiply = StructureAlgebra.multiply
    monkeypatch.setattr(
        StructureAlgebra, "multiply", lambda *args: (products.append(1) if inside else None) or multiply(*args)
    )
    assert main(["frobenius", str(path)]) == 0
    assert products == []


def test_d81_dual_basis_check_makes_no_algebra_product(monkeypatch):
    """The dual-basis identities are G T = 1 = T G, two matrix products,
    not two algebra products per basis vector and dual-basis pair."""
    D = double_of("taft-3-7-2")
    sys_ = frobenius.frobenius_system_from_norm(D, frobenius.build_integral_data(D))
    calls = []
    multiply = StructureAlgebra.multiply
    monkeypatch.setattr(
        StructureAlgebra, "multiply", lambda *args: calls.append(1) or multiply(*args)
    )
    gram = hopfcore.pairing_matrix(D.alg, sys_.psi)
    assert frobenius.dual_basis_identities_hold(gram, sys_.xs, sys_.ys) == (True, "")
    assert calls == []


def test_double_integral_stage_runs_few_eliminations_and_no_algebra_product(
    tmp_path, monkeypatch
):
    """Inside double_fh_check of `double taft-3-7-2.hopf`, unimodularity is
    read off S_right T, not an algebra product per basis vector (81), and
    the two integral spaces of D(taft-3-7-2) run at most 8 eliminations,
    not one per constraint (2 * 81), none wider than dim H = 9 columns
    (6 eliminations of 3 columns: the peel leaves 3 columns per space)."""
    path = emit(tmp_path, "taft-3-7-2")
    inside, products, eliminations = [], [], []
    fh_check = cli.double_fh_check

    def traced(D):
        inside.append(D)
        try:
            return fh_check(D)
        finally:
            inside.pop()

    def counting(calls, fn, mark=lambda *args: 1):
        return lambda *args: (calls.append(mark(*args)) if inside else None) or fn(*args)

    monkeypatch.setattr(cli, "double_fh_check", traced)
    monkeypatch.setattr(
        StructureAlgebra, "multiply", counting(products, StructureAlgebra.multiply)
    )
    width = lambda field, rows: len(rows[0]) if rows else 0
    monkeypatch.setattr(linalg, "_rref", counting(eliminations, linalg._rref, width))
    assert main(["double", str(path)]) == 0
    assert products == []
    assert 0 < len(eliminations) <= 8
    assert max(eliminations) <= 9


def test_out_of_memory_is_one_error_line(tmp_path):
    """`hopfrob double` on the emitted D(taft-3-7-2) (dim 81, a double of
    dim 6561) runs out of memory in a process that lowers its own address
    space to 400 MiB (one BLAS thread): exit 2 and one error line naming
    the subcommand, no traceback."""
    path = tmp_path / "d81.hopf"
    path.write_text(emit_hopf_text(double_of("taft-3-7-2")))
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
        "from hopfrob.cli import main\n"
        f"sys.exit(main(['double', {str(path)!r}]))\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr == "error: out of memory in double: the input is too large\n"
