"""Command-line driver: parse structure-constant files, run the verification
pipelines, and emit derived objects.

Exit codes are the machine contract: 0 when every check passes, 1 when a
mathematical check fails (axiom violation, failed identity, failed
certificate), 2 for invalid input (unreadable or malformed files, unknown
catalog keys, field mismatches, an input too large for memory).  Report
text is human-oriented; pass --report FILE to also write a stable machine
summary, one "key PASS|FAIL" line per named check plus a final "overall"
line.

File formats are documented in hopffile: "hopf-algebra v1" for algebras,
"matrix v1" for the inclusion matrix of subcheck, and "module v1" (one
dense action matrix per subalgebra basis element, validated against the
module law on load) for the optional module of subcheck.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from .catalog import entry, names as catalog_names
from .dedekind import demo_ideal, module_transport_report
from .double import double_fh_check, drinfeld_double
from .errors import (
    FieldMismatchError,
    HopfrobError,
    InvalidInputError,
    ShapeError,
)
from .frobenius import (
    antipode_shift_check,
    build_integral_data,
    dual_frobenius_check,
    frobenius_system_from_norm,
    nakayama_closed_form,
    orders,
    verify_radford,
)
from .hopfcore import eval_cov, verify_hopf
from .hopffile import (
    emit_hopf_text,
    read_hopf_file,
    read_matrix_file,
    read_module_file,
    write_hopf_file,
)
from .report import Report
from .scalars import field_from_name
from .separability import etingof_gelaki_check, is_separable_hopf, strong_separability
from .subext import (
    KModule,
    SubalgebraEmbedding,
    check_module,
    extension_report,
    induction_coinduction_check,
    regular_module,
    trivial_module,
)


def _slug(text: str) -> str:
    s = re.sub(r"[^0-9a-zA-Z]+", "-", text.lower()).strip("-")
    return s or "item"


def _write_machine_report(path: str, rep: Report) -> None:
    seen: dict[str, int] = {}
    lines = []
    for it in rep.items:
        s = _slug(it.name)
        seen[s] = seen.get(s, 0) + 1
        if seen[s] > 1:
            s = f"{s}-{seen[s]}"
        lines.append(f"{s} {'PASS' if it.ok else 'FAIL'}")
    lines.append(f"overall {'PASS' if rep.passed else 'FAIL'}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _merge(dst: Report, src: Report, prefix: str = "") -> None:
    for it in src.items:
        dst.add(prefix + it.name, it.ok, it.detail)


def _finish(args, rep: Report) -> int:
    print(rep)
    if getattr(args, "report", None):
        _write_machine_report(args.report, rep)
    return 0 if rep.passed else 1


def _load_hopf(path: str, field_tag: str | None):
    H = read_hopf_file(path)
    if field_tag:
        want = field_from_name(field_tag.replace(":", " "))
        if H.field != want:
            raise InvalidInputError(
                f"{path}: file is over {H.field!r}, expected {want!r}"
            )
    return H


def _display(H, path: str) -> str:
    return H.name or path


def _cov_str(field, v) -> str:
    return "[" + ", ".join(field.fmt(c) for c in v) + "]"


# -- subcommands ---------------------------------------------------------------


def cmd_verify(args) -> int:
    H = _load_hopf(args.file, args.field)
    rep = verify_hopf(H, title=f"axioms of {_display(H, args.file)}")
    return _finish(args, rep)


def cmd_frobenius(args) -> int:
    H = _load_hopf(args.file, args.field)
    axioms = verify_hopf(H, title=f"axioms of {_display(H, args.file)}")
    if not axioms.passed:
        return _finish(args, axioms)
    field = H.field
    data = build_integral_data(H)
    sys_ = frobenius_system_from_norm(H, data)
    ords = orders(H, sys_.nakayama)

    print(f"integral data for {_display(H, args.file)} (dim {H.dim} over {field!r})")
    print(f"  psi = {_cov_str(field, data.psi)}")
    print(f"  N   = {H.alg.format_vector(data.norm)}")
    print(f"  m   = {_cov_str(field, data.modular_fn)}")
    print(f"  b   = {H.alg.format_vector(data.modular_elt)}")
    print("  nu  =")
    for row in sys_.nakayama.rows:
        print("        " + _cov_str(field, row))
    print(f"ord(S)={ords.antipode_order}")
    print(f"ord(S^2)={ords.antipode_sq_order}")
    print(f"ord(nu)={ords.nakayama_order}")

    rep = Report(f"integral and Frobenius checks for {_display(H, args.file)}")
    rep.add("hopf axioms hold", True, f"{len(axioms.items)} axiom items")
    # frobenius_system_from_norm raises unless the dual basis identities hold
    rep.add("dual basis identities", True, f"{len(sys_.xs)} pairs")
    rep.add(
        "nakayama closed form agrees with the gram route",
        nakayama_closed_form(H, data) == sys_.nakayama,
    )
    rep.add(
        "antipode order divides four times the dimension",
        ords.antipode_divides,
        f"ord(S)={ords.antipode_order}",
    )
    rep.add(
        "nakayama order divides twice the dimension",
        ords.nakayama_divides,
        f"ord(nu)={ords.nakayama_order}",
    )
    rad = verify_radford(H, data)
    print(f"Radford: {'PASS' if rad.passed else 'FAIL'}")
    _merge(rep, rad, prefix="radford conjugation at ")
    _merge(rep, antipode_shift_check(H, data))
    _merge(rep, dual_frobenius_check(H, data))
    return _finish(args, rep)


def cmd_separable(args) -> int:
    H = _load_hopf(args.file, args.field)
    axioms = verify_hopf(H, title=f"axioms of {_display(H, args.file)}")
    if not axioms.passed:
        return _finish(args, axioms)
    field = H.field
    data = build_integral_data(H)
    sys_ = frobenius_system_from_norm(H, data)
    sep, cert = is_separable_hopf(H, data, sys_)
    eps_n = eval_cov(field, H.counit, data.norm)
    print(f"separable: {'yes' if sep else 'no'}  (eps(N) = {field.fmt(eps_n)})")

    rep = Report(f"separability of {_display(H, args.file)}")
    rep.add("counit of the norm decides separability", True, f"eps(N) = {field.fmt(eps_n)}")
    if sep:
        rep.add(
            "ordinary certificate verified",
            cert is not None and cert.kind == "ordinary",
            f"{len(cert.element)} tensor terms",
        )
        strong = strong_separability(H, data, sys_)
        print(f"strong separability (Kanzaki): {'yes' if strong else 'no'}")
        rep.add(
            "kanzaki certificate decided",
            True,
            "verified" if strong else "trace element not invertible",
        )
    _merge(rep, etingof_gelaki_check(H, data, sep))
    return _finish(args, rep)


def cmd_double(args) -> int:
    H = _load_hopf(args.file, args.field)
    D = drinfeld_double(H)
    rep = Report(f"Drinfeld double of {_display(H, args.file)}")
    rep.add(
        "double has the square dimension",
        D.dim == H.dim**2,
        f"dim {D.dim}",
    )
    _merge(rep, verify_hopf(D))
    _merge(rep, double_fh_check(D).report)
    if args.out:
        write_hopf_file(args.out, D)
        print(f"wrote {D.name} (dim {D.dim}) to {args.out}")
    return _finish(args, rep)


def cmd_dual(args) -> int:
    H = _load_hopf(args.file, args.field)
    K = H.dual
    rep = verify_hopf(K, title=f"axioms of the dual of {_display(H, args.file)}")
    if args.out:
        write_hopf_file(args.out, K)
        print(f"wrote {K.name} (dim {K.dim}) to {args.out}")
    return _finish(args, rep)


def cmd_subcheck(args) -> int:
    H = read_hopf_file(args.ambient)
    K = read_hopf_file(args.sub)
    ifield, iota = read_matrix_file(args.iota)
    if ifield != H.field:
        raise InvalidInputError(
            f"{args.iota}: inclusion matrix is over {ifield!r}, ambient algebra over {H.field!r}"
        )
    emb = SubalgebraEmbedding(K, H, iota)
    for A, path in ((H, args.ambient), (K, args.sub)):
        axioms = verify_hopf(A, title=f"axioms of {_display(A, path)}")
        if not axioms.passed:
            return _finish(args, axioms)
    rep, data = extension_report(emb)
    if rep.passed:
        modules = [("trivial", trivial_module(K)), ("regular", regular_module(K))]
        if args.module:
            mfield, mdim, mats = read_module_file(args.module)
            if mfield != K.field:
                raise InvalidInputError(
                    f"{args.module}: module is over {mfield!r}, subalgebra over {K.field!r}"
                )
            if len(mats) != K.dim:
                raise InvalidInputError(
                    f"{args.module}: module file has {len(mats)} action matrices, "
                    f"subalgebra dimension is {K.dim}"
                )
            M = KModule(mfield, mdim, mats)
            check_module(K, M)
            modules.append(("supplied", M))
        for label, M in modules:
            _merge(rep, induction_coinduction_check(emb, data, M), prefix=f"{label} module: ")
    return _finish(args, rep)


def cmd_dedekind_demo(args) -> int:
    ideal = demo_ideal()
    print(f"ring Z[w], w^2 = -5; ideal {ideal}, Hermite rows {ideal.rows}, norm {ideal.norm}")
    rep = module_transport_report(ideal, seed=args.seed)
    return _finish(args, rep)


def cmd_catalog(args) -> int:
    if args.action == "list":
        for key in catalog_names():
            H = entry(key).hopf
            print(f"{key:12} dim {H.dim:3}  field {H.field!r}")
        return 0
    if args.name not in catalog_names():
        raise InvalidInputError(
            f"unknown catalog key {args.name!r}; available: {', '.join(catalog_names())}"
        )
    H = entry(args.name).hopf
    if args.out:
        write_hopf_file(args.out, H)
        print(f"wrote {args.name} (dim {H.dim}) to {args.out}")
    else:
        sys.stdout.write(emit_hopf_text(H))
    return 0


# -- argument plumbing -----------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="hopfrob",
        description="exact checks for finite-dimensional Hopf algebra data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report_flags = argparse.ArgumentParser(add_help=False)
    report_flags.add_argument(
        "--report", metavar="OUT", help="write a machine-readable PASS/FAIL summary"
    )
    field_flags = argparse.ArgumentParser(add_help=False)
    field_flags.add_argument(
        "--field",
        metavar="F",
        help="require the file to be over this field ('rational' or 'prime P')",
    )

    p = sub.add_parser(
        "verify", parents=[report_flags, field_flags], help="check the Hopf axioms of FILE"
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "frobenius",
        parents=[report_flags, field_flags],
        help="integral data, Frobenius system, Nakayama map, orders, conjugation formula",
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser(
        "separable",
        parents=[report_flags, field_flags],
        help="separability decision with verified certificates",
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_separable)

    p = sub.add_parser(
        "double",
        parents=[report_flags, field_flags],
        help="build and verify the Drinfeld double, optionally emit it",
    )
    p.add_argument("file")
    p.add_argument("-o", "--out", metavar="OUT", help="write the double to OUT")
    p.set_defaults(func=cmd_double)

    p = sub.add_parser(
        "dual",
        parents=[report_flags, field_flags],
        help="build and verify the dual, optionally emit it",
    )
    p.add_argument("file")
    p.add_argument("-o", "--out", metavar="OUT", help="write the dual to OUT")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser(
        "subcheck",
        parents=[report_flags],
        help="certify a Hopf subalgebra pair as a twisted Frobenius extension",
    )
    p.add_argument("ambient", help="ambient algebra file")
    p.add_argument("sub", help="subalgebra file")
    p.add_argument("--iota", required=True, metavar="MATRIXFILE", help="inclusion matrix")
    p.add_argument(
        "--module",
        metavar="MODULEFILE",
        help="also transport this module (module v1 format)",
    )
    p.set_defaults(func=cmd_subcheck)

    p = sub.add_parser(
        "dedekind-demo",
        parents=[report_flags],
        help="matrix-module transport over Z[sqrt(-5)] for a non-principal ideal",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for the random pair checks")
    p.set_defaults(func=cmd_dedekind_demo)

    p = sub.add_parser("catalog", help="list built-in algebras or emit one")
    csub = p.add_subparsers(dest="action", required=True)
    c = csub.add_parser("list", help="list catalog keys")
    c.set_defaults(func=cmd_catalog, action="list")
    c = csub.add_parser("emit", help="emit a catalog entry as a hopf-algebra file")
    c.add_argument("name")
    c.add_argument("-o", "--out", metavar="OUT", help="output path (default stdout)")
    c.set_defaults(func=cmd_catalog, action="emit")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, ShapeError, FieldMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory in {args.command}: the input is too large", file=sys.stderr)
        return 2
    except HopfrobError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
