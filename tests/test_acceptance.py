"""Ten end-to-end acceptance gates, one test and one printed verdict line
each.  Every equality below is exact; there are no tolerances anywhere."""

import random
import zlib

from conftest import double_of, double_report_of, integral_of, subpair_of
from hopfrob.catalog import entry, names
from hopfrob.dedekind import (
    QuadElement,
    QuadraticIdeal,
    demo_ideal,
    module_transport_report,
    steinitz_matrix,
    verify_steinitz,
)
from hopfrob.double import _straighten_direct, _straighten_table
from hopfrob.frobenius import (
    antipode_shift_check,
    build_integral_data,
    compare_systems,
    dual_basis_identities_hold,
    dual_frobenius_check,
    frobenius_system_from_norm,
    nakayama_closed_form,
    orders,
    transform_by_antipode,
    verify_radford,
)
from hopfrob.hopfcore import (
    convolution,
    dual_hopf,
    dual_left_integral_space,
    eval_cov,
    pairing_matrix,
    verify_hopf,
)
from hopfrob.linalg import Matrix, basis_vec
from hopfrob.separability import (
    check_kanzaki_certificate,
    check_ordinary_certificate,
    idempotent_exists_by_solve,
    is_separable_hopf,
    strong_separability,
)
from hopfrob.subext import (
    KModule,
    check_expectation_bimodule,
    check_module,
    extension_identities_hold,
    free_module_basis,
    induction_coinduction_check,
    regular_module,
    trivial_module,
)

ALL_KEYS = names()


def _verdict(capfd, num, label, body):
    """Run one criterion body and print its verdict past pytest's capture."""
    try:
        body()
    except BaseException:
        with capfd.disabled():
            print(f"ACCEPTANCE {num:2d} [{label}]: FAIL")
        raise
    with capfd.disabled():
        print(f"ACCEPTANCE {num:2d} [{label}]: PASS")


def test_criterion_01_axiom_suite(capfd):
    def body():
        for key in ALL_KEYS:
            H = entry(key).hopf
            assert verify_hopf(H).passed, key
            assert verify_hopf(dual_hopf(H)).passed, f"dual of {key}"
            _, rep = double_report_of(key)
            assert rep.passed, f"double of {key}"

    _verdict(capfd, 1, "axioms: entries, duals, doubles", body)


def test_criterion_02_frobenius_identity_suite(capfd):
    def body():
        for key in ALL_KEYS:
            H, data, sys_ = integral_of(key)
            field = H.field
            dim = H.dim
            gram = pairing_matrix(H.alg, data.psi)
            ok, detail = dual_basis_identities_hold(gram, sys_.xs, sys_.ys)
            assert ok, f"{key}: {detail}"
            assert gram.rank() == dim, f"{key}: Gram matrix singular"
            assert eval_cov(field, data.psi, data.norm) == field.one(), key
            # norm absorbs multiplication through the modular function
            for a in range(dim):
                lhs = H.alg.multiply(data.norm, H.alg.basis_vector(a))
                rhs = tuple(
                    field.normalize(data.modular_fn[a] * c) for c in data.norm
                )
                assert lhs == rhs, f"{key}: norm translate at basis {a}"
            # psi * f = f(b) psi in the convolution algebra
            for t in range(dim):
                conv = convolution(H, data.psi, basis_vec(field, dim, t))
                scaled = tuple(
                    field.normalize(data.modular_elt[t] * c) for c in data.psi
                )
                assert conv == scaled, f"{key}: functional translate at basis {t}"
            # psi(x a) = psi(nu(a) x) for all basis pairs
            nu = sys_.nakayama
            for i in range(dim):
                ei = H.alg.basis_vector(i)
                for j in range(dim):
                    lhs = eval_cov(
                        field, data.psi, H.alg.multiply(ei, H.alg.basis_vector(j))
                    )
                    rhs = eval_cov(field, data.psi, H.alg.multiply(nu.col(j), ei))
                    assert lhs == rhs, f"{key}: Nakayama swap at {(i, j)}"
            assert antipode_shift_check(H, data).passed, key
            assert dual_frobenius_check(H, data).passed, key

    _verdict(capfd, 2, "Frobenius systems and integral identities", body)


def test_criterion_03_nakayama_closed_form(capfd):
    def body():
        for key in ALL_KEYS:
            H, data, sys_ = integral_of(key)
            assert nakayama_closed_form(H, data) == sys_.nakayama, key
        H, data, sys_ = integral_of("sweedler")
        g = 1  # basis position of the group-like generator
        minus_g = tuple(H.field.neg(c) for c in H.alg.basis_vector(g))
        assert data.modular_fn[g] == H.field.from_int(-1)
        assert sys_.nakayama.col(g) == minus_g
        assert nakayama_closed_form(H, data).col(g) == minus_g

    _verdict(capfd, 3, "Nakayama automorphism, both routes", body)


def test_criterion_04_fourth_antipode_power(capfd):
    def body():
        for key in ALL_KEYS:
            H, data, sys_ = integral_of(key)
            assert verify_radford(H, data).passed, key
            ords = orders(H, sys_.nakayama)
            assert ords.antipode_divides, key
            assert ords.nakayama_divides, key
        D = double_of("sweedler")
        assert verify_radford(D, build_integral_data(D)).passed, "double of sweedler"
        for key in ("taft-3-7-2", "taft-4-5-2"):
            H = entry(key).hopf
            s4 = H.antipode.pow_(4)
            assert s4 != Matrix.identity(H.field, H.dim), key
        H, _, sys_ = integral_of("sweedler")
        assert orders(H, sys_.nakayama).antipode_order == 4
        H, _, sys_ = integral_of("taft-3-7-2")
        assert orders(H, sys_.nakayama).antipode_order == 6

    _verdict(capfd, 4, "fourth power of the antipode as conjugation", body)


def test_criterion_05_antipode_transform_derivative(capfd):
    def body():
        for key in ALL_KEYS:
            H, data, sys_ = integral_of(key)
            moved = transform_by_antipode(H, sys_)
            cmp = compare_systems(H, sys_, moved)
            assert cmp.report.passed, key
            assert cmp.derivative == data.modular_elt, key

    _verdict(capfd, 5, "antipode transform has derivative b", body)


def test_criterion_06_separability(capfd):
    def body():
        for key in ALL_KEYS:
            H, data, sys_ = integral_of(key)
            sep, cert = is_separable_hopf(H, data, sys_)
            brute = idempotent_exists_by_solve(H.alg)
            assert brute == sep, f"{key}: criterion disagrees with linear solve"
            if sep:
                assert data.modular_fn == H.counit, f"{key}: separable but m != eps"
                ok, detail = check_ordinary_certificate(H.alg, cert.element)
                assert ok, f"{key}: {detail}"
        H, data, sys_ = integral_of("qc3")
        assert is_separable_hopf(H, data, sys_)[0]
        H, data, sys_ = integral_of("f3c3")
        assert not is_separable_hopf(H, data, sys_)[0]
        H, data, sys_ = integral_of("qs3")
        kanzaki = strong_separability(H, data, sys_)
        assert kanzaki is not None and kanzaki.kind == "kanzaki"
        ok, detail = check_kanzaki_certificate(H.alg, kanzaki.element)
        assert ok, detail

    _verdict(capfd, 6, "separability decisions and certificates", body)


def test_criterion_07_double_of_the_four_dimensional_algebra(capfd):
    def body():
        D, rep = double_report_of("sweedler")
        assert D.dim == 16
        assert rep.passed
        assert len(dual_left_integral_space(D)) == 1
        H = entry("sweedler").hopf
        ib, v, s, c = (a.tolist() for a in _straighten_table(H))
        fast = [{} for _ in range(H.dim**2)]
        for x, vs, val in zip(ib, zip(v, s), c):
            fast[x][vs] = val
        for i, direct in enumerate(_straighten_direct(H, range(H.dim))):
            for b in range(H.dim):
                assert fast[i * H.dim + b] == direct[b], (i, b)

    _verdict(capfd, 7, "Drinfeld double structure", body)


def test_criterion_08_subalgebra_extensions(capfd):
    def body():
        for key in ("qc2-sweedler", "f7c3-taft"):
            emb, beta, data = subpair_of(key)
            K = emb.K
            F = K.field
            ok, detail = check_expectation_bimodule(emb, data)
            assert ok, f"{key}: {detail}"
            ok, detail = extension_identities_hold(emb, data)
            assert ok, f"{key}: {detail}"
            expected_rank = emb.H.dim // K.dim
            assert len(free_module_basis(emb)) == expected_rank, key
            if key == "qc2-sweedler":
                extra = KModule(F, 1, (Matrix.identity(F, 1), Matrix.from_rows(F, [[-1]])))
            else:
                extra = KModule(
                    F,
                    1,
                    (
                        Matrix.identity(F, 1),
                        Matrix.from_rows(F, [[2]]),
                        Matrix.from_rows(F, [[4]]),
                    ),
                )
            check_module(K, extra)
            for M in (trivial_module(K), regular_module(K), extra):
                rep = induction_coinduction_check(emb, data, M)
                assert rep.passed, f"{key}: {rep.failures()}"

    _verdict(capfd, 8, "twisted Frobenius extensions of subalgebras", body)


def test_criterion_09_dedekind_counterexample(capfd):
    def body():
        ideal = demo_ideal()
        assert ideal.principal_generator() is None
        assert ideal.mul(ideal) == QuadraticIdeal.from_generators(QuadElement(2, 0))
        data = steinitz_matrix(ideal)
        assert verify_steinitz(ideal, data.matrix).passed
        rep = module_transport_report(ideal, seed=0, trials=20)
        assert rep.passed, "\n".join(rep.summary_lines())
        by_name = {it.name: it for it in rep.items}
        assert by_name["transport respects the action on matrix units"].ok
        assert by_name["transport respects the action on random pairs"].ok
        assert by_name["transport is a bijection onto the matrix ring"].ok

    _verdict(capfd, 9, "non-free ideal with free matrix module", body)


def test_criterion_10_rescaling_invariance(capfd):
    def body():
        for key in ALL_KEYS:
            H, data, sys_ = integral_of(key)
            field = H.field
            base_radford = verify_radford(H, data).passed
            assert base_radford, key
            rng = random.Random(zlib.crc32(f"acceptance-{key}".encode()))
            for c in field.nonzero_elements_sample(rng, 3):
                scaled = tuple(field.normalize(c * p) for p in data.psi)
                data2 = build_integral_data(H, psi=scaled)
                sys2 = frobenius_system_from_norm(H, data2)
                assert data2.modular_fn == data.modular_fn, key
                assert data2.modular_elt == data.modular_elt, key
                assert sys2.nakayama == sys_.nakayama, key
                assert verify_radford(H, data2).passed == base_radford, key

    _verdict(capfd, 10, "invariance under rescaling the functional", body)
