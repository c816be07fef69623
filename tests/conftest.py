"""Shared per-session caches so expensive objects (doubles and their axiom
reports) are built exactly once across test modules, and the fixtures that
switch the arithmetic engine and its block size."""

import functools
import sys

import pytest

from hopfrob import linalg
from hopfrob.catalog import entry, taft
from hopfrob.double import drinfeld_double, embed_algebra, embed_dual
from hopfrob.frobenius import (
    build_integral_data,
    frobenius_system_from_norm,
    nakayama_closed_form,
)
from hopfrob.hopfcore import HopfAlgebra, dual_hopf, verify_hopf
from hopfrob.linalg import Matrix, basis_vec
from hopfrob.subext import (
    SubalgebraEmbedding,
    beta_frobenius_structure,
    free_module_basis,
    relative_nakayama,
    verify_embedding,
)


def csr_dense(C):
    """The dense int64 array of a linalg.CSR matrix or a view of its rows,
    repeated cells summed."""
    import numpy as np

    out = np.zeros(C.shape, dtype=np.int64)
    a, b = C.indptr[0], C.indptr[-1]
    np.add.at(out, (linalg.csr_rows(C), C.indices[a:b]), C.data[a:b])
    return out


def count_calls(monkeypatch, module, name) -> list:
    """Count the calls of module.name, through every hopfrob module that
    imports it."""
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("hopfrob") and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


@functools.lru_cache(maxsize=None)
def double_of(key: str):
    return drinfeld_double(entry(key).hopf)


@functools.lru_cache(maxsize=None)
def double_report_of(key: str):
    """(double, axiom report), as `hopfrob double` checks it: the quadratic
    axioms on the generators of the double's product cover."""
    D = double_of(key)
    return D, verify_hopf(D)


def engine_primes_of(field, constants=(), degree=1, count=1, most=None):
    """linalg.engine_primes for an identity over the given constants."""
    return linalg.engine_primes(
        field, functools.partial(linalg.scale_of, constants), degree, count, most
    )


@functools.lru_cache(maxsize=None)
def taft_over(n: int, p: int):
    """taft(n, p, q) for the first q = g^((p-1)/n) of multiplicative order n."""
    for g in range(2, p):
        q = pow(g, (p - 1) // n, p)
        if all(pow(q, d, p) != 1 for d in range(1, n)):
            return taft(n, p, q)
    raise ValueError(f"no element of order {n} mod {p}")


@functools.lru_cache(maxsize=None)
def integral_of(key: str):
    H = entry(key).hopf
    data = build_integral_data(H)
    return H, data, frobenius_system_from_norm(H, data)


_SUBPAIRS = {
    # group-like generators sit at every n-th index of the Taft basis
    "qc2-sweedler": ("qc2", "sweedler", (0, 1)),
    "f7c3-taft": ("f7c3", "taft-3-7-2", (0, 3, 6)),
    "qc2-qs3": ("qc2", "qs3", (0, 1)),
}


@functools.lru_cache(maxsize=None)
def embedding_of(key: str) -> SubalgebraEmbedding:
    """A catalog pair of _SUBPAIRS, or for "<entry>-double" the entry H
    inside its double D(H) through double.embed_algebra."""
    if key.endswith("-double"):
        hkey = key[: -len("-double")]
        H = entry(hkey).hopf
        cols = [embed_algebra(H, basis_vec(H.field, H.dim, i)) for i in range(H.dim)]
        return SubalgebraEmbedding(H, double_of(hkey), Matrix.from_columns(H.field, cols))
    kkey, hkey, positions = _SUBPAIRS[key]
    K, H = entry(kkey).hopf, entry(hkey).hopf
    cols = [basis_vec(H.field, H.dim, i) for i in positions]
    return SubalgebraEmbedding(K, H, Matrix.from_columns(H.field, cols))


@functools.lru_cache(maxsize=None)
def dual_cop_embedding_of(key: str) -> SubalgebraEmbedding:
    """H*^cop inside D(H) for the catalog entry H, through double.embed_dual:
    dual_hopf(H) with the legs of its comul swapped and S^-1 transposed as
    its antipode, the antipode of H*^cop."""
    H = entry(key).hopf
    Hd = dual_hopf(H)
    comul = {i: [(k, j, c) for j, k, c in terms] for i, terms in Hd.comul.items()}
    K = HopfAlgebra.from_sparse(
        Hd.alg, comul, Hd.counit, H.antipode_inv().transpose(), name=f"{H.name}*cop"
    )
    cols = [embed_dual(H, basis_vec(H.field, H.dim, a)) for a in range(H.dim)]
    return SubalgebraEmbedding(K, double_of(key), Matrix.from_columns(H.field, cols))


def embedding_report(emb: SubalgebraEmbedding):
    """verify_embedding of emb, with the Nakayama automorphism of H built here."""
    H = emb.H
    return verify_embedding(emb, nakayama_closed_form(H, build_integral_data(H)))


def twist_of(emb: SubalgebraEmbedding):
    """relative_nakayama of emb, with the data it takes built here."""
    data_K, data_H = build_integral_data(emb.K), build_integral_data(emb.H)
    nu_H = nakayama_closed_form(emb.H, data_H)
    return relative_nakayama(emb, data_K, data_H, nu_H, verify_embedding(emb, nu_H))


def structure_of(emb: SubalgebraEmbedding, beta):
    """beta_frobenius_structure of emb and beta, with the data it takes built here."""
    data_K, data_H = build_integral_data(emb.K), build_integral_data(emb.H)
    return beta_frobenius_structure(emb, beta, data_K, data_H, free_module_basis(emb))


@functools.lru_cache(maxsize=None)
def subpair_of(key: str):
    """(embedding, relative twist, certified extension data)."""
    emb = embedding_of(key)
    beta = twist_of(emb)
    return emb, beta, structure_of(emb, beta)


@pytest.fixture
def generic_engine(monkeypatch):
    """A call that sends every later engine choice of the test to the
    Python-scalar engine: linalg.machine_prime admits no field."""
    return lambda: monkeypatch.setattr(linalg, "machine_prime", lambda field: None)


@pytest.fixture
def smallest_blocks(monkeypatch):
    """A call that makes every later int64 block of the test one item, one
    row or one term: the block budget linalg._BLOCK_BYTES becomes 1 byte,
    less than one entry or cell."""
    return lambda: monkeypatch.setattr(linalg, "_BLOCK_BYTES", 1)
