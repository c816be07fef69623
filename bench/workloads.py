"""Seeded inputs and known-answer job lists for the four workloads.

Every job is one ``hopfrob`` command line with the exit code it must give.
Known answers come from how each input was built, never from hopfrob's own
output: a valid object (a catalog entry, its double, a Taft algebra over a
prime near 2^31) is valid by construction, so every command on it must exit
0; a corrupted copy carries a corruption with a one-line proof that an axiom
fails, so ``verify``, ``frobenius``, ``separable`` and ``double`` on it must
exit 1.

The seed chooses the prime near 2^31 and its primitive cube root, the kind
and position of every corruption, and the ``dedekind-demo`` seed.  hopfrob
sees only the generated files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("catalog", "qq-d36", "modp-d81", "modp-d256")

# Entries whose double joins the catalog workload (dim <= 6, up to D(qs3)).
CATALOG_DOUBLE_MAX_DIM = 6

# Subalgebra pairs (sub key, ambient key, basis positions of the image), as
# in the test suite: the group-likes sit at every n-th index of a Taft basis.
SUBPAIRS = (
    ("qc2", "sweedler", (0, 1)),
    ("f7c3", "taft-3-7-2", (0, 3, 6)),
    ("qc2", "qs3", (0, 1)),
)

# Corrupted copies per object, each with its own seeded corruption.  One
# copy is rejected in milliseconds (catalog), 0.5 s (D36) or 2 s (D81):
# too little time to measure steadily on a shared machine, so reject_s
# sums several copies.
CATALOG_CORRUPTED = 3
D36_CORRUPTED = 12
D81_CORRUPTED = 3

ACCEPT = "accept"
REJECT = "reject"


@dataclass(frozen=True)
class Job:
    argv: tuple
    expected: int  # known exit code: 0 valid input, 1 corrupted input
    kind: str  # ACCEPT or REJECT; REJECT jobs time into reject_s
    why: str  # where the known answer comes from

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    jobs: tuple
    choices: dict  # every seeded choice, for the run record


# -- seeded choices -------------------------------------------------------------


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (the benchmark's own copy:
    it must not depend on hopfrob's private helpers)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_near_2_31(rng: random.Random) -> tuple[int, int]:
    """A prime p < 2^31 with p = 1 (mod 3), within 2^20 of 2^31, and a
    primitive cube root of unity q mod p."""
    p = rng.randrange(2**31 - 2**20, 2**31)
    while not (p % 3 == 1 and is_prime(p)):
        p -= 1
    while True:
        q = pow(rng.randrange(2, p - 1), (p - 1) // 3, p)
        if q != 1:
            return p, q


# -- corruption of hopf-algebra v1 text -----------------------------------------


def _field_of(text: str):
    for line in text.splitlines():
        toks = line.split()
        if toks and toks[0] == "field":
            return None if toks[1] == "rational" else int(toks[2])
    raise ValueError("no field line")


def _fmt(x, p) -> str:
    if p is None:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return str(x % p)


def corrupt(text: str, rng: random.Random, kinds=("unit", "antipode")) -> tuple[str, dict]:
    """A corrupted copy of a valid hopf-algebra v1 text, and what was done.

    "unit": the unit u becomes c*u with c not in {0, 1}; then (c*u)*e_i =
    c*e_i != e_i, so the unit law fails.  "antipode": one column of S is
    zeroed (its line dropped; absent columns are zero), so S is singular
    and not invertible.  Over GF(2) there is no scalar c, so only the
    antipode corruption is used there.
    """
    p = _field_of(text)
    if p == 2:
        kinds = tuple(k for k in kinds if k != "unit")
    kind = rng.choice(sorted(kinds))
    lines = text.splitlines()
    if kind == "unit":
        c = Fraction(rng.choice((-1, 2, 3, Fraction(1, 2)))) if p is None else Fraction(rng.randrange(2, p))
        for n, line in enumerate(lines):
            toks = line.split()
            if toks[:2] == ["unit", ":"]:
                pairs = toks[2:]
                scaled = []
                for i in range(0, len(pairs), 2):
                    scaled += [pairs[i], _fmt(c * Fraction(pairs[i + 1]), p)]
                lines[n] = "unit : " + " ".join(scaled)
        info = {"kind": "unit", "scale": _fmt(c, p), "proof": "(c*u)*e_i = c*e_i != e_i: the unit law fails"}
    else:
        cols = [n for n, line in enumerate(lines) if line.startswith("antipode ")]
        n = rng.choice(cols)
        column = int(lines[n].split()[1])
        del lines[n]
        info = {
            "kind": "antipode",
            "column": column,
            "proof": f"column {column} of S is zero, so S is singular: the antipode is not invertible",
        }
    return "\n".join(lines) + "\n", info


def matrix_text(field_name: str, nrows: int, positions) -> str:
    """matrix v1 text of the inclusion sending K-basis s to H-basis positions[s]."""
    rows = [["1" if positions[s] == r else "0" for s in range(len(positions))] for r in range(nrows)]
    body = [" ".join(row) for row in rows]
    return "\n".join(["matrix v1", f"field {field_name}", f"shape {nrows} {len(positions)}", *body, "end"]) + "\n"


# -- workloads ------------------------------------------------------------------


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _valid(cmd: str, path: str, *extra: str) -> Job:
    return Job((cmd, path, *extra), 0, ACCEPT, "valid by construction")


def _corrupted(cmd: str, path: str, info: dict, *extra: str) -> Job:
    return Job((cmd, path, *extra), 1, REJECT, info["proof"])


def build(name: str, seed: int, small: bool = False) -> Workload:
    """Write the inputs of one workload into the current directory and
    return its jobs.  ``small`` swaps every object for the smallest one that
    still runs the same job list (for the self-check)."""
    from hopfrob.catalog import entry, names, taft
    from hopfrob.double import drinfeld_double
    from hopfrob.hopffile import emit_hopf_text

    rng = random.Random(f"{name}:{seed}")
    jobs: list = []
    choices: dict = {}

    if name == "catalog":
        keys = ("qc2", "f2c2", "sweedler") if small else names()
        for key in keys:
            H = entry(key).hopf
            text = emit_hopf_text(H)
            _write(f"{key}.hopf", text)
            for cmd in ("verify", "frobenius", "separable"):
                jobs.append(_valid(cmd, f"{key}.hopf"))
            jobs.append(_valid("dual", f"{key}.hopf", "-o", f"{key}-dual.hopf"))
            if H.dim <= CATALOG_DOUBLE_MAX_DIM:
                jobs.append(_valid("double", f"{key}.hopf"))
            for k in range(CATALOG_CORRUPTED):
                bad, info = corrupt(text, rng)
                _write(f"{key}-bad{k}.hopf", bad)
                choices[f"{key}-bad{k}"] = info
                jobs += [_corrupted(cmd, f"{key}-bad{k}.hopf", info) for cmd in ("verify", "frobenius", "separable")]
        pairs = SUBPAIRS[:1] if small else SUBPAIRS
        for sub, amb, positions in pairs:
            for key in (sub, amb):
                _write(f"{key}.hopf", emit_hopf_text(entry(key).hopf))
            H = entry(amb).hopf
            iota = f"iota-{sub}-{amb}.mat"
            _write(iota, matrix_text(H.field.name, H.dim, positions))
            jobs.append(_valid("subcheck", f"{amb}.hopf", f"{sub}.hopf", "--iota", iota))
        dseed = rng.randrange(10**6)
        choices["dedekind_seed"] = dseed
        jobs.append(Job(("dedekind-demo", "--seed", str(dseed)), 0, ACCEPT, "theorem for every seed"))

    elif name == "qq-d36":
        key = "qc2" if small else "qs3"
        text = emit_hopf_text(drinfeld_double(entry(key).hopf))
        _write("d36.hopf", text)
        jobs += [_valid("verify", "d36.hopf"), _valid("frobenius", "d36.hopf")]
        for k in range(D36_CORRUPTED):
            bad, info = corrupt(text, rng)
            _write(f"d36-bad{k}.hopf", bad)
            choices[f"d36-bad{k}"] = info
            jobs += [_corrupted(cmd, f"d36-bad{k}.hopf", info) for cmd in ("verify", "frobenius")]

    elif name == "modp-d81":
        base = taft(2, 3, 2) if small else entry("taft-3-7-2").hopf
        _write("taft.hopf", emit_hopf_text(base))
        p, q = prime_near_2_31(rng)
        choices["prime"], choices["cube_root"] = p, q
        _write("taft-big.hopf", emit_hopf_text(taft(3, p, q)))
        jobs += [
            _valid("double", "taft.hopf", "-o", "d81.hopf"),
            _valid("verify", "d81.hopf"),
            _valid("frobenius", "d81.hopf"),
            _valid("separable", "d81.hopf"),
            _valid("double", "taft-big.hopf"),
        ]
        text = emit_hopf_text(drinfeld_double(base))
        for k in range(D81_CORRUPTED):
            bad, info = corrupt(text, rng)
            _write(f"d81-bad{k}.hopf", bad)
            choices[f"d81-bad{k}"] = info
            jobs += [_corrupted(cmd, f"d81-bad{k}.hopf", info) for cmd in ("verify", "frobenius")]

    elif name == "modp-d256":
        H = taft(2, 3, 2) if small else entry("taft-4-5-2").hopf
        text = emit_hopf_text(H)
        _write("taft.hopf", text)
        # only the unit corruption: the double's product does not depend on
        # the unit, and its unit is eps (x) u, so D's unit law fails too; a
        # singular antipode would stop the construction as invalid input
        bad, info = corrupt(text, rng, kinds=("unit",))
        info = dict(info, proof=info["proof"] + " in H, and in D(H), whose unit is eps (x) u")
        _write("taft-bad.hopf", bad)
        choices["taft"] = info
        jobs += [
            _valid("double", "taft.hopf", "-o", "d256.hopf"),
            _corrupted("double", "taft-bad.hopf", info),
        ]

    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(tuple(jobs), choices)
