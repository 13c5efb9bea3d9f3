"""Golden digests of printed formulas.

The sha256 of `print_formula` output for the corpus machines, and of its
parse -> print reprint, pinned so that a refactor of the compilers, the
reader or the printer cannot change a printed byte unnoticed.  Regenerate
only on purpose: `PYTHONPATH=src python3 tests/test_golden.py` prints the
current table.
"""

import hashlib
from fractions import Fraction

import pytest

from forge.acc import compile_acc
from forge.machine import PolyBound, corpus_machine
from forge.nepo import NepoBounds, compile_acceptance_sigma0
from forge.sexpr import parse_formula, print_formula

# "acc:<machine>:<poly coefficients>" is compile_acc, "sigma0:<machine>:m<m>"
# is compile_acceptance_sigma0 at eps 1/3, k 2.  case -> (print digest,
# reprint digest); reprints differ from prints where the parser renames
# sibling binders apart.
GOLDEN = {
    "acc:scan1:2,1": (
        "eb5b90e4818f7be90301240ccb55116830c71116ad489027db152ab6c91b352a",
        "60b6c316682262d83a245a64c3d41ee2261d8b7c52628384c0d117de2466692c"),
    "acc:scan1:1,1,1": (
        "70b4ba66092e7cbe2744f43a0afc65781a0f98ebf0998938019c707596e2847e",
        "dec709179e43e6dca2c268dc16bed5f85715a65cd6cbf73c2797a8021eef753b"),
    "acc:parity:2,1": (
        "b84729739b01f71c12ffb38c48a646130d7cd91c848f3008185f45b2323d024c",
        "932090e6cbfe235afc6a07d430d68713443eb0d81c32bbd6ab062a61f328ab33"),
    "acc:parity:1,1,1": (
        "de72a0b956e24afc9a7fd17a30c1213fc6aea7594889e4e120556c57a15a1563",
        "73b05d66fc8fbca47dce7715bca921388a96ca552d2ec81e69441e0efc60364d"),
    "acc:zeros:2,1": (
        "52293784f6530a72de4e63ae82f33fe5d7995196a3bbbe5ffdcaf2f484d1755e",
        "0a11c8da9cdb14a2170f6ffb9b9688d9284e46176d89de4ffa3359d4221cc91e"),
    "acc:zeros:1,1,1": (
        "06c35095e67780a909d8dfd66c83816da3a49222ba4ee7baca9766b6ea90af71",
        "5dce7f591087ddb6a464f2d6680f0b39b7dc394630c963bcb96b0ed97f2be9df"),
    "sigma0:scan1:m4": (
        "65ff6f90db0fde29fb5e66fa3fa0614e65f54c04df24218a22d3b59ca276fa8c",
        "65ff6f90db0fde29fb5e66fa3fa0614e65f54c04df24218a22d3b59ca276fa8c"),
    "sigma0:scan1:m8": (
        "750655c16fa8cfa59387806a49bbad4c8001d59f1ae50a7cbaa8892157131f5d",
        "750655c16fa8cfa59387806a49bbad4c8001d59f1ae50a7cbaa8892157131f5d"),
    "sigma0:scan1:m16": (
        "243e704f1ff79153d2821bb7c738c4f14306eadc3bea6cc1332baf7936d3ed17",
        "243e704f1ff79153d2821bb7c738c4f14306eadc3bea6cc1332baf7936d3ed17"),
    "sigma0:parity:m4": (
        "683324090f0645f256b812057088fc8b1cfd746e0ae578d865deb2a577769b89",
        "683324090f0645f256b812057088fc8b1cfd746e0ae578d865deb2a577769b89"),
    "sigma0:parity:m8": (
        "20368fb919a5cc7098a4e8667cf78bb581efd3f868b7c97235538a43eac8831a",
        "20368fb919a5cc7098a4e8667cf78bb581efd3f868b7c97235538a43eac8831a"),
    "sigma0:parity:m16": (
        "ed7ec0f2cf24d616b2f6078274362994550db5ef9b6cd21b87aa7f9f54fc4d91",
        "ed7ec0f2cf24d616b2f6078274362994550db5ef9b6cd21b87aa7f9f54fc4d91"),
    "sigma0:zeros:m4": (
        "efe83cf180551336b08ba1dba7df6b07833a5cd60606ce7c884cb627717914f6",
        "efe83cf180551336b08ba1dba7df6b07833a5cd60606ce7c884cb627717914f6"),
    "sigma0:zeros:m8": (
        "efa83797174caac10511661dce4b9ece2df87e73d92971d06594afe5d074c73f",
        "efa83797174caac10511661dce4b9ece2df87e73d92971d06594afe5d074c73f"),
    "sigma0:zeros:m16": (
        "72bace9ee26a4ec077b8038340882e26589df35b8d3b1b929bc7b2305008c873",
        "72bace9ee26a4ec077b8038340882e26589df35b8d3b1b929bc7b2305008c873"),
}


def _compile(case: str):
    kind, name, arg = case.split(":")
    tm = corpus_machine(name)
    if kind == "acc":
        return compile_acc(tm, PolyBound(tuple(map(int, arg.split(",")))))
    m = int(arg.removeprefix("m"))
    return compile_acceptance_sigma0(tm, NepoBounds(c=1, eps=Fraction(1, 3), k=2, m=m))


def _digests(case: str) -> tuple[str, str]:
    text = print_formula(_compile(case))
    reprint = print_formula(parse_formula(text))
    return (hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(reprint.encode()).hexdigest())


@pytest.mark.parametrize("case", GOLDEN)
def test_print_and_reprint_digests(case):
    assert _digests(case) == GOLDEN[case]


if __name__ == "__main__":
    for case in GOLDEN:
        printed, reprinted = _digests(case)
        print(f'    "{case}": (\n        "{printed}",\n        "{reprinted}"),')
