"""Golden digests of printed formulas.

The sha256 of `print_formula` output for the corpus machines, and of its
parse -> print reprint, pinned so that a refactor of the compilers, the
reader or the printer cannot change a printed byte unnoticed; the proof
checker formulas of `reflect` are pinned by their print alone, and the
proof corpus by the digests of its bit-string encodings.  Regenerate
only on purpose: `PYTHONPATH=src python3 tests/test_golden.py` prints the
current tables.
"""

import hashlib
from fractions import Fraction

import pytest
from oracles import LEFT3

from forge.acc import compile_acc, compile_reach
from forge.machine import PolyBound, corpus_machine
from forge.nepo import (NepoBounds, cell_artifact, compile_acceptance_sigma0,
                        compile_Reach)
from forge.proofs import corpus_proofs
from forge.reflect import compile_proof_check, encode_proof, reflection_instance
from forge.sexpr import parse_formula, print_formula

# "acc:<machine>:<poly coefficients>" is compile_acc and "reach:..." is
# compile_reach; "sigma0:<machine>:m<m>" is compile_acceptance_sigma0 at c 1,
# eps 1/3, k 2, "cell:..." is cell_artifact's formula and "Reach<level>:..." is
# compile_Reach at that level.  case -> (print digest, reprint digest);
# reprints differ from prints where the parser renames sibling binders apart.
# "left3" is the oracles' LEFT3, which has left moves and k = 3.
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
    "reach:scan1:2,1": (
        "435274cc7c2b39ed3f615933565db8c03be8e5b2796ff2d0975ccc938bb89e6f",
        "880bce8f75fd8d13d938ac473efb79247b7ef43ef353289a6eddc0defa356908"),
    "reach:scan1:1,1,1": (
        "d9e9edc3b33b444a5da7238955ecbe3df2661872253ee81a2df28393411dff8a",
        "af5a236d3ce93346948163cdf86063a12d42528e6c914fca1fda4688511b2602"),
    "reach:parity:2,1": (
        "f97d61a90e2948d99e1e80064e20d7f395e7fb548e6f66cc87a2eb441082955e",
        "151c46e19e8546bd23a9aedaf123b52b74f17f3c426cd4b0f4641cc725cafcc0"),
    "reach:parity:1,1,1": (
        "91bc380894e9a34e9f382a7ca864376013dd574916efa90d10e603ff4ab9867a",
        "f50098af02cce4b331924ed1f8c3b182d82cce1bc773bcf1236a309469e9ab6d"),
    "reach:zeros:2,1": (
        "0c6d54fcd3d84afbbe282d3774382239fc1e4fbed184dccc35794a0d0575c9d6",
        "93b8577ca215b5034b353da766671e63cb2205fdd7f7af6c39ddbba21a7c7eb7"),
    "reach:zeros:1,1,1": (
        "968c64e1f6d0ecf0124dc796b2a57830300f6402630d6567c8d3e45f08e621fa",
        "15fc9f81d28ec5e1c7fdeaad5c42077f8b4d9a4cf87f662c901df2ba248e1cb1"),
    "Reach0:scan1:m4": (
        "0d23e4977456bcf66460f036b4f5bdf0936d5339ed2a563926599e60a9dad1c3",
        "0d23e4977456bcf66460f036b4f5bdf0936d5339ed2a563926599e60a9dad1c3"),
    "Reach0:scan1:m16": (
        "b21d5be9147da7bc6c59c2491c508231bb60c2b7fda9766020e9f86e747a176f",
        "b21d5be9147da7bc6c59c2491c508231bb60c2b7fda9766020e9f86e747a176f"),
    "Reach0:parity:m4": (
        "c72b1546354b88c463c4cc2b0e25254d4c2d8edf13339f0a6077346d541bd36f",
        "c72b1546354b88c463c4cc2b0e25254d4c2d8edf13339f0a6077346d541bd36f"),
    "Reach0:parity:m16": (
        "7c4457a7211994eca31ece68f8d74fbff6d88b64782925c25f710cdce90b7405",
        "7c4457a7211994eca31ece68f8d74fbff6d88b64782925c25f710cdce90b7405"),
    "Reach0:zeros:m4": (
        "2150e4dc79795028bad075b23cecae8e6e6a9d5a56d0fa4489e752169252099f",
        "2150e4dc79795028bad075b23cecae8e6e6a9d5a56d0fa4489e752169252099f"),
    "Reach0:zeros:m16": (
        "fd439c8611ac713277509d9f8e576eef59c43bba5e14a6d970c3bc43fb55d524",
        "fd439c8611ac713277509d9f8e576eef59c43bba5e14a6d970c3bc43fb55d524"),
    "Reach1:scan1:m4": (
        "61ca7b7fdcaae6806ad940566f52733f770af0ce33718b086f288a40a0d9154c",
        "61ca7b7fdcaae6806ad940566f52733f770af0ce33718b086f288a40a0d9154c"),
    "Reach1:scan1:m16": (
        "c3178602830a9660a2cd4bd13ca6d36a286eab37c6a10df3ab6ccc855eafb91d",
        "c3178602830a9660a2cd4bd13ca6d36a286eab37c6a10df3ab6ccc855eafb91d"),
    "Reach1:parity:m4": (
        "ce4be30d66ecca62d408c8b60c10be7966d02525e80701c54f05d1ba04afec45",
        "ce4be30d66ecca62d408c8b60c10be7966d02525e80701c54f05d1ba04afec45"),
    "Reach1:parity:m16": (
        "4a22973d0d49d85db1533bcac2d47faf16ab6673ea11666843a9953a1f29018e",
        "4a22973d0d49d85db1533bcac2d47faf16ab6673ea11666843a9953a1f29018e"),
    "Reach1:zeros:m4": (
        "0fa2a2145620fc93b1d6092a33d765a603ff1e132d8f412c79ac3d67b887daf0",
        "0fa2a2145620fc93b1d6092a33d765a603ff1e132d8f412c79ac3d67b887daf0"),
    "Reach1:zeros:m16": (
        "3e0901907fa8d58a3e2b4615f8dd15895cb15f612d2b644536d529022ec6f1dd",
        "3e0901907fa8d58a3e2b4615f8dd15895cb15f612d2b644536d529022ec6f1dd"),
    "cell:scan1:m4": (
        "f91038e25413af4e4c4a0342a2354bd0fe6549a29f396cb40b0366d0a839ff9e",
        "f91038e25413af4e4c4a0342a2354bd0fe6549a29f396cb40b0366d0a839ff9e"),
    "cell:scan1:m16": (
        "a7a4473412afd951cc55503ecf3ac9d5f2261ba887d047a188d8403be1ded9c5",
        "a7a4473412afd951cc55503ecf3ac9d5f2261ba887d047a188d8403be1ded9c5"),
    "cell:parity:m4": (
        "8d5d4f255bf5472c8ebcb214b9635e112b7fcc7e4401fe8eb7f568e42056e22d",
        "8d5d4f255bf5472c8ebcb214b9635e112b7fcc7e4401fe8eb7f568e42056e22d"),
    "cell:parity:m16": (
        "600cf9ce92cdc467b0d94a5675d2a70cab9c7db20893d0c228d9e75b481eeaf7",
        "600cf9ce92cdc467b0d94a5675d2a70cab9c7db20893d0c228d9e75b481eeaf7"),
    "cell:zeros:m4": (
        "238205392a6343cca248b66e8c6447f4880b5ec8824082295987bbd552064e33",
        "238205392a6343cca248b66e8c6447f4880b5ec8824082295987bbd552064e33"),
    "cell:zeros:m16": (
        "2fb9e557dda6fb6e4c9f18fd3f939295fa413167c9acde1dc78d623812158931",
        "2fb9e557dda6fb6e4c9f18fd3f939295fa413167c9acde1dc78d623812158931"),
    "acc:left3:2,1": (
        "dd3773d2c64a09ae6036ed21d42d5948f6688520153d3d7020b9ebaed8a4936b",
        "85c20516f31bff059031b7b50950eb4f9dd8ef7f37ffc5d057e74b3f7f765975"),
    "reach:left3:2,1": (
        "fe795cde102f6e76168dfd4ed1ad0b38eea2e3f71ed21d01301214a46fae9aec",
        "2df708988cda1cbcab358bbd91977b9cbfde3c7762d7df101bcb9ace942a8feb"),
    "sigma0:left3:m4": (
        "8ad1d9c5f34d7ccdf0bafbab933f29ec4f7db5a0349a708f6d5723e7e0781e19",
        "8ad1d9c5f34d7ccdf0bafbab933f29ec4f7db5a0349a708f6d5723e7e0781e19"),
    "Reach1:left3:m4": (
        "dbf4f53223655c66cc467232c18d67fa4de2da7b3add75f1772b2d1dbe6bd7a5",
        "dbf4f53223655c66cc467232c18d67fa4de2da7b3add75f1772b2d1dbe6bd7a5"),
    "cell:left3:m4": (
        "5eb03752cf992db6c6b3adbeeb478f3969b6158f57dee6720ca98930a6ca48c1",
        "5eb03752cf992db6c6b3adbeeb478f3969b6158f57dee6720ca98930a6ca48c1"),
}


# "proof-check:<system>:cap<n>" is compile_proof_check at slot_cap n, for
# "frege" and ("depth-frege", 2); "reflection:frege:x1" is
# reflection_instance("frege", PolyBound((12,), constant=True), 1).
PRINT_GOLDEN = {
    "proof-check:frege:cap1":
        "1d8c686e89644d10de1bd213beff167f9620613e75409e6a0e44b5dfe6a516dc",
    "proof-check:frege:cap2":
        "fdeb051a795685156d4492528e07b2fb9344a692d8d31dc502904837b3b9b162",
    "proof-check:frege:cap4":
        "772cfa1b29e128d1b97902d5a9323482362893973f2929e8839962a6080cb76f",
    "proof-check:frege:cap8":
        "bd6d0731040d8f1f2e74e2d11f2a98d40866a4f75070253544595d05d1d81dd1",
    "proof-check:depth2:cap1":
        "2f9f2a7a9bdd2d9a5a9773a2c3daa26fd4ff5abc0aea5a69ee6a18e6ae2c3d64",
    "proof-check:depth2:cap2":
        "f3fdc093f10728f02b950f561ad810551ec0ae532a312a7a27e04c925f26a161",
    "proof-check:depth2:cap4":
        "9991ae911132dafcde3583e25b6925a4d4da6e3369c9bc3027b6f1159aa4f4df",
    "proof-check:depth2:cap8":
        "364d325a9b4c6ee87f7354287e4f3b938e869e1d5a73b5efe613ca488c0407a8",
    "reflection:frege:x1":
        "e154f7ad571483ad93610e5c8fd407d14d0dfcabb97291331993c6fa30d36755",
}


# "encode:<file>" is encode_proof of that corpus proof: the layout of every
# field, one-hots included, not just the decode round trip.
ENCODE_GOLDEN = {
    "encode:corpus01.pk":
        "0ceb62bc0f6365630dd753bba4a5ca2489c4424fe670c8adf896c969733c52e1",
    "encode:corpus02.pk":
        "89e5f5c272206d6072acb5b82895716ecd4672e3e27137cc2c477b4d33082ca2",
    "encode:corpus03.pk":
        "88c94ff6438a699783143828e8e5e3c89343991ab0c56d0a3dc52a76a152f1a8",
    "encode:corpus04.pk":
        "b772a529687973219147159b2dcb04374e79f321b9cb0bbf1d314ca24efd9034",
    "encode:corpus05.pk":
        "e63abb2cfba78cce74ce86650e8b462bd056dcf2dafede5017add0a1737110fa",
    "encode:corpus06.pk":
        "09ec92ddd548b3936491477630fee9619a358cf8787bc72caa5d9b8ba3d06721",
    "encode:corpus07.pk":
        "48e50fa86b6817367432fc58ef413d920c8fe683c598ac5cc5b413b1f7b90b62",
    "encode:corpus08.pk":
        "17ede991197d0019166452c71f30d6f093adbcde036e708ffaa0422f2b70e0f4",
    "encode:corpus09.pk":
        "23cbf695b5aab00642a98f1f9e9ba783e5d55a02f988848cdcbb97ec99e7351d",
    "encode:corpus10.pk":
        "b7e121394c167c08c9919157549a983ed9bca8882f41ed43341a2a5cb95c83f2",
}


def _compile(case: str):
    kind, name, arg = case.split(":")
    if kind == "proof-check":
        system = "frege" if name == "frege" else ("depth-frege", 2)
        return compile_proof_check(system, slot_cap=int(arg.removeprefix("cap")))
    if kind == "reflection":
        return reflection_instance("frege", PolyBound((12,), constant=True), 1)
    tm = LEFT3 if name == "left3" else corpus_machine(name)
    if kind in ("acc", "reach"):
        compile_ = compile_acc if kind == "acc" else compile_reach
        return compile_(tm, PolyBound(tuple(map(int, arg.split(",")))))
    b = NepoBounds(c=1, eps=Fraction(1, 3), k=2, m=int(arg.removeprefix("m")))
    if kind == "sigma0":
        return compile_acceptance_sigma0(tm, b)
    if kind == "cell":
        return cell_artifact(tm, b).formula
    return compile_Reach(tm, b, int(kind.removeprefix("Reach")))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(case: str) -> tuple[str, str]:
    text = print_formula(_compile(case))
    return _sha(text), _sha(print_formula(parse_formula(text)))


@pytest.mark.parametrize("case", GOLDEN)
def test_print_and_reprint_digests(case):
    assert _digests(case) == GOLDEN[case]


@pytest.mark.parametrize("case", PRINT_GOLDEN)
def test_print_digests(case):
    assert _sha(print_formula(_compile(case))) == PRINT_GOLDEN[case]


def _encodings() -> dict[str, str]:
    return {f"encode:{name}": _sha(encode_proof(pi)) for name, pi in corpus_proofs()}


def test_encode_digests():
    assert _encodings() == ENCODE_GOLDEN


if __name__ == "__main__":
    for case in GOLDEN:
        printed, reprinted = _digests(case)
        print(f'    "{case}": (\n        "{printed}",\n        "{reprinted}"),')
    for case in PRINT_GOLDEN:
        print(f'    "{case}":\n        "{_sha(print_formula(_compile(case)))}",')
    for case, digest in _encodings().items():
        print(f'    "{case}":\n        "{digest}",')
