"""Tier-1 pin of ``python3 tests/panel_digest.py --seed 1``.

Each line is the SHA-256 of a benchmark workload's first panel instances, of
a README or extra command's exit code, stdout and CSV bytes, or of the
prox-linear solve held in a ``FeasibleRegion``.  A change that moves any
result re-pins these lines and says which numbers moved and why.
"""

from panel_digest import lines

SEED_1 = [
    "geometric-dense  seed 1  408127ba4cf1c088c9e4c5cb2f9a33cd98f8fc58bf59a26852af948b568688a8",
    "proxlinear-dense  seed 1  fa9ca1a9e914448aab7837c2584b7fcd73a5ea6d1afe3863427c347162dbc7aa",
    "geometric-hadamard  seed 1  891e7fc4d2f4e1129203788133f94c8cb5f6318dc17b13e628e52865bfa499a3",
    "readme solve  641f344139c9897ba67b465e50247732d1224d9b9fbc710fdb8c529548ad0395",
    "readme phase  c05f1416f53a490e267a5a1af35bcceda8514267cae78f431918e9b460d2e413",
    "readme init  203296b8170f86be28b7bb85e58248652a762f523fda07faeac50ddd94f9bc55",
    "readme sweep-q  8f917cf3af9d549102bf3e87b526c9b8b846d7a7fbd64b58e017c06b0cf04d15",
    "readme rip-probe  ee51a14503e7a217ec0e03c16f514bea598aa97caf637652115e31b570c036b7",
    "extra converge  57507ab654527039e0b5aae20753767ddbd930e6d73a7116a1995b7c3d1c71a4",
    "extra init  329d59dbc5cac7c5b2433456293b2fa357b9ca2d85491a71f759534bb6f7577e",
    "extra solve  c2e35779ced0a67200db8dc153400a4a230a9f0856c8a0c80d21f8e633fee45e",
    "extra phase  440e1f34997961f662adc019576fc00679adfb06bda2bd2c4b7fd84f3999f23d",
    "extra solve  624e2cb6797a5417778a7ec1a5ca11a4a0a6cb3470bbcf611a30af32f55cb95d",
    "extra solve  30f70868e7e9e224b24f2fb4c733ec1f06ac926bfbb1e09c8f8fada7748966a3",
    "extra phase  620612b3b3ab67581973d2a906de60b9e8007dc09636cacc42236320e190d7b9",
    "library prox_linear region  fb3d3ab8b305332a28bb26610aae881ed93001453c99ea0c7b7740d89fc184fc",
]


def test_seed_1_lines_are_pinned():
    assert list(lines(1)) == SEED_1
