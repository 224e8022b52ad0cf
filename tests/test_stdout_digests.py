"""Pinned SHA-256 digests of CLI standard output.

A refactor of the assembler, the rank engine or the kernel bases must
leave what the commands print byte for byte as it was.  Each digest
below was taken from the command's stdout before such a refactor; a
deliberate output change updates the digest and says why.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from colorfil import build_model
from colorfil.cli import main

DIGESTS = [
    ("verify --n 1..8 --m 0..6 --p 0..6 --format csv --jobs 1",
     "11413853b43b27cb38608be01020e0e2ab7c9ee46e6f842be6a86e67fdc26d43"),
    ("cocycles --n 8 --m 6 --p 6 --block A",
     "f4f49d325ad2a79b3783d42c4ed5b04601940fa960c4ba286430c16dcd1a87df"),
    ("cocycles --n 8 --m 6 --p 6 --block B",
     "819f4ca9cef01b708c2970c95571065a7f17b07c98e4618267bcffa2e9619469"),
    ("cocycles --n 8 --m 6 --p 6 --block C",
     "09a299d46d448b992c05a1918bc90331646fd0d84fe7d28d3f49abf727320ddb"),
    ("cocycles --n 8 --m 6 --p 6 --block D",
     "b063e72afb30a5a42c967a73176600ac8553aa7d0678af9d9ad795016d3e60c2"),
    ("cocycles --n 8 --m 6 --p 6 --block E",
     "7c7f9d6461c35ac684f7785288aca4dbc41b74d458cda26c7cc88757c61aceb0"),
    ("cocycles --n 8 --m 6 --p 6 --block F",
     "4ddb0ef2337bbfe61cb7d156c8e850b17e9d57b22d89a6f0a142041cb55c4e38"),
    ("cocycles --n 2 --m 1 --p 1 --block A --allow-x0-target",
     "dbfec7592c70c1f73e4291590a251b841191347f524734449aaafea4447ecf6f"),
    ("cocycles --n 1 --m 2 --p 2 --block E --allow-x0-target",
     "deedb41f267226a4fa89711a6f3b6908c2d0e136b702d291601fa90b3a046ac0"),
    ("cocycles --n 1 --m 1 --p 1 --block D",
     "5d2f09df13396ed49d7fa66baca58d1b96a869325b23f556539489ce5a73afa6"),
    ("dims --n 9 --m 7 --p 5 --method brute --method closed --method weights",
     "f3e3b6db323bb6edcf237633181c5df44cd3aea86198b67c0efb161fad31e2c6"),
]


@pytest.mark.parametrize("command, digest", DIGESTS, ids=[c for c, _ in DIGESTS])
def test_stdout_is_byte_identical(capsys, command, digest):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# deform writes the deformed law's constants in the order the algebra
# yields them; the inputs are the model and one block-D vector of its
# export, scaled by `scale` and written as a "terms" document
DEFORM_DIGESTS = [
    ((3, 2, 2), 1, "d4c4472d9a7396e3baae6a5fa5ca5b0c35e378da6e015e0706c072d9c86d24f6"),
    ((8, 6, 6), Fraction(1, 3), "1499b3c3da49c371c15969c4dbdf49f8280a74db99fae8667916b67d6d59921a"),
]


@pytest.mark.parametrize("point, scale, digest", DEFORM_DIGESTS,
                         ids=[f"deform {p} scale {s}" for p, s, _ in DEFORM_DIGESTS])
def test_deform_stdout_is_byte_identical(capsys, tmp_path, point, scale, digest):
    n, m, p = point
    algebra, export = tmp_path / "algebra.json", tmp_path / "d.json"
    algebra.write_text(json.dumps(build_model(n, m, p).to_json_dict()))
    assert main(["cocycles", "--n", str(n), "--m", str(m), "--p", str(p), "--block", "D",
                 "--out", str(export)]) == 0
    vector = json.loads(export.read_text())["basis"][0]
    terms = [{"block": "D", **term, "coeff": str(Fraction(term["coeff"]) * scale)}
             for term in vector]
    cocycle = tmp_path / "phi.json"
    cocycle.write_text(json.dumps({"n": n, "m": m, "p": p, "terms": terms}))
    capsys.readouterr()
    code = main(["deform", "--algebra", str(algebra), "--cocycle", str(cocycle)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
