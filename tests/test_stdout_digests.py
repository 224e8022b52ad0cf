"""Pinned SHA-256 digests of CLI standard output.

A refactor of the assembler, the rank engine or the kernel bases must
leave what the commands print byte for byte as it was.  Each digest
below was taken from the command's stdout before such a refactor; a
deliberate output change updates the digest and says why.
"""

import hashlib

import pytest

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
    ("dims --n 9 --m 7 --p 5 --method brute --method closed --method weights",
     "f3e3b6db323bb6edcf237633181c5df44cd3aea86198b67c0efb161fad31e2c6"),
]


@pytest.mark.parametrize("command, digest", DIGESTS, ids=[c for c, _ in DIGESTS])
def test_stdout_is_byte_identical(capsys, command, digest):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
