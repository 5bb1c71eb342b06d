"""Byte-identity gate: `resdp verify all --seed 42 --json`, apart from its timestamp.

tests/data/verify_all_seed42.json holds that report with the timestamp line
removed.  A change that moves a report on purpose rewrites the file with

    PYTHONPATH=src python tests/test_verify_all_gate.py

and lists the moved details in CHANGES.md.  The bits depend on the numpy
SIMD loops of the machine that wrote the file (x86-64 with AVX-512, numpy
2.4.6): batched complex products, powers and reductions round differently
where numpy dispatches to other vector kernels, so on other hardware this
test can fail while every report still passes.
"""

import re
from pathlib import Path

from resdp.cli import main

GOLDEN = Path(__file__).parent / "data" / "verify_all_seed42.json"


def verify_all_json(path):
    """The seed-42 `verify all --json` text at path, without the timestamp line."""
    assert main(["verify", "all", "--seed", "42", "--json", str(path)]) == 0
    text = Path(path).read_text()
    stripped, count = re.subn(r',\n  "timestamp": "[^"]*"\n}\n$', "\n}\n", text)
    assert count == 1
    return stripped


def test_verify_all_seed_42_is_byte_identical(tmp_path, capsys):
    got = verify_all_json(tmp_path / "all.json")
    capsys.readouterr()
    assert got.encode() == GOLDEN.read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(verify_all_json(Path(tmp) / "all.json"), newline="\n")
