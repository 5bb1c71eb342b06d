"""Byte-identity gate: `resdp verify all --json` at seeds 42, 1, 3 and 7, apart from its timestamp.

tests/data/verify_all_seed42.json holds the seed-42 report with the
timestamp line removed, and tests/data/verify_all_sha256.json the SHA-256
digests of the same text at seeds 1, 3 and 7.  A change that moves a report on
purpose rewrites the file and the digests with

    PYTHONPATH=src python tests/test_verify_all_gate.py

and lists the moved details in CHANGES.md.  Run it with --moves first: it
then prints every detail whose defect differs between the file and a fresh
run, and the largest move of each detail as a fraction of its tolerance.
--moves FILE diffs against FILE instead, such as a parent commit's
`verify all --seed N --json` output, and runs at the seed that FILE holds:

    PYTHONPATH=src python tests/test_verify_all_gate.py --moves parent7.json

The bits depend on the numpy SIMD loops of the machine that wrote the file
(x86-64 with AVX-512, numpy 2.4.6): batched complex products, powers and
reductions round differently where numpy dispatches to other vector
kernels, so on other hardware this test can fail while every report still
passes.
"""

import hashlib
import itertools
import json
import re
from pathlib import Path

import pytest

from resdp.cli import main

GOLDEN = Path(__file__).parent / "data" / "verify_all_seed42.json"
DIGESTS = Path(__file__).parent / "data" / "verify_all_sha256.json"
PINNED_SEEDS = (1, 3, 7)


def verify_all_json(path, seed=42):
    """The `verify all --seed <seed> --json` text at path, without the timestamp line."""
    assert main(["verify", "all", "--seed", str(seed), "--json", str(path)]) == 0
    text = Path(path).read_text()
    stripped, count = re.subn(r',\n  "timestamp": "[^"]*"\n}\n$', "\n}\n", text)
    assert count == 1
    return stripped


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def detail_moves(old, new):
    """(check, cell, detail, old defect, new defect, move / tolerance) of every moved detail.

    old and new are parsed `verify all --json` documents over the same reports
    and details in the same order; a ValueError says where they part.  A
    detail that only one document has at the end of a report is a move from
    or to None, with the fraction of its tolerance that it reads.
    """
    moves = []
    for r_old, r_new in zip(old["details"], new["details"], strict=True):
        cell = f"{r_old['n']}:{'-' if r_old['sign'] == 'minus' else ''}{r_old['m']}"
        for d_old, d_new in itertools.zip_longest(r_old["details"], r_new["details"]):
            keys = [None if d is None else (r["check"], r["n"], r["m"], r["sign"], d["name"])
                    for r, d in ((r_old, d_old), (r_new, d_new))]
            if None in keys:
                d = d_old or d_new
                moves.append((r_old["check"], cell, d["name"], d_old and d["defect"],
                              d_new and d["defect"], d["defect"] / d["tolerance"]))
            elif keys[0] != keys[1]:
                raise ValueError(f"documents part at {keys[0]} vs {keys[1]}")
            elif d_old["defect"] != d_new["defect"]:
                moves.append((r_old["check"], cell, d_old["name"], d_old["defect"],
                               d_new["defect"],
                               (d_new["defect"] - d_old["defect"]) / d_old["tolerance"]))
    return moves


def format_moves(moves):
    """One line per move, then the largest |move| of each (check, detail)."""
    def fmt(defect):
        return "None" if defect is None else f"{defect:.6e}"

    lines = [f"{check} {cell} {name}: {fmt(old)} -> {fmt(new)} ({frac:+.3e} of tol)"
             for check, cell, name, old, new, frac in moves]
    largest = {}
    for check, cell, name, old, new, frac in moves:
        if abs(frac) > abs(largest.get((check, name), (0.0,))[0]):
            largest[check, name] = (frac, cell, old, new)
    lines += [f"largest {check} {name}: {frac:+.3e} of tol at {cell} ({fmt(old)} -> {fmt(new)})"
              for (check, name), (frac, cell, old, new) in sorted(largest.items())]
    return "\n".join(lines)


def test_detail_moves_on_hand_written_documents():
    def doc(*defects):
        details = [{"name": name, "defect": d, "tolerance": 1e-12, "pass": True}
                   for name, d in zip(("roundtrip", "group_constraints"), defects)]
        return {"details": [{"check": "transitivity", "n": 2, "m": 1, "sign": "minus",
                             "details": details}]}

    assert detail_moves(doc(1e-15, 2e-15), doc(1e-15, 2e-15)) == []
    moves = detail_moves(doc(1e-15, 2e-15), doc(1e-15, 5e-15))
    assert len(moves) == 1
    check, cell, name, old, new, frac = moves[0]
    assert (check, cell, name, old, new) == ("transitivity", "2:-1", "group_constraints",
                                             2e-15, 5e-15)
    assert abs(frac - 3e-3) < 1e-15
    assert format_moves(moves).splitlines() == [
        "transitivity 2:-1 group_constraints: 2.000000e-15 -> 5.000000e-15 (+3.000e-03 of tol)",
        "largest transitivity group_constraints: +3.000e-03 of tol at 2:-1 "
        "(2.000000e-15 -> 5.000000e-15)",
    ]
    renamed = doc(1e-15, 2e-15)
    renamed["details"][0]["details"][0]["name"] = "other"
    with pytest.raises(ValueError, match="roundtrip"):
        detail_moves(doc(1e-15, 2e-15), renamed)
    added = detail_moves(doc(1e-15), doc(1e-15, 5e-15))
    assert added == [("transitivity", "2:-1", "group_constraints", None, 5e-15, 5e-3)]
    assert format_moves(added).splitlines()[0] == (
        "transitivity 2:-1 group_constraints: None -> 5.000000e-15 (+5.000e-03 of tol)")
    assert detail_moves(doc(1e-15, 5e-15), doc(1e-15)) == [
        ("transitivity", "2:-1", "group_constraints", 5e-15, None, 5e-3)]


def test_verify_all_seed_42_is_byte_identical(tmp_path, capsys):
    got = verify_all_json(tmp_path / "all.json")
    capsys.readouterr()
    if got.encode() != GOLDEN.read_bytes():
        moves = format_moves(detail_moves(json.loads(GOLDEN.read_text()), json.loads(got)))
        pytest.fail(f"verify all --seed 42 differs from {GOLDEN.name}:\n"
                    + (moves or "no defect moved; a pass flag, count or format differs"),
                    pytrace=False)


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_verify_all_digest_is_pinned(seed, tmp_path, capsys):
    got = sha256(verify_all_json(tmp_path / "all.json", seed))
    capsys.readouterr()
    if got != json.loads(DIGESTS.read_text())[str(seed)]:
        pytest.fail(f"verify all --seed {seed} differs from its digest in {DIGESTS.name}. "
                    f"To list the moved details, write the parent commit's report with "
                    f"`resdp verify all --seed {seed} --json parent{seed}.json` and run "
                    f"`PYTHONPATH=src python tests/test_verify_all_gate.py --moves "
                    f"parent{seed}.json` here.", pytrace=False)


def test_golden_reports_follow_the_pass_rule():
    # A report passes when every detail passes, and its max_defect is the
    # largest defect/tolerance of its details; the summary is the same over reports.
    doc = json.loads(GOLDEN.read_text())
    for report in doc["details"]:
        details = report["details"]
        assert all(d["pass"] == (d["defect"] <= d["tolerance"]) for d in details)
        assert report["pass"] == all(d["pass"] for d in details)
        assert report["max_defect"] == max(d["defect"] / d["tolerance"] for d in details)
    assert doc["pass"] == all(r["pass"] for r in doc["details"])
    assert doc["max_defect"] == max(r["max_defect"] for r in doc["details"])


if __name__ == "__main__":
    import argparse
    import contextlib
    import io
    import tempfile

    parser = argparse.ArgumentParser(description="Rewrite the seed-42 golden file and the "
                                                 "seed-1, seed-3 and seed-7 digests, or with "
                                                 "--moves print the details a fresh run moves.")
    parser.add_argument("--moves", nargs="?", const=GOLDEN, type=Path, metavar="FILE",
                        help="a `verify all --json` report to diff against, at its seed "
                             "(default tests/data/verify_all_seed42.json)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        def fresh(seed):
            with contextlib.redirect_stdout(io.StringIO()):
                return verify_all_json(Path(tmp) / "all.json", seed)

        if args.moves:
            old = json.loads(args.moves.read_text())
            print(format_moves(detail_moves(old, json.loads(fresh(old["seed"])))))
        else:
            GOLDEN.write_text(fresh(42), newline="\n")
            digests = {str(seed): sha256(fresh(seed)) for seed in PINNED_SEEDS}
            DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", newline="\n")
