"""Symbolic proofs behind the closed-form integrability and jacobi certificates.

The library itself never imports sympy or mpmath; only these tests do.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import resdp
from resdp import casimir
from resdp.resonance_maps import Resonance

sp = pytest.importorskip("sympy")


def test_helicity_vanishes_for_any_casimir_of_rho2_and_z():
    # v = mn (2x, 2y, -K_z(C, z)) with K and C arbitrary: C depends on (x, y)
    # only through x^2 + y^2, and v . curl v simplifies to 0.
    x, y, z, c, mn = sp.symbols("x y z c mn")
    cas = sp.Function("C")(x ** 2 + y ** 2, z)
    k_z = sp.diff(sp.Function("K")(c, z), z).subs(c, cas)
    v = [mn * 2 * x, mn * 2 * y, -mn * k_z]
    curl = [sp.diff(v[2], y) - sp.diff(v[1], z), sp.diff(v[0], z) - sp.diff(v[2], x),
            sp.diff(v[1], x) - sp.diff(v[0], y)]
    assert sp.simplify(sum(a * b for a, b in zip(v, curl))) == 0


@pytest.mark.parametrize("res", [Resonance(n, m, sign) for sign in ("plus", "minus")
                                 for n in (1, 2, 3, 4) for m in (1, 2, 3, 4)], ids=str)
def test_second_derivatives_of_the_kummer_product(res):
    # kummer_second_derivatives against the exact derivatives of the
    # product, at rational (c, z) in the family's range.
    c, z = sp.symbols("c z")
    fb = c - z if res.sign == "plus" else z - c
    kummer = ((c + z) / res.n) ** res.m * (fb / res.m) ** res.n
    exact = (sp.diff(kummer, z, 2), sp.diff(kummer, z, c))
    points = [(Fraction(3, 2), Fraction(1, 3)), (Fraction(2), Fraction(-7, 5))] \
        if res.sign == "plus" else [(Fraction(1, 2), Fraction(5, 4)), (Fraction(3, 2), Fraction(4))]
    for cv, zv in points:
        subs = {c: sp.Rational(cv.numerator, cv.denominator),
                z: sp.Rational(zv.numerator, zv.denominator)}
        k = float(kummer.subs(subs))
        got = casimir.kummer_second_derivatives(res, k, float(cv), float(zv))
        for g, e in zip(got, exact):
            want = float(e.subs(subs))
            assert abs(g - want) <= 1e-13 * (1.0 + abs(want)), (cv, zv, g, want)


def test_resdp_imports_neither_sympy_nor_mpmath():
    code = ("import pkgutil, sys, resdp\n"
            "for mod in pkgutil.iter_modules(resdp.__path__):\n"
            "    __import__('resdp.' + mod.name)\n"
            "print(sorted(name for name in ('sympy', 'mpmath') if name in sys.modules))\n")
    src = str(Path(resdp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
