"""Derive the T4 class equations and their elimination with sympy, and check
the formulas in src/rohull/t4.py against the derivation.

    python tools/derive_t4.py          # print the derived formulas
    python tools/derive_t4.py --check  # exit 1 when t4.py differs

Take four matrices in a fixed order, X_k = Q_k + mu_k C_k with Q_0 = P,
Q_{k+1} = Q_k + C_k, sum C = 0 and every C_k rank-one, mu = (a, b, c, d) and
A_jk = det(X_j - X_k).  The script derives, in order:

1. A_jk as functions of mu and the two free polarized dets s and u;
2. the four class equations, by eliminating s and u (t4._equations);
3. the two quadratics in c left by substituting a (from equation 3) and d
   (from equation 1) into equations 2 and 4 (t4._c_quadratics);
4. their resultant in c, b^2 q1(b) q2(b) times a monomial in A
   (t4._b_quadratics).

t4.py may write a formula differently; the check compares polynomials, up to
a factor that is a nonzero number or a monomial in the A_jk, which no root
depends on since every A_jk is nonzero.  t4.py evaluates its formulas on
ints, in homogeneous form: each mu_k is a pair (m_k, n_k), mu_k = m_k / n_k,
and b = p / q in the quadratics in c.  The check substitutes these, requires
each coefficient to be a polynomial in the A_jk and the pairs, and compares
it with the derived one once the powers of n_k and q that clear it are
divided out.  Needs sympy (1.14 was used); the library does not import it.
"""
from __future__ import annotations

import argparse
import itertools
import pathlib
import sys

import sympy as sp

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
from rohull import t4  # noqa: E402

A = sp.symbols("a01 a02 a03 a12 a13 a23")
MU = a, b, c, d = sp.symbols("a b c d")
s, u = sp.symbols("s u")
PAIRS = list(itertools.combinations(range(4), 2))


def parametrized_dets() -> dict:
    """A_jk in terms of mu, s and u.

    X_j - X_k = sum_i alpha_i C_i, and det(sum alpha_i C_i) is
    sum_{i<l} alpha_i alpha_l beta_il with beta_il = det(C_i + C_l), because
    every det C_i is 0.  beta is the polarization of det on the C's, so
    sum C = 0 makes its rows sum to 0: two values remain free.
    """
    beta = {pair: sp.Symbol(f"beta{pair[0]}{pair[1]}") for pair in PAIRS}
    rows = [sum(v for pair, v in beta.items() if i in pair) for i in range(4)]
    free = {beta[0, 1]: s, beta[1, 2]: u}
    fixed = sp.solve(rows, [v for v in beta.values() if v not in free])
    beta = {pair: fixed.get(v, v).subs(free) for pair, v in beta.items()}
    assert beta[2, 3] == s and beta[0, 3] == u
    assert beta[0, 2] == beta[1, 3] == -s - u

    def coefficients(k):  # X_k - P = C_0 + ... + C_{k-1} + mu_k C_k
        return [1 if i < k else MU[k] if i == k else 0 for i in range(4)]

    dets = {}
    for j, k in PAIRS:
        alpha = [p - q for p, q in zip(coefficients(j), coefficients(k))]
        dets[j, k] = sp.factor(sum(alpha[i] * alpha[l] * beta[i, l]
                                   for i, l in PAIRS))
    return dets


def class_equations(dets: dict) -> list:
    """Eliminate s (from A01) and u (from A12) from the other four A_jk."""
    sym = dict(zip(PAIRS, A))
    subs = {s: sp.solve(dets[0, 1] - sym[0, 1], s)[0],
            u: sp.solve(dets[1, 2] - sym[1, 2], u)[0]}
    out = []
    for pair in ((2, 3), (0, 3), (0, 2), (1, 3)):
        num, _ = sp.fraction(sp.cancel(sym[pair] - dets[pair].subs(subs)))
        out.append(sp.expand(num))
    return out


def c_quadratics(eqs: list) -> list:
    """The factor of degree 2 in c of equations 2 and 4, with a from
    equation 3 and d from equation 1.  The other factors are monomials in
    the A_jk, powers of b, b - 1 and a multiple of a - 1, none of them 0
    when every mu_k > 1 and every A_jk is nonzero."""
    a_of = sp.solve(eqs[2], a)[0]
    d_of = sp.solve(eqs[0], d)[0].subs(a, a_of)
    a_minus_1 = sp.cancel(a_of - 1)
    out = []
    for eq in (eqs[1], eqs[3]):
        num, _ = sp.fraction(sp.cancel(eq.subs({a: a_of, d: d_of})))
        const, factors = sp.factor_list(num)
        quad = [f for f, _ in factors if sp.degree(f, c) == 2]
        assert len(quad) == 1, factors
        for f, _ in factors:
            if f is quad[0]:
                continue
            ratio = sp.cancel(f / sp.fraction(a_minus_1)[0])
            assert is_monomial(f, A + (b,)) or f in (b - 1, 1 - b) or \
                is_monomial(ratio, A + (b,)), f
        out.append(quad[0])
    return out


def is_monomial(expr, gens) -> bool:
    """Whether expr is a nonzero number times a product of powers of gens,
    negative powers allowed."""
    num, den = sp.fraction(sp.cancel(expr))
    return all(part != 0 and sp.Poly(part, *gens).is_monomial
               for part in (num, den))


def poly(coefficients, var):
    return sum(co * var ** (len(coefficients) - 1 - i)
               for i, co in enumerate(coefficients))


def polynomial(name: str, code, gens) -> bool:
    """Report whether t4.py's formula is a polynomial in gens: no division,
    so ints stay ints."""
    ok = sp.expand(code).is_polynomial(*gens)
    print(f"{'ok' if ok else 'NOT A POLYNOMIAL'}: {name}, a polynomial")
    return ok


def agree(name: str, derived, code, gens) -> bool:
    """Report whether the derived polynomial and t4.py's agree up to a
    monomial factor."""
    ok = sp.expand(code) != 0 and is_monomial(derived / code, gens)
    print(f"{'ok' if ok else 'DIFFERS'}: {name}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with src/rohull/t4.py; exit 1 if any "
                             "formula differs")
    args = parser.parse_args(argv)

    dets = parametrized_dets()
    eqs = class_equations(dets)
    f, g = c_quadratics(eqs)
    resultant = sp.factor(sp.resultant(f, g, c))
    _, factors = sp.factor_list(resultant)
    quads = [fac for fac, _ in factors if sp.degree(fac, b) == 2]
    # q2 is the one free of A13
    q2, q1 = sorted(quads, key=lambda q: q.has(A[4]))

    if not args.check:
        print("# A_jk = det(X_j - X_k), s and u the free polarized dets")
        for (j, k), v in dets.items():
            print(f"a{j}{k} = {v}")
        print("\n# the class equations, mu = (a, b, c, d)")
        for i, eq in enumerate(eqs, 1):
            print(f"eq{i} = {sp.factor(eq)}")
        print("\n# equations 2 and 4 as quadratics in c: (c^2, c, 1)")
        for name, quad in (("f", f), ("g", g)):
            cs = sp.Poly(quad, c).all_coeffs()
            print(f"{name} = ({', '.join(str(sp.factor(x)) for x in cs)})")
        print(f"\n# their resultant in c\nres = {resultant}")
        print("\n# q2 and q1: (b^2, b, 1)")
        for name, quad in (("q2", q2), ("q1", q1)):
            cs = sp.Poly(quad, b).all_coeffs()
            print(f"{name} = ({', '.join(str(sp.factor(x)) for x in cs)})")
        return 0

    gens = A + MU
    # mu_k = m_k / n_k
    pairs = [sp.symbols(f"m{k} n{k}") for k in range(4)]
    at_pairs = {v: m / n for v, (m, n) in zip(MU, pairs)}
    pair_gens = A + tuple(v for pair in pairs for v in pair)
    code_eqs = t4._equations(A, pairs)
    ok = all([polynomial(f"equation {i}", code, pair_gens)
              & agree(f"equation {i}", eq.subs(at_pairs), code, pair_gens)
              for i, (eq, code) in enumerate(zip(eqs, code_eqs), 1)])
    # b = p / q; the coefficients of each quadratic in c are cleared of q
    # by these powers
    p, q = sp.symbols("p q")
    for name, derived, code, powers in zip(
            ("equation 2", "equation 4"), (f, g), t4._c_quadratics(*A, p, q),
            ((1, 2, 3), (0, 0, 2))):
        name = f"quadratic in c from {name}"
        ok &= polynomial(name, poly(code, c), A + (p, q))
        ok &= agree(name, derived.subs(b, p / q),
                    poly([co / q ** k for co, k in zip(code, powers)], c),
                    A + (p, q))
    code_f, code_g = (poly(co, c) for co in t4._c_quadratics(*A, b, 1))
    code_q2, code_q1 = (poly(co, b) for co in t4._b_quadratics(*A))
    ok &= agree("q2", q2, code_q2, gens)
    ok &= agree("q1", q1, code_q1, gens)
    ok &= agree("resultant = b^2 q1 q2",
                sp.resultant(code_f, code_g, c), b ** 2 * code_q1 * code_q2,
                gens)
    # a vanishing resultant is necessary for a common root only while a
    # leading coefficient stays nonzero
    ok &= agree("leading coefficient of the quadratic from equation 4",
                sp.Poly(code_g, c).LC(), A[0] * A[4], gens)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
