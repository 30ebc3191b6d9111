"""Exact references for the tests, in ``fractions.Fraction``.

A float enters exactly, every step is exact, and a result is rounded once.

The 2-component spinors of G3 and G1,2 share one Hermitian form,
h(psi, chi) = a0* b0 + eta a1* b1, with eta = +1 in G3 (Pauli3) and -1 in
G1,2 (Minkowski12).  Every fidelity of :mod:`gaspin.spinors` is
F = |h(psi, chi)|^2 / (h(psi, psi) h(chi, chi)), so one form checks the
bracket, the sandwich and the closed-form routes alike.
"""
from fractions import Fraction

from gaspin.isomap import AlgebraTag

ETA = {AlgebraTag.PAULI3: 1, AlgebraTag.MINKOWSKI12: -1}

#: The chart convention, written out here rather than read from the library:
#: a1/a0 = a + i s b at the chart point (a, b), the chart vector being
#: a e1 + b e2 in G3 (s = +1) and a g1 - b g2 in G1,2 (s = -1).
CHART_SIGN = {AlgebraTag.PAULI3: 1, AlgebraTag.MINKOWSKI12: -1}


def chart_state(tag, chart):
    """(a0, a1) of the unit-leading spinor at the chart point (a, b): a0 = 1 and
    a1 = a + i s b, with s the tag's ratio-to-chart sign; each component an
    exact (re, im) pair."""
    a, b = (Fraction(float(c)) for c in chart)
    return (Fraction(1), Fraction(0)), (a, CHART_SIGN[tag] * b)


def hermitian(eta, psi, chi):
    """h(psi, chi) = a0* b0 + eta a1* b1 as an exact (re, im) pair."""
    re = im = Fraction(0)
    for (xr, xi), (yr, yi), w in zip(psi, chi, (1, eta)):
        re += w * (xr * yr + xi * yi)
        im += w * (xr * yi - xi * yr)
    return re, im


def fidelity(tag, chart_a, chart_b):
    """F = |h(psi, chi)|^2 / (h(psi, psi) h(chi, chi)) of the chart states,
    rounded once."""
    psi, chi = chart_state(tag, chart_a), chart_state(tag, chart_b)
    eta = ETA[tag]
    re, im = hermitian(eta, psi, chi)
    return float((re * re + im * im) / (hermitian(eta, psi, psi)[0] * hermitian(eta, chi, chi)[0]))


def cone_gap(chart):
    """1 - a^2 - b^2 of the chart point, exact: how far it lies inside the
    unit disk of the hyperboloid chart."""
    a, b = (Fraction(float(c)) for c in chart)
    return 1 - a * a - b * b
