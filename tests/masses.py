"""Conversion between the package's integer normal forms and their
``Fraction`` forms, for tests that build or inspect normal forms literally.

The package stores a ``ca`` subdistribution, a ``cs`` point and a ``cm``
multiset as ``(D, frozenset((g, n)))``: positive integer counts n over one
denominator D, in lowest terms (D = 1 for ``cm``).  Its ``Fraction`` form is
the frozenset of (generator, mass n / D) pairs; a ``cm`` multiset's is the
frozenset of (generator, count) pairs, and a ``cs`` set's the frozenset of
its points' forms.  ``sl`` and ``gs`` normal forms are the same in both.
"""

import math
from fractions import Fraction


def fraction_point(u):
    """The point ``(D, counts)`` as a frozenset of (generator, mass)."""
    d, pairs = u
    return frozenset((g, Fraction(n, d)) for g, n in pairs)


def count_point(sub):
    """The (generator, mass) pairs ``sub`` as the package's point.  The
    least common denominator of the masses leaves the counts in lowest
    terms: a prime power that divides it fully divides one denominator,
    and that mass's numerator is prime to it."""
    d = math.lcm(*[Fraction(m).denominator for _, m in sub])
    return d, frozenset((g, int(m * d)) for g, m in sub)


def is_lowest(u):
    """Whether the point ``u`` keeps the invariant: counts positive and
    totalling at most the denominator (``cm`` aside), and no common factor."""
    d, pairs = u
    counts = [n for _, n in pairs]
    return (type(d) is int and d >= 1 and all(type(n) is int and n > 0 for n in counts)
            and len(counts) == len({g for g, _ in pairs}) and math.gcd(d, *counts) == 1)


def fraction_form(th, nf):
    """The ``Fraction`` form of the normal form ``nf`` of theory ``th``."""
    if th.id == "ca":
        return fraction_point(nf)
    if th.id == "cs":
        return frozenset(map(fraction_point, nf))
    if th.id == "cm":
        d, pairs = nf
        assert d == 1, nf
        return pairs
    return nf


def count_form(th, nf):
    """The package's normal form of theory ``th`` for the ``Fraction`` form
    ``nf``."""
    if th.id == "ca":
        return count_point(nf)
    if th.id == "cs":
        return frozenset(map(count_point, nf))
    if th.id == "cm":
        return 1, frozenset(nf)
    return nf
