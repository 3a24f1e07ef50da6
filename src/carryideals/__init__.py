"""Carry patterns and invariant monomial ideals in positive characteristic.

The package computes with the combinatorics controlling ideals of
k[x_1..x_n] that are preserved by every linear change of coordinates when
char k = p > 0: carry patterns of monomials and their lattices, carry ideals
and decompositions of invariant ideals, growth under multiplication by linear
forms, closed-form generators, Betti numbers and Grothendieck classes of the
Tor spaces in two variables, and homological invariants over F_p for any n.
Every text format (patterns, ideal files, labels) lives in the command-line
interface, carryideals.cli; the only text an algebra object writes is
BettiTable's grid and JSON.
"""

from .basep import (
    InvalidCharacteristic,
    binomial_mod_p,
    expand,
    full_run,
    multinomial_mod_p,
    value_of,
)
from .betti import BettiTable
from .carry import (
    Context,
    carry_pattern,
    enumerate_patterns,
    is_valid_pattern,
    join,
    leq,
    max_pattern,
    maximal_elements,
    meet,
    min_pattern,
    monomials_with_carry_leq,
)
from .ideals import (
    MonomialIdeal,
    NotInvariantError,
    carry_ideal,
    decompose,
    frobenius_label,
    frobenius_power,
    ideal_from_labels,
    invariance_witness,
    is_invariant,
    power,
    product,
)
from .gl2 import tor_class
from .koszul import (
    koszul_betti,
    multigraded_betti,
    projective_dimension,
    quotient_basis,
    regularity,
)
from .multmap import carry_after_multiply, contains, first_slack_column, successor
from .twovars import (
    betti_formula,
    hilbert_burch,
    is_simple_degree,
    pure_power_certificate,
    regularity_formula,
    segmentation,
)

__version__ = "0.1.0"
