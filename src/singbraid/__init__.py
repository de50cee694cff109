"""
singbraid: exact word-problem decisions for the 3-strand singular braid
group SG_3 and its pure subgroup SP_3.

The pipeline: parse words over the crossings s1, s2 and singular crossings
t1, t2 (``words``), refute a word whose crossing or singular exponent sum
is nonzero (``normal_form``; each defining relation balances both sums),
project to the symmetric group (``permutations``), rewrite kernel words
over the Schreier generators in one walk of the coset table, which holds
the Schreier transversal, the moves and the generators with their ambient
words, built once per strand count (``rewriting``), express each factor by
its row in the six-generator presentation of SP_3 (``sp3``), and decide
triviality and equality in SP_3 (``normal_form``): a nonzero sum of the
exponents of one of the six generators refutes a word at once, and any
other word goes through the center splitting and Britton reduction.
``verify`` checks the presentation data against those decisions.
Cheap matrix-quotient invariants cross-check the engine (``oracles``).
"""

from .normal_form import (
    CenterSplitForm,
    FactorSyllable,
    HNNForm,
    britton_reduce,
    center_split,
    cyclic_power_of_c,
    eliminate_a12,
    equal_sp3,
    is_trivial_sg3,
    is_trivial_sp3,
)
from .oracles import b3_is_trivial, quotient_to_b3, sg3_necessary_trivial
from .permutations import Permutation, pi
from .rewriting import (
    CosetTable,
    SchreierGenerator,
    SchreierWord,
    coset_table,
    rewrite_tau,
)
from .sp3 import (
    SP2Form,
    SPLetter,
    SPWord,
    conjugate_by_sg3_generator,
    parse_sp_word,
    presentation_relators,
    rewrite_to_sp3,
    sp2_normal_form,
    sp3_to_sg3,
)
from .verify import verify_presentation
from .words import (
    BraidWord,
    Letter,
    concat,
    conjugate,
    exponent_sums,
    parse_braid_word,
    sg3_relators,
)

__all__ = [
    "BraidWord",
    "CenterSplitForm",
    "CosetTable",
    "FactorSyllable",
    "HNNForm",
    "Letter",
    "Permutation",
    "SP2Form",
    "SPLetter",
    "SPWord",
    "SchreierGenerator",
    "SchreierWord",
    "b3_is_trivial",
    "britton_reduce",
    "center_split",
    "concat",
    "conjugate",
    "conjugate_by_sg3_generator",
    "coset_table",
    "cyclic_power_of_c",
    "eliminate_a12",
    "equal_sp3",
    "exponent_sums",
    "is_trivial_sg3",
    "is_trivial_sp3",
    "parse_braid_word",
    "parse_sp_word",
    "pi",
    "presentation_relators",
    "quotient_to_b3",
    "rewrite_tau",
    "rewrite_to_sp3",
    "sg3_necessary_trivial",
    "sg3_relators",
    "sp2_normal_form",
    "sp3_to_sg3",
    "verify_presentation",
]
