"""shufflelab: perfect shuffles as exact permutation-group computations.

Five shuffle families (faro, flip, horseshoe, milk, Monge) modeled as
oriented permutations, stabilizer-chain group orders with closed-form
verification, breadth-first shortest shuffle sequences, and the
special-ordering oracle for power-of-two decks.
"""

from .deck import (
    MAX_DECK_SIZE,
    Card,
    Deck,
    NotStayStackError,
    OrientedPermutation,
    Permutation,
    ShuffleLabError,
    apply_oriented,
    contract_staystack,
    expand_staystack,
    is_staystack,
)
from .elmsley import (
    PositionGraph,
    SolutionSet,
    UnreachableError,
    second_position_cycle,
    shortest_words,
)
from .groups import (
    CapExceededError,
    GroupOrderReport,
    NoClosedFormError,
    StabilizerChain,
    brute_force_order,
    closed_form_order,
    family_generators,
    group_order,
    permutation_parity,
    schreier_sims,
    tuple_transitivity_order,
    verify_theorem,
)
from .shuffles import (
    Family,
    Shuffle,
    Step,
    Word,
    apply_word,
    element,
    element_order,
    format_word,
    horseshoe_position_step,
    inout_text,
    parse_word,
    route_top_to,
    word_element,
)
from .special import (
    ClosureViolationError,
    DiagramOp,
    InvalidEndsError,
    SpecialOrdering,
    TrickTranscript,
    predict_from_ends,
    trick_session,
)
from . import special

__all__ = [
    "MAX_DECK_SIZE",
    "Card",
    "Deck",
    "Permutation",
    "OrientedPermutation",
    "apply_oriented",
    "expand_staystack",
    "contract_staystack",
    "ShuffleLabError",
    "NotStayStackError",
    "Shuffle",
    "Step",
    "Word",
    "Family",
    "element",
    "word_element",
    "apply_word",
    "element_order",
    "route_top_to",
    "horseshoe_position_step",
    "is_staystack",
    "parse_word",
    "format_word",
    "inout_text",
    "StabilizerChain",
    "schreier_sims",
    "group_order",
    "closed_form_order",
    "verify_theorem",
    "GroupOrderReport",
    "brute_force_order",
    "tuple_transitivity_order",
    "permutation_parity",
    "family_generators",
    "CapExceededError",
    "NoClosedFormError",
    "PositionGraph",
    "SolutionSet",
    "shortest_words",
    "second_position_cycle",
    "UnreachableError",
    "DiagramOp",
    "SpecialOrdering",
    "TrickTranscript",
    "predict_from_ends",
    "trick_session",
    "InvalidEndsError",
    "ClosureViolationError",
    "special",
]

__version__ = "0.1.0"
