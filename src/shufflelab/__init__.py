"""shufflelab: perfect shuffles as exact permutation-group computations.

Five shuffle families (faro, flip, horseshoe, milk, Monge) modeled as
oriented permutations, stabilizer-chain group orders with closed-form
verification, breadth-first shortest shuffle sequences, and the
special-ordering oracle for power-of-two decks.

The public names and the submodules load on first use (PEP 562), so
``import shufflelab`` imports none of the submodules, and a command
line run imports only the modules its command needs.
"""

from importlib import import_module

#: The submodule each public name lives in.
_HOMES = {
    "MAX_DECK_SIZE": "deck",
    "Card": "deck",
    "Deck": "deck",
    "Permutation": "deck",
    "OrientedPermutation": "deck",
    "apply_oriented": "deck",
    "expand_staystack": "deck",
    "contract_staystack": "deck",
    "ShuffleLabError": "deck",
    "NotStayStackError": "deck",
    "Shuffle": "shuffles",
    "Step": "shuffles",
    "Word": "shuffles",
    "Family": "shuffles",
    "element": "shuffles",
    "word_element": "shuffles",
    "apply_word": "shuffles",
    "element_order": "shuffles",
    "route_top_to": "shuffles",
    "horseshoe_position_step": "shuffles",
    "is_staystack": "deck",
    "parse_word": "shuffles",
    "format_word": "shuffles",
    "inout_text": "shuffles",
    "StabilizerChain": "groups",
    "schreier_sims": "groups",
    "group_order": "groups",
    "closed_form_order": "groups",
    "verify_theorem": "groups",
    "GroupOrderReport": "groups",
    "brute_force_order": "groups",
    "tuple_transitivity_order": "groups",
    "permutation_parity": "groups",
    "family_generators": "groups",
    "CapExceededError": "groups",
    "NoClosedFormError": "groups",
    "PositionGraph": "elmsley",
    "SolutionSet": "elmsley",
    "shortest_words": "elmsley",
    "second_position_cycle": "elmsley",
    "UnreachableError": "elmsley",
    "DiagramOp": "special",
    "SpecialOrdering": "special",
    "TrickTranscript": "special",
    "predict_from_ends": "special",
    "trick_session": "special",
    "InvalidEndsError": "special",
    "ClosureViolationError": "special",
}
_SUBMODULES = ("cli", "deck", "elmsley", "groups", "shuffles", "special")

__all__ = [*_HOMES, "special"]

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *_SUBMODULES})
