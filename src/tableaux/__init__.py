"""Two orders on standard Young tableaux and the machinery beneath them.

The package compares tableaux in the order induced from the weak right
order on permutation words through RS cells ("duflo") and in the chain
order built from dominance of jeu-de-taquin projections ("chain"), and
provides the fast canonical-word route that decides both at once on
tableaux with at most two columns or two rows.  Shapes use the column
convention throughout: a shape lists column lengths.
"""

from .errors import (
    InvalidTableauError,
    InvalidWordError,
    LimitError,
    TableauxError,
)
from .orders import (
    TableauPoset,
    Verdict,
    chain_leq,
    chain_poset,
    chain_profile,
    compare,
    duflo_poset,
    hasse_reduce,
    poset_to_dot,
    poset_to_json,
)
from .rsjdt import (
    cell,
    delete_corner,
    insert,
    insert_into_column,
    jdt_remove,
    project_tableau,
    push_left_column,
    rs_steps,
    rs_tableau,
)
from .tableau import (
    Corner,
    Tableau,
    conjugate,
    corners,
    dominance_leq,
    enumerate_tableaux,
    make_tableau,
    relabel_tableau,
    row_text,
    tau_tableau,
)
from .textio import format_tableau, format_word, parse_tableau, parse_word
from .twocol import (
    CanonicalWord,
    DeletionTrace,
    canonical_word,
    cover,
    fast_leq,
    move_to_first_column,
    runs,
    two_row_canonical_word,
    two_row_leq,
)
from .verify import VerifyReport, run_suite
from .words import (
    InversionSet,
    Word,
    colligate,
    enumerate_words,
    inversion_set,
    project_word,
    relabel_word,
    remove_value,
    reverse,
    tau_word,
    weak_leq,
)

__version__ = "0.1.0"
