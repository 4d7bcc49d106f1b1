"""Session automata over data words.

The package covers the symbolic-normal-form view of data languages: words
over an infinite value domain, their normal forms, automata reading them,
canonical forms, boolean and decision operations, and active learning of the
canonical automaton from queries.
"""

from .automata import (
    Automaton,
    AutomatonClass,
    Transition,
    accepts_symbolic,
    as_symbolic_nfa,
    classify,
    from_symbolic_dfa,
    is_data_deterministic,
    is_symbolically_deterministic,
    simulate,
    validate,
)
from .canonical import canonicalize, nf_automaton, tilde, wf_automaton
from .errors import (
    InvalidAutomaton,
    NoBreakpoint,
    NotClosed,
    NotSessionAutomaton,
    NotWellFormed,
    ParseError,
    QueryBudgetExceeded,
    SessautoError,
    TeacherInconsistent,
    UnknownLabel,
    UnsupportedOp,
    ValueAbsent,
)
from .formats import (
    dot_export,
    format_data_word,
    format_symbolic_word,
    parse_automaton,
    parse_data_word,
    parse_symbolic_word,
    parse_word,
    serialize_automaton,
)
from .langops import (
    complement_bounded,
    equivalent,
    includes,
    intersect,
    is_empty,
    is_universal_bounded,
    union,
)
from .learner import (
    Learner,
    MembershipOracle,
    ObservationTable,
    Teacher,
    TraceEvent,
    learn,
    nf_violation_witness,
    process_counterexample,
    reference_teacher,
    scripted_teacher,
)
from .symbolic import (
    SymbolicDfa,
    SymbolicNfa,
    complement,
    determinize,
    isomorphic,
    minimize,
    product,
    renumber,
    shortest_accepted,
    symbolic_equivalence,
    symbolic_inclusion,
)
from .words import (
    DataWord,
    OpKind,
    RegisterOp,
    SymbolicWord,
    TransitionLabel,
    bound,
    concretize,
    data_equivalent,
    is_concretization,
    is_k_bounded,
    letter_key,
    max_register,
    occurrence_bounds,
    sessions,
    snf,
    symbolic_alphabet,
    word_key,
)

__version__ = "0.1.0"
