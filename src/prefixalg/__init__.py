"""prefixalg: exact algebra of prefix-rewriting partial isometries.

Projections of cylinder sets, the partial isometries that rewrite one finite
prefix into another, their exact polynomial algebra, an avoidance-scheduling
registry of linking generators, and machine-checkable witnesses for ideal
intersection and state vanishing.
"""

from .cylinders import (
    Label,
    SequenceDesc,
    Tup,
    extends,
    format_seqdesc,
    format_tuple,
    member,
    parse_seqdesc_text,
    parse_tuple_text,
)
from .monomials import (
    V,
    ZERO,
    Monomial,
    act,
    act_word,
    adjoint,
    format_monomial,
    is_projection,
    multiply,
    normal_form,
    projection,
)
from .polynomials import (
    DiagonalState,
    FragmentIndex,
    FragmentMatrix,
    Polynomial,
    Scalar,
    format_state,
    fragment_index,
    parse_state_text,
)
from .registry import (
    GeneratorRecord,
    ProtectionRecord,
    Registry,
    RegistryError,
    audit_records,
)
from .expr import eval_expr, expr_to_word, poly_text, print_expr
from .parser import ParseError, parse_expr, parse_word
from .session import Session
from .witnesses import (
    HorizonError,
    IdealWitness,
    PrimenessCertificate,
    SoundnessError,
    TraceStep,
    VanishingTrace,
    VerifyReport,
    WitnessError,
    ZeroReport,
    check_state_vanishes,
    ideal_projection_witness,
    parse_certificate_text,
    parse_trace_text,
    primeness_witness,
    vanishing_witness,
    verify_certificate,
    verify_certificate_text,
    verify_trace,
    verify_trace_text,
)

__version__ = "0.1.0"
