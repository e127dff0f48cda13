"""Jeu de taquin for increasing tableaux and K-theoretic Schubert calculus coefficients."""

from .shapes import (
    AmbientRectangle,
    DirectSumFrame,
    ShapeFitError,
    SkewShape,
    boundary_word,
    dagger,
    dual_in_rectangle,
    inner_corners,
    omega,
    omega_dual,
    oslash,
    outer_corners,
    parse_partition,
    format_partition,
    partition,
    partition_from_boundary_word,
    partitions_in_rectangle,
    rook_strip_contractions,
    star,
)
from .tableaux import (
    AugmentedTableau,
    IncreasingTableau,
    SetValuedTableau,
    TableauError,
    enumerate_augmented,
    enumerate_increasing,
    enumerate_set_valued,
    is_partial_reverse_lattice,
    reading_word,
    row_reading_word,
    superstandard,
)
from .jdt import (
    InternalInvariantError,
    SlideStep,
    SwitchState,
    SwitchTrace,
    extend_trace,
    kinfusion,
    kjdt_slide,
    krect,
    rectification_orders,
    rev_kjdt_slide,
    rev_krect_in_ambient,
    switch_trace,
)
from .coefficients import (
    CoefficientRecord,
    DisagreementError,
    coeff_C,
    coeff_D,
    coeff_D_buch,
    coeff_D_via_identity,
    coeff_E,
    coeff_E_via_C,
    coeff_F,
    coeff_c_classical,
    compute_with_checks,
    expand_coproduct,
    expand_product,
)
from .products import diamond, hecke_insert, odot
from .equivalence import (
    check_count_independence,
    check_strong_dual_equivalence,
    check_superstandard_independence,
    nonrect_counterexample,
    verify_origin_invariants,
)

__version__ = "0.1.0"
