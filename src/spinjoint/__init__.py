"""Joint unsharp measurements of two spin-1/2 components.

Construction and validation of the four-outcome measurement families, the
sharpness bound and its saturating switch realization, singlet CHSH-type
correlations with a no-signalling probe, the full set of variance bounds,
Monte Carlo sampling, and applied cloning/eavesdropping studies.
"""

from .correlations import (
    CorrelationSet,
    Settings,
    born_correlations,
    chsh_value,
    joint_correlations,
    no_signalling_probe,
    optimal_settings,
    sharp_chsh_reference,
    sharp_correlation,
    sharp_correlations,
    singlet,
    tsirelson_settings,
)
from .errors import (
    BlochOutOfBall,
    BoundViolated,
    CollinearDirections,
    DegenerateDirection,
    EtaOutOfRange,
    InvalidPovm,
    InvalidState,
    NotHermitian,
    NotSaturating,
    NotUnit,
    SpinJointError,
    ZeroAlpha,
)
from .joint import (
    OUTCOME_LABELS,
    JointSpec,
    SwitchRealization,
    admissibility_scan,
    bound_lhs,
    general_effect_min_eigenvalues,
    general_joint_povm,
    is_admissible,
    max_symmetric_alpha,
    optimal_joint_povm,
    outcome_values,
    product_form_check,
    switch_povm,
    switch_realization,
)
from .povm import (
    Effect,
    Povm,
    ValidationReport,
    outcome_probabilities,
    povm_from_json,
    povm_to_json,
    projective_povm,
    two_party_probabilities,
    validate,
)
from .qubit import (
    ATOL,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    TOL,
    QubitState,
    TwoQubitState,
    state_from_bloch,
)
from .sampling import (
    SampleStats,
    SeededStream,
    SignallingResult,
    sample_indices,
    sample_povm,
    sample_two_party,
    signalling_experiment,
)
from .scenarios import (
    Bb84EveReport,
    CloningScenario,
    bb84_eve,
    cloning_joint,
    min_cloning_gap,
)
from .uncertainty import (
    RELATION_IDS,
    UncertaintyReport,
    arthurs_goodman,
    cirelson_product,
    evaluate_all,
    product_form,
    robertson,
    schroedinger,
    total_joint,
)

__version__ = "0.1.0"
