"""Entanglement entropy of states restricted to observable subalgebras.

The package represents finite-dimensional *-algebras as orthonormal spans
of complex matrices, runs the GNS construction for a state on a span, and
computes the entropy of the restricted state along two independent routes
(isotypic decomposition of the GNS representation, and a density element
solved against the block trace of the span's irreducible decomposition).
Second-quantized scenario builders and a small CLI sit on top.
"""

from .entropy import (
    DensityElement,
    RestrictionReport,
    SpectralState,
    density_element,
    partial_trace,
    restriction_entropies,
    restriction_entropy,
    spectra_agree,
    von_neumann_entropy,
)
from .errors import (
    AlgebraError,
    ClosureError,
    DecompositionError,
    OracleMismatchError,
    StateError,
)
from .fock import (
    EX5_BLOCKS,
    PRESET_NAMES,
    FockContext,
    LadderSet,
    StateFamily,
    car_ladders,
    coproduct_embed,
    example_generators,
    f_basis_embedding,
    group_embed,
)
from .gns import (
    AlgebraState,
    GnsSpace,
    IsotypicComponent,
    IsotypicDecomposition,
    build_gns,
    gns_density,
    gram_matrix,
    isotypic_decompose,
)
from .star_algebra import (
    OperatorSpan,
    WedderburnData,
    center,
    commutant,
    full_matrix_algebra,
    span_closure,
    wedderburn,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "AlgebraState",
    "ClosureError",
    "DecompositionError",
    "DensityElement",
    "EX5_BLOCKS",
    "FockContext",
    "GnsSpace",
    "IsotypicComponent",
    "IsotypicDecomposition",
    "LadderSet",
    "OperatorSpan",
    "OracleMismatchError",
    "PRESET_NAMES",
    "RestrictionReport",
    "SpectralState",
    "StateError",
    "StateFamily",
    "WedderburnData",
    "build_gns",
    "car_ladders",
    "center",
    "commutant",
    "coproduct_embed",
    "density_element",
    "example_generators",
    "f_basis_embedding",
    "full_matrix_algebra",
    "gns_density",
    "gram_matrix",
    "group_embed",
    "isotypic_decompose",
    "partial_trace",
    "restriction_entropies",
    "restriction_entropy",
    "span_closure",
    "spectra_agree",
    "von_neumann_entropy",
    "wedderburn",
]
