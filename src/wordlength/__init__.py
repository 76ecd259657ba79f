"""Wordlength patterns and J-characteristics of mixed-level factorial designs.

The spectrum of a design under an assignment of finite abelian group
structures to its factor levels determines the design but depends on the
assignment; the generalized wordlength pattern derived from it does not.
This package computes both, by a character route (dense or factorized
transform) and by a character-free margin route, and verifies their
agreement.
"""

from .design import Design, MarginTable, margins, parse_design, relabel_levels
from .errors import (
    DesignParseError,
    InconsistentSpectrumError,
    ResourceLimitError,
    WordlengthError,
)
from .groups import (
    AbelianStructure,
    enumerate_structures,
    parse_structure,
)
from .invariance import (
    AberrationVerdict,
    InvarianceReport,
    compare_aberration,
    gwlp_margin,
    projector_norms,
    resolution_and_strength,
    subset_norm,
    verify_invariance,
)
from .spectra import (
    GWLP,
    JCharVector,
    check_assignment,
    element_weights,
    gwlp_char,
    j_characteristics,
    reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianStructure",
    "AberrationVerdict",
    "Design",
    "DesignParseError",
    "GWLP",
    "InconsistentSpectrumError",
    "InvarianceReport",
    "JCharVector",
    "MarginTable",
    "ResourceLimitError",
    "WordlengthError",
    "check_assignment",
    "compare_aberration",
    "element_weights",
    "enumerate_structures",
    "gwlp_char",
    "gwlp_margin",
    "j_characteristics",
    "margins",
    "parse_design",
    "parse_structure",
    "projector_norms",
    "reconstruct",
    "relabel_levels",
    "resolution_and_strength",
    "subset_norm",
    "verify_invariance",
]
