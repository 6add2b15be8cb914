"""Tools for separating shallow circuit ensembles from Haar-random group elements.

The package has three layers.  `pauli`, `cgraph`, and `densesim` supply the
bit-packed Pauli algebra, the implicit commutator graph over it, and small
dense operator kernels (embeddings, phased-permutation gathers, partial
traces).  `groups` and `moments` add Haar samplers for the matchgate,
orthogonal, symplectic, unitary, and Clifford families together with moment
estimators and closed-form twirls.  `bounds`, `experiments`, and `cli` turn
those pieces into exact distinguishability bounds and reproducible two-copy
discrimination experiments, whose Born probabilities are read from the
partial trace of U V U^dag rather than from a two-copy state.
"""

__version__ = "0.1.0"

from .errors import BudgetError, InvariantError, ValidationError
from .pauli import PauliString, from_text, identity, majorana, to_text
from .cgraph import Component, GeneratorSet, census, component, diameter, r_fraction
from .groups import GroupSpec, bilinear_form, group_spec, sample_haar
from .bounds import bound_report, discrimination_bound
from .experiments import (
    depth_config,
    gatecount_config,
    run_depth_discrimination,
    run_gatecount_discrimination,
    run_mixed_unitary_discrimination,
)

__all__ = [
    "__version__",
    "BudgetError",
    "InvariantError",
    "ValidationError",
    "PauliString",
    "from_text",
    "identity",
    "majorana",
    "to_text",
    "Component",
    "GeneratorSet",
    "census",
    "component",
    "diameter",
    "r_fraction",
    "GroupSpec",
    "bilinear_form",
    "group_spec",
    "sample_haar",
    "bound_report",
    "discrimination_bound",
    "depth_config",
    "gatecount_config",
    "run_depth_discrimination",
    "run_gatecount_discrimination",
    "run_mixed_unitary_discrimination",
]
