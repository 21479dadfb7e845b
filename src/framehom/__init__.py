"""Cosheaf homology of pin-jointed trusses, moment frames, and anchored frames."""

__version__ = "0.1.0"

from .framework import (
    Framework,
    FrameworkError,
    load_framework,
    parse_framework,
    format_framework,
    save_framework,
    make_named,
    make_desargues,
    make_grid,
    make_lattice,
    perturb,
)
from .cosheaf import (
    Cosheaf,
    CosheafMap,
    assemble_boundary,
    check_cosheaf_map,
    quotient_cosheaf,
    constant_cosheaf,
)
from .structural import (
    wedge,
    build_force_cosheaf,
    build_moment_cosheaf,
    build_phi,
    build_anchored_cosheaf,
    rigid_body_space,
)
from .les import (
    InducedMap,
    LesReport,
    induced_map,
    connecting_map,
    verify_les,
    counting_rules,
    perturbation_scan,
)
