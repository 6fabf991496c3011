"""Toolkit for the annular 8_18 projection.

Rebuilds the labeled diagram from its 3-strand braid closure, computes
exact invariants (Alexander polynomial via reduced Burau, writhe,
winding number), regenerates the traversal-order tables, and analyzes
the per-site allocation defects.

The package namespace holds only the pipeline entry points; every other
name imports from its own module.
"""

from .allocation import defect_report, ensemble_totals, site_totals
from .braid import BRAID_818, BraidWord, annular_embed, closure_diagram, winding_phase
from .diagram import canonical_818, cyclic_equivalent, validate_word
from .invariants import alexander_from_braid, burau_reduced, normalize_alexander
from .notation import emit_extended_gauss, gauss_to_dt, parse_braid_word, parse_extended_gauss
from .traversal import (
    StartSpec,
    StateEnsemble,
    check_fixture,
    enumerate_all,
    enumerate_representatives,
    load_errata,
    load_table_fixture,
    rotation_orbits,
    shipped_errata_path,
    shipped_fixture_path,
    traverse,
    with_mirrors,
)

__version__ = "0.1.0"
