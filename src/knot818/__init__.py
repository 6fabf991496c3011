"""Toolkit for the annular 8_18 projection.

Rebuilds the labeled diagram from its 3-strand braid closure, computes
exact invariants (Alexander polynomial via reduced Burau, writhe,
winding number), regenerates the traversal-order tables, and analyzes
the per-site allocation defects.

The package namespace holds only the pipeline entry points; every other
name imports from its own module.  Each entry point is imported from
its module on first use (PEP 562), so ``import knot818`` loads no
submodule and a command loads only the modules it runs.
"""

__version__ = "0.1.0"

# entry point -> the module that defines it
_HOMES = {
    "defect_report": "allocation",
    "ensemble_totals": "allocation",
    "site_totals": "allocation",
    "BRAID_818": "braid",
    "BraidWord": "braid",
    "annular_embed": "braid",
    "closure_diagram": "braid",
    "winding_phase": "braid",
    "canonical_818": "diagram",
    "cyclic_equivalent": "diagram",
    "validate_word": "diagram",
    "alexander_from_braid": "invariants",
    "burau_reduced": "invariants",
    "normalize_alexander": "invariants",
    "emit_extended_gauss": "notation",
    "gauss_to_dt": "notation",
    "parse_braid_word": "notation",
    "parse_extended_gauss": "notation",
    "StartSpec": "traversal",
    "StateEnsemble": "traversal",
    "check_fixture": "traversal",
    "enumerate_all": "traversal",
    "enumerate_representatives": "traversal",
    "load_errata": "traversal",
    "load_table_fixture": "traversal",
    "rotation_orbits": "traversal",
    "shipped_errata_path": "traversal",
    "shipped_fixture_path": "traversal",
    "traverse": "traversal",
    "with_mirrors": "traversal",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups find it without calling this
    return value


def __dir__() -> list[str]:
    return __all__
