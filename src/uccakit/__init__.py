"""Foundational-layer semantic graphs: parsing, validation, interchange,
scoring and statistics.

The public names below are imported from their submodules on first use
(PEP 562), so `import uccakit` on its own loads no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOME = {
    name: module
    for module, names in (
        ("categories", "BASE_LABELS DESCRIPTIONS SECONDARY_LABELS CategorySet InvalidCategory"),
        ("core", "IMPLICIT INTERNAL TERMINAL FILE_EXTENSION BuildError CategoryCounts"
                 " DanglingEdge DuplicateId Edge EdgeSpec InvalidRemote InvalidToken InvalidUnit"
                 " MultiplePrimaryParents MultipleRoots NotInternal Passage PrimaryCycle"
                 " RemoteCycle Token TokenCoverageGap UccaError Unit UnitSpec UnknownUnit"
                 " build_passage is_scene_unit isomorphic stats yield_of"),
        ("interchange", "FORMAT_VERSION MalformedDocument UnsupportedVersion"
                        " canonical_json_bytes from_interchange to_interchange"),
        ("notation", "AmbiguousContinuation AmbiguousRemote DanglingContinuation"
                     " MisplacedRemote OrphanContinuation ParseError RenderError"
                     " UnbalancedBrackets UnknownCategoryLabel UnresolvedRemote"
                     " lex parse_passage render split_passages"),
        ("scoring", "ClassScores EdgeSignature ScoreReport TokenMismatch score signatures"),
        ("validation", "Diagnostic RuleInfo list_rules load_config parse_config validate"),
    )
    for name in names.split()
}
_SUBMODULES = frozenset(_HOME.values())

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
