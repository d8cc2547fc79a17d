"""Citation-alert bibliography cartography toolkit.

Each submodule and each public name below loads on first use (PEP 562).
Only ``ca``, ``ward`` and ``search`` import numpy, so of the commands only
``analyze`` and ``search`` need it; ``ContingencyTable.counts`` loads it
on first use.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

# Submodule -> the public names the package re-exports from it.
_EXPORTS = {
    "errors": ("DataError",),
    "records": ("BibRecord", "RecordFormat", "RecordParseError", "detect_format",
                "parse_records"),
    "fixtures": (),
    "corpus": ("ContingencyTable", "DisciplineLexicon", "ProfileCatalog", "build_table",
               "filter_records", "load_fixture", "match_profiles", "tag_disciplines", "tally"),
    "ca": ("CaResult", "ca_fit", "inertia_report", "project_supplementary_col",
           "project_supplementary_row"),
    "ward": ("Dendrogram", "Partition", "PointSet", "cut", "embed_for_clustering",
             "export_dendrogram", "ward_hac"),
    "search": ("Index", "Query", "build_index", "more_like_this", "parse_query"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    # the public names, the submodules (loaded or not) and the dunders
    loaded = {name for name in globals() if not name.startswith("_") or name.startswith("__")}
    return sorted({*loaded, *_EXPORTS, *__all__})
