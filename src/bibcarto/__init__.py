"""Citation-alert bibliography cartography toolkit."""

from .errors import DataError
from .records import (
    BibRecord,
    RecordFormat,
    RecordParseError,
    detect_format,
    parse_personal_alert,
    parse_records,
    parse_research_alert,
)
from .corpus import (
    ContingencyTable,
    DisciplineLexicon,
    ProfileCatalog,
    build_table,
    filter_records,
    load_fixture,
    match_profiles,
    tag_disciplines,
)
from .ca import CaResult, ca_fit, inertia_report, project_supplementary_col, project_supplementary_row
from .ward import Dendrogram, Partition, PointSet, cut, embed_for_clustering, export_dendrogram, ward_hac
from .search import Index, Query, build_index, more_like_this, parse_query

__version__ = "0.1.0"

__all__ = [
    "BibRecord",
    "CaResult",
    "ContingencyTable",
    "DataError",
    "Dendrogram",
    "DisciplineLexicon",
    "Index",
    "Partition",
    "PointSet",
    "ProfileCatalog",
    "Query",
    "RecordFormat",
    "RecordParseError",
    "build_index",
    "build_table",
    "ca_fit",
    "cut",
    "detect_format",
    "embed_for_clustering",
    "export_dendrogram",
    "filter_records",
    "inertia_report",
    "load_fixture",
    "match_profiles",
    "more_like_this",
    "parse_personal_alert",
    "parse_query",
    "parse_records",
    "parse_research_alert",
    "project_supplementary_col",
    "project_supplementary_row",
    "tag_disciplines",
    "ward_hac",
]
