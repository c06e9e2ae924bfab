"""Corona products of subcubic graphs with neighbor-product-distinguishing
total colorings: construction, exact search oracle, verifier, and interchange
formats, all behind a small CLI."""

from . import errors
from .construct import (
    CASE_1_1,
    CASE_1_2,
    CASE_2,
    FALLBACK,
    MIXED,
    ColorResult,
    ConstructionTrace,
    color_corona,
    sort_by_product,
)
from .edgecolor import edge_colors_at, vizing_color
from .enumeration import canonical_form, enumerate_subcubic
from .graph import (
    CopyVertex,
    CoronaMap,
    GVertex,
    Graph,
    TotalColoring,
    connected_components,
    corona,
    gen_random_subcubic,
    max_degree,
    new_graph,
    require_subcubic,
    subgraph,
)
from .graphio import (
    ColoringDocument,
    coloring_document,
    document_coloring,
    document_graph,
    emit_coloring_json,
    emit_dot,
    emit_edge_list,
    emit_graph6,
    parse_coloring_json,
    parse_edge_list,
    parse_graph6,
)
from .search import (
    BASE_BUDGET,
    DEFAULT_BUDGET,
    base_coloring,
    chi_prod_exact,
    npdtc_search,
)
from .verify import (
    VerifyReport,
    Violation,
    report_to_json,
    verify_npd,
    verify_nvd,
    verify_proper_total,
)

__version__ = "0.1.0"
