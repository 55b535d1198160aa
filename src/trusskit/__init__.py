"""trusskit: a combinatorial topology engine for labelled trusses and
their PL mesh realizations."""

from .errors import (
    ClassificationError,
    CompositionError,
    DiagramError,
    DomainError,
    InternalError,
    LabelingError,
    LayoutError,
    MeshError,
    PackingError,
    ParseError,
    SectionError,
    TrussError,
)
from .ordinal import (
    DeltaMap,
    NablaMap,
    Ordinal,
    compose_delta,
    compose_nabla,
    dual_delta_to_nabla,
    dual_nabla_to_delta,
    enumerate_delta_maps,
    enumerate_nabla_maps,
)
from .poset import POINT_ELEMENT, FinPoset, PosetMap, arrow_poset, path_poset, point_poset
from .strata import (
    Stratum,
    StratumMap,
    compose_strata,
    factorization_poset,
    fiber_over_map,
    fiber_over_ordinal,
    forget_to_delta,
    hom_strata,
    stratum_targets,
    validate_stratum_map,
)
from .bundle import (
    DeltaDiagram,
    LabelCategory,
    Labeling,
    TotalPoset,
    classify,
    pullback_bundle,
    total_space,
)
from .tower import (
    Bordism,
    CompositionAudit,
    PackedTower,
    TrussTower,
    compose_bordisms,
    compose_bordisms_audited,
    constant_inclusion,
    identity_bordism,
    pack,
    pullback_tower,
    restrict_bordism,
    truss_label_category,
    unpack,
)
from .mesh import (
    CompactMesh1,
    NablaDiagram,
    PLMeshBundle,
    StratSimplexPoint,
    interpolated_heights,
    pullback_mesh,
    realize_1truss,
    realize_bundle,
    reg_extract,
    section_to_strata,
    sing_extract,
)
from .layout import Node, Region, Scene, Wire, layout_2truss, scene_to_svg
from .report import Report
from .serialize import dumps, element_key, load, parse, save

__version__ = "0.1.0"
