"""Planar 3-webs from closed-form first integrals.

Represent a web by three first integrals, trace its leaves numerically,
measure the curvature deciding parallelizability, run the formula-free
hexagon-closure oracle, and verify explicit linearizations end to end.
"""

from .analysis import (
    HexagonFigure,
    ParallelizabilityReport,
    blaschke_curvature,
    curvature_grid,
    hexagon_defect,
    parallelizability_report,
)
from .errors import (
    ConfigError,
    EvalDomainError,
    HexagonError,
    NormalFormError,
    ParseError,
    TraceError,
    TriwebError,
)
from .expr import Expr, eval_value, parse, to_text
from .kernels import compile_expr, eval_jet3
from .transform import (
    DiffeoReport,
    PlaneMap,
    diffeo_report,
    identity_map,
    linearizing_map,
    push_polyline,
)
from .verify import (
    LinearityReport,
    LinearizationReport,
    LineFormulaCheck,
    collinearity_residual,
    diagonal_seeds,
    foliation_linearity,
    verify_linearization,
    verify_map,
)
from .web import (
    BUILTIN_WEB_NAMES,
    Domain,
    Foliation,
    GeneralPositionReport,
    LeafPolyline,
    Survey,
    ThreeWeb,
    builtin_web,
    family_web,
    general_position_report,
    trace_leaf,
    walk_on_leaf,
)

__version__ = "0.1.0"
