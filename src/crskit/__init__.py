"""Count-guided region selection, refinement, and evaluation toolkit."""

from .dataio import (
    COUNT_UI_CAP,
    DatasetError,
    load_dataset,
    load_detections,
    load_run_config,
    save_dataset,
    save_detections,
)
from .evaluation import (
    Detection,
    EvalReport,
    average_precision,
    build_report,
    corloc,
    match_detections,
    slice_by_count,
)
from .geometry import (
    Box,
    GeometryError,
    area,
    asymmetric_overlap,
    hull,
    intersection_area,
    iou,
)
from .refinement import (
    CentroidScorer,
    FeatureDimensionError,
    RefinementConfig,
    RefinementReport,
    retrain_scorer,
    run_adr,
    score_proposals,
    select_pseudo_gt,
)
from .selection import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_NMS_THRESHOLD,
    DEFAULT_OVERLAP_THRESHOLD,
    CapacityError,
    ScoredRegion,
    SelectionProblem,
    SelectionResult,
    crs_exact,
    crs_greedy,
    nms,
)
from .world import ImageRecord, Proposal, generate_world

__version__ = "0.1.0"
