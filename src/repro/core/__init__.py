"""Lumos5G core: feature groups, labels, pipeline, maps, importance."""

from repro.core.features import (
    COMBINATIONS,
    GROUP_MEMBERS,
    PRIMARY_GROUPS,
    FeatureMatrix,
    parse_combination,
    requires_panel_survey,
)
from repro.core.importance import (
    ImportanceReport,
    entropy_of_importance,
    group_of_feature,
    summarize_importance,
)
from repro.core.labels import (
    CLASS_ORDER,
    DEFAULT_CLASSES,
    DEFAULT_THRESHOLDS,
    HIGH,
    LOW,
    MEDIUM,
    ThroughputClasses,
    classify_throughput,
)
from repro.core.mapstore import ThroughputMapBundle
from repro.core.maps import (
    MapCell,
    coverage_map,
    coverage_throughput_mismatch,
    directional_throughput_map,
    map_divergence,
    throughput_map,
)
from repro.core.pipeline import (
    ALL_MODELS,
    BASELINE_MODELS,
    FRAMEWORK_MODELS,
    ClassificationResult,
    Lumos5G,
    ModelConfig,
    RegressionResult,
)
from repro.core.transfer import (
    TransferResult,
    cross_panel_transfer,
    panel_slice,
)
from repro.core.windows import WindowSet, build_windows

__all__ = [
    "ALL_MODELS",
    "BASELINE_MODELS",
    "CLASS_ORDER",
    "COMBINATIONS",
    "ClassificationResult",
    "DEFAULT_CLASSES",
    "DEFAULT_THRESHOLDS",
    "FRAMEWORK_MODELS",
    "FeatureMatrix",
    "GROUP_MEMBERS",
    "HIGH",
    "ImportanceReport",
    "LOW",
    "Lumos5G",
    "MEDIUM",
    "MapCell",
    "ModelConfig",
    "PRIMARY_GROUPS",
    "RegressionResult",
    "ThroughputMapBundle",
    "ThroughputClasses",
    "TransferResult",
    "WindowSet",
    "build_windows",
    "classify_throughput",
    "coverage_map",
    "coverage_throughput_mismatch",
    "cross_panel_transfer",
    "directional_throughput_map",
    "entropy_of_importance",
    "group_of_feature",
    "map_divergence",
    "panel_slice",
    "parse_combination",
    "requires_panel_survey",
    "summarize_importance",
    "throughput_map",
]
