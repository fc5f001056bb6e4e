"""Feature groups and their composition (Table 6).

Lumos5G's central design idea is *composability*: features are organized
into primary groups that can be combined per use case --

* **L** (location): pixelized longitude/latitude coordinates;
* **M** (mobility): UE moving speed + compass direction;
* **T** (tower): UE-panel distance, positional angle, mobility angle
  (location-agnostic; requires the panel survey);
* **C** (connection): past throughput measurements plus PHY features
  (radio type, LTE and 5G signal strength, handoff flags);

and the paper's evaluated combinations **L+M**, **T+M**, **L+M+C**,
**T+M+C**.

The definitions live in the feature store (:mod:`repro.fstore`,
docs/feature_store.md) as declarative, versioned feature views with
content-addressed fingerprints, executed identically offline (batch
materialization) and online (single-row serving); callers materialize a
combination with :func:`repro.fstore.extract`.
"""

from __future__ import annotations

from repro.fstore.views import (
    COMBINATIONS,
    FeatureMatrix,
    GROUP_MEMBERS,
    PRIMARY_GROUPS,
    parse_combination,
)

__all__ = [
    "COMBINATIONS",
    "FeatureMatrix",
    "GROUP_MEMBERS",
    "PRIMARY_GROUPS",
    "parse_combination",
    "requires_panel_survey",
]


def requires_panel_survey(spec: str) -> bool:
    """T-group features need surveyed panel locations (absent at the Loop)."""
    return "T" in parse_combination(spec)

