"""Declarative, versioned feature views (the Table-6 groups as data).

A :class:`FeatureView` is a named, versioned list of
:class:`FeatureSpec` entries -- output column name, op, source
column(s), parameters.  Views are *definitions*, not computations: one
definition is compiled into two execution modes,

* :meth:`FeatureView.transform_table` -- vectorized over a whole
  column table (the offline/training path; chunked + cached by
  :class:`repro.fstore.offline.OfflineMaterializer`);
* :meth:`FeatureView.transform_row` -- a single request dict to a
  float64 feature vector with no table allocation (the online/serving
  path; wrapped by :class:`repro.fstore.online.OnlineFeatureServer`),

and the two are bit-identical by construction (``tests/fstore/``).

Every view carries a content-addressed **fingerprint** -- the SHA-256
of its canonical definition (name, version, ops, sources, parameters)
via :func:`repro.par.fingerprint`.  The fingerprint is embedded in
published models (``feature_view_``; see ``repro.ml.serialize``) so the
serving registry can reject a model/feature-version mismatch at load
time, and golden fingerprints under ``tests/fstore/`` fail loudly when
a definition changes without a version bump.

Lumos5G's primary groups (paper Table 6) are predefined:

* **L** -- pixelized location (``pixel_x``, ``pixel_y``);
* **M** -- mobility (speed + compass sin/cos);
* **T** -- tower geometry (distance, positional angle, mobility-angle
  sin/cos);
* **C** -- connection (past-throughput lags, radio type, LTE/NR signal
  with unavailable-sentinel NaNs, handoff flags);

composable into the evaluated combinations via
:func:`combination_view` (``"L"``, ``"L+M"``, ``"T+M"``, ``"L+M+C"``,
``"T+M+C"``).

This module is part of the **online path**: it must never import
``repro.datasets`` (lint rule ``fstore.online-tables``); tables are duck-typed
as ``table[column] -> np.ndarray`` mappings with a length.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.fstore.ops import OPS, sentinel_threshold
from repro.par.cache import fingerprint as _fingerprint

__all__ = [
    "COMBINATIONS",
    "FSTORE_SCHEMA_VERSION",
    "FeatureMatrix",
    "FeatureSpec",
    "FeatureView",
    "GROUP_MEMBERS",
    "GROUP_VERSIONS",
    "PRIMARY_GROUPS",
    "attach_view",
    "combination_view",
    "group_view",
    "parse_combination",
    "target",
    "view_from_dict",
    "view_of",
]

#: Bump when the canonical-form layout itself changes (not when a view
#: definition does -- those bump their own group version).
FSTORE_SCHEMA_VERSION = 1

PRIMARY_GROUPS = ("L", "M", "T", "C")
COMBINATIONS = ("L", "L+M", "T+M", "L+M+C", "T+M+C")

#: Per-group definition versions.  **Bump the group's version whenever
#: its feature list, ops, sources or parameters change** -- the golden
#: fingerprints in tests/fstore/ exist to make forgetting this loud.
GROUP_VERSIONS: dict[str, int] = {"L": 1, "M": 1, "T": 1, "C": 1}

#: Table-6 membership (documentation + tests); the raw quantities each
#: group encodes, not the encoded column names.
GROUP_MEMBERS = {
    "L": ["pixel_x", "pixel_y"],
    "M": ["moving_speed", "compass_direction"],
    "T": ["ue_panel_distance", "positional_angle", "mobility_angle"],
    "C": ["past_throughput", "radio_type", "lte_signal", "nr_signal",
          "horizontal_handoff", "vertical_handoff"],
}


def parse_combination(spec: str) -> list[str]:
    """'L+M+C' -> ['L', 'M', 'C'], validating group names."""
    groups = [g.strip() for g in spec.split("+") if g.strip()]
    if not groups:
        raise ValueError("empty feature-group specification")
    for g in groups:
        if g not in PRIMARY_GROUPS:
            raise ValueError(
                f"unknown feature group {g!r}; expected one of {PRIMARY_GROUPS}"
            )
    if len(set(groups)) != len(groups):
        raise ValueError(f"duplicate groups in {spec!r}")
    return groups


@dataclass(frozen=True)
class FeatureMatrix:
    """A named feature matrix; names align with matrix columns."""

    spec: str
    names: tuple[str, ...]
    X: np.ndarray

    def __post_init__(self) -> None:
        if self.X.ndim != 2 or self.X.shape[1] != len(self.names):
            raise ValueError("column names / matrix width mismatch")


@dataclass(frozen=True)
class FeatureSpec:
    """One output feature: ``name = op(*source, **params)``."""

    name: str
    op: str
    source: tuple[str, ...]
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(
                f"unknown op {self.op!r} for feature {self.name!r}; "
                f"registered: {sorted(OPS)}"
            )

    @classmethod
    def make(cls, name: str, op: str, source, **params) -> "FeatureSpec":
        if isinstance(source, str):
            source = (source,)
        return cls(name=name, op=op, source=tuple(source),
                   params=tuple(sorted(params.items())))

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    def canonical(self) -> dict:
        return {
            "name": self.name,
            "op": self.op,
            "source": list(self.source),
            "params": {k: v for k, v in self.params},
        }

    @classmethod
    def from_canonical(cls, data: Mapping) -> "FeatureSpec":
        return cls.make(data["name"], data["op"], tuple(data["source"]),
                        **dict(data.get("params") or {}))


@dataclass(frozen=True)
class FeatureView:
    """A named, versioned feature definition -- compiled, never edited.

    ``version`` strings are human-readable (``"M=1"``,
    ``"T=1,M=1,C=1"``); identity for machines is the content-addressed
    :meth:`fingerprint`.
    """

    name: str
    version: str
    features: tuple[FeatureSpec, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate feature names in view {self.name!r}")

    # -- identity ----------------------------------------------------------- #

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @property
    def n_features(self) -> int:
        return len(self.features)

    def canonical(self) -> dict:
        """The JSON-safe definition the fingerprint (and payloads) use."""
        return {
            "fstore_schema": FSTORE_SCHEMA_VERSION,
            "name": self.name,
            "version": self.version,
            "features": [f.canonical() for f in self.features],
        }

    def fingerprint(self) -> str:
        """Content-addressed identity: SHA-256 of the canonical form."""
        return _fingerprint(self.canonical())

    # -- execution ----------------------------------------------------------- #

    def source_columns(self) -> tuple[str, ...]:
        """Every source column the view reads, in first-use order."""
        seen: dict[str, None] = {}
        for f in self.features:
            for s in f.source:
                seen.setdefault(s)
        return tuple(seen)

    def transform_table(self, table) -> FeatureMatrix:
        """Offline/batch execution over a whole column table."""
        cols = [
            OPS[f.op].apply_batch(
                [np.asarray(table[s]) for s in f.source], f.param_dict
            )
            for f in self.features
        ]
        X = (np.column_stack(cols) if cols
             else np.empty((len(table), 0)))
        return FeatureMatrix(spec=self.name, names=self.names, X=X)

    def transform_row(self, row: Mapping) -> np.ndarray:
        """Online execution: one request dict -> float64 feature vector.

        No table is built; each op runs on the row's scalar (length-1
        array), which is bit-identical to its batch output.  Raises
        ``KeyError`` on a missing source field and ``TypeError`` /
        ``ValueError`` on malformed values -- callers turn those into
        bad-request responses.
        """
        out = np.empty(len(self.features), dtype=np.float64)
        for i, f in enumerate(self.features):
            out[i] = OPS[f.op].apply_row(row, f.source, f.param_dict)
        return out


# --------------------------------------------------------------------------- #
# The predefined Lumos5G group views
# --------------------------------------------------------------------------- #


def _location_features() -> list[FeatureSpec]:
    return [
        FeatureSpec.make("pixel_x", "cast", "pixel_x"),
        FeatureSpec.make("pixel_y", "cast", "pixel_y"),
    ]


def _mobility_features() -> list[FeatureSpec]:
    return [
        FeatureSpec.make("moving_speed", "cast", "moving_speed_mps"),
        FeatureSpec.make("compass_sin", "cyclic_sin", "compass_direction_deg"),
        FeatureSpec.make("compass_cos", "cyclic_cos", "compass_direction_deg"),
    ]


def _tower_features() -> list[FeatureSpec]:
    return [
        FeatureSpec.make("ue_panel_distance", "cast", "ue_panel_distance_m"),
        FeatureSpec.make("positional_angle", "cast", "positional_angle_deg"),
        FeatureSpec.make("mobility_angle_sin", "cyclic_sin",
                         "mobility_angle_deg"),
        FeatureSpec.make("mobility_angle_cos", "cyclic_cos",
                         "mobility_angle_deg"),
    ]


def _connection_features(past_throughput_lags: int) -> list[FeatureSpec]:
    if past_throughput_lags < 1:
        raise ValueError("need at least one throughput lag")
    out = [
        FeatureSpec.make(f"past_throughput_{lag}", "lag",
                         ("throughput_mbps", "run_id"), lag=lag)
        for lag in range(1, past_throughput_lags + 1)
    ]
    out.append(FeatureSpec.make("radio_type_is_5g", "flag_equals",
                                "radio_type", value="5G"))
    for col in ("lte_rsrp", "lte_rsrq", "lte_rssi",
                "nr_ss_rsrp", "nr_ss_rsrq", "nr_ss_rssi"):
        out.append(FeatureSpec.make(col, "sentinel_nan", col,
                                    threshold=sentinel_threshold()))
    for col in ("horizontal_handoff", "vertical_handoff"):
        out.append(FeatureSpec.make(col, "cast", col))
    return out


_GROUP_BUILDERS = {
    "L": lambda lags: _location_features(),
    "M": lambda lags: _mobility_features(),
    "T": lambda lags: _tower_features(),
    "C": _connection_features,
}


def group_view(group: str, past_throughput_lags: int = 5) -> FeatureView:
    """The predefined view for one primary group (L, M, T or C)."""
    if group not in PRIMARY_GROUPS:
        raise ValueError(
            f"unknown feature group {group!r}; expected one of "
            f"{PRIMARY_GROUPS}"
        )
    return FeatureView(
        name=group,
        version=f"{group}={GROUP_VERSIONS[group]}",
        features=tuple(_GROUP_BUILDERS[group](past_throughput_lags)),
    )


def combination_view(spec: str, past_throughput_lags: int = 5) -> FeatureView:
    """A Table-6 combination ('L+M+C', ...) as one composite view."""
    groups = parse_combination(spec)
    features: list[FeatureSpec] = []
    for g in groups:
        features.extend(group_view(g, past_throughput_lags).features)
    version = ",".join(f"{g}={GROUP_VERSIONS[g]}" for g in groups)
    return FeatureView(name=spec, version=version, features=tuple(features))


def target(table) -> np.ndarray:
    """The regression target: current-second throughput in Mbps."""
    return np.asarray(table["throughput_mbps"], dtype=np.float64)


# --------------------------------------------------------------------------- #
# Model embedding: the training -> serving version handshake
# --------------------------------------------------------------------------- #


def view_from_dict(data: Mapping) -> FeatureView:
    """Reconstruct a view from its canonical form (payload embedding)."""
    schema = data.get("fstore_schema")
    if schema != FSTORE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported feature-view schema {schema!r} "
            f"(this build speaks {FSTORE_SCHEMA_VERSION})"
        )
    return FeatureView(
        name=str(data["name"]),
        version=str(data["version"]),
        features=tuple(FeatureSpec.from_canonical(f)
                       for f in data["features"]),
    )


def attach_view(model, view: FeatureView) -> None:
    """Stamp ``model.feature_view_`` with the view's full identity.

    The payload is self-describing (the canonical definition rides
    along), so a serving process can rebuild the online transformer
    from the model alone and the registry can verify fingerprints
    without access to this module's predefined views.
    """
    model.feature_view_ = {
        "name": view.name,
        "version": view.version,
        "fingerprint": view.fingerprint(),
        "names": list(view.names),
        "view": view.canonical(),
    }


def view_of(model) -> dict | None:
    """The ``feature_view_`` stamp of a model (or pipeline), if any."""
    return getattr(model, "feature_view_", None)
