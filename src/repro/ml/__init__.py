"""From-scratch ML stack: GBDT, forests, KNN, kriging, Seq2Seq, metrics."""

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.gbdt import (
    GBDTClassifier,
    GBDTQuantileRegressor,
    GBDTRegressor,
    softmax,
)
from repro.ml.harmonic import HarmonicMeanPredictor, harmonic_mean
from repro.ml.knn import KNNClassifier, KNNRegressor
from repro.ml.kriging import (
    OrdinaryKriging,
    fit_spherical_variogram,
    spherical_variogram,
)
from repro.ml.metrics import (
    accuracy,
    confusion_matrix,
    error_reduction_factor,
    macro_f1,
    mae,
    mse,
    precision_recall_f1,
    recall_of_class,
    rmse,
    weighted_f1,
)
from repro.ml.model_selection import (
    GridSearch,
    kfold_indices,
    parameter_grid,
)
from repro.ml.nn import Seq2SeqRegressor
from repro.ml.preprocessing import (
    LabelEncoder,
    StandardScaler,
    cyclic_encode,
    one_hot,
    split_by_run,
    train_test_split,
)
from repro.ml.tree import DecisionTreeRegressor, FeatureBinner, HistogramTree

__all__ = [
    "DecisionTreeRegressor",
    "FeatureBinner",
    "GBDTClassifier",
    "GBDTQuantileRegressor",
    "GBDTRegressor",
    "GridSearch",
    "HarmonicMeanPredictor",
    "HistogramTree",
    "KNNClassifier",
    "KNNRegressor",
    "LabelEncoder",
    "OrdinaryKriging",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "Seq2SeqRegressor",
    "StandardScaler",
    "accuracy",
    "confusion_matrix",
    "cyclic_encode",
    "error_reduction_factor",
    "fit_spherical_variogram",
    "harmonic_mean",
    "kfold_indices",
    "macro_f1",
    "mae",
    "mse",
    "one_hot",
    "parameter_grid",
    "precision_recall_f1",
    "recall_of_class",
    "rmse",
    "softmax",
    "spherical_variogram",
    "split_by_run",
    "train_test_split",
    "weighted_f1",
]
