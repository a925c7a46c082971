"""Machine-learning substrate: a scikit-learn stand-in.

The paper trains one binary Random Forest classifier per device-type.  This
subpackage provides a from-scratch implementation of CART decision trees
and bootstrap-aggregated Random Forests (fitted straight into the flat
node arrays of :class:`CompiledForest`), stratified k-fold splits, negative
subsampling, common classification metrics and three simple baselines
(majority class, Gaussian naive Bayes and k-nearest-neighbours).
"""

from repro.ml.baselines import GaussianNaiveBayes, KNeighborsClassifier, MajorityClassClassifier
from repro.ml.compiled import CompiledForest
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import (
    accuracy_score,
    classification_report,
    confusion_matrix,
    f1_score,
    precision_score,
    recall_score,
)
from repro.ml.sampling import negative_subsample, train_test_split
from repro.ml.tree import DecisionTreeClassifier
from repro.ml.validation import StratifiedKFold

__all__ = [
    "CompiledForest",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "GaussianNaiveBayes",
    "KNeighborsClassifier",
    "MajorityClassClassifier",
    "accuracy_score",
    "confusion_matrix",
    "precision_score",
    "recall_score",
    "f1_score",
    "classification_report",
    "StratifiedKFold",
    "negative_subsample",
    "train_test_split",
]
