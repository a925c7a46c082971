"""Machine-learning substrate: a scikit-learn stand-in.

The paper trains one binary Random Forest classifier per device-type.  This
subpackage provides a from-scratch implementation of CART decision trees
and bootstrap-aggregated Random Forests (fitted straight into the flat
node arrays of :class:`CompiledForest`), stratified k-fold splits, negative
subsampling and the confusion-matrix and per-class accuracy metrics the
evaluation reports.
"""

from repro.ml.compiled import CompiledForest
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import confusion_matrix
from repro.ml.sampling import negative_subsample
from repro.ml.tree import DecisionTreeClassifier
from repro.ml.validation import StratifiedKFold

__all__ = [
    "CompiledForest",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "confusion_matrix",
    "StratifiedKFold",
    "negative_subsample",
]
