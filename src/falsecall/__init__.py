"""Requirement-aware evaluation for false-call reduction classifiers.

The package turns the business targets of an optical-inspection gate, a
tolerated slip rate and a required volume reduction, into metrics (cv, cAUC,
V@S), provides chronological split protocols that expose temporal decay, and
runs a cross-validated threshold-selection workflow over baseline models or
externally produced scores.
"""

from .classifiers import (BALANCED_RANDOM_FOREST, DUMMY, KINDS, KNN,
                          RANDOM_FOREST, ClassifierSpec, HyperParamSpace,
                          TrainedModel, classify, load_model, save_model,
                          score, train)
from .curves import (OperatingCurve, OperatingPoint, auc_pr, best_youden,
                     constrained_auc, constrained_auc_case, select_threshold,
                     sweep_thresholds, volume_at_target_slip)
from .dataset import (ColumnSpec, Dataset, EncodedMatrix, FeatureEncoder,
                      Pca2dResult, SplitPlan, SyntheticConfig, chrono_split,
                      generate_synthetic, load_csv, one_hot_fit_transform,
                      pca2d, stratified_kfold, write_csv)
from .errors import (DegenerateDataError, FalseCallError, IngestionError,
                     InputError, StateError, UndefinedRateError)
from .experiment import (EVAL_SETS, REGIME_REQUIREMENT, REGIME_STANDARD,
                         ExperimentConfig, ExternalEvaluation, RunResult,
                         SeedAggregate, TrialResult, evaluate_external,
                         fit_deployable, optimize_hyperparams, run_multi_seed,
                         run_single_seed, score_report, verdict)
from .metrics import (SENTINEL_THRESHOLD, ConfusionCounts, MetricReport,
                      MetricSurface, TargetSpec, analytic_metrics,
                      confusion_counts, constrained_volume, metric_surface,
                      slip_rate, standard_metrics, volume_reduction,
                      youden_index)
from .reporting import (ReportBundle, build_bundle, export_curve,
                        export_timeline, render_table, report_to_json,
                        write_bundle, write_export)
from .seeding import derive_seed, rng_for

__version__ = "0.1.0"
