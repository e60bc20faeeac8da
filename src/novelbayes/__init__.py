"""Two-stage robust Bayesian semiparametric novelty detection.

Stage I learns each observed class robustly (MCD / regularized MCD); Stage II
fits the test set with a mixture of the known classes and a Dirichlet-process
novelty term via a slice-efficient Gibbs sampler, then post-processes the
traces into novelty probabilities, labels, and a best novelty partition.
Works on multivariate rows or on curves through a B-spline representation.
"""

from .errors import (
    AllSlicesEmpty,
    DataError,
    DegenerateData,
    DimensionMismatch,
    EmptySlice,
    GridMismatch,
    InsufficientRows,
    InvalidKnots,
    LengthMismatch,
    NotPositiveDefinite,
    NoveltyError,
    NumericalError,
    ParseError,
    RankDeficientBasis,
    SingularSubset,
)
from .functional import (
    BasisSpec,
    CurveSet,
    FunctionalHyper,
    FunctionalKnownPrior,
    FunctionalNovelAtom,
    bspline_basis,
    extract_functional_priors,
    run_functional_chain,
    smooth_curves,
)
from .model import (
    GammaPrior,
    GaussianAtom,
    Hyperparameters,
    NIWParams,
    PriorMoments,
    prior_covariance,
    prior_mean,
    prior_variance,
    stick_breaking,
    tie_probability,
    truncation_level,
    xi_sequence,
)
from .postprocess import (
    PosteriorSummary,
    ari,
    best_partition_vi,
    classify,
    coclustering,
    flag_anomalies,
    known_accuracy,
    novelty_precision,
    ppn,
    summarize,
    vi_score,
)
from .robust import (
    LabeledDataset,
    McdConfig,
    RobustClassSummary,
    consistency_factor,
    extract_class_priors,
    fast_mcd,
    mrcd,
)
from .sampler import (
    ChainOutput,
    ChainState,
    TestDataset,
    gibbs_step,
    niw_atoms,
    niw_posterior,
    run_chain,
    sample_niw,
    update_gamma,
)
from .simulate import SimulationSpec, generate_simulation

__version__ = "0.1.0"
