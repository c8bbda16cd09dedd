"""Policy-driven differential privacy.

The privacy policy is a triple of a discrete domain, a discriminative secret
graph over its points, and a set of publicly known count constraints.  The
library computes the policy-specific sensitivity of common queries, releases
them with calibrated Laplace noise, and provides ordered / hierarchical
strategies for cumulative histograms and range queries plus a private
k-means, all with seeded, reproducible randomness.
"""

__version__ = "0.1.0"

from .domain import (
    Attribute,
    Dataset,
    DomainSpec,
    histogram,
    ingest_dataset,
    load_domain,
)
from .errors import (
    BlowfishError,
    BudgetExceededError,
    InfeasibleConstraintsError,
    InfiniteSensitivityError,
    NonSparseConstraintsError,
    ShapeNotRecognizedError,
)
from .kmeans import (
    ClusteringPolicy,
    ClusteringResult,
    KmeansConfig,
    kmeans_nonprivate,
    kmeans_private,
)
from .mechanisms import (
    BudgetLedger,
    OHTree,
    PrivacyParams,
    ReleasedCumulative,
    build_oh_release,
    compose_budgets,
    hierarchical_release,
    isotonic_inference,
    laplace_mechanism,
    oh_range_answers,
    oh_range_query,
    optimal_budget_split,
    ordered_mechanism,
)
from .policy import (
    ConstraintKind,
    ConstraintSet,
    CountQuery,
    GraphKind,
    Policy,
    SecretGraph,
    check_parallel_decomposition,
    enumerate_databases,
    load_policy,
)
from .sensitivity import (
    ClusterSizeQuery,
    ClusterSumQuery,
    CumulativeQuery,
    Exactness,
    HistogramQuery,
    LinearSumQuery,
    Method,
    PartitionHistogramQuery,
    PolicyGraph,
    SensitivityResult,
    alpha_xi,
    brute_force_sensitivity,
    build_policy_graph,
    closed_form_sensitivity,
    is_sparse,
    policy_sensitivity,
    sparse_constraint_sensitivity,
    specialized_constraint_sensitivity,
)
from .experiments import (
    ExperimentReport,
    Workload,
    random_range_workload,
    run_experiment,
    synth_clusters,
    synth_histogram,
)
