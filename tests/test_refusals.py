"""Library refusals that no command-line path reaches, each with its exact
message: one row per raise statement."""

import numpy as np
import pytest

from blowfish import (
    ClusteringPolicy,
    ConstraintSet,
    CountQuery,
    KmeansConfig,
    Policy,
    PrivacyParams,
    SecretGraph,
    build_oh_release,
    isotonic_inference,
    kmeans_private,
    load_domain,
    random_range_workload,
    synth_clusters,
)
from blowfish.policy import ConstraintKind, GraphKind
from blowfish.sensitivity import (
    Exactness,
    Method,
    PartitionHistogramQuery,
    SensitivityResult,
    brute_force_sensitivity,
    closed_form_sensitivity,
)

ABC = load_domain({"attributes": [{"name": "A1", "values": ["a1", "a2"]}, {"name": "A2", "values": ["b1", "b2"]},
                                  {"name": "A3", "values": ["c1", "c2", "c3"]}]})
LINE = load_domain({"attributes": [{"name": "v", "values": ["0", "1", "2"]}]})
FREE = Policy(ABC, SecretGraph.full(ABC), ConstraintSet.none())
LINE_FREE = Policy(LINE, SecretGraph.full(LINE), ConstraintSet.none())


class UnknownQuery:
    """A query kind no sensitivity route knows."""


# case: (call, exception type, its exact message)
REFUSALS = {
    "workload-size-0": (lambda: random_range_workload(0, 5, seed=1), ValueError, "domain_size must be >= 1"),
    "clusters-n-0": (lambda: synth_clusters(0, 2, 2, 0.1, seed=0), ValueError, "n, dims and k must be >= 1"),
    "clusters-dims-0": (lambda: synth_clusters(5, 0, 2, 0.1, seed=0), ValueError, "n, dims and k must be >= 1"),
    "clusters-k-0": (lambda: synth_clusters(5, 2, 0, 0.1, seed=0), ValueError, "n, dims and k must be >= 1"),
    "kmeans-init-length": (lambda: KmeansConfig(k=2, init=((0.5, 0.5),)), ValueError,
                           "explicit init must provide k centroids"),
    "kmeans-dimension": (
        lambda: kmeans_private(np.full((4, 2), 0.5), KmeansConfig(k=2), ClusteringPolicy(((0.0, 1.0),) * 3),
                               PrivacyParams(1.0, 0)),
        ValueError, "data dimension does not match policy bounds"),
    "isotonic-empty": (lambda: isotonic_inference([], 0.0), ValueError, "input must be a non-empty 1-D vector"),
    "isotonic-2d": (lambda: isotonic_inference([[1.0, 2.0]], 0.0), ValueError, "input must be a non-empty 1-D vector"),
    "tree-empty-histogram": (lambda: build_oh_release([], 1, 2, 1.0, 0.0, 0), ValueError,
                             "histogram must be non-empty"),
    "tree-eps-h-0": (lambda: build_oh_release(np.ones(8, dtype=np.int64), 2, 2, 1.0, 0.0, 0), ValueError,
                     "eps_h must be positive when the structure has H nodes"),
    "partition-cells-length": (lambda: SecretGraph(ABC, GraphKind.PARTITION, cells=[0] * 5), ValueError,
                               "partition graph needs one cell id per domain rank"),
    "explicit-no-edges": (lambda: SecretGraph(ABC, GraphKind.EXPLICIT), ValueError, "explicit graph needs an edge set"),
    "queries-not-general": (lambda: ConstraintSet(ConstraintKind.NONE, (CountQuery((None, None, None)),)), ValueError,
                            "only general constraint sets carry queries"),
    "graph-other-domain": (lambda: Policy(ABC, SecretGraph.full(LINE), ConstraintSet.none()), ValueError,
                           "secret graph is defined over a different domain"),
    "negative-sensitivity": (lambda: SensitivityResult(-1.0, Exactness.EXACT, Method.CLOSED_FORM), ValueError,
                             "sensitivity must be non-negative"),
    "closed-partition-cells-length": (lambda: closed_form_sensitivity(PartitionHistogramQuery((0, 1)), FREE),
                                      ValueError, "partition query needs one cell id per rank"),
    "closed-unknown-query": (lambda: closed_form_sensitivity(UnknownQuery(), FREE), TypeError,
                             "unknown query kind UnknownQuery"),
    "oracle-unknown-query": (lambda: brute_force_sensitivity(UnknownQuery(), LINE_FREE, 1), TypeError,
                             "unknown query kind UnknownQuery"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_library_refuses_with_its_message(case):
    call, exc_type, message = REFUSALS[case]
    with pytest.raises(exc_type) as exc:
        call()
    assert type(exc.value) is exc_type and str(exc.value) == message
