"""Knowledge mining over almost-similar numeric data.

Pre-process: per-attribute intuitionistic fuzzy proximity relations, cut at
a threshold pair (alpha, beta) and transitively closed into partitions that
drive rough approximations and an ordered, weighted ranking of the universe.
Post-process: formal concept analysis of each rank cluster, yielding concept
lattices, a canonical implication basis and the chief attributes behind each
cluster.
"""

from types import ModuleType as _ModuleType

from .approx import (
    CutParams,
    RoughApproximation,
    SimilarityGraph,
    cut_graph,
    lower_approx,
    partition_from_cut,
    partition_from_json,
    partition_to_json,
    partitions_from_json,
    rough_approximation,
    upper_approx,
)
from .fca import (
    Concept,
    FormalContext,
    FrequencyTable,
    Implication,
    build_context,
    canonical_basis,
    chief_attributes,
    enumerate_concepts,
    implication_frequencies,
    lattice_cover,
)
from .ordering import (
    LabelLadder,
    OrderedTable,
    RankCluster,
    RankTable,
    build_ordered_table,
    categorize_partition,
    cluster_by_rank,
    default_ladder,
    score_and_rank,
)
from .pipeline import (
    CutSearchResult,
    PipelineConfig,
    PipelineReport,
    StageError,
    emit_reports,
    run_pipeline,
    search_alpha_beta,
)
from .proximity import (
    IFProximityRelation,
    build_proximity,
    membership_degree,
    nonmembership_degree,
    validate_proximity,
)
from .table import AttributeSpec, InformationTable, Partition, TableError, load_table

__version__ = "0.1.0"

# the imported names only: importing them also binds the submodules here
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
