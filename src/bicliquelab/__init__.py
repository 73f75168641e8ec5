"""bicliquelab: exact verification workbench for biclique partitions,
t-covers, and clique-vs-independent-set reductions.

The package constructs an explicit graph family whose chromatic number
outgrows its biclique partition number, and mechanically checks, at desk
scale, every finite construction and inequality that claim rests on:
the 30-subcube decomposition driving the construction, the explicit
partition itself, t-covers of OR powers, the exact rational counting bound
for t-covers of complete graphs, and both reductions to the
clique-vs-independent-set communication problem.
"""

from .cube import (
    CubePoint,
    CubeSet,
    Subcube,
    admissible_set,
    decompose_admissible_set,
    edge_triple_subcubes,
    three_cube_nonconstant,
    verify_subcube_partition,
)
from .errors import FormatError, ResourceLimitError, WellDefinednessError
from .graphs import (
    Biclique,
    BicliqueSystem,
    Certificate,
    Graph,
    blowup,
    or_product,
    star_partition,
    verify_biclique_system,
)
from .gridgraph import (
    GridGraphSpec,
    GridPoint,
    ReducedPiece,
    grid_graph,
    grid_graph_partition,
    grid_graph_piece,
    power_graph_cover,
    project,
    projection_dichotomy,
    reduced_graph,
)
from .oracles import (
    BoolMatrix,
    chromatic_number,
    independence_at_most,
    independence_number,
    min_biclique_partition,
    min_rectangle_cover,
)
from .algebra import (
    peck_bound,
    rank_certificate,
    split_intersection,
    verify_cover_identity,
)
from .clis import (
    CharVector,
    ClisInstance,
    Transcript,
    all_cliques,
    all_independent_sets,
    biclique_graph,
    build_pair_graph,
    canonical_instance,
    characteristic_vectors,
    chi_lower_bound_check,
    full_instance,
    yannakakis_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "Biclique",
    "BicliqueSystem",
    "BoolMatrix",
    "Certificate",
    "CharVector",
    "ClisInstance",
    "CubePoint",
    "CubeSet",
    "FormatError",
    "Graph",
    "GridGraphSpec",
    "GridPoint",
    "ReducedPiece",
    "ResourceLimitError",
    "Subcube",
    "Transcript",
    "WellDefinednessError",
    "admissible_set",
    "all_cliques",
    "all_independent_sets",
    "biclique_graph",
    "blowup",
    "build_pair_graph",
    "canonical_instance",
    "characteristic_vectors",
    "chi_lower_bound_check",
    "chromatic_number",
    "decompose_admissible_set",
    "edge_triple_subcubes",
    "full_instance",
    "grid_graph",
    "grid_graph_partition",
    "grid_graph_piece",
    "independence_at_most",
    "independence_number",
    "min_biclique_partition",
    "min_rectangle_cover",
    "or_product",
    "peck_bound",
    "power_graph_cover",
    "project",
    "projection_dichotomy",
    "rank_certificate",
    "reduced_graph",
    "split_intersection",
    "star_partition",
    "three_cube_nonconstant",
    "verify_biclique_system",
    "verify_cover_identity",
    "verify_subcube_partition",
    "yannakakis_protocol",
]
