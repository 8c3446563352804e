"""nnlab: nearest-neighbor graphs on finite lattices, with exact verifiers.

Build weight fields on boxes and tori, realize out-degree-one digraphs as
nearest-neighbor graphs, generate the stationary constructions with one, two
or k unbounded components, analyze d=2 planar structure, and run reproducible
Monte Carlo censuses over all of it.
"""

from .errors import (
    ConstructionError,
    DomainError,
    NNLabError,
    SpecError,
    StructureError,
    UnsupportedDimensionError,
)
from .lattice import (
    Box,
    Torus,
    canonical_edge,
    neighbors,
    star_neighbors,
)
from .nngraph import (
    ComponentLabeling,
    ExitedDomain,
    OutMap,
    PathTrace,
    TwoCycle,
    backward_sizes,
    build_nn_directed,
    forward_path,
    undirected_components,
    verify_all_components,
)
from .rng import SeededRng
from .weights import (
    WeightField,
    construct_weights,
    round_trip_matches,
    sample_iid_uniform,
    verify_theorem3_preconditions,
)
from .generators import (
    GeneratorSpec,
    gen_dyadic_i,
    gen_dyadic_k,
    gen_dyadic_window,
    gen_finite_k,
    gen_layered,
    gen_zerner_merkl,
    modify_type_c,
)
from .topology import (
    classify_regions,
    closure,
    dual_boundary,
    star_boundary_path,
)
from .stats import (
    CensusRecord,
    RDescendant,
    TwoCycleEndpoint,
    backward_tail,
    component_census,
    connection_probability_curve,
    transport_balance,
)

__version__ = "0.1.0"
