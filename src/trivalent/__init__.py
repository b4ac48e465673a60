"""Weight systems on trivalent diagrams.

Diagrams with labeled legs, exact-rational / complex structure tensors of
metric Lie algebras, tensor-network evaluation of the associated
partition functions, and the relation checks (antisymmetry, three-term,
signed permutation sums, connection-matrix ranks) that characterize which
weight systems arise this way.
"""

from .algebras import (
    COMPLEX,
    RATIONAL,
    TOL,
    StructureTensor,
    abelian,
    antisymmetry_check,
    cyclic_check,
    direct_sum,
    gl_n_trace,
    jacobi_check,
    random_structure_tensor,
    scale_tensor,
    sl2_killing,
    sl_n_trace,
    so3_eps,
    so_n_rational,
    tensor_from_json_dict,
    tensor_to_json_dict,
)
from .diagrams import (
    DiagramCorpus,
    FixedDiagram,
    are_isomorphic,
    as_element,
    canonical_form,
    components,
    disjoint_union,
    edge_connected_sum,
    empty_diagram,
    flip_vertex,
    from_json_dict,
    glue,
    identity_pairing,
    ihx_element,
    is_three_graph,
    k4,
    permutation_diagram,
    theta,
    to_json_dict,
    tri_star,
    tripod,
    validate,
    vertexless_loop,
)
from .enumeration import enumerate_fixed_diagrams, random_diagram_corpus
from .evaluation import (
    DenseTensor,
    TableBacked,
    TensorBacked,
    brute_force_oracle,
    evaluate,
    open_brute_force,
    open_partition_function,
    pairing_identity_check,
    partition_function,
)
from .relations import (
    ConnectionMatrix,
    NormalizedWeightSystem,
    as_residual,
    connected_sum_multiplicativity_check,
    connection_matrix,
    delta_check,
    delta_sum,
    direct_sum_additivity_check,
    ihx_residual,
    normalized,
    rank,
)

__version__ = "0.1.0"
