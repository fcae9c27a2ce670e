"""Binary graph models of 2x...x2 contingency tables.

Marginal maps and their fibers, Markov-width classification, an explicit
degree-4 move connector for graphs without a K4 minor, triangulation
certificates for complete-graph lower bounds, and a fiber random-walk
sampler.
"""

from .errors import (GroundSetMismatch, InvalidTriangulation,
                     InvariantViolation, MarkovAtlasError, NoSuchPoles,
                     NotK4MinorFree, NotKernelMove, NotSeriesParallel,
                     NotTwoFaceColorable, ParseError, ProjectionMismatch,
                     ResourceLimitError)
from .graphs import (Graph, blocks, bridges, complete_graph, cut_vertices,
                     cycle_graph, find_parallel3_poles, is_k4_minor_free,
                     parse_graph, sp_decompose)
from .lattice import (MarginalSet, Move, TableVector, format_vector,
                      graph_marginals, parse_vector, project,
                      vector_from_json, vector_to_json)
from .limits import Limits, default_limits
from .fiber import (Fiber, extract_moves, fiber_components, fiber_of,
                    min_connecting_degree, search_width)
from .connector import (MoveSequence, connect_graph, connect_two_terminal,
                        glue_cutchange, glue_cutsame, glue_swaps,
                        verify_sequence)
from .triangulation import (Triangulation, certify_lower_bound, double_wheel,
                            is_clean, load_triangulation, red_blue_vectors,
                            two_face_coloring)
from .sampler import WalkConfig, WalkResult, random_walk, walk_states
from .width import classify_width, find_k4_minor, kn_lower_bound_report

__version__ = "1.0.0"
