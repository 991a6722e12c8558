"""Exact finite Markov kernels over commutative semirings.

Distributions, kernels, conditioning and Bayesian inversion with
semiring-valued weights; comparison of statistical experiments by garbling
synthesis and by mass transport between standard measures, both backed by
exact rational linear feasibility.
"""

from .blackwell import (BssReport, Dilation, MetaDist, barycenter, bss_check,
                        derive_partial_evaluation, dilation_system,
                        dilation_to_garbling, find_dilation,
                        garbling_to_dilation, is_dilation, meta_of_state,
                        recovery_map, standard_experiment, standard_measure,
                        transport, verify_samp_is_bayesian_inverse)
from .comparison import (CondIndepWitness, conditional_independence_witness,
                         find_garbling, find_garbling_as, find_garbling_bayes,
                         garbling_system, sufficiency_witness, uniform_prior,
                         verify_conditional_independence, verify_sufficiency)
from .conditioning import (Point, ase, bayesian_inverse, conditional, dominates,
                           doubling, is_deterministic_given, partial_adjunct,
                           point_dist, point_of, samp_on, sharp)
from .errors import (CapabilityError, DistributionError, LoadError, ShapeError,
                     WitnessError)
from .feasibility import LinearSystem, find_feasible, verify
from .findist import (FinDist, FiniteSet, dirac, flatten, marginal, product,
                      product_set, pushforward, split_set, uniform, unit_set)
from .kernel import (Kernel, compose, copy, discard, from_function, identity,
                     is_deterministic, marginalize, state, state_dist,
                     state_is_dirac, swap, tensor)
from .semiring import (PAIR_RATIONAL, RATIONAL, TRI_EPS, TRI_ONE, TRI_ZERO,
                       TRILATTICE, PairSemiring, RationalSemiring, Semiring,
                       Tri, TrilatticeSemiring, semiring_by_name)
from .serialize import (ExperimentFile, bss_report_to_json, decimal_str,
                        dilation_to_json, dist_from_json, dist_to_json,
                        kernel_from_json, kernel_to_json, load_experiment,
                        metadist_to_json, point_to_json)

__version__ = "0.1.0"
