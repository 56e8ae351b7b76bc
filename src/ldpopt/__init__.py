"""Optimal mechanisms for local differential privacy on finite alphabets."""

from .core import (AlphabetTooLarge, DimensionMismatch, Distribution, Mechanism,
                   MechanismFormatError, MechanismRecord, NegativeMass,
                   NotNormalizable, effective_epsilon, induced_marginal,
                   is_approx_private, is_locally_private, is_staircase,
                   make_distribution, mechanism_from_dict, mechanism_from_json,
                   mechanism_to_dict, mechanism_to_json, pattern_matrix)
from .utilities import (CHI2, KL, TV, AbsoluteContinuityViolated,
                        ConvexityViolation, FDivergenceKind, UtilitySpec, custom,
                        entropy, f_divergence, hypothesis_testing,
                        information_preservation, mutual_information,
                        column_scores, column_utility, utility)
from .mechanisms import (binary_ht, binary_mi, geometric, ht_partition, mi_partition,
                         quaternary, randomized_response)
from .optsolve import (DegenerateBasis, LPSolution, NumericalBreakdown, StaircaseLP,
                       build_lp, build_lps, extract_mechanism, solve, vertex_oracle)
from .regions import (TradeoffRegion, contains, operational_privacy_check,
                      region_eps_delta, region_from_marginals, tradeoff_region)
from .bounds import (BoundReport, approximation_checks, binary_kl_closed,
                     binary_mi_closed, binary_tv_closed, converse_suite,
                     marginal_ratio_bounds, mi_converse_suite, rr_kl_closed,
                     rr_mi_closed)
from .cli import (ExponentReport, SweepConfig, SweepRow, run_exponent_sim,
                  run_sweep, sweep_csv, sweep_summary)

__version__ = "0.1.0"
