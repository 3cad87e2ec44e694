"""Exactly-verifiable pseudorandom pseudodistributions for read-once branching programs."""

from .errors import (CapacityError, ConstructionError, ContractError, InputError,
                     ParseError, PrpdError)
from .robp import (Mat, Robp, exact_average, identity, identity_robp, inf_norm,
                   mat_add, mat_mul, mat_pow, mat_scale, mat_sub, max_norm, parse_robp,
                   random_robp, rational, serialize_robp, signed_walk_sum, step_matrix,
                   swap_on_one_robp, walk_matrix)
from .pdist import (FormStats, PseudoDist, RobustPrpd, average, concat, dump_pdist,
                    dump_prpd, flatten, form_stats, matrix_form, pdist, realize,
                    robust_form, scale, to_pseudodist, uniform_pdist, uniform_prpd, union)
from .sampler import (Certificate, Sampler, TvProfile, certify, enumeration_sampler,
                      estimate_matrix, estimate_scalar, expander_walk_sampler,
                      left_product_bound, left_product_error, require_certified,
                      right_product_bound, right_product_error, sampled_average,
                      symmetric_product_bound, symmetric_product_error, tv_profile)
from .recursion import (CkBuild, LedgerNode, LedgerReport, RecursionParams, SeedLedger,
                        MODE_CERTIFIED, MODE_EXACT, brute_certified_enumeration_factory,
                        build_ck, ledger_check, ledger_from_dict, ledger_to_dict, merge_terms,
                        measure_average_error, measure_robust_error, recursive_prpd,
                        telescoping_error_bound, telescoping_product,
                        inductive_seed_bounds)
from .saks_zhou import (SzSchedule, armoni_pow, grid_bits, robp_from_matrix,
                        round_to_grid, snap_collision_bound,
                        snap_collision_rate, snap_error_bound, snap_matrix, snap_value,
                        sz_error_bound, sz_failure_bound, sz_power)

__version__ = "0.1.0"
