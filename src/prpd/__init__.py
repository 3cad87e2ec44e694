"""Exactly-verifiable pseudorandom pseudodistributions for read-once branching programs."""

from .errors import CapacityError, ContractError, InputError, PrpdError
from .robp import (Mat, Robp, exact_average, identity, inf_norm, mat_add, mat_mul, mat_pow,
                   mat_scale, mat_sub, max_norm, random_robp, serialize_robp, signed_walk_sum)
from .pdist import (PseudoDist, RobustPrpd, matrix_form, robust_form, to_pseudodist,
                    uniform_prpd)
from .sampler import (Certificate, Sampler, TvProfile, certify, enumeration_sampler,
                      expander_walk_sampler, require_certified, tv_profile)
from .recursion import (LedgerNode, LedgerReport, RecursionParams, SeedLedger, MODE_EXACT,
                        build_ck, ledger_check, ledger_from_dict, ledger_to_dict, merge_terms,
                        measure_robust_error, recursive_prpd, telescoping_error_bound,
                        telescoping_product, inductive_seed_bounds)
from .saks_zhou import (SzSchedule, armoni_pow, grid_bits, robp_from_matrix,
                        snap_collision_bound, snap_collision_rate, snap_matrix, snap_value,
                        sz_error_bound, sz_power)

__version__ = "0.1.0"
