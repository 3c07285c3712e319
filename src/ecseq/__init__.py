"""ecseq: spread bit sequences, forbidden-substring families, and avoidance
constructions, with exact-probability certificates throughout."""

from .core import (CertificateError, ExactProb, FiniteDistribution, RandomSource,
                   floor_root, pow2_floor, read_bit_file, write_bit_file)
from .spreader import (Allocation, CoverageError, InconsistentWindowError,
                       WeightSeries, boosted_count, choose_start_level, geometric,
                       inverse_triangular, plan_allocation, recover_prefix,
                       spread_random, start_level_certificate, weight_preset,
                       zero_series)
from .forbidden import (AveragedBoundError, ImplicitLevel, LevelFamily, count_simple,
                        derandomize_family, family_avoid_probability, interval_schedule,
                        miss_probability_random_set, random_level_family, recertify_family,
                        recertify_schedule, sample_uniform_set, two_level_family)
from .adversary import (PositionalFamily, avoid_probability,
                        positional_family_search, truncated_search)
from .avoider import AvoidanceInstance, AvoidanceResult, build_avoiding_string
from .proxy import ComplexityProfile, compress_bits, compress_size, window_profile

__version__ = "0.1.0"
