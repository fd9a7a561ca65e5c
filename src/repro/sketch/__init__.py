"""Sketching substrate: k-mers, hash families, minimizers, MinHash, JEM."""

from .hashing import HashFamily, is_prime_u64
from .jem import (
    QuerySketches,
    jem_sketch_single,
    pack_key,
    query_kernel,
    query_kernel_reference,
    query_sketch_values,
    subject_kernel,
    subject_kernel_reference,
    subject_sketch_pairs,
    unpack_keys,
)
from .kernels import (
    MAX_BATCH_ELEMS,
    key_scratch,
    pack_keys_batched,
    sorted_unique_rows,
    trial_chunks,
)
from .kmers import (
    MAX_K,
    canonical_kmer_ranks,
    kmer_ranks,
    rank_to_string,
    revcomp_rank,
    string_to_rank,
    valid_kmer_mask,
)
from .minhash import jaccard, minhash_jaccard_estimate, minhash_sketch, minhash_sketch_set
from .minimizers import MinimizerList, minimizer_density, minimizers, minimizers_set
from .windowmin import sliding_window_min

__all__ = [
    "HashFamily",
    "is_prime_u64",
    "QuerySketches",
    "jem_sketch_single",
    "pack_key",
    "unpack_keys",
    "query_kernel",
    "query_kernel_reference",
    "query_sketch_values",
    "subject_kernel",
    "subject_kernel_reference",
    "subject_sketch_pairs",
    "MAX_BATCH_ELEMS",
    "key_scratch",
    "pack_keys_batched",
    "sorted_unique_rows",
    "trial_chunks",
    "MAX_K",
    "kmer_ranks",
    "canonical_kmer_ranks",
    "valid_kmer_mask",
    "rank_to_string",
    "string_to_rank",
    "revcomp_rank",
    "minhash_sketch",
    "minhash_sketch_set",
    "jaccard",
    "minhash_jaccard_estimate",
    "MinimizerList",
    "minimizers",
    "minimizers_set",
    "minimizer_density",
    "sliding_window_min",
]
