"""Sketching substrate: k-mers, hash families, minimizers, MinHash, JEM."""

from .._lazy import lazy_exports

# bound now, not on first access: the submodule of the same name, which
# ``jem`` imports, would otherwise shadow the function
from .minimizers import minimizers

#: Public name -> submodule that defines it, imported on first access (PEP 562):
#: the mapping path runs the JEM sketch and must not load MinHash or the
#: sketch-batching helpers it never calls.
_EXPORTS = {
    "HashFamily": ".hashing",
    "is_prime_u64": ".hashing",
    "QuerySketches": ".jem",
    "jem_sketch_single": ".jem",
    "pack_key": ".jem",
    "unpack_keys": ".jem",
    "query_kernel": ".jem",
    "query_kernel_reference": ".jem",
    "query_sketch_values": ".jem",
    "subject_kernel": ".jem",
    "subject_kernel_reference": ".jem",
    "subject_sketch_pairs": ".jem",
    "MAX_BATCH_ELEMS": ".kernels",
    "key_scratch": ".kernels",
    "pack_keys_batched": ".kernels",
    "sorted_unique_rows": ".kernels",
    "trial_chunks": ".kernels",
    "MAX_K": ".kmers",
    "kmer_ranks": ".kmers",
    "canonical_kmer_ranks": ".kmers",
    "valid_kmer_mask": ".kmers",
    "rank_to_string": ".kmers",
    "string_to_rank": ".kmers",
    "revcomp_rank": ".kmers",
    "minhash_sketch": ".minhash",
    "minhash_sketch_set": ".minhash",
    "jaccard": ".minhash",
    "minhash_jaccard_estimate": ".minhash",
    "MinimizerList": ".minimizers",
    "minimizers": ".minimizers",
    "minimizers_set": ".minimizers",
    "minimizer_density": ".minimizers",
    "sliding_window_min": ".windowmin",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
