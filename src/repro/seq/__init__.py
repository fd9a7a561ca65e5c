"""Sequence substrate: alphabet, 2-bit encoding, containers, I/O, statistics."""

from .._lazy import lazy_exports

# bound now, not on first access: the submodule of the same name, which
# ``records`` imports, would otherwise shadow the function
from .encode import encode

#: Public name -> submodule that defines it, imported on first access (PEP 562):
#: ``jem map`` parses FASTA and FASTQ and must not load statistics or
#: bit-packing it never calls.
_EXPORTS = {
    "ALPHABET": ".alphabet",
    "INVALID_CODE": ".alphabet",
    "complement_codes": ".alphabet",
    "encode": ".encode",
    "decode": ".encode",
    "reverse_complement": ".encode",
    "reverse_complement_str": ".encode",
    "random_codes": ".encode",
    "count_invalid": ".encode",
    "SeqRecord": ".records",
    "SequenceSet": ".records",
    "SequenceSetBuilder": ".records",
    "ParseReport": ".io_fasta",
    "read_fasta": ".io_fasta",
    "iter_fasta": ".io_fasta",
    "write_fasta": ".io_fasta",
    "read_fastq": ".io_fastq",
    "iter_fastq": ".io_fastq",
    "write_fastq": ".io_fastq",
    "pack_codes": ".packed",
    "unpack_codes": ".packed",
    "packed_nbytes": ".packed",
    "SetStats": ".stats",
    "set_stats": ".stats",
    "n50": ".stats",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
