"""repro — JEM-mapper: parallel sketch-based mapping of long reads to contigs.

Reproduction of Rahman, Bhowmik & Kalyanaraman, *An Efficient Parallel
Sketch-based Algorithm for Mapping Long Reads to Contigs*, IPDPSW 2023.

Quickstart::

    from repro import JEMConfig, JEMMapper
    mapper = JEMMapper(JEMConfig())
    mapper.index(contigs)                # contigs: SequenceSet
    result = mapper.map_reads(long_reads)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: Public name -> subpackage that defines it, imported on first access
#: (PEP 562): ``python -m repro.cli index`` runs this file and must not pay
#: for ``repro.service`` (threads, sockets) or the packages it never calls.
_EXPORTS = {
    "JEMConfig": ".core",
    "JEMMapper": ".core",
    "MappingResult": ".core",
    "MappingEngine": ".core",
    "PipelineConfig": ".core",
    "ColumnarSketchStore": ".core",
    "DictSketchStore": ".core",
    "save_index": ".core",
    "load_index": ".core",
    "ReproError": ".errors",
    "SeqRecord": ".seq",
    "SequenceSet": ".seq",
    "read_fasta": ".seq",
    "read_fastq": ".seq",
    "write_fasta": ".seq",
    "write_fastq": ".seq",
    "MappingService": ".service",
    "ServiceConfig": ".service",
    "HashFamily": ".sketch",
    "MinimizerList": ".sketch",
    "minimizers": ".sketch",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
