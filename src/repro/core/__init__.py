"""JEM-mapper core: configuration, segments, sketch stores, engine, mapper."""

from .._lazy import lazy_exports

#: Public name -> submodule that defines it, imported on first access (PEP 562):
#: ``jem index`` reaches ``repro.core.config`` through this file and must not
#: load the LSM or PAF (``repro.align``) code it never calls.
_EXPORTS = {
    "JEMConfig": ".config",
    "JEMMapper": ".mapper",
    "map_segment_batch": ".mapper",
    "MappingResult": ".mapper",
    "MappingEngine": ".engine",
    "PipelineConfig": ".engine",
    "Mapper": ".engine",
    "build_mapper": ".engine",
    "read_sequences": ".engine",
    "SketchStore": ".store",
    "ColumnarSketchStore": ".store",
    "DictSketchStore": ".store",
    "build_store": ".store",
    "merge_trial_keys": ".store",
    "STORE_KINDS": ".store",
    "DEFAULT_STORE_KIND": ".store",
    "BestHits": ".hitcounter",
    "count_hits_fused": ".hitcounter",
    "count_hits_lazy": ".hitcounter",
    "count_hits_vectorised": ".hitcounter",
    "TopHits": ".topx",
    "count_hits_topx": ".topx",
    "save_index": ".persist",
    "load_index": ".persist",
    "IndexGeneration": ".lsm",
    "MutableSketchStore": ".lsm",
    "store_stats": ".lsm",
    "paf_records": ".paf",
    "write_paf": ".paf",
    "map_file": ".streaming",
    "map_reads_stream": ".streaming",
    "PREFIX": ".segments",
    "SUFFIX": ".segments",
    "SegmentInfo": ".segments",
    "extract_end_segments": ".segments",
    "TrialHits": ".store",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
