"""JEM-mapper core: configuration, segments, sketch stores, engine, mapper."""

from importlib import import_module

#: Public name -> submodule that defines it, imported on first access (PEP 562):
#: ``jem index`` reaches ``repro.core.config`` through this file and must not
#: load the LSM, PAF (``repro.align``) or tiling code it never calls.
_EXPORTS = {
    "JEMConfig": ".config",
    "JEMMapper": ".mapper",
    "map_segment_batch": ".mapper",
    "MappingResult": ".mapper",
    "MappingEngine": ".engine",
    "PipelineConfig": ".engine",
    "EngineRun": ".engine",
    "Mapper": ".engine",
    "build_mapper": ".engine",
    "register_mapper": ".engine",
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
    "TileInfo": ".tiling",
    "extract_tiled_segments": ".tiling",
    "map_reads_tiled": ".tiling",
    "PREFIX": ".segments",
    "SUFFIX": ".segments",
    "SegmentInfo": ".segments",
    "extract_end_segments": ".segments",
    "TrialHits": ".store",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_EXPORTS[name], __name__), name)
    globals()[name] = value  # later lookups find it without coming here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
