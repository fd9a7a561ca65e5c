"""JEM-mapper core: configuration, segments, sketch stores, engine, mapper."""

from .config import JEMConfig
from .engine import (
    EngineRun,
    Mapper,
    MappingEngine,
    PipelineConfig,
    build_mapper,
    read_sequences,
    register_mapper,
)
from .hitcounter import (
    BestHits,
    count_hits_fused,
    count_hits_lazy,
    count_hits_vectorised,
)
from .lsm import IndexGeneration, MutableSketchStore, store_stats
from .mapper import JEMMapper, MappingResult, map_segment_batch
from .paf import paf_records, write_paf
from .persist import load_index, save_index
from .segments import PREFIX, SUFFIX, SegmentInfo, extract_end_segments
from .store import (
    DEFAULT_STORE_KIND,
    STORE_KINDS,
    ColumnarSketchStore,
    DictSketchStore,
    SketchStore,
    TrialHits,
    build_store,
    merge_trial_keys,
)
from .streaming import map_file, map_reads_stream
from .tiling import TileInfo, extract_tiled_segments, map_reads_tiled
from .topx import TopHits, count_hits_topx

__all__ = [
    "JEMConfig",
    "JEMMapper",
    "map_segment_batch",
    "MappingResult",
    "MappingEngine",
    "PipelineConfig",
    "EngineRun",
    "Mapper",
    "build_mapper",
    "register_mapper",
    "read_sequences",
    "SketchStore",
    "ColumnarSketchStore",
    "DictSketchStore",
    "build_store",
    "merge_trial_keys",
    "STORE_KINDS",
    "DEFAULT_STORE_KIND",
    "BestHits",
    "count_hits_fused",
    "count_hits_lazy",
    "count_hits_vectorised",
    "TopHits",
    "count_hits_topx",
    "save_index",
    "load_index",
    "IndexGeneration",
    "MutableSketchStore",
    "store_stats",
    "paf_records",
    "write_paf",
    "map_file",
    "map_reads_stream",
    "TileInfo",
    "extract_tiled_segments",
    "map_reads_tiled",
    "PREFIX",
    "SUFFIX",
    "SegmentInfo",
    "extract_end_segments",
    "TrialHits",
]
