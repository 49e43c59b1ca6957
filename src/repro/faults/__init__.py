"""Bitstream fault injection: fault lists, models, injection and campaigns."""

from . import categories
from .cache import (CampaignCache, CampaignCacheEntry, cache_stats,
                    clear_cache, get_cache, implementation_fingerprint)
from .campaign import (CampaignConfig, CampaignResult, CategoryCount,
                       default_stimulus, run_campaign)
from .engine import (BACKEND_CHOICES, BACKENDS, CampaignContext,
                     CampaignWorkerError, ExecutionBackend, Injections,
                     NumpyBackend, ProgressCallback, SerialBackend,
                     ShardedBackend, VectorBackend, VerdictColumns,
                     resolve_backend)
from .fault_list import FAULT_LIST_MODES, FaultList, FaultListManager
from .injector import FaultRecords, FaultResult
from .models import EffectColumns, FaultEffect, FaultModeler
from .report import format_table, table3_report, table4_report
from .seeds import derive_seed, split_shards, substream
from .upsets import (UPSET_MODEL_CHOICES, UPSET_MODELS, AccumulatedUpset,
                     MultiBitUpset, SingleUpset, UpsetModel, merged_effect,
                     resolve_upset_model)

__all__ = [
    "categories", "CampaignConfig", "CampaignResult", "CategoryCount",
    "default_stimulus", "run_campaign", "FAULT_LIST_MODES",
    "FaultList", "FaultListManager", "FaultResult",
    "FaultRecords", "EffectColumns", "FaultEffect", "FaultModeler",
    "format_table",
    "table3_report", "table4_report",
    # execution engine
    "BACKEND_CHOICES", "BACKENDS", "CampaignContext", "CampaignWorkerError",
    "ExecutionBackend", "Injections", "NumpyBackend", "ProgressCallback",
    "SerialBackend", "ShardedBackend", "VectorBackend", "VerdictColumns",
    "derive_seed", "resolve_backend", "split_shards", "substream",
    # cache layer
    "CampaignCache", "CampaignCacheEntry", "cache_stats", "clear_cache",
    "get_cache", "implementation_fingerprint",
    # upset-model axis
    "UPSET_MODEL_CHOICES", "UPSET_MODELS", "AccumulatedUpset",
    "MultiBitUpset", "SingleUpset", "UpsetModel", "merged_effect",
    "resolve_upset_model",
]
