"""Data layer: incomplete datasets, normalisation, missingness, generators."""

from . import covid
from .batches import BatchPlan, iterate_batches
from .covid import SPECS, DatasetSpec, GeneratedData, dataset_names, generate
from .dataset import IncompleteDataset, SplitResult
from .io import read_csv, write_csv
from .missingness import HoldoutSplit, ampute, holdout_split
from .normalize import MinMaxNormalizer, Standardizer
from .shards import (
    ShardInfo,
    ShardManifest,
    ShardStore,
    ShardWriter,
    generate_sharded,
    write_dataset_sharded,
)
from .streaming import (
    CsvRowStream,
    ScanResult,
    StreamingReport,
    impute_chunk_indexed,
    impute_csv_streaming,
    reservoir_sample,
    sample_noise_indexed,
    train_scis_from_scan,
)

__all__ = [
    "IncompleteDataset",
    "SplitResult",
    "MinMaxNormalizer",
    "Standardizer",
    "CsvRowStream",
    "ScanResult",
    "reservoir_sample",
    "impute_csv_streaming",
    "impute_chunk_indexed",
    "sample_noise_indexed",
    "train_scis_from_scan",
    "StreamingReport",
    "ShardInfo",
    "ShardManifest",
    "ShardStore",
    "ShardWriter",
    "generate_sharded",
    "write_dataset_sharded",
    "ampute",
    "holdout_split",
    "HoldoutSplit",
    "iterate_batches",
    "BatchPlan",
    "read_csv",
    "write_csv",
    "covid",
    "generate",
    "dataset_names",
    "DatasetSpec",
    "GeneratedData",
    "SPECS",
]
