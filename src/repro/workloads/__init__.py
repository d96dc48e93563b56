"""Benchmark workloads: mdtest (IO500 easy/hard), fio-style sequential
bandwidth, a ustar tar archiver over the VFS API, and the synthetic
MS-COCO-like dataset for the Table II archiving scenarios."""

from .checkpoint import CheckpointResult, checkpoint_restart
from .dataset import ImageSpec, SyntheticDataset, mscoco_like
from .fio import FioResult, fio_seq
from .mdtest import HARD_FILE_SIZE, MdtestResult, mdtest_easy, mdtest_hard
from .pftool import (
    CHUNK_SIZE,
    PFToolStats,
    parallel_compare,
    parallel_copy,
    parallel_list,
)
from .runner import WorkloadRunner, run_phase
from .tarball import (
    BLOCK,
    TarReader,
    TarWriter,
    archive_from_disk,
    archive_to_disk,
    extract_in_fs,
    make_header,
    parse_header,
)

__all__ = [
    "BLOCK",
    "CheckpointResult",
    "FioResult",
    "HARD_FILE_SIZE",
    "ImageSpec",
    "MdtestResult",
    "PFToolStats",
    "SyntheticDataset",
    "TarReader",
    "TarWriter",
    "WorkloadRunner",
    "archive_from_disk",
    "archive_to_disk",
    "checkpoint_restart",
    "extract_in_fs",
    "fio_seq",
    "make_header",
    "mdtest_easy",
    "mdtest_hard",
    "mscoco_like",
    "parallel_compare",
    "parallel_copy",
    "parallel_list",
    "parse_header",
    "run_phase",
]
