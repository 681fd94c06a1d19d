"""ANN-indexed serving: IVF indexes over an entity table, with exact rescoring.

Seeded k-means clustering of each of the table's row ranges at export time
(:func:`build_index_files`), versioned ``index/`` artifact files, and an
:class:`IVFIndex` query path that probes ``nprobe`` clusters and rescores
candidates exactly from float64 posting lists, one positional read per probed
cluster.  See :mod:`repro.ann.ivf` for the layout and guarantees.
"""

from repro.ann.kmeans import default_n_clusters, kmeans
from repro.ann.ivf import (
    ARTIFACT_INDEX,
    INDEX_MANIFEST,
    INDEX_MANIFEST_VERSION,
    IVFIndex,
    assign_filename,
    build_index_files,
    centroids_filename,
    get_index_class,
    index_kinds,
    lists_filename,
    load_index,
    register_index,
)

__all__ = [
    "ARTIFACT_INDEX",
    "INDEX_MANIFEST",
    "INDEX_MANIFEST_VERSION",
    "IVFIndex",
    "assign_filename",
    "build_index_files",
    "centroids_filename",
    "default_n_clusters",
    "get_index_class",
    "index_kinds",
    "kmeans",
    "lists_filename",
    "load_index",
    "register_index",
]
