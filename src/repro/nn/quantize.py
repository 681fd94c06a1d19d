"""Serving-time bucket quantization: fp16 / per-row-scale int8 entity weights.

Training and checkpointing always run in float64; quantization is a pure
artifact-level transform applied *beside* the exact bucket files:

* ``fp16`` writes ``entities.bucket<k>.f16.npy`` — the slab cast to float16,
  faulted in as-is (¼ of the float64 resident bytes);
* ``int8`` writes ``entities.bucket<k>.i8.npy`` plus a per-row float32 scale
  file ``entities.bucket<k>.i8.scale.npy`` — codes are ``round(row / scale)``
  with ``scale = max(|row|) / 127``, dequantized to a float32 slab on fault
  (½ of the float64 resident bytes, ⅛ on disk).

The exact float64 bucket files stay next to the quantized ones, so a
quantized serving table can still answer
:meth:`~repro.nn.partitioned.PartitionedEmbedding.exact_rows` queries — the
two-phase serving path ranks coarsely on quantized slabs, then rescores the
short candidate list at full precision so reported ranks are unchanged.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

import numpy as np

#: Supported quantization modes.
QUANT_MODES = ("fp16", "int8")

#: int8 code range is symmetric: ``[-127, 127]`` (−128 is never emitted, so
#: dequantization is exactly ``code * scale`` with no zero-point).
INT8_LEVELS = 127


def check_mode(mode: str) -> str:
    """Validate and normalise a quantization mode name."""
    if mode not in QUANT_MODES:
        raise ValueError(
            f"unknown quantization mode {mode!r}; expected one of {QUANT_MODES}"
        )
    return mode


def compression_factor(mode: str) -> int:
    """Resident-slab compression vs. float64 (drives ``max_resident`` scaling).

    A quantized bucket costs this many times fewer resident bytes than its
    float64 original, so a serving table can keep ``factor×`` more buckets
    resident inside the same memory budget.
    """
    check_mode(mode)
    return 4 if mode == "fp16" else 2


def fp16_filename(bucket: int) -> str:
    """On-disk name of the float16 slab for ``bucket``."""
    return f"entities.bucket{int(bucket)}.f16.npy"


def int8_filename(bucket: int) -> str:
    """On-disk name of the int8 code slab for ``bucket``."""
    return f"entities.bucket{int(bucket)}.i8.npy"


def int8_scale_filename(bucket: int) -> str:
    """On-disk name of the per-row float32 scales for ``bucket``."""
    return f"entities.bucket{int(bucket)}.i8.scale.npy"


def quantized_filenames(bucket: int, mode: str) -> List[str]:
    """The file(s) a quantized bucket is stored as."""
    check_mode(mode)
    if mode == "fp16":
        return [fp16_filename(bucket)]
    return [int8_filename(bucket), int8_scale_filename(bucket)]


def quantize_int8(slab: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row symmetric int8 quantization: ``(codes, scales)``.

    ``scales`` is float32 with ``scale = max(|row|) / 127`` (all-zero rows get
    scale 1.0 so dequantization is well-defined); ``codes`` is
    ``round(row / scale)`` clipped to ``[-127, 127]``.  The worst-case
    per-element reconstruction error is ``scale / 2``.
    """
    slab = np.asarray(slab)
    scales = (np.abs(slab).max(axis=1) / INT8_LEVELS).astype(np.float32)
    scales[scales == 0.0] = 1.0
    codes = np.rint(slab / scales[:, None])
    np.clip(codes, -INT8_LEVELS, INT8_LEVELS, out=codes)
    return codes.astype(np.int8), scales


def dequantize_int8(codes: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Reconstruct the float32 slab from int8 codes and per-row scales."""
    return codes.astype(np.float32) * scales[:, None]


def write_quantized_bucket(directory: str, bucket: int, slab: np.ndarray,
                           mode: str) -> List[str]:
    """Write ``slab`` quantized as ``mode`` into ``directory``.

    Returns the filenames written (relative to ``directory``).
    """
    names = quantized_filenames(bucket, mode)
    if mode == "fp16":
        np.save(os.path.join(directory, names[0]),
                np.asarray(slab).astype(np.float16))
    else:
        codes, scales = quantize_int8(slab)
        np.save(os.path.join(directory, names[0]), codes)
        np.save(os.path.join(directory, names[1]), scales)
    return names


def load_quantized_bucket(directory: str, bucket: int,
                          mode: str) -> Tuple[np.ndarray, int]:
    """Load a quantized bucket slab: ``(slab, bytes_read_from_disk)``.

    ``fp16`` slabs stay float16 in memory; ``int8`` codes are dequantized to a
    float32 slab (the codes + scales themselves are what crossed the disk).
    """
    check_mode(mode)
    if mode == "fp16":
        slab = np.load(os.path.join(directory, fp16_filename(bucket)))
        return slab, slab.nbytes
    codes = np.load(os.path.join(directory, int8_filename(bucket)))
    scales = np.load(os.path.join(directory, int8_scale_filename(bucket)))
    return dequantize_int8(codes, scales), codes.nbytes + scales.nbytes


def quantize_weight_files(weights_dir: str, mode: str) -> Dict[str, object]:
    """Quantize an existing partitioned ``weights/`` directory in place.

    Reads each ``entities.bucket<k>.npy`` (one at a time — the full table
    never enters memory), writes its quantized twin(s) beside it, and records
    a ``"quantized"`` entry in ``partition.json``; every later load of the
    directory serves the twins.  The float64 originals are kept:
    exact-rescore serving reads them row-wise.  Returns the manifest entry
    written.
    """
    from repro.nn.partitioned import PARTITION_MANIFEST

    check_mode(mode)
    manifest_path = os.path.join(weights_dir, PARTITION_MANIFEST)
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(
            f"no {PARTITION_MANIFEST} in {weights_dir}; quantization applies "
            "to partitioned weight directories only"
        )
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    buckets = []
    for k, entry in enumerate(manifest["buckets"]):
        slab = np.load(os.path.join(weights_dir, entry["file"]))
        buckets.append({"files": write_quantized_bucket(weights_dir, k, slab, mode)})
    quantized: Dict[str, object] = {"mode": mode, "buckets": buckets}
    manifest["quantized"] = quantized
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return quantized
